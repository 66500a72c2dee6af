#include "store/model_store.hpp"

#include <gtest/gtest.h>

#include "store/model_cache.hpp"

namespace asyncml::store {
namespace {

linalg::DenseVector make_model(std::size_t dim, double fill) {
  return linalg::DenseVector(dim, fill);
}

TEST(ModelStore, FirstPublishIsBaseWithExactWireSize) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  store.publish(make_model(32, 1.0), 0);

  const auto entry = store.entry_of(0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, EntryKind::kBase);
  EXPECT_FALSE(entry->has_delta());  // nothing to diff against
  EXPECT_EQ(entry->base_bytes, 32u * sizeof(double));
  EXPECT_EQ(broadcasts.get(entry->base_id).bytes(), 32u * sizeof(double));
}

TEST(ModelStore, SparseUpdatePublishesDeltaWithExactWireSize) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(64, 1.0);
  store.publish(w, 0);
  w[3] = 2.0;
  w[17] = -1.0;
  w[40] = 0.5;
  store.publish(w, 1);

  const auto entry = store.entry_of(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, EntryKind::kDelta);
  EXPECT_FALSE(entry->has_base());
  EXPECT_EQ(entry->parent, 0u);
  // 8-byte nnz header + 3 x (u32 index, f64 value).
  EXPECT_EQ(entry->delta_bytes, 8u + 3u * 12u);
  EXPECT_EQ(broadcasts.get(entry->delta_id).bytes(), 8u + 3u * 12u);
  EXPECT_EQ(store.stats().deltas_published, 1u);
  EXPECT_EQ(store.stats().bases_published, 1u);
}

TEST(ModelStore, DenseUpdateDensifiesIntoBase) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(64, 1.0);
  store.publish(w, 0);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] += 1.0;  // touches every coord
  store.publish(w, 1);

  const auto entry = store.entry_of(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, EntryKind::kBase);
  EXPECT_FALSE(entry->has_delta());  // densified: the chain breaks here
  EXPECT_EQ(store.stats().bases_published, 2u);
  EXPECT_EQ(store.stats().deltas_published, 0u);
}

TEST(ModelStore, DensifyingPublishKeepsEntryAndStatsShape) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  // dim 31: the default cutoff is 2/3 * 31 = 20.67 changed coordinates.
  linalg::DenseVector w = make_model(31, 1.0);
  store.publish(w, 0);
  w[0] = 2.0;
  store.publish(w, 1);
  for (std::size_t i = 0; i < 20; ++i) w[i] += 1.0;  // at the cutoff: sparse
  store.publish(w, 2);
  for (std::size_t i = 0; i < 21; ++i) w[i] += 1.0;  // past it: densifies
  store.publish(w, 3);
  w[5] = -1.0;
  store.publish(w, 4);

  const auto at_cutoff = store.entry_of(2);
  ASSERT_TRUE(at_cutoff.has_value());
  EXPECT_EQ(at_cutoff->kind, EntryKind::kDelta);
  EXPECT_EQ(at_cutoff->parent, 1u);
  EXPECT_EQ(at_cutoff->delta_bytes, 8u + 20u * 12u);
  EXPECT_EQ(at_cutoff->base_bytes, 0u);

  // A densified entry is a plain base that still names its would-be parent
  // (the disk manifest records it).
  const auto densified = store.entry_of(3);
  ASSERT_TRUE(densified.has_value());
  EXPECT_EQ(densified->kind, EntryKind::kBase);
  EXPECT_EQ(densified->parent, 2u);
  EXPECT_EQ(densified->base_bytes, 31u * sizeof(double));
  EXPECT_EQ(densified->delta_bytes, 0u);
  EXPECT_EQ(densified->delta_id, 0u);
  EXPECT_FALSE(densified->has_delta());

  // The chain restarts on the densified base.
  const auto after = store.entry_of(4);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->kind, EntryKind::kDelta);
  EXPECT_EQ(after->parent, 3u);
  EXPECT_EQ(after->delta_bytes, 8u + 12u);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.bases_published, 2u);
  EXPECT_EQ(stats.deltas_published, 3u);
  EXPECT_EQ(stats.base_bytes_published, 2u * 31u * sizeof(double));
  EXPECT_EQ(stats.delta_bytes_published, 20u + (8u + 20u * 12u) + 20u);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_TRUE(linalg::bitwise_equal(store.driver_cache().value_at(4), w));
}

TEST(ModelStore, BaseIntervalBoundsChainLength) {
  engine::BroadcastStore broadcasts;
  StoreConfig config;
  config.base_interval = 4;
  ModelStore store(&broadcasts, config);

  linalg::DenseVector w = make_model(64, 0.0);
  for (engine::Version v = 0; v < 9; ++v) {
    w[v] = 1.0;  // one-coordinate change per version
    store.publish(w, v);
  }
  // Pattern: base at 0, deltas 1-3, base at 4, deltas 5-7, base at 8.
  for (engine::Version v = 0; v < 9; ++v) {
    const auto entry = store.entry_of(v);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->kind, v % 4 == 0 ? EntryKind::kBase : EntryKind::kDelta)
        << "version " << v;
    // Scheduled bases are dual-published: their sparse delta ships too, so
    // warm workers ride the chain straight through them.
    EXPECT_EQ(entry->has_delta(), v != 0) << "version " << v;
  }
}

TEST(ModelStore, DeltaDisabledPublishesOnlyBases) {
  engine::BroadcastStore broadcasts;
  StoreConfig config;
  config.delta_enabled = false;
  ModelStore store(&broadcasts, config);
  linalg::DenseVector w = make_model(16, 0.0);
  store.publish(w, 0);
  w[1] = 1.0;
  store.publish(w, 1);
  EXPECT_EQ(store.entry_of(1)->kind, EntryKind::kBase);
  EXPECT_EQ(store.stats().deltas_published, 0u);
}

TEST(ModelStore, RepublishUnchangedModelIsIdempotent) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(8, 1.0);
  const engine::BroadcastId first = store.publish(w, 0);
  // Epoch boundaries re-broadcast the current version; unchanged model means
  // the existing entry already is this publish.
  const engine::BroadcastId second = store.publish(w, 0);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(broadcasts.get(first).has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().bases_published, 1u);
}

TEST(ModelStore, RepublishChangedModelReplacesEntryWithFreshBase) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(8, 1.0);
  store.publish(w, 0);
  const engine::BroadcastId first = store.entry_of(0)->base_id;
  w[2] = 9.0;
  store.publish(w, 0);
  const auto entry = store.entry_of(0);
  ASSERT_TRUE(entry.has_value());
  // The replaced version cannot serve as its own delta parent.
  EXPECT_EQ(entry->kind, EntryKind::kBase);
  EXPECT_FALSE(entry->has_delta());
  EXPECT_NE(entry->base_id, first);
  EXPECT_FALSE(broadcasts.get(first).has_value());
  EXPECT_DOUBLE_EQ(store.driver_cache().value_at(0)[2], 9.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ModelStore, GcErasesExactIdsAndSparesForeignBroadcasts) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(16, 0.0);
  store.publish(w, 0);
  // A non-history broadcast registered mid-run: its id lands inside the
  // history id range; threshold pruning would erase it.
  const engine::BroadcastId foreign = broadcasts.put(engine::Payload::wrap<int>(7));
  w[1] = 1.0;
  store.publish(w, 1);
  w[2] = 1.0;
  store.publish(w, 2);
  const engine::BroadcastId v0_id = store.entry_of(0)->base_id;
  const engine::BroadcastId v1_id = store.entry_of(1)->delta_id;

  store.gc_below(2);
  EXPECT_FALSE(broadcasts.get(v0_id).has_value());
  EXPECT_FALSE(broadcasts.get(v1_id).has_value());
  EXPECT_TRUE(broadcasts.get(foreign).has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.oldest().value(), 2u);
  EXPECT_EQ(store.gc_floor(), 2u);
}

TEST(ModelStore, GcRebasesOldestRetainedDeltaOntoFreshBase) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(16, 0.0);
  for (engine::Version v = 0; v < 6; ++v) {
    w[v] = static_cast<double>(v + 1);
    store.publish(w, v);
  }
  ASSERT_EQ(store.entry_of(3)->kind, EntryKind::kDelta);

  store.gc_below(3);
  const auto rebased = store.entry_of(3);
  ASSERT_TRUE(rebased.has_value());
  EXPECT_EQ(rebased->kind, EntryKind::kBase);
  EXPECT_FALSE(rebased->has_delta());  // its parent is gone
  EXPECT_EQ(store.stats().compactions, 1u);
  // Later versions still resolve through the rebased chain, bit-for-bit.
  const linalg::DenseVector& resolved = store.driver_cache().value_at(5);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(resolved[i], static_cast<double>(i + 1));
  }
  EXPECT_EQ(store.entry_of(4)->kind, EntryKind::kDelta);  // untouched tail
}

TEST(ModelStore, GcOfEverythingForcesNextPublishToBase) {
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(16, 0.0);
  store.publish(w, 0);
  w[0] = 1.0;
  store.publish(w, 1);
  store.gc_below(10);  // drops everything
  EXPECT_EQ(store.size(), 0u);
  w[1] = 1.0;
  store.publish(w, 10);  // must not chain onto a GC'd parent
  EXPECT_EQ(store.entry_of(10)->kind, EntryKind::kBase);
}

TEST(ModelStoreDeath, ResolvingGcdVersionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  linalg::DenseVector w = make_model(8, 0.0);
  store.publish(w, 0);
  w[0] = 1.0;
  store.publish(w, 1);
  store.gc_below(1);  // version 0 is now below the STAT in-flight minimum
  EXPECT_DEATH((void)store.driver_cache().value_at(0), "garbage-collected");
}

TEST(ModelStoreDeath, ResolvingUnknownVersionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts);
  store.publish(make_model(8, 0.0), 0);
  EXPECT_DEATH((void)store.driver_cache().value_at(7), "never published");
}

}  // namespace
}  // namespace asyncml::store
