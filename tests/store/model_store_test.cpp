#include "store/model_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

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
  EXPECT_TRUE(linalg::bitwise_equal(*store.driver_cache().value_at(4), w));
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
  EXPECT_DOUBLE_EQ((*store.driver_cache().value_at(0))[2], 9.0);
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
  const auto resolved = store.driver_cache().value_at(5);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ((*resolved)[i], static_cast<double>(i + 1));
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

// The publish diff checks the densify limit once per block of coordinates
// and, after a delta-only publish, refreshes its diff source only where the
// delta shipped.  These cases run at a dim spanning several blocks with a
// ragged tail, and check every publish against the set of coordinates that
// actually changed.
class PublishDiff : public ::testing::Test {
 protected:
  // Three 256-coordinate blocks and a ragged tail; the cutoff 2/3 * 999 is
  // exactly 666.0, so "more than the cutoff" and "at least" differ.
  static constexpr std::size_t kDim = 999;

  PublishDiff() : bcache_(&broadcasts_, &net_, &metrics_) { net_.time_scale = 0.0; }

  /// Publishes `w` as the next version and checks the entry against the
  /// previous publish: a delta entry ships exactly the coordinates where `w`
  /// differs (by `!=`) from it, with their new values.
  void publish(const linalg::DenseVector& w) {
    const auto v = static_cast<engine::Version>(published_.size());
    store_.publish(w, v);
    published_.push_back(w);
    const auto entry = store_.entry_of(v);
    ASSERT_TRUE(entry.has_value());
    if (!entry->has_delta()) return;
    ASSERT_GT(v, 0u);
    const linalg::DenseVector& prev = published_[v - 1];
    std::vector<std::uint32_t> changed;
    for (std::size_t i = 0; i < kDim; ++i) {
      if (w[i] != prev[i]) changed.push_back(static_cast<std::uint32_t>(i));
    }
    const ModelDelta delta = delta_of(v);
    EXPECT_EQ(delta.parent, v - 1);
    EXPECT_EQ(delta.dim, kDim);
    EXPECT_EQ(delta.indices, changed) << "version " << v;
    ASSERT_EQ(delta.values.size(), delta.indices.size());
    for (std::size_t k = 0; k < delta.nnz(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(delta.values[k]),
                std::bit_cast<std::uint64_t>(w[delta.indices[k]]));
    }
    EXPECT_EQ(entry->delta_bytes, 8u + 12u * changed.size());
  }

  [[nodiscard]] ModelDelta delta_of(engine::Version v) const {
    const auto entry = store_.entry_of(v);
    if (!entry.has_value() || entry->delta_id == 0) {
      ADD_FAILURE() << "version " << v << " carries no delta";
      return {};
    }
    return broadcasts_.get(entry->delta_id).get<ModelDelta>();
  }

  [[nodiscard]] EntryKind kind_of(engine::Version v) const {
    return store_.entry_of(v)->kind;
  }

  /// Every published version, resolved in ascending order through a worker
  /// cache (warm v-1 -> v steps), equals the published model bit for bit.
  void expect_chain_bitwise() {
    VersionedModelCache& cache = store_.cache_for(0, &bcache_, &metrics_);
    for (engine::Version v = 0; v < published_.size(); ++v) {
      EXPECT_TRUE(linalg::bitwise_equal(*cache.value_at(v), published_[v])) << "version " << v;
    }
  }

  engine::BroadcastStore broadcasts_;
  ModelStore store_{&broadcasts_};
  engine::NetworkModel net_;
  engine::ClusterMetrics metrics_{1};
  engine::BroadcastCache bcache_;
  std::vector<linalg::DenseVector> published_;
};

TEST_F(PublishDiff, CutoffIsExactWhenTheLimitIsCrossedInTheLastBlock) {
  linalg::DenseVector w = make_model(kDim, 1.0);
  publish(w);
  // floor(2/3 * dim) changed coordinates, all in the tail: still a delta.
  for (std::size_t i = kDim - 666; i < kDim; ++i) w[i] = 2.0;
  publish(w);
  EXPECT_EQ(kind_of(1), EntryKind::kDelta);
  EXPECT_EQ(delta_of(1).nnz(), 666u);
  // One more, the last crossing the limit at the final coordinate: densifies.
  for (std::size_t i = kDim - 667; i < kDim; ++i) w[i] = 3.0;
  publish(w);
  EXPECT_EQ(kind_of(2), EntryKind::kBase);
  EXPECT_FALSE(store_.entry_of(2)->has_delta());
  EXPECT_EQ(store_.stats().bases_published, 2u);
  EXPECT_EQ(store_.stats().deltas_published, 1u);
  expect_chain_bitwise();
}

TEST_F(PublishDiff, FirstAndLastCoordinatesShip) {
  linalg::DenseVector w = make_model(kDim, 0.25);
  publish(w);
  w[0] = -4.0;
  w[kDim - 1] = 9.5;
  publish(w);
  EXPECT_EQ(delta_of(1).indices, (std::vector<std::uint32_t>{0, kDim - 1}));
  w[kDim - 1] = 0.125;
  publish(w);
  EXPECT_EQ(delta_of(2).indices, (std::vector<std::uint32_t>{kDim - 1}));
  expect_chain_bitwise();
}

TEST_F(PublishDiff, CoordinateSetBackToItsOlderValueShipsBothTimes) {
  linalg::DenseVector w = make_model(kDim, 1.0);
  publish(w);
  w[300] = 7.0;
  w[700] = 5.0;
  publish(w);
  EXPECT_EQ(delta_of(1).indices, (std::vector<std::uint32_t>{300, 700}));
  w[300] = 1.0;  // back to version 0's value
  publish(w);
  EXPECT_EQ(delta_of(2).indices, (std::vector<std::uint32_t>{300}));
  w[300] = 7.0;  // and forward again
  w[700] = 1.0;
  publish(w);
  EXPECT_EQ(delta_of(3).indices, (std::vector<std::uint32_t>{300, 700}));
  expect_chain_bitwise();
}

TEST_F(PublishDiff, SparseDensifiedSparseKeepsTheDiffSourceRight) {
  linalg::DenseVector w(kDim);
  for (std::size_t i = 0; i < kDim; ++i) w[i] = static_cast<double>(i % 7);
  publish(w);
  for (std::size_t i = 0; i < kDim; i += 9) w[i] += 1.0;  // sparse
  publish(w);
  // Densifies: the diff stops after the block where the count crosses the
  // cutoff, before coordinates 768..799, which changed too.
  for (std::size_t i = 0; i < 800; ++i) w[i] -= 0.5;
  publish(w);
  w[5] += 2.0;
  w[850] += 2.0;
  w[kDim - 1] = std::numeric_limits<double>::quiet_NaN();
  publish(w);
  w[5] -= 2.0;
  w[900] = 3.0;
  publish(w);  // the NaN ships again: NaN != NaN
  EXPECT_EQ(kind_of(1), EntryKind::kDelta);
  EXPECT_EQ(kind_of(2), EntryKind::kBase);
  EXPECT_FALSE(store_.entry_of(2)->has_delta());
  EXPECT_EQ(kind_of(3), EntryKind::kDelta);
  EXPECT_EQ(delta_of(3).indices, (std::vector<std::uint32_t>{5, 850, kDim - 1}));
  EXPECT_EQ(kind_of(4), EntryKind::kDelta);
  EXPECT_EQ(delta_of(4).indices, (std::vector<std::uint32_t>{5, 900, kDim - 1}));
  expect_chain_bitwise();
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
