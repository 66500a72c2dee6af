#include "store/model_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "store/model_store.hpp"

namespace asyncml::store {
namespace {

struct CacheFixture {
  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  engine::ClusterMetrics metrics{1};
  engine::BroadcastCache bcache;
  ModelStore store;

  explicit CacheFixture(StoreConfig config = {})
      : bcache(&broadcasts, &net, &metrics), store(&broadcasts, config) {
    net.time_scale = 0.0;  // no sleeps in unit tests
  }

  VersionedModelCache& worker_cache() { return store.cache_for(0, &bcache, &metrics); }
};

/// Publishes a chain 0..versions-1 over `dim` coords, one changed coordinate
/// per version; returns the final model.
linalg::DenseVector publish_chain(ModelStore& store, std::size_t dim,
                                  engine::Version versions) {
  linalg::DenseVector w(dim);
  for (engine::Version v = 0; v < versions; ++v) {
    w[v % dim] += static_cast<double>(v + 1);
    store.publish(w, v);
  }
  return w;
}

TEST(VersionedModelCache, ChainResolutionMatchesPublishedModel) {
  CacheFixture fx;
  const linalg::DenseVector w = publish_chain(fx.store, 8, 5);
  const auto resolved = fx.worker_cache().value_at(4);
  ASSERT_EQ(resolved->size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ((*resolved)[i], w[i]);
}

TEST(VersionedModelCache, MissChargesExactlyTheChainWireBytes) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 4);  // base + 3 deltas
  std::uint64_t expected = fx.store.entry_of(0)->base_bytes;
  for (engine::Version v = 1; v < 4; ++v) {
    expected += fx.store.entry_of(v)->delta_bytes;
  }
  (void)fx.worker_cache().value_at(3);
  EXPECT_EQ(fx.metrics.broadcast_bytes.load(), expected);
  EXPECT_EQ(fx.metrics.broadcast_fetches.load(), 4u);
  EXPECT_EQ(fx.metrics.broadcast_base_bytes.load(),
            fx.store.entry_of(0)->base_bytes);
}

TEST(VersionedModelCache, MaterializedHitIsFree) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 4);
  VersionedModelCache& cache = fx.worker_cache();
  (void)cache.value_at(3);
  const std::uint64_t bytes = fx.metrics.broadcast_bytes.load();
  const std::uint64_t fetches = fx.metrics.broadcast_fetches.load();
  (void)cache.value_at(3);  // hit: no wire traffic at all
  EXPECT_EQ(fx.metrics.broadcast_bytes.load(), bytes);
  EXPECT_EQ(fx.metrics.broadcast_fetches.load(), fetches);
  EXPECT_GT(fx.metrics.broadcast_hits.load(), 0u);
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(0));  // the chain's base was materialized too
}

TEST(VersionedModelCache, NearestAncestorFetchesOnlyMissingLinks) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 6);  // base 0, deltas 1..5
  VersionedModelCache& cache = fx.worker_cache();
  (void)cache.value_at(3);  // materializes 0 and 3
  const std::uint64_t bytes = fx.metrics.broadcast_bytes.load();
  const std::uint64_t base_bytes = fx.metrics.broadcast_base_bytes.load();

  (void)cache.value_at(5);  // anchor on 3: fetch deltas 4 and 5 only
  const std::uint64_t expected =
      fx.store.entry_of(4)->delta_bytes + fx.store.entry_of(5)->delta_bytes;
  EXPECT_EQ(fx.metrics.broadcast_bytes.load() - bytes, expected);
  EXPECT_EQ(fx.metrics.broadcast_base_bytes.load(), base_bytes);  // no re-base fetch
}

TEST(VersionedModelCache, ThousandsOfCachedVersionsStillAnchorOnNearestAncestor) {
  // dim 64: a base is 512 B and a one-coordinate delta 20 B. Scheduled
  // bases every 64 versions give a walk that misses the anchor a cheaper
  // stop (base 4096 + two deltas) than a full ride to base 0.
  StoreConfig config;
  config.base_interval = 64;
  CacheFixture fx(config);
  constexpr engine::Version kCached = 4096;
  (void)publish_chain(fx.store, 64, kCached + 3);
  VersionedModelCache& crowded = fx.worker_cache();
  // Held, so no resolve advances its anchor in place.
  std::vector<std::shared_ptr<const linalg::DenseVector>> held;
  for (engine::Version v = 0; v < kCached; ++v) held.push_back(crowded.value_at(v));
  ASSERT_EQ(crowded.size(), kCached);

  // Reference: a second worker whose cache holds only the ancestor (plus
  // the scheduled base its first resolve anchored on).
  engine::ClusterMetrics lone_metrics(1);
  engine::BroadcastCache lone_bcache(&fx.broadcasts, &fx.net, &lone_metrics);
  VersionedModelCache& lone = fx.store.cache_for(1, &lone_bcache, &lone_metrics);
  (void)lone.value_at(kCached - 1);
  ASSERT_EQ(lone.size(), 2u);

  const std::uint64_t crowded_before = fx.metrics.broadcast_bytes.load();
  const std::uint64_t lone_before = lone_metrics.broadcast_bytes.load();
  const auto a = crowded.value_at(kCached + 2);
  const auto b = lone.value_at(kCached + 2);
  EXPECT_TRUE(linalg::bitwise_equal(*a, *b));

  // Both anchor on kCached - 1 and fetch exactly the three deltas above it.
  std::uint64_t expected = 0;
  for (engine::Version v = kCached; v < kCached + 3; ++v) {
    expected += fx.store.entry_of(v)->delta_bytes;
  }
  EXPECT_EQ(fx.metrics.broadcast_bytes.load() - crowded_before, expected);
  EXPECT_EQ(lone_metrics.broadcast_bytes.load() - lone_before, expected);
  EXPECT_EQ(fx.metrics.broadcast_base_bytes.load(), fx.store.entry_of(0)->base_bytes);
}

TEST(VersionedModelCache, ResolvingBaseVersionAliasesWithoutCopy) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 1);
  VersionedModelCache& cache = fx.worker_cache();
  const auto resolved = cache.value_at(0);
  // The materialized base is the broadcast payload itself (zero copy).
  const engine::Payload payload = fx.broadcasts.get(fx.store.entry_of(0)->base_id);
  EXPECT_EQ(resolved.get(), &payload.get<linalg::DenseVector>());
}

TEST(VersionedModelCache, UnheldAncestorAdvancesInPlace) {
  CacheFixture fx;
  const linalg::DenseVector w = publish_chain(fx.store, 8, 6);  // base 0, deltas 1..5
  VersionedModelCache& cache = fx.worker_cache();
  // v4 is this cache's own materialization; its handle dies here.
  const double* buffer = cache.value_at(4)->data();

  const auto v5 = cache.value_at(5);
  EXPECT_FALSE(cache.contains(4));  // taken out of the map...
  EXPECT_EQ(v5->data(), buffer);    // ...and advanced to v5 in its own buffer
  EXPECT_TRUE(linalg::bitwise_equal(*v5, w));
}

TEST(VersionedModelCache, HeldAncestorOrBaseAliasIsCopiedNotAdvanced) {
  CacheFixture fx;
  const linalg::DenseVector w = publish_chain(fx.store, 8, 6);
  VersionedModelCache& cache = fx.worker_cache();
  const auto v4 = cache.value_at(4);
  const linalg::DenseVector v4_bits = *v4;

  const auto v5 = cache.value_at(5);  // v4 is held: copy it
  EXPECT_TRUE(cache.contains(4));
  EXPECT_NE(v5->data(), v4->data());
  EXPECT_TRUE(linalg::bitwise_equal(*v4, v4_bits));
  EXPECT_TRUE(linalg::bitwise_equal(*v5, w));

  // A base aliases the broadcast payload: even unheld, it is never written.
  engine::ClusterMetrics metrics2(1);
  engine::BroadcastCache bcache2(&fx.broadcasts, &fx.net, &metrics2);
  VersionedModelCache& other = fx.store.cache_for(1, &bcache2, &metrics2);
  const linalg::DenseVector base = *other.value_at(0);
  const double* alias = other.value_at(0)->data();
  const auto v1 = other.value_at(1);
  EXPECT_TRUE(other.contains(0));
  EXPECT_NE(v1->data(), alias);
  EXPECT_TRUE(linalg::bitwise_equal(*other.value_at(0), base));
}

TEST(VersionedModelCache, GcDropsMaterializedVersionsAndPayloads) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 6);
  VersionedModelCache& cache = fx.worker_cache();
  (void)cache.value_at(5);
  ASSERT_TRUE(cache.contains(0));
  const engine::BroadcastId v0_id = fx.store.entry_of(0)->base_id;
  ASSERT_TRUE(fx.bcache.contains(v0_id));

  fx.store.gc_below(4);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(5));
  EXPECT_FALSE(fx.bcache.contains(v0_id));  // exact-id eviction propagated
}

TEST(VersionedModelCache, WarmWorkerRidesChainThroughScheduledBase) {
  StoreConfig config;
  config.base_interval = 4;  // dual-published bases at versions 0, 4, 8...
  CacheFixture fx(config);
  (void)publish_chain(fx.store, 64, 7);
  VersionedModelCache& cache = fx.worker_cache();
  (void)cache.value_at(3);
  const std::uint64_t bytes = fx.metrics.broadcast_bytes.load();
  const std::uint64_t base_bytes = fx.metrics.broadcast_base_bytes.load();

  // Versions 4 (a scheduled base), 5, 6 resolve as three cheap deltas from
  // the materialized anchor 3 — the dense snapshot at 4 never crosses the
  // wire for this warm worker.
  (void)cache.value_at(6);
  EXPECT_EQ(fx.metrics.broadcast_base_bytes.load(), base_bytes);
  const std::uint64_t expected = fx.store.entry_of(4)->delta_bytes +
                                 fx.store.entry_of(5)->delta_bytes +
                                 fx.store.entry_of(6)->delta_bytes;
  EXPECT_EQ(fx.metrics.broadcast_bytes.load() - bytes, expected);
  EXPECT_TRUE(cache.contains(6));
}

TEST(VersionedModelCache, StaleWorkerAnchorsOnBaseWhenChainCostsMore) {
  StoreConfig config;
  config.base_interval = 4;
  CacheFixture fx(config);
  // dim 8: a base is 64 bytes; each one-coordinate delta is 20 bytes, so a
  // stale worker gapping 7 versions (140 delta bytes through its old anchor)
  // should prefer base(4) + deltas 5-7 (64 + 60 = 124 bytes).
  (void)publish_chain(fx.store, 8, 8);
  VersionedModelCache& cache = fx.worker_cache();
  (void)cache.value_at(0);
  const std::uint64_t bytes = fx.metrics.broadcast_bytes.load();

  (void)cache.value_at(7);
  const std::uint64_t expected = fx.store.entry_of(4)->base_bytes +
                                 fx.store.entry_of(5)->delta_bytes +
                                 fx.store.entry_of(6)->delta_bytes +
                                 fx.store.entry_of(7)->delta_bytes;
  EXPECT_EQ(fx.metrics.broadcast_bytes.load() - bytes, expected);
}

TEST(VersionedModelCache, DriverCacheResolvesWithoutCharging) {
  CacheFixture fx;
  const linalg::DenseVector w = publish_chain(fx.store, 8, 5);
  const auto resolved = fx.store.driver_cache().value_at(4);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ((*resolved)[i], w[i]);
  EXPECT_EQ(fx.metrics.broadcast_bytes.load(), 0u);
  EXPECT_EQ(fx.metrics.broadcast_fetches.load(), 0u);
}

TEST(VersionedModelCache, SecondWorkerChargesItsOwnFetches) {
  CacheFixture fx;
  (void)publish_chain(fx.store, 8, 3);
  engine::ClusterMetrics metrics2(1);
  engine::BroadcastCache bcache2(&fx.broadcasts, &fx.net, &metrics2);
  (void)fx.worker_cache().value_at(2);
  const std::uint64_t bytes = fx.metrics.broadcast_bytes.load();
  (void)fx.store.cache_for(1, &bcache2, &metrics2).value_at(2);
  EXPECT_EQ(metrics2.broadcast_bytes.load(), bytes);  // same chain, own wire
}

}  // namespace
}  // namespace asyncml::store
