#include "core/history.hpp"

#include <gtest/gtest.h>

#include <map>

namespace asyncml::core {
namespace {

TEST(ModelStoreHistory, PublishAndResolve) {
  engine::BroadcastStore store;
  store::ModelStore history(&store);
  history.publish(linalg::DenseVector{1.0, 2.0}, /*version=*/0);
  history.publish(linalg::DenseVector{3.0, 4.0}, /*version=*/1);

  EXPECT_EQ(history.size(), 2u);
  EXPECT_DOUBLE_EQ((*history.value_at(0))[1], 2.0);
  EXPECT_DOUBLE_EQ((*history.value_at(1))[0], 3.0);
}

TEST(ModelStoreHistory, IdOfUnknownVersionIsNull) {
  engine::BroadcastStore store;
  store::ModelStore history(&store);
  EXPECT_FALSE(history.id_of(7).has_value());
  history.publish(linalg::DenseVector{1.0}, 7);
  EXPECT_TRUE(history.id_of(7).has_value());
}

TEST(ModelStoreHistory, PruneDropsOldVersionsFromStoreToo) {
  engine::BroadcastStore store;
  store::ModelStore history(&store);
  history.publish(linalg::DenseVector{1.0}, 0);
  history.publish(linalg::DenseVector{2.0}, 1);
  history.publish(linalg::DenseVector{3.0}, 2);
  const auto old_id = history.id_of(0);
  ASSERT_TRUE(old_id.has_value());

  history.gc_below(2);
  EXPECT_EQ(history.size(), 1u);
  EXPECT_FALSE(history.id_of(0).has_value());
  EXPECT_FALSE(history.id_of(1).has_value());
  EXPECT_TRUE(history.id_of(2).has_value());
  EXPECT_FALSE(store.get(*old_id).has_value());
  EXPECT_EQ(history.oldest().value(), 2u);
}

TEST(ModelStoreHistory, PruneDoesNotTouchForeignBroadcasts) {
  engine::BroadcastStore store;
  const engine::BroadcastId foreign = store.put(engine::Payload::wrap<int>(99));
  store::ModelStore history(&store);
  history.publish(linalg::DenseVector{1.0}, 0);
  history.gc_below(100);
  EXPECT_TRUE(store.get(foreign).has_value());
}

// Random sparse publishes interleaved with GC: every retained version still
// resolves bit-exactly to what was published.
TEST(ModelStoreHistory, PublishResolveGcStorm) {
  engine::BroadcastStore store;
  store::ModelStore history(&store);
  const std::size_t dim = 64;
  linalg::DenseVector w(dim);
  std::map<engine::Version, linalg::DenseVector> published;

  std::uint64_t rng = 12345;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (engine::Version v = 0; v < 40; ++v) {
    const std::size_t touches = 1 + next() % 4;
    for (std::size_t t = 0; t < touches; ++t) {
      w[next() % dim] = static_cast<double>(next() % 1000) / 7.0;
    }
    history.publish(w, v);
    published.emplace(v, w);
    if (v % 8 == 7) {
      const engine::Version floor = v - 4;
      history.gc_below(floor);
      published.erase(published.begin(), published.lower_bound(floor));
    }
    for (const auto& [q, want] : published) {
      const auto got = history.value_at(q);
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ((*got)[i], want[i]) << "v=" << q << " i=" << i;
      }
    }
  }
}

TEST(HistoryBroadcast, PinnedValueAndHistoricalValue) {
  engine::BroadcastStore store;
  auto history = std::make_shared<store::ModelStore>(&store);
  history->publish(linalg::DenseVector{0.0}, 0);
  history->publish(linalg::DenseVector{1.0}, 1);
  history->publish(linalg::DenseVector{2.0}, 2);

  const HistoryBroadcast handle(history, /*pinned=*/2);
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.version(), 2u);
  EXPECT_DOUBLE_EQ((*handle.value())[0], 2.0);       // w_br.value
  EXPECT_DOUBLE_EQ((*handle.value_at(0))[0], 0.0);   // w_br.value(index) history
  EXPECT_DOUBLE_EQ((*handle.value_at(1))[0], 1.0);
}

TEST(HistoryBroadcast, DefaultHandleInvalid) {
  HistoryBroadcast handle;
  EXPECT_FALSE(handle.valid());
}

TEST(HistoryBroadcast, WorkerSideResolutionFetchesEachChainLinkOnce) {
  engine::BroadcastStore store;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache cache(&store, &net, &metrics);

  auto history = std::make_shared<store::ModelStore>(&store);
  history->publish(linalg::DenseVector(64), 0);  // base: 64 x 8 bytes
  history->publish(linalg::DenseVector(64), 1);  // unchanged: empty delta (8B)
  const HistoryBroadcast handle(history, 1);

  engine::WorkerEnv env{0, &cache, &metrics};
  engine::set_current_worker_env(&env);
  (void)handle.value();       // miss: fetches base v0 + delta v1
  (void)handle.value();       // materialized hit
  (void)handle.value_at(0);   // hit — v0's base was materialized on the way
  (void)handle.value_at(0);   // hit
  (void)handle.value_at(1);   // hit
  engine::set_current_worker_env(nullptr);

  EXPECT_EQ(metrics.broadcast_fetches.load(), 2u);
  EXPECT_EQ(metrics.broadcast_hits.load(), 4u);
  // One dense snapshot plus one empty-delta header crossed the wire — the
  // delta store's saving on top of the ASYNCbroadcast version cache.
  EXPECT_EQ(metrics.broadcast_bytes.load(), 64u * 8u + 8u);
  EXPECT_EQ(metrics.broadcast_base_bytes.load(), 64u * 8u);
  EXPECT_EQ(metrics.broadcast_delta_bytes.load(), 8u);
}

TEST(SampleVersionTable, GetSetAndMin) {
  SampleVersionTable table(4, 10);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.get(2), 10u);
  table.set(2, 3);
  table.set(0, 7);
  EXPECT_EQ(table.get(2), 3u);
  EXPECT_EQ(table.min_version(), 3u);
}

TEST(SampleVersionTable, EmptyTableMinZero) {
  SampleVersionTable table(0);
  EXPECT_EQ(table.min_version(), 0u);
}

}  // namespace
}  // namespace asyncml::core
