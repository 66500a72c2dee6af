#include "core/async_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>

#include "straggler/controlled_delay.hpp"

namespace asyncml::core {
namespace {

engine::Cluster::Config quiet_config(int workers, int cores = 1) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = cores;
  config.network.time_scale = 0.0;
  return config;
}

TEST(AsyncContext, VersionStartsAtZeroAndAdvances) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, /*num_partitions=*/2);
  EXPECT_EQ(ac.current_version(), 0u);
  ac.advance_version();
  EXPECT_EQ(ac.current_version(), 1u);
}

TEST(AsyncContext, AsyncBroadcastPublishesAtCurrentVersion) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 2);
  const HistoryBroadcast h0 = ac.async_broadcast(linalg::DenseVector{1.0});
  EXPECT_EQ(h0.version(), 0u);
  ac.advance_version();
  const HistoryBroadcast h1 = ac.async_broadcast(linalg::DenseVector{2.0});
  EXPECT_EQ(h1.version(), 1u);
  EXPECT_DOUBLE_EQ((*h1.value_at(0))[0], 1.0);
  EXPECT_DOUBLE_EQ((*h1.value())[0], 2.0);
}

TEST(AsyncContext, AsyncAggregateRespectsWorkerCapacity) {
  // 3 single-core workers, 2 partitions each: the first dispatch fills every
  // worker to capacity (one task each); re-dispatching after each collect
  // cycles through the remaining partitions (round-robin, no starvation).
  engine::Cluster cluster(quiet_config(3, /*cores=*/1));
  AsyncContext ac(cluster, /*num_partitions=*/6);
  const auto rdd = engine::make_vector_rdd(std::vector<int>(60, 1), 6);
  const auto seq = [](long acc, const int& x) { return acc + x; };

  int dispatched = ac.async_aggregate(rdd, 0L, seq, barriers::asp(), SubmitOptions{});
  EXPECT_EQ(dispatched, 3);  // capacity: one in-flight task per core

  // Keep collecting (and re-dispatching) until every partition has run at
  // least once; the round-robin cursor guarantees this happens within a few
  // cycles even when one worker makes progress faster than the others. The
  // bound is wall-clock, not a collect count: an executor the OS leaves
  // unscheduled for a while returns nothing, and its worker's partitions
  // only show up once it runs again.
  std::set<engine::PartitionId> seen;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (seen.size() < 6u && std::chrono::steady_clock::now() < deadline) {
    auto collected = ac.collect();
    ASSERT_TRUE(collected.has_value());
    EXPECT_EQ(collected->result.payload.get<long>(), 10L);  // 10 elements/partition
    seen.insert(collected->result.partition);
    dispatched += ac.async_aggregate(rdd, 0L, seq, barriers::asp(), SubmitOptions{});
  }
  EXPECT_EQ(seen.size(), 6u);  // no partition starves
  EXPECT_GE(dispatched, 6);
  // Drain whatever the trailing dispatches put in flight.
  while (ac.coordinator().total_outstanding() > 0 || ac.has_next()) {
    (void)ac.collect();
  }
}

TEST(AsyncContext, BusyWorkersNotRedispatched) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 2);
  const auto rdd = engine::make_vector_rdd(std::vector<int>(10, 1), 2);
  SubmitOptions slow;
  slow.service_floor_ms = 30.0;

  const auto seq = [](long acc, const int& x) { return acc + x; };
  EXPECT_EQ(ac.async_aggregate(rdd, 0L, seq, barriers::asp(), slow), 2);
  // Immediately try again: both workers are busy, nothing new dispatched.
  EXPECT_EQ(ac.async_aggregate(rdd, 0L, seq, barriers::asp(), slow), 0);
  // Drain.
  (void)ac.collect();
  (void)ac.collect();
}

TEST(AsyncContext, BspGateBlocksUntilRoundCompletes) {
  // Worker 1 is a 6x straggler so that when worker 0's result arrives the
  // round is guaranteed to still be incomplete — no race on the assertion.
  engine::Cluster::Config config = quiet_config(2);
  config.delay = std::make_shared<straggler::ControlledDelay>(1, 5.0);
  engine::Cluster cluster(config);
  AsyncContext ac(cluster, 2);
  const auto rdd = engine::make_vector_rdd(std::vector<int>(10, 1), 2);
  const auto seq = [](long acc, const int& x) { return acc + x; };
  SubmitOptions opts;
  opts.service_floor_ms = 10.0;

  EXPECT_EQ(ac.async_aggregate(rdd, 0L, seq, barriers::bsp(), opts), 2);
  // Fast worker's result back: the straggler is still busy, BSP stays closed.
  ASSERT_TRUE(ac.collect().has_value());
  EXPECT_EQ(ac.async_aggregate(rdd, 0L, seq, barriers::bsp(), opts), 0);
  ASSERT_TRUE(ac.collect().has_value());
  // Round complete: gate reopens.
  EXPECT_EQ(ac.async_aggregate(rdd, 0L, seq, barriers::bsp(), opts), 2);
  (void)ac.collect();
  (void)ac.collect();
}

TEST(AsyncContext, SyncRoundReturnsOneResultPerPartition) {
  engine::Cluster cluster(quiet_config(3));
  AsyncContext ac(cluster, 5);
  const auto rdd = engine::make_vector_rdd(std::vector<int>(50, 2), 5);
  const auto results = ac.sync_round(
      rdd, 0L, [](long acc, const int& x) { return acc + x; }, SubmitOptions{});
  ASSERT_EQ(results.size(), 5u);
  long total = 0;
  std::set<engine::PartitionId> parts;
  for (const TaggedResult& r : results) {
    total += r.result.payload.get<long>();
    parts.insert(r.result.partition);
  }
  EXPECT_EQ(total, 100L);
  EXPECT_EQ(parts.size(), 5u);
}

TEST(AsyncContext, CollectReturnsWorkerAttributes) {
  engine::Cluster cluster(quiet_config(1));
  AsyncContext ac(cluster, 1);
  ac.advance_version();  // current version 1; task dispatched at v1
  const auto rdd = engine::make_vector_rdd(std::vector<int>{1}, 1);
  ac.async_aggregate(rdd, 0L, [](long acc, const int& x) { return acc + x; },
                     barriers::asp(), SubmitOptions{});
  auto collected = ac.collect();
  ASSERT_TRUE(collected.has_value());
  EXPECT_EQ(collected->staleness, 0u);
  EXPECT_EQ(collected->worker.id, 0);
  EXPECT_EQ(collected->worker.tasks_completed, 1u);
  EXPECT_EQ(collected->result.model_version, 1u);
}

TEST(AsyncContext, StalenessTagReflectsUpdatesDuringFlight) {
  engine::Cluster cluster(quiet_config(1));
  AsyncContext ac(cluster, 1);
  const auto rdd = engine::make_vector_rdd(std::vector<int>{1}, 1);
  SubmitOptions slow;
  slow.service_floor_ms = 20.0;
  ac.async_aggregate(rdd, 0L, [](long acc, const int& x) { return acc + x; },
                     barriers::asp(), slow);
  // Model advances twice while the task is in flight.
  ac.advance_version();
  ac.advance_version();
  auto collected = ac.collect();
  ASSERT_TRUE(collected.has_value());
  EXPECT_EQ(collected->staleness, 2u);
}

TEST(AsyncContext, FailedTasksRetriedThroughFactory) {
  engine::Cluster::Config config = quiet_config(2);
  config.faults.fail_task({.worker = 0}, /*times=*/1);  // first task on worker 0 fails
  engine::Cluster cluster(config);
  AsyncContext ac(cluster, 2);
  const auto rdd = engine::make_vector_rdd(std::vector<int>{1, 2}, 2);
  const auto results = ac.sync_round(
      rdd, 0L, [](long acc, const int& x) { return acc + x; }, SubmitOptions{});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GE(ac.retries(), 1u);
}

TEST(AsyncContext, HandleForReturnsPinnedVersion) {
  engine::Cluster cluster(quiet_config(1));
  AsyncContext ac(cluster, 1);
  (void)ac.async_broadcast(linalg::DenseVector{7.0});
  const HistoryBroadcast handle = ac.handle_for(0);
  EXPECT_DOUBLE_EQ((*handle.value())[0], 7.0);
}

TEST(AsyncContext, GcHistoryCompactsBelowStatMinimum) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 2);
  for (engine::Version v = 0; v < 5; ++v) {
    (void)ac.async_broadcast(linalg::DenseVector{static_cast<double>(v)});
    ac.advance_version();
  }
  (void)ac.async_broadcast(linalg::DenseVector{5.0});
  ASSERT_EQ(ac.history().size(), 6u);

  // Nothing in flight: the STAT minimum is the current version, so every
  // older version is provably unreachable and gets compacted.
  const engine::Version bound = ac.gc_history();
  EXPECT_EQ(bound, 5u);
  EXPECT_EQ(ac.history().size(), 1u);
  EXPECT_EQ(ac.history().oldest().value(), 5u);
  EXPECT_DOUBLE_EQ((*ac.handle_for(5).value())[0], 5.0);
}

TEST(AsyncContext, GcHistoryHonorsExtraFloor) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 2);
  for (engine::Version v = 0; v < 4; ++v) {
    (void)ac.async_broadcast(linalg::DenseVector{static_cast<double>(v)});
    ac.advance_version();
  }
  // A history-reading solver (SAGA's sample table) still references v2.
  const engine::Version bound = ac.gc_history(/*extra_floor=*/2);
  EXPECT_EQ(bound, 2u);
  EXPECT_EQ(ac.history().oldest().value(), 2u);
  EXPECT_DOUBLE_EQ((*ac.handle_for(2).value())[0], 2.0);
  EXPECT_DOUBLE_EQ((*ac.handle_for(3).value())[0], 3.0);
}

TEST(AsyncContext, StatVisibleThroughContext) {
  engine::Cluster cluster(quiet_config(4));
  AsyncContext ac(cluster, 4);
  EXPECT_EQ(ac.stat().num_workers(), 4);
  EXPECT_EQ(ac.stat().available_workers(), 4);
}

}  // namespace
}  // namespace asyncml::core
