#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace asyncml::core {
namespace {

using namespace std::chrono_literals;

engine::Cluster::Config quiet_config(int workers) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 1;
  config.network.time_scale = 0.0;
  return config;
}

engine::TaskSpec int_task(engine::Cluster& cluster, engine::PartitionId p,
                          engine::Version version, int value,
                          double service_ms = 0.0) {
  engine::TaskSpec spec;
  spec.id = cluster.next_task_id();
  spec.partition = p;
  spec.model_version = version;
  spec.service_floor_ms = service_ms;
  spec.fn = std::make_shared<const engine::TaskFn>(
      [value](engine::TaskContext&) -> support::StatusOr<engine::Payload> {
        return engine::Payload::wrap<int>(value);
      });
  return spec;
}

engine::TaskSpec failing_task(engine::Cluster& cluster, engine::PartitionId p) {
  engine::TaskSpec spec;
  spec.id = cluster.next_task_id();
  spec.partition = p;
  spec.fn = std::make_shared<const engine::TaskFn>(
      [](engine::TaskContext&) -> support::StatusOr<engine::Payload> {
        return support::Status(support::StatusCode::kInternal, "bad");
      });
  return spec;
}

TEST(Coordinator, CollectsAndTagsResults) {
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  const engine::TaskSpec task = int_task(cluster, 0, /*version=*/0, 42);
  coord.on_task_dispatch(0, task);
  cluster.submit(0, task);

  auto tagged = coord.collect_for(1000ms);
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->result.payload.get<int>(), 42);
  EXPECT_EQ(tagged->staleness, 0u);
  EXPECT_EQ(tagged->worker.id, 0);
}

TEST(Coordinator, StalenessIsVersionGap) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  // Task computed against version 0; the server advances to 3 before it is
  // collected -> staleness 3.
  const engine::TaskSpec task = int_task(cluster, 0, /*version=*/0, 1);
  coord.on_task_dispatch(0, task);
  coord.advance_version();
  coord.advance_version();
  coord.advance_version();
  cluster.submit(0, task);

  auto tagged = coord.collect_for(1000ms);
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->staleness, 3u);
}

TEST(Coordinator, StalenessCountsUpdatesBetweenArrivalAndCollection) {
  // The result reaches the coordinator at version 0, then the driver
  // advances the model twice before collecting it: the tag is taken at
  // collection, so it is the τ the update is applied with.
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  const engine::TaskSpec task = int_task(cluster, 0, /*version=*/0, 1);
  coord.on_task_dispatch(0, task);
  cluster.submit(0, task);
  const auto deadline = std::chrono::steady_clock::now() + 1000ms;
  while (!coord.has_next() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(coord.has_next());
  coord.advance_version();
  coord.advance_version();

  auto tagged = coord.collect_for(1000ms);
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->staleness, 2u);
  EXPECT_EQ(tagged->worker.result_staleness, 2u);
}

TEST(Coordinator, StatTracksAvailability) {
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  EXPECT_EQ(coord.stat().available_workers(), 2);
  const engine::TaskSpec first = int_task(cluster, 0, 0, 1);
  const engine::TaskSpec second = int_task(cluster, 1, 0, 2);
  coord.on_task_dispatch(1, first);
  coord.on_task_dispatch(1, second);
  const StatSnapshot busy = coord.stat();
  EXPECT_EQ(busy.available_workers(), 1);
  EXPECT_FALSE(busy.workers[1].available);
  EXPECT_EQ(busy.workers[1].outstanding, 2);

  cluster.submit(1, first);
  cluster.submit(1, second);
  (void)coord.collect_for(1000ms);
  (void)coord.collect_for(1000ms);
  EXPECT_EQ(coord.stat().available_workers(), 2);
}

TEST(Coordinator, StatTracksTaskTimes) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  const engine::TaskSpec task = int_task(cluster, 0, 0, 1, /*service_ms=*/5.0);
  coord.on_task_dispatch(0, task);
  cluster.submit(0, task);
  (void)coord.collect_for(1000ms);

  const StatSnapshot snap = coord.stat();
  EXPECT_EQ(snap.workers[0].tasks_completed, 1u);
  EXPECT_GE(snap.workers[0].avg_task_ms, 4.5);
  EXPECT_GE(snap.workers[0].mean_task_ms, 4.5);
}

TEST(Coordinator, SnapshotStalenessReflectsCurrentVersion) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  const engine::TaskSpec task = int_task(cluster, 0, /*version=*/0, 1);
  coord.on_task_dispatch(0, task);
  const StatSnapshot before = coord.stat();
  EXPECT_EQ(before.workers[0].task_staleness, 0u);

  coord.advance_version();
  coord.advance_version();
  const StatSnapshot after = coord.stat();
  EXPECT_EQ(after.workers[0].task_staleness, 2u);
  EXPECT_EQ(after.max_staleness(), 2u);  // worker still busy

  cluster.submit(0, task);
  (void)coord.collect_for(1000ms);
  EXPECT_EQ(coord.stat().max_staleness(), 0u);  // nothing in flight
}

TEST(Coordinator, FailuresRoutedSeparately) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  const engine::TaskSpec task = failing_task(cluster, 0);
  coord.on_task_dispatch(0, task);
  cluster.submit(0, task);

  // The failure must not appear as a result...
  EXPECT_FALSE(coord.collect_for(100ms).has_value());
  // ...but on the failure queue, with the worker marked available again.
  auto failed = coord.try_collect_failure();
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->ok());
  EXPECT_EQ(coord.stat().available_workers(), 1);
  EXPECT_EQ(coord.stat().workers[0].tasks_failed, 1u);
}

TEST(Coordinator, FifoOrderOfResults) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  std::vector<engine::TaskSpec> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back(int_task(cluster, i, 0, i));
  for (const engine::TaskSpec& task : tasks) coord.on_task_dispatch(0, task);
  for (const engine::TaskSpec& task : tasks) cluster.submit(0, task);
  for (int i = 0; i < 3; ++i) {
    auto tagged = coord.collect_for(1000ms);
    ASSERT_TRUE(tagged.has_value());
    EXPECT_EQ(tagged->result.payload.get<int>(), i);  // single worker: FIFO
  }
}

TEST(Coordinator, HasNextNonBlocking) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);
  EXPECT_FALSE(coord.has_next());
  const engine::TaskSpec task = int_task(cluster, 0, 0, 5);
  coord.on_task_dispatch(0, task);
  cluster.submit(0, task);
  auto tagged = coord.collect_for(1000ms);
  EXPECT_TRUE(tagged.has_value());
  EXPECT_FALSE(coord.has_next());
}

// A task leaves `outstanding` only when the reader takes its result off the
// channel, so total_outstanding() == 0 && !has_next() means nothing is in
// flight — the pair AsyncContext::collect's deadlock guard and dispatch_live
// read. Thousands of back-to-back single tasks with no service floor keep
// the executor racing the reader.
TEST(Coordinator, QuietPairMeansTheResultIsAlreadyQueued) {
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);
  constexpr int kTasks = 5000;
  int early = 0;
  for (int i = 0; i < kTasks; ++i) {
    const engine::TaskSpec task = int_task(cluster, 0, /*version=*/0, i);
    coord.on_task_dispatch(0, task);
    cluster.submit(0, task);
    bool quiet = false;
    while (!coord.has_next()) {
      if (coord.total_outstanding() == 0 && !coord.has_next()) {
        quiet = true;
        break;
      }
    }
    auto tagged = coord.try_collect();
    if (quiet && !tagged.has_value()) {
      ++early;
      tagged = coord.collect_for(1000ms);
    }
    ASSERT_TRUE(tagged.has_value());
    EXPECT_EQ(tagged->result.payload.get<int>(), i);
  }
  EXPECT_EQ(early, 0) << early << " of " << kTasks
                      << " results were still in transit when the pair read quiet";
}

TEST(Coordinator, TotalOutstandingAggregates) {
  engine::Cluster cluster(quiet_config(3));
  Coordinator coord(cluster);
  EXPECT_EQ(coord.total_outstanding(), 0);
  coord.on_task_dispatch(0, int_task(cluster, 0, 0, 0));
  coord.on_task_dispatch(0, int_task(cluster, 1, 0, 0));
  coord.on_task_dispatch(2, int_task(cluster, 2, 0, 0));
  EXPECT_EQ(coord.total_outstanding(), 3);
}

TEST(Coordinator, MinInflightVersionCoversOldQueuedTasks) {
  // A 2-core worker can hold an old queued task while newer ones are
  // dispatched past it: the history-GC bound must report the *minimum*
  // outstanding version, not the last dispatched one.
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  const engine::TaskSpec old_task = int_task(cluster, 0, /*version=*/0, 2);
  coord.on_task_dispatch(0, old_task);  // old task, still in flight
  for (int i = 0; i < 5; ++i) coord.advance_version();
  const engine::TaskSpec new_task = int_task(cluster, 1, /*version=*/5, 1);
  coord.on_task_dispatch(0, new_task);  // newer task on the other core

  StatSnapshot snap = coord.stat();
  EXPECT_EQ(snap.workers[0].last_dispatch_version, 5u);
  EXPECT_EQ(snap.workers[0].min_outstanding_version, 0u);
  EXPECT_EQ(snap.min_inflight_version(), 0u);

  // The newer task finishing first must not unpin the old one.
  cluster.submit(0, new_task);
  ASSERT_TRUE(coord.collect_for(1000ms).has_value());
  EXPECT_EQ(coord.stat().min_inflight_version(), 0u);

  // Once the old task's result lands, the bound catches up to the present.
  cluster.submit(0, old_task);
  ASSERT_TRUE(coord.collect_for(1000ms).has_value());
  EXPECT_EQ(coord.stat().min_inflight_version(), 5u);
}

TEST(Coordinator, FirstResultWinsDropsReplicaDuplicates) {
  // Two bit-identical copies of one task identity (partition, seq) in
  // flight: exactly one result is delivered, the other is dropped after its
  // STAT bookkeeping, and nothing stays outstanding.
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  engine::TaskSpec original = int_task(cluster, /*p=*/3, /*version=*/0, 42);
  original.seq = 5;
  engine::TaskSpec replica = int_task(cluster, /*p=*/3, /*version=*/0, 42);
  replica.seq = 5;

  coord.on_task_dispatch(0, original);
  ASSERT_TRUE(coord.try_register_replica(1, replica));
  cluster.submit(0, std::move(original));
  cluster.submit(1, std::move(replica));

  auto first = coord.collect_for(1000ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->result.payload.get<int>(), 42);
  // The loser is dropped, never queued.
  EXPECT_FALSE(coord.collect_for(200ms).has_value());
  EXPECT_EQ(coord.duplicates_dropped(), 1u);
  EXPECT_EQ(coord.total_outstanding(), 0);
}

TEST(Coordinator, FailureWithLiveReplicaIsNotRetried) {
  // Original fails while its bit-identical replica is still in flight: the
  // replica covers the task, so the failure must not reach the retry queue
  // (a retry would be a wasted third dispatch). The replica's OK result is
  // delivered normally.
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  engine::TaskSpec original = failing_task(cluster, /*p=*/2);
  original.seq = 4;
  engine::TaskSpec replica = int_task(cluster, /*p=*/2, /*version=*/0, 11);
  replica.seq = 4;

  coord.on_task_dispatch(0, original);
  ASSERT_TRUE(coord.try_register_replica(1, replica));
  cluster.submit(0, std::move(original));
  cluster.submit(1, std::move(replica));

  auto delivered = coord.collect_for(1000ms);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->result.payload.get<int>(), 11);
  // The losing copy may not have reached the channel yet; wait for its
  // bookkeeping before asserting on it.
  for (int i = 0; i < 1000 && coord.total_outstanding() > 0; ++i) {
    if (!coord.has_next()) std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(coord.try_collect_failure().has_value());
  EXPECT_EQ(coord.duplicates_dropped(), 1u);
  EXPECT_EQ(coord.total_outstanding(), 0);
}

TEST(Coordinator, ReplicaRegistrationFailsOnceResultAccounted) {
  // A replica may only be registered while the original is still
  // unaccounted: once its result has been drained (even if not yet
  // collected), registering a replica would deliver the identity twice.
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  engine::TaskSpec spec = int_task(cluster, /*p=*/1, /*version=*/0, 7);
  spec.seq = 9;
  engine::TaskSpec replica = spec;
  coord.on_task_dispatch(0, spec);
  cluster.submit(0, std::move(spec));
  ASSERT_TRUE(coord.collect_for(1000ms).has_value());

  EXPECT_FALSE(coord.try_register_replica(1, replica));
  EXPECT_EQ(coord.total_outstanding(), 0);
}

TEST(Coordinator, DispatchAbortUnwindsRegistration) {
  // Registration happens before submit; if the transport then rejects the
  // submit (fault injection, shutdown), the abort must unwind everything the
  // registration touched — outstanding, availability, and the min-inflight
  // GC bound — or the phantom task pins them all forever.
  engine::Cluster cluster(quiet_config(1));
  Coordinator coord(cluster);

  engine::TaskSpec spec = int_task(cluster, /*p=*/0, /*version=*/0, 3);
  spec.seq = 2;
  coord.on_task_dispatch(0, spec);
  EXPECT_EQ(coord.total_outstanding(), 1);
  EXPECT_EQ(coord.stat().available_workers(), 0);

  coord.on_dispatch_aborted(0, spec);
  EXPECT_EQ(coord.total_outstanding(), 0);
  EXPECT_EQ(coord.stat().available_workers(), 1);
  EXPECT_EQ(coord.stat().min_inflight_version(), 0u);  // back to the present
}

TEST(Coordinator, RetryAfterAbortedDispatchStillDelivers) {
  // The resubmit reject path: register on worker 0, abort, register the SAME
  // (partition, seq) identity on worker 1. The abort must not poison the
  // identity (e.g. via the accounted-seq duplicate floor): the retry's
  // genuine result still delivers exactly once.
  engine::Cluster cluster(quiet_config(2));
  Coordinator coord(cluster);

  engine::TaskSpec spec = int_task(cluster, /*p=*/0, /*version=*/0, 3);
  spec.seq = 6;
  coord.on_task_dispatch(0, spec);
  coord.on_dispatch_aborted(0, spec);

  engine::TaskSpec retry = int_task(cluster, /*p=*/0, /*version=*/0, 8);
  retry.seq = 6;
  coord.on_task_dispatch(1, retry);
  cluster.submit(1, std::move(retry));

  auto delivered = coord.collect_for(1000ms);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->result.payload.get<int>(), 8);
  EXPECT_EQ(delivered->worker.id, 1);
  EXPECT_EQ(coord.total_outstanding(), 0);
}

}  // namespace
}  // namespace asyncml::core
