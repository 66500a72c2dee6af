// Scheduler invariants under dynamic placement (docs/SCHEDULING.md):
// ownership stays a partition of the partition set across steals, capacity
// is conserved when stealing composes with a barrier, input validation
// fails loudly, and a healthy cluster never reshuffles ownership.

#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "core/barrier.hpp"
#include "core/coordinator.hpp"
#include "straggler/controlled_delay.hpp"

namespace asyncml::core {
namespace {

using namespace std::chrono_literals;

engine::Cluster::Config steal_config(int workers, int cores,
                                     std::shared_ptr<const engine::DelayModel> delay) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = cores;
  config.network.time_scale = 0.0;
  config.delay = std::move(delay);
  return config;
}

AsyncScheduler::TaskFactory int_factory(engine::Cluster& cluster,
                                        double service_ms = 3.0) {
  return [&cluster, service_ms](engine::PartitionId p) {
    engine::TaskSpec spec;
    spec.partition = p;
    spec.model_version = 0;
    spec.service_floor_ms = service_ms;
    spec.fn = std::make_shared<const engine::TaskFn>(
        [](engine::TaskContext&) -> support::StatusOr<engine::Payload> {
          return engine::Payload::wrap<int>(7);
        });
    return spec;
  };
}

/// Every partition must be owned by exactly one worker, always.
void expect_ownership_is_partition(const AsyncScheduler& scheduler, int workers,
                                   int partitions) {
  std::vector<int> owners(static_cast<std::size_t>(partitions), 0);
  for (int w = 0; w < workers; ++w) {
    for (const engine::PartitionId p : scheduler.partitions_of(w)) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, partitions);
      owners[static_cast<std::size_t>(p)] += 1;
    }
  }
  for (int p = 0; p < partitions; ++p) {
    EXPECT_EQ(owners[static_cast<std::size_t>(p)], 1) << "partition " << p;
  }
}

TEST(Scheduler, PartitionsOfValidatesWorkerId) {
  engine::Cluster cluster(steal_config(2, 1, nullptr));
  Coordinator coordinator(cluster);
  AsyncScheduler scheduler(cluster, coordinator);
  scheduler.set_num_partitions(4);

  EXPECT_NO_THROW((void)scheduler.partitions_of(1));
  EXPECT_THROW((void)scheduler.partitions_of(2), std::out_of_range);
  EXPECT_THROW((void)scheduler.partitions_of(-1), std::out_of_range);
  try {
    (void)scheduler.partitions_of(9);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("worker 9"), std::string::npos) << e.what();
  }
}

TEST(Scheduler, StealingComposesWithBarrierAndConservesInvariants) {
  // One worker 4x slower; the median-anchored filter shuns it once its EWMA
  // exists, its partition idles, and a healthy worker with free capacity and
  // no idle owned partition claims it (it may lose its last partition only
  // because the barrier already shut it out). Throughout: ownership stays a
  // partition of the partition set and no worker exceeds its core capacity.
  constexpr int kWorkers = 4;
  constexpr int kCores = 2;
  constexpr int kPartitions = 4;
  engine::Cluster cluster(steal_config(
      kWorkers, kCores, std::make_shared<straggler::ControlledDelay>(0, 3.0)));
  Coordinator coordinator(cluster);
  coordinator.start();
  AsyncScheduler scheduler(cluster, coordinator);
  scheduler.set_num_partitions(kPartitions);
  SchedulerPolicy policy;
  policy.steal_mode = StealMode::kLocality;
  scheduler.set_policy(policy);

  const BarrierControl barrier = barriers::median_completion_within(2.0);
  const AsyncScheduler::TaskFactory factory = int_factory(cluster, /*service_ms=*/4.0);

  int collected = 0;
  while (collected < 40) {
    scheduler.dispatch_eligible(barrier, factory);
    expect_ownership_is_partition(scheduler, kWorkers, kPartitions);
    for (const WorkerStat& row : coordinator.stat().workers) {
      EXPECT_LE(row.outstanding, kCores) << "worker " << row.id;
    }
    auto result = coordinator.collect_for(2000ms);
    ASSERT_TRUE(result.has_value());
    scheduler.on_result_collected(result->result.partition);
    ++collected;
  }

  EXPECT_GE(scheduler.partitions_stolen(), 1u);
  // The straggler was stripped: every partition now lives on a healthy worker.
  EXPECT_TRUE(scheduler.partitions_of(0).empty());
  expect_ownership_is_partition(scheduler, kWorkers, kPartitions);

  // Drain what is still in flight: afterwards the scheduler's busy count and
  // the coordinator's outstanding count must both reach exactly zero — no
  // task lost, none double-counted.
  while (coordinator.total_outstanding() > 0 || coordinator.has_next()) {
    auto tail = coordinator.collect_for(2000ms);
    ASSERT_TRUE(tail.has_value());
    scheduler.on_result_collected(tail->result.partition);
  }
  EXPECT_EQ(scheduler.busy_partitions(), 0);
  EXPECT_EQ(coordinator.total_outstanding(), 0);
  coordinator.stop();
}

TEST(Scheduler, NoStealsOnHealthyCluster) {
  // Homogeneous workers, ASP: the steal trigger must keep EWMA jitter
  // from reshuffling ownership — placement stays the fixed p % W forever.
  constexpr int kWorkers = 4;
  constexpr int kPartitions = 8;
  engine::Cluster cluster(steal_config(kWorkers, 2, nullptr));
  Coordinator coordinator(cluster);
  coordinator.start();
  AsyncScheduler scheduler(cluster, coordinator);
  scheduler.set_num_partitions(kPartitions);
  SchedulerPolicy policy;
  policy.steal_mode = StealMode::kLocality;
  scheduler.set_policy(policy);

  const BarrierControl barrier = barriers::asp();
  const AsyncScheduler::TaskFactory factory = int_factory(cluster, /*service_ms=*/1.5);

  std::vector<std::vector<engine::PartitionId>> initial;
  for (int w = 0; w < kWorkers; ++w) initial.push_back(scheduler.partitions_of(w));

  int collected = 0;
  while (collected < 60) {
    scheduler.dispatch_eligible(barrier, factory);
    auto result = coordinator.collect_for(2000ms);
    ASSERT_TRUE(result.has_value());
    scheduler.on_result_collected(result->result.partition);
    ++collected;
  }

  EXPECT_EQ(scheduler.partitions_stolen(), 0u);
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(scheduler.partitions_of(w), initial[static_cast<std::size_t>(w)]);
  }
  coordinator.stop();
}

}  // namespace
}  // namespace asyncml::core
