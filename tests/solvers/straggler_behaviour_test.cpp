// Integration tests for the paper's core claims about stragglers:
// synchronous wait time grows with delay intensity while asynchronous wait
// time stays flat (Figures 4/6), and async solvers finish faster under
// delay (Figures 3/5).  Uses small budgets: we assert ordering relations,
// not absolute times, so scheduler noise cannot flake the suite.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "optim/asaga.hpp"
#include "optim/asgd.hpp"
#include "optim/saga.hpp"
#include "optim/sgd.hpp"
#include "straggler/controlled_delay.hpp"
#include "straggler/production_cluster.hpp"

namespace asyncml::optim {
namespace {

engine::Cluster::Config delayed_config(int workers,
                                       std::shared_ptr<const engine::DelayModel> delay) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  config.delay = std::move(delay);
  return config;
}

Workload tiny_workload(std::uint64_t seed, int partitions = 8) {
  const auto problem = data::synthetic::tiny(160, 8, 0.0, seed);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  return Workload::create(dataset, partitions, make_least_squares());
}

SolverConfig timed_config(std::uint64_t updates, double service_ms) {
  SolverConfig config;
  config.updates = updates;
  config.batch_fraction = 0.3;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  config.service_floor_ms = service_ms;
  config.eval_every = 10;
  return config;
}

TEST(StragglerBehaviour, SyncWallTimeGrowsWithDelay) {
  // 4 ms floors push the modeled service well above host scheduling noise;
  // the nominal growth at 100% delay is ~1.6x, so the 1.25x bound leaves
  // ~20% headroom for jitter on loaded CI machines.
  const Workload workload = tiny_workload(1);
  const SolverConfig config = timed_config(30, 4.0);

  engine::Cluster fast(delayed_config(4, nullptr));
  const RunResult no_delay = SgdSolver::run(fast, workload, config);

  engine::Cluster slow(delayed_config(
      4, std::make_shared<straggler::ControlledDelay>(0, /*intensity=*/1.0)));
  const RunResult with_delay = SgdSolver::run(slow, workload, config);

  // Every BSP iteration waits for the straggler: wall time must grow.
  EXPECT_GT(with_delay.wall_ms, no_delay.wall_ms * 1.25);
}

TEST(StragglerBehaviour, SyncWaitTimeGrowsWithDelay) {
  const Workload workload = tiny_workload(2);
  const SolverConfig config = timed_config(25, 2.0);

  engine::Cluster fast(delayed_config(4, nullptr));
  const RunResult no_delay = SgdSolver::run(fast, workload, config);

  engine::Cluster slow(delayed_config(
      4, std::make_shared<straggler::ControlledDelay>(0, 1.0)));
  const RunResult with_delay = SgdSolver::run(slow, workload, config);

  EXPECT_GT(with_delay.mean_wait_ms, no_delay.mean_wait_ms * 1.3);
}

TEST(StragglerBehaviour, AsyncWaitTimeFlatAcrossDelays) {
  const Workload workload = tiny_workload(3);
  const SolverConfig config = timed_config(120, 2.0);

  engine::Cluster fast(delayed_config(4, nullptr));
  const RunResult no_delay = AsgdSolver::run(fast, workload, config);

  engine::Cluster slow(delayed_config(
      4, std::make_shared<straggler::ControlledDelay>(0, 1.0)));
  const RunResult with_delay = AsgdSolver::run(slow, workload, config);

  // The paper's Figure 4: ASGD's wait does not grow with delay intensity.
  // Allow generous noise but demand it stays within 2x.
  EXPECT_LT(with_delay.mean_wait_ms, no_delay.mean_wait_ms * 2.0 + 1.0);
}

TEST(StragglerBehaviour, AsyncBeatsSyncWallClockUnderDelay) {
  // Same update budget per paradigm pair, one worker at half speed: the
  // sync run pays the straggler every iteration, the async run doesn't.
  const Workload workload = tiny_workload(4);
  auto delay = std::make_shared<straggler::ControlledDelay>(0, 1.0);

  // 24 sync iterations x 8 partitions = 192 tasks; 192 async updates = same
  // task count, so the comparison is budget-fair.
  engine::Cluster sync_cluster(delayed_config(4, delay));
  const RunResult sync = SgdSolver::run(sync_cluster, workload, timed_config(24, 2.0));

  engine::Cluster async_cluster(delayed_config(4, delay));
  const RunResult async_run =
      AsgdSolver::run(async_cluster, workload, timed_config(192, 2.0));

  EXPECT_LT(async_run.wall_ms, sync.wall_ms);
}

TEST(StragglerBehaviour, PcsSlowsSyncMoreThanAsync) {
  // Production-cluster pattern on 8 workers: sync pays the slowest machine
  // every round; async throughput tracks the healthy majority.
  const Workload workload = tiny_workload(5);
  auto pcs = std::make_shared<straggler::ProductionCluster>(8, /*seed=*/3);

  engine::Cluster sync_cluster(delayed_config(8, pcs));
  const RunResult sync = SgdSolver::run(sync_cluster, workload, timed_config(16, 2.0));

  engine::Cluster async_cluster(delayed_config(8, pcs));
  const RunResult async_run =
      AsgdSolver::run(async_cluster, workload, timed_config(128, 2.0));

  EXPECT_LT(async_run.wall_ms, sync.wall_ms);
  EXPECT_LT(async_run.mean_wait_ms, sync.mean_wait_ms);
}

TEST(StragglerBehaviour, StealingAndSpeculationCutBarrierWaitWallClock) {
  // Barrier-wait SGD through the scheduler, one worker at half speed owning
  // 3 of 12 partitions (two waves on its 2 cores -> 20 ms rounds vs 10 ms
  // healthy). Stealing sheds a partition once the straggler has cleared the
  // steal margin for three rounds, cutting the round to ~10 ms (speculation
  // trims the rounds before that); the trajectory stays bit-identical (same
  // (seed, partition, seq) batches, partition-ordered combine).
  const Workload workload = tiny_workload(7, /*partitions=*/12);
  auto delay = std::make_shared<straggler::ControlledDelay>(0, /*intensity=*/1.0);
  SolverConfig off = timed_config(12, 5.0);

  engine::Cluster off_cluster(delayed_config(4, delay));
  const RunResult fixed = SgdSolver::run(off_cluster, workload, off);

  SolverConfig on = off;
  on.steal_mode = core::StealMode::kLocality;
  on.speculation_factor = 2.0;
  engine::Cluster on_cluster(delayed_config(4, delay));
  const RunResult dynamic = SgdSolver::run(on_cluster, workload, on);

  EXPECT_GE(dynamic.partitions_stolen, 1u);
  // Nominal ratio ~1.7x (20 ms rounds -> 10 ms after the steal); 1.3x
  // leaves headroom for jitter on loaded CI machines.
  EXPECT_GT(fixed.wall_ms, dynamic.wall_ms * 1.3);
  EXPECT_TRUE(linalg::bitwise_equal(fixed.final_w, dynamic.final_w));
}

TEST(StragglerBehaviour, SpeculativeDuplicatesAreNotDoubleCounted) {
  // 3 partitions per worker queue up each round, so the straggler's last
  // task is predictably overdue and gets a replica. First-result-wins must
  // deliver exactly one result per (partition, seq): the update count, the
  // per-round task count, and the iterates all match the replica-free run.
  const Workload workload = tiny_workload(8, /*partitions=*/12);
  auto delay = std::make_shared<straggler::ControlledDelay>(0, 1.0);
  SolverConfig off = timed_config(10, 4.0);

  engine::Cluster off_cluster(delayed_config(4, delay));
  const RunResult plain = SgdSolver::run(off_cluster, workload, off);

  SolverConfig on = off;
  on.speculation_factor = 2.0;  // speculation only: isolate the dedup path
  engine::Cluster on_cluster(delayed_config(4, delay));
  const RunResult spec = SgdSolver::run(on_cluster, workload, on);

  EXPECT_GE(spec.tasks_speculated, 1u);
  // Every replica that completed after its original was dropped, never
  // delivered: the solver consumed exactly one result per dispatched task.
  EXPECT_EQ(spec.tasks, plain.tasks);
  EXPECT_EQ(spec.tasks, spec.updates * 12);
  EXPECT_EQ(spec.updates, plain.updates);
  EXPECT_TRUE(linalg::bitwise_equal(plain.final_w, spec.final_w));
}

TEST(StragglerBehaviour, HistoryWritingTasksAreNeverReplicated) {
  // SAGA-family task bodies rewrite SampleVersionTable entries, so a replica
  // would re-apply them. With a 4x straggler and a tight lost-task horizon
  // the rescue path would fire many times; both solvers must keep it (and
  // speculation) off.
  const Workload workload = tiny_workload(10);
  auto delay = std::make_shared<straggler::ControlledDelay>(0, /*intensity=*/3.0);
  SolverConfig config = timed_config(200, 2.0);
  config.lost_task_factor = 1.5;
  config.speculation_factor = 2.0;

  engine::Cluster asaga_cluster(delayed_config(4, delay));
  const RunResult asaga = AsagaSolver::run(asaga_cluster, workload, config);
  EXPECT_EQ(asaga.tasks_speculated, 0u);
  EXPECT_EQ(asaga.duplicates_dropped, 0u);

  engine::Cluster saga_cluster(delayed_config(4, delay));
  const RunResult saga = SagaSolver::run(saga_cluster, workload, config);
  EXPECT_EQ(saga.tasks_speculated, 0u);
  EXPECT_EQ(saga.duplicates_dropped, 0u);
}

TEST(StragglerBehaviour, NoDelayKeepsFixedPlacementBitIdentical) {
  // With no delay model installed the steal trigger and the predictive
  // speculation trigger must keep both features dormant: zero steals, zero
  // replicas, and a trajectory bit-identical to the fixed-placement run.
  const Workload workload = tiny_workload(9, /*partitions=*/8);
  SolverConfig off = timed_config(10, 2.0);

  engine::Cluster off_cluster(delayed_config(4, nullptr));
  const RunResult fixed = SgdSolver::run(off_cluster, workload, off);

  SolverConfig on = off;
  on.steal_mode = core::StealMode::kLocality;
  on.speculation_factor = 2.0;
  engine::Cluster on_cluster(delayed_config(4, nullptr));
  const RunResult dynamic = SgdSolver::run(on_cluster, workload, on);

  EXPECT_EQ(dynamic.partitions_stolen, 0u);
  EXPECT_EQ(dynamic.tasks_speculated, 0u);
  EXPECT_EQ(dynamic.migration_bytes, 0u);
  EXPECT_TRUE(linalg::bitwise_equal(fixed.final_w, dynamic.final_w));
}

TEST(StragglerBehaviour, OneWaveStragglerKeepsItsPartitions) {
  // Worker 0 at half speed owns 2 of 8 partitions on its 2 cores: one wave.
  // Moving one away still leaves it a full-length task, so the round ends
  // no sooner; the one-task floor of the synchronous drain estimate must
  // see that and move nothing, however the EWMAs jitter.
  const Workload workload = tiny_workload(9, /*partitions=*/8);
  SolverConfig config = timed_config(10, 2.0);
  config.steal_mode = core::StealMode::kLocality;
  engine::Cluster cluster(
      delayed_config(4, std::make_shared<straggler::ControlledDelay>(0, /*intensity=*/1.0)));
  const RunResult run = SgdSolver::run(cluster, workload, config);

  EXPECT_EQ(run.partitions_stolen, 0u);
}

TEST(StragglerBehaviour, DelayDoesNotChangeSyncTrajectory) {
  // The straggler slows wall clock but must not change the math: same seeds
  // mean identical batches, so final error matches the no-delay run.
  const Workload workload = tiny_workload(6);
  const SolverConfig config = timed_config(20, 1.0);

  engine::Cluster fast(delayed_config(4, nullptr));
  const RunResult a = SgdSolver::run(fast, workload, config);
  engine::Cluster slow(delayed_config(
      4, std::make_shared<straggler::ControlledDelay>(1, 1.0)));
  const RunResult b = SgdSolver::run(slow, workload, config);

  EXPECT_NEAR(a.final_error(), b.final_error(), 1e-9);
}

}  // namespace
}  // namespace asyncml::optim
