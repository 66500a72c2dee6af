// Seeded chaos properties (docs/FAULTS.md): randomized-but-reproducible
// FaultPlans drawn from ASYNCML_CHAOS_SEED (default 1; the CI chaos job runs
// several seeds). The headline property is the determinism contract: for the
// synchronous scheduled solver, transient task failures, staged delays, and
// even a fail-stop worker crash change *where and when* work runs but never
// the bits of the iterate sequence — a retry or failover recomputes the same
// (seed, partition, seq) mini-batch, and results combine in partition order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "optim/asgd.hpp"
#include "optim/objective.hpp"
#include "optim/sgd.hpp"

namespace asyncml::optim {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("ASYNCML_CHAOS_SEED"); env != nullptr) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 1;
}

Workload chaos_workload() {
  const auto problem = data::synthetic::tiny(120, 6, 0.0, /*seed=*/9);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  return Workload::create(dataset, 4, make_least_squares());
}

engine::Cluster::Config quiet_config(int workers) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 1;
  config.network.time_scale = 0.0;
  return config;
}

SolverConfig solver_config(std::uint64_t updates) {
  SolverConfig config;
  config.updates = updates;
  config.batch_fraction = 0.3;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  config.service_floor_ms = 0.0;
  config.eval_every = updates;
  config.seed = 13;
  return config;
}

/// Draws a transient-chaos plan: task failures and small delays with random
/// keys and occurrence windows, plus (sometimes) one fail-stop crash. No
/// result drops and no submit rejections: those change *which* tasks make up
/// a synchronous round, which is outside the bit-identical contract.
engine::FaultPlan draw_transient_plan(std::mt19937_64& rng, int workers) {
  engine::FaultPlan plan;
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::uint64_t> times(1, 3);
  std::uniform_int_distribution<std::uint64_t> after(0, 6);
  std::uniform_int_distribution<int> worker(0, workers - 1);
  std::uniform_int_distribution<int> partition(0, 3);

  // One wildcard failure burst and one keyed one.
  plan.fail_task({}, times(rng), after(rng));
  plan.fail_task({.worker = worker(rng), .partition = partition(rng)},
                 times(rng), after(rng));
  // Small compute delay (real sleep: keep it tiny).
  plan.delay(engine::FaultStage::kCompute, 1.0, {.worker = worker(rng)},
             /*times=*/2, after(rng));
  if (coin(rng) == 1) {
    // A fail-stop crash mid-run; failover retries keep the round complete.
    std::uniform_int_distribution<std::uint64_t> at_task(3, 12);
    plan.crash_worker(worker(rng), at_task(rng));
  }
  return plan;
}

TEST(ChaosProperty, SyncSgdIsBitIdenticalUnderSeededTransientChaos) {
  const std::uint64_t seed = chaos_seed();
  std::printf("ASYNCML_CHAOS_SEED=%llu\n", static_cast<unsigned long long>(seed));
  const Workload workload = chaos_workload();
  const SolverConfig config = solver_config(15);

  engine::Cluster clean(quiet_config(3));
  const RunResult reference = SgdSolver::run(clean, workload, config);

  for (int trial = 0; trial < 3; ++trial) {
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(trial));
    engine::Cluster::Config faulty = quiet_config(3);
    faulty.faults = draw_transient_plan(rng, 3);
    engine::Cluster cluster(faulty);
    const RunResult chaotic = SgdSolver::run(cluster, workload, config);

    ASSERT_EQ(chaotic.final_w.size(), reference.final_w.size());
    EXPECT_EQ(linalg::max_abs_diff(chaotic.final_w.span(), reference.final_w.span()),
              0.0)
        << "trial " << trial << " diverged under seed " << seed;
    EXPECT_DOUBLE_EQ(chaotic.final_error(), reference.final_error());
  }
}

TEST(ChaosProperty, AsgdRescuesDroppedResultsAndConverges) {
  // A dropped result is the nastiest injection: the task ran, the worker is
  // healthy, and no failure ever surfaces — only the lost-task sweep
  // (SchedulerPolicy::lost_task_factor) can un-wedge the partition.
  const Workload workload = chaos_workload();

  engine::Cluster::Config config = quiet_config(2);
  config.faults.drop_result({.partition = 1}, /*times=*/2, /*after=*/1);
  engine::Cluster cluster(config);

  SolverConfig solver = solver_config(100);
  solver.service_floor_ms = 0.5;  // a stable EWMA median for the horizon
  solver.lost_task_factor = 5.0;  // ~2.5 ms horizon: well inside the run
  const RunResult result = AsgdSolver::run(cluster, workload, solver);

  EXPECT_EQ(result.updates, 100u);
  EXPECT_LT(result.final_error(), 0.5);
  ASSERT_NE(cluster.faults(), nullptr);
  EXPECT_EQ(cluster.faults()->stats().results_dropped, 2u);
  // Each swallowed result was eventually written off and re-dispatched.
  EXPECT_GE(cluster.metrics().tasks_speculated.load(), 2u);
}

TEST(ChaosProperty, SyncSgdSurvivesSubmitRejectionWithoutWedging) {
  // A rejected submit unwinds its registration (scheduler dispatch paths):
  // the round simply runs one task short instead of pinning `outstanding`
  // forever and tripping the collect deadlock guard.
  const Workload workload = chaos_workload();
  engine::Cluster::Config config = quiet_config(2);
  config.faults.reject_submit({}, /*times=*/3, /*after=*/2);
  engine::Cluster cluster(config);

  const RunResult result = SgdSolver::run(cluster, workload, solver_config(15));
  EXPECT_EQ(result.updates, 15u);
  EXPECT_LT(result.final_error(), 1.0);
  EXPECT_EQ(cluster.faults()->stats().submits_rejected, 3u);
}

}  // namespace
}  // namespace asyncml::optim
