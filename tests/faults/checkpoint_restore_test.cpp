// Kill-and-restore acceptance (docs/FAULTS.md): a run checkpointed at update
// K and resumed in a *fresh process image* (new Cluster, new AsyncContext)
// must rejoin the uninterrupted run's trajectory — bit-exactly for the
// synchronous solvers, trajectory-equivalently for the asynchronous ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "optim/asaga.hpp"
#include "optim/asgd.hpp"
#include "optim/checkpoint.hpp"
#include "optim/epoch_vr.hpp"
#include "optim/objective.hpp"
#include "optim/saga.hpp"
#include "optim/sgd.hpp"

namespace asyncml::optim {
namespace {

Workload tiny_workload(std::uint64_t seed) {
  const auto problem = data::synthetic::tiny(120, 6, 0.0, seed);
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

SolverConfig base_config(std::uint64_t updates) {
  SolverConfig config;
  config.updates = updates;
  config.batch_fraction = 0.3;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  config.service_floor_ms = 0.0;
  config.eval_every = 10;
  config.seed = 11;
  return config;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Removes the pointer at `path` and both of its self-contained directories.
void remove_checkpoint(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove_all(path + ".0");
  std::filesystem::remove_all(path + ".1");
}

TEST(CheckpointRestore, SgdResumesBitExactly) {
  const Workload workload = tiny_workload(1);
  const std::string path = temp_path("sgd_restore.ckpt");

  // Reference: one uninterrupted 30-update run.
  engine::Cluster c_ref(quiet_config(2));
  const RunResult uninterrupted =
      SgdSolver::run(c_ref, workload, base_config(30));

  // "Kill" at update 16: the first leg stops there, its last checkpoint
  // (cadence 8 → written at 8 and 16) is what survives the crash.
  SolverConfig leg1 = base_config(16);
  leg1.checkpoint_every = 8;
  leg1.checkpoint_path = path;
  engine::Cluster c1(quiet_config(2));
  (void)SgdSolver::run(c1, workload, leg1);

  // Restore into a fresh cluster and finish the budget.
  SolverConfig leg2 = base_config(30);
  leg2.resume_from = path;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = SgdSolver::run(c2, workload, leg2);

  // Sync resume is bit-exact: same iterate stream, same final model bits.
  ASSERT_EQ(resumed.final_w.size(), uninterrupted.final_w.size());
  EXPECT_EQ(linalg::max_abs_diff(resumed.final_w.span(), uninterrupted.final_w.span()),
            0.0);
  EXPECT_DOUBLE_EQ(resumed.final_error(), uninterrupted.final_error());
  remove_checkpoint(path);
}

TEST(CheckpointRestore, CheckpointCarriesVersionRoundAndCounters) {
  const Workload workload = tiny_workload(2);
  const std::string path = temp_path("sgd_counters.ckpt");
  SolverConfig config = base_config(12);
  config.checkpoint_every = 12;
  config.checkpoint_path = path;
  engine::Cluster cluster(quiet_config(2));
  (void)SgdSolver::run(cluster, workload, config);

  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const SolverCheckpoint& cp = loaded.value();
  EXPECT_EQ(cp.update_index, 12u);
  EXPECT_EQ(cp.model_version, 12u);  // sync SGD: one version bump per update
  EXPECT_GE(cp.round, 12u);          // at least one dispatch round per update
  ASSERT_TRUE(cp.counters.contains("tasks_completed"));
  EXPECT_GT(cp.counters.at("tasks_completed"), 0u);
  ASSERT_TRUE(cp.counters.contains("tasks_failed"));
  ASSERT_TRUE(cp.counters.contains("duplicates_dropped"));
  ASSERT_TRUE(cp.counters.contains("retries"));
  remove_checkpoint(path);
}

TEST(CheckpointRestore, AsgdResumeContinuesTheBudgetAndConverges) {
  const Workload workload = tiny_workload(3);
  const std::string path = temp_path("asgd_restore.ckpt");

  SolverConfig leg1 = base_config(40);
  leg1.checkpoint_every = 20;
  leg1.checkpoint_path = path;
  engine::Cluster c1(quiet_config(2));
  (void)AsgdSolver::run(c1, workload, leg1);

  SolverConfig leg2 = base_config(80);
  leg2.resume_from = path;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = AsgdSolver::run(c2, workload, leg2);

  // Async resume is trajectory-equivalent, not bit-exact: the budget picks
  // up where the checkpoint left off and the combined run still converges.
  EXPECT_EQ(resumed.updates, 80u);
  EXPECT_LT(resumed.final_error(), 0.5);
  remove_checkpoint(path);
}

TEST(CheckpointRestore, SagaResumeWarmStartsTheModel) {
  const Workload workload = tiny_workload(4);
  const std::string path = temp_path("saga_restore.ckpt");

  SolverConfig leg1 = base_config(30);
  leg1.step = constant_step(0.05);
  leg1.checkpoint_every = 30;
  leg1.checkpoint_path = path;
  engine::Cluster c1(quiet_config(2));
  const RunResult first = SagaSolver::run(c1, workload, leg1);

  // The checkpoint carries alpha_bar for inspection even though the resumed
  // run restarts it cold (documented SAGA resume semantics).
  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_TRUE(loaded.value().aux.contains("alpha_bar"));
  EXPECT_EQ(loaded.value().aux.at("alpha_bar").size(), workload.dim());

  SolverConfig leg2 = base_config(60);
  leg2.step = constant_step(0.05);
  leg2.resume_from = path;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = SagaSolver::run(c2, workload, leg2);

  // Warm start from the leg-1 iterate: the resumed run must not be worse
  // than where the first leg ended (plain-SAGA restart is unbiased).
  EXPECT_EQ(resumed.updates, 60u);
  EXPECT_LE(resumed.final_error(), first.final_error() + 1e-9);
  remove_checkpoint(path);
}

using Solver = RunResult (*)(engine::Cluster&, const Workload&, const SolverConfig&);

/// Kill at update `k` (leg 1 checkpoints there), resume in a fresh cluster and
/// finish a 2k budget. Solvers whose state beyond the model restarts cold
/// (ASAGA's ᾱ and version table, EpochVR's epoch) warm-start from the leg-1
/// iterate, so the resumed run must not end worse than leg 1 did.
void expect_warm_start_resume(Solver solver, SolverConfig config, std::uint64_t k,
                              const std::string& path, const char* aux = nullptr) {
  const Workload workload = tiny_workload(7);
  config.checkpoint_every = k;
  config.checkpoint_path = path;
  config.updates = k;
  engine::Cluster c1(quiet_config(2));
  const RunResult first = solver(c1, workload, config);

  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().update_index, k);
  if (aux != nullptr) {
    ASSERT_TRUE(loaded.value().aux.contains(aux));
    EXPECT_EQ(loaded.value().aux.at(aux).size(), workload.dim());
  }

  config.checkpoint_every = 0;
  config.resume_from = path;
  config.updates = 2 * k;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = solver(c2, workload, config);

  ASSERT_FALSE(resumed.trace.empty());
  EXPECT_EQ(resumed.trace.front().update, k);
  EXPECT_GE(resumed.updates, 2 * k);
  EXPECT_LE(resumed.final_error(), first.final_error() + 1e-9);
  remove_checkpoint(path);
}

TEST(CheckpointRestore, AsagaResumeWarmStartsTheModel) {
  SolverConfig config = base_config(0);
  config.step = constant_step(0.05);
  expect_warm_start_resume(&AsagaSolver::run, config, 40,
                           temp_path("asaga_restore.ckpt"), "alpha_bar");
}

TEST(CheckpointRestore, EpochVrResumeWarmStartsTheModel) {
  SolverConfig config = base_config(0);
  config.step = constant_step(0.05);
  config.epoch_inner_updates = 20;
  expect_warm_start_resume(&EpochVrSolver::run, config, 40,
                           temp_path("epoch_vr_restore.ckpt"));
}

using CheckpointRestoreDeathTest = ::testing::Test;

TEST(CheckpointRestoreDeathTest, MalformedResumeFileAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("corrupt.ckpt");
  {
    // A pointer past its magic whose directory length overruns the file.
    std::ofstream out(path, std::ios::binary);
    out.write("AMLCKPT3", 8);
    const std::uint32_t dir_bytes = 64;
    out.write(reinterpret_cast<const char*>(&dir_bytes), sizeof(dir_bytes));
    out << "but then garbage";
  }
  const Workload workload = tiny_workload(5);
  SolverConfig config = base_config(5);
  config.resume_from = path;
  EXPECT_DEATH(
      {
        engine::Cluster cluster(quiet_config(1));
        (void)SgdSolver::run(cluster, workload, config);
      },
      "cannot resume");
  remove_checkpoint(path);
}

TEST(CheckpointRestoreDeathTest, MissingResumeFileAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Workload workload = tiny_workload(6);
  SolverConfig config = base_config(5);
  config.resume_from = temp_path("does_not_exist.ckpt");
  // Every AsyncContext solver resumes through the same path; none may start
  // silently from update 0.
  for (const Solver solver : {&SgdSolver::run, &AsgdSolver::run, &SagaSolver::run,
                              &AsagaSolver::run, &EpochVrSolver::run}) {
    EXPECT_DEATH(
        {
          engine::Cluster cluster(quiet_config(1));
          (void)solver(cluster, workload, config);
        },
        "cannot resume");
  }
}

}  // namespace
}  // namespace asyncml::optim
