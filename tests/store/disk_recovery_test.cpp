// Crash-recovery acceptance for the durable tier (docs/DURABILITY.md):
//
//   * an SGD coordinator SIGKILLed mid-stream — a real kill(2) of a
//     child process, not a polite shutdown — restarts from the manifest and
//     continues bit-exactly, without replaying any update;
//   * an injected torn_write on the newest checkpoint's model blob makes the
//     restore fall back to the previous checkpoint record (quarantine, no
//     abort) and the continuation is still bit-exact;
//   * a tier whose blob writes fail leaves every checkpoint in a
//     self-contained directory beside the pointer, still bit-exact;
//   * the tier itself is invisible to the math: disk on vs off is
//     bit-identical, and so is a run whose tier cannot open.
//
// The child leg runs through an env-var hook evaluated at static-init time:
// the re-exec'd binary sees ASYNCML_DISK_CHILD_DIR, runs the solver leg, and
// _exit(0)s before gtest's main ever starts.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "data/synthetic.hpp"
#include "engine/broadcast.hpp"
#include "linalg/blas.hpp"
#include "optim/checkpoint.hpp"
#include "optim/objective.hpp"
#include "optim/sgd.hpp"
#include "store/model_store.hpp"

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

SolverConfig durable_config(std::uint64_t updates, const std::string& dir) {
  SolverConfig config;
  config.updates = updates;
  config.batch_fraction = 0.3;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  config.service_floor_ms = 0.0;
  config.eval_every = 100000;  // eval never touches the iterate stream
  config.seed = 11;
  if (!dir.empty()) {
    config.store_config.disk.enabled = true;
    config.store_config.disk.dir = dir;
  }
  return config;
}

// -- the child leg (runs in the re-exec'd process, before gtest main) --------

[[noreturn]] void run_child_leg(const char* dir, const char* ckpt) {
  const Workload workload = tiny_workload(1);
  // Effectively unbounded: the parent SIGKILLs us long before 1M updates.
  SolverConfig config = durable_config(1'000'000, dir);
  config.checkpoint_every = 50;
  config.checkpoint_path = ckpt;
  engine::Cluster cluster(quiet_config(2));
  (void)SgdSolver::run(cluster, workload, config);
  _exit(0);  // only reached if the parent never got around to killing us
}

struct ChildHook {
  ChildHook() {
    const char* dir = std::getenv("ASYNCML_DISK_CHILD_DIR");
    const char* ckpt = std::getenv("ASYNCML_DISK_CHILD_CKPT");
    if (dir != nullptr && ckpt != nullptr) run_child_leg(dir, ckpt);
  }
};
ChildHook child_hook;  // NOLINT: the env-gated child entry point

// TEST_TMPDIR first (the CI chaos legs isolate each seed's blob stores with
// it; older gtest releases ignore it in ::testing::TempDir()).
std::string test_tmp() {
  const char* env = std::getenv("TEST_TMPDIR");
  if (env != nullptr && env[0] != '\0') {
    std::string dir(env);
    if (dir.back() != '/') dir.push_back('/');
    return dir;
  }
  return ::testing::TempDir();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_tmp() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Removes the pointer at `path` and both of its self-contained directories.
void remove_checkpoint(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove_all(path + ".0");
  std::filesystem::remove_all(path + ".1");
}

TEST(DiskRecovery, SigkilledCoordinatorResumesBitExactlyWithoutReplay) {
  const std::string dir = fresh_dir("sigkill_store");
  const std::string ckpt = test_tmp() + "sigkill.ckpt";
  remove_checkpoint(ckpt);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::setenv("ASYNCML_DISK_CHILD_DIR", dir.c_str(), 1);
    ::setenv("ASYNCML_DISK_CHILD_CKPT", ckpt.c_str(), 1);
    // Re-exec so the child is a fresh single-threaded image; the ChildHook
    // static initializer picks the leg up from the env.
    char* const argv[] = {const_cast<char*>("disk_recovery_child"), nullptr};
    ::execv("/proc/self/exe", argv);
    _exit(127);
  }

  // Wait for the first durable checkpoint, then kill -9 mid-stream.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!std::filesystem::exists(ckpt)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child produced no checkpoint in 60s";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was not killed mid-stream (status " << status << ")";

  // The surviving pointer file anchors the restart.
  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const std::uint64_t k = loaded.value().update_index;
  ASSERT_GT(k, 0u);
  EXPECT_EQ(loaded.value().store_dir, dir);

  // Reference: one uninterrupted run to k + 14 (no disk — the tier is inert
  // math-wise, which DiskOnOffIsBitIdentical pins separately).
  const Workload workload = tiny_workload(1);
  engine::Cluster c_ref(quiet_config(2));
  const RunResult uninterrupted =
      SgdSolver::run(c_ref, workload, durable_config(k + 14, ""));

  // Restart from the manifest: no update is replayed (the run continues at
  // k + 1) and the continuation is bit-exact.
  SolverConfig resume = durable_config(k + 14, dir);
  resume.resume_from = ckpt;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = SgdSolver::run(c2, workload, resume);

  EXPECT_EQ(resumed.updates, k + 14);
  ASSERT_EQ(resumed.final_w.size(), uninterrupted.final_w.size());
  EXPECT_EQ(linalg::max_abs_diff(resumed.final_w.span(), uninterrupted.final_w.span()),
            0.0);
  remove_checkpoint(ckpt);
}

// An injected torn_write eats the newest checkpoint's model blob: the write
// "succeeds" (as a lost fsync race does), the pointer file names the torn
// record, and the restore must quarantine it and fall back to the previous
// intact checkpoint — no abort, still bit-exact from there.
TEST(DiskRecovery, TornCheckpointBlobFallsBackToOlderRecordBitExactly) {
  const Workload workload = tiny_workload(1);

  // Dry run: count blob writes so the fault window can target the very last
  // one — the update-12 checkpoint's model blob (base_interval 5 keeps the
  // checkpointed snapshots from dedup-aliasing any published base blob).
  const std::string dry_dir = fresh_dir("torn_ckpt_dry");
  const std::string dry_ckpt = test_tmp() + "torn_dry.ckpt";
  std::uint64_t total_writes = 0;
  {
    SolverConfig config = durable_config(12, dry_dir);
    config.checkpoint_every = 4;
    config.checkpoint_path = dry_ckpt;
    config.store_config.base_interval = 5;
    engine::Cluster cluster(quiet_config(2));
    (void)SgdSolver::run(cluster, workload, config);
    total_writes = cluster.metrics().disk.blob_writes.load();
    remove_checkpoint(dry_ckpt);
  }
  ASSERT_GT(total_writes, 3u);

  // Faulted run: identical leg, the last blob write torn.
  const std::string dir = fresh_dir("torn_ckpt_store");
  const std::string ckpt = test_tmp() + "torn_ckpt.ckpt";
  {
    SolverConfig config = durable_config(12, dir);
    config.checkpoint_every = 4;
    config.checkpoint_path = ckpt;
    config.store_config.base_interval = 5;
    engine::Cluster::Config cc = quiet_config(2);
    cc.faults.torn_write(/*times=*/1, /*after=*/total_writes - 1);
    engine::Cluster cluster(cc);
    (void)SgdSolver::run(cluster, workload, config);
    EXPECT_EQ(cluster.faults() != nullptr
                  ? cluster.faults()->stats().disk_writes_torn
                  : 0u,
              1u);
  }

  // The torn update-12 record fails verification; update 8's survives.
  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().update_index, 8u);

  engine::Cluster c_ref(quiet_config(2));
  SolverConfig ref_config = durable_config(20, "");
  ref_config.store_config.base_interval = 5;
  const RunResult uninterrupted =
      SgdSolver::run(c_ref, workload, ref_config);

  SolverConfig resume = durable_config(20, dir);
  resume.resume_from = ckpt;
  resume.store_config.base_interval = 5;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = SgdSolver::run(c2, workload, resume);

  EXPECT_EQ(linalg::max_abs_diff(resumed.final_w.span(), uninterrupted.final_w.span()),
            0.0);
  remove_checkpoint(ckpt);
}

// The durable tier is write-through behind the in-memory plane: turning it on
// may never change a single bit of the trajectory.
TEST(DiskRecovery, DiskOnOffIsBitIdentical) {
  data::synthetic::SparseSpec spec;
  spec.rows = 160;
  spec.cols = 96;
  spec.density = 0.05;
  spec.noise_std = 0.0;
  const auto problem = data::synthetic::make_sparse(spec, /*seed=*/41);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const Workload workload = Workload::create(dataset, 8, make_least_squares());

  SolverConfig config;
  config.updates = 24;
  config.batch_fraction = 0.25;
  config.service_floor_ms = 0.1;
  config.eval_every = 8;
  config.seed = 23;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);

  engine::Cluster c_mem(quiet_config(4));
  const RunResult in_memory = SgdSolver::run(c_mem, workload, config);

  config.store_config.disk.enabled = true;
  config.store_config.disk.dir = fresh_dir("onoff");
  engine::Cluster c_disk(quiet_config(4));
  const RunResult durable = SgdSolver::run(c_disk, workload, config);

  EXPECT_TRUE(linalg::bitwise_equal(in_memory.final_w, durable.final_w))
      << "disk tier changed the trajectory";
  ASSERT_EQ(durable.trace.size(), in_memory.trace.size());
  for (std::size_t i = 0; i < in_memory.trace.size(); ++i) {
    EXPECT_EQ(durable.trace[i].error, in_memory.trace[i].error) << "trace point " << i;
  }
  // The tier actually ran: blobs were written through.
  EXPECT_GT(c_disk.metrics().disk.blob_writes.load(), 0u);
}

// A tier that cannot open (its directory would sit under a regular file)
// downgrades the run to in-memory at the first publish: the run completes on
// the disk-off trajectory, the tier counts nothing, and checkpoints fall back
// to a self-contained directory beside the pointer.
TEST(DiskRecovery, UnopenableTierDowngradesToInMemory) {
  const Workload workload = tiny_workload(1);
  const std::string blocker = fresh_dir("tier_blocker");
  std::ofstream(blocker) << "a regular file, not a directory";
  const std::string ckpt = test_tmp() + "downgrade.ckpt";
  remove_checkpoint(ckpt);

  SolverConfig config = durable_config(12, blocker + "/store");
  config.checkpoint_every = 4;
  config.checkpoint_path = ckpt;
  engine::Cluster cluster(quiet_config(1));
  const RunResult downgraded = SgdSolver::run(cluster, workload, config);

  EXPECT_EQ(downgraded.updates, 12u);
  EXPECT_EQ(downgraded.disk, engine::DiskTierStats{});
  engine::Cluster c_mem(quiet_config(1));
  const RunResult in_memory = SgdSolver::run(c_mem, workload, durable_config(12, ""));
  EXPECT_TRUE(linalg::bitwise_equal(in_memory.final_w, downgraded.final_w))
      << "the downgrade changed the trajectory";

  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().update_index, 12u);
  EXPECT_NE(loaded.value().store_dir, config.store_config.disk.dir);
  EXPECT_EQ(loaded.value().store_dir.rfind(ckpt + ".", 0), 0u)
      << "not the self-contained directory: " << loaded.value().store_dir;
  remove_checkpoint(ckpt);

  // The downgrade clears the store's switch, so later publishes do not try
  // to open the tier again.
  engine::BroadcastStore broadcasts;
  store::ModelStore store(&broadcasts, config.store_config);
  store.publish(linalg::DenseVector(4, 1.0), 0);
  EXPECT_FALSE(store.disk_enabled());
  EXPECT_EQ(store.disk_tier(), nullptr);
  std::filesystem::remove(blocker);
}

// A tier that takes a few blobs and then fails every write drops its
// publish and checkpoint records; each checkpoint falls back to a
// self-contained directory beside the pointer, and the run still resumes
// from it bit-exactly.
TEST(DiskRecovery, FailedTierCheckpointFallsBackToSelfContainedBitExactly) {
  const Workload workload = tiny_workload(1);
  const std::string dir = fresh_dir("failing_tier");
  const std::string ckpt = test_tmp() + "failing_tier.ckpt";
  remove_checkpoint(ckpt);
  {
    SolverConfig config = durable_config(16, dir);
    config.checkpoint_every = 8;
    config.checkpoint_path = ckpt;
    config.store_config.disk.retry_backoff_ms = 0.0;
    engine::Cluster::Config cc = quiet_config(2);
    cc.faults.fail_write(/*times=*/0, /*after=*/3);
    engine::Cluster cluster(cc);
    const RunResult leg = SgdSolver::run(cluster, workload, config);
    EXPECT_EQ(leg.updates, 16u);
    ASSERT_NE(cluster.faults(), nullptr);
    EXPECT_GT(cluster.faults()->stats().disk_writes_failed, 0u);
  }

  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().update_index, 16u);
  EXPECT_EQ(loaded.value().store_dir.rfind(ckpt + ".", 0), 0u)
      << "not the self-contained directory: " << loaded.value().store_dir;

  engine::Cluster c_ref(quiet_config(2));
  const RunResult uninterrupted =
      SgdSolver::run(c_ref, workload, durable_config(30, ""));

  SolverConfig resume = durable_config(30, dir);
  resume.resume_from = ckpt;
  engine::Cluster c2(quiet_config(2));
  const RunResult resumed = SgdSolver::run(c2, workload, resume);

  EXPECT_EQ(resumed.updates, 30u);
  ASSERT_EQ(resumed.final_w.size(), uninterrupted.final_w.size());
  EXPECT_EQ(linalg::max_abs_diff(resumed.final_w.span(), uninterrupted.final_w.span()),
            0.0);
  remove_checkpoint(ckpt);
}

}  // namespace
}  // namespace asyncml::optim
