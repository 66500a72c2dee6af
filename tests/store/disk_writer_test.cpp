// The disk tier's writer thread (docs/DURABILITY.md, "Write path"):
//
//   * the bytes it leaves on disk are pinned: a durable SGD run's
//     MANIFEST and objects/ names hash to fixed values at S ∈ {1, 4};
//   * RunResult::disk is a complete snapshot taken after the writer drained;
//   * a checkpoint returns only once it, and every publish record queued
//     before it, is in the on-disk MANIFEST;
//   * a full queue blocks publish (counted as a stall), and every version
//     still reaches the manifest once the writer recovers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/async_context.hpp"
#include "data/synthetic.hpp"
#include "engine/fault.hpp"
#include "optim/sgd.hpp"
#include "optim/solver_util.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/disk/manifest.hpp"
#include "store/model_store.hpp"
#include "support/sha256.hpp"

namespace asyncml::store::disk {
namespace {

namespace fs = std::filesystem;

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
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string sha256_hex_of(const std::string& bytes) {
  return support::sha256_hex(support::sha256(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()}));
}

/// Replays the on-disk MANIFEST of the tier at `dir` as it is right now.
ManifestState replay(const std::string& dir) {
  const std::string bytes = read_file(dir + "/MANIFEST");
  auto state = decode_manifest(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  EXPECT_TRUE(state.is_ok()) << state.status().to_string();
  return state.is_ok() ? std::move(state).value() : ManifestState{};
}

engine::Cluster::Config one_worker() {
  engine::Cluster::Config config;
  config.num_workers = 1;
  config.cores_per_worker = 1;
  config.network.time_scale = 0.0;
  return config;
}

struct DurableRun {
  std::string dir;
  optim::RunResult result;
  engine::DiskTierStats after;  ///< the cluster's counters once the context is gone
};

/// A 1-worker × 1-core durable SGD run with GC and checkpoints
/// every 8 updates: synchronous, so every byte the tier writes is
/// deterministic.
DurableRun durable_run(std::uint32_t shards, std::uint64_t updates,
                       const engine::FaultPlan& faults = {},
                       double retry_backoff_ms = 0.5) {
  data::synthetic::SparseSpec spec;
  spec.rows = 160;
  spec.cols = 96;
  spec.density = 0.05;
  const auto problem = data::synthetic::make_sparse(spec, /*seed=*/41);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const optim::Workload workload =
      optim::Workload::create(dataset, 4, optim::make_least_squares());

  DurableRun run;
  run.dir = fresh_dir("writer_golden_s" + std::to_string(shards));
  optim::SolverConfig config;
  config.updates = updates;
  config.batch_fraction = 0.05;
  config.service_floor_ms = 0.0;
  config.eval_every = 100000;
  config.seed = 23;
  config.step = optim::inverse_decay_step(0.05, 1.0, 0.01);
  config.gc_every = 5;
  config.checkpoint_every = 8;
  config.checkpoint_path = run.dir + ".ckpt";
  config.store_config.num_shards = shards;
  config.store_config.base_interval = 6;
  config.store_config.disk.enabled = true;
  config.store_config.disk.dir = run.dir;
  config.store_config.disk.retry_backoff_ms = retry_backoff_ms;
  engine::Cluster::Config cc = one_worker();
  cc.faults = faults;
  engine::Cluster cluster(cc);
  run.result = optim::SgdSolver::run(cluster, workload, config);
  run.after = cluster.metrics().disk.snapshot();
  std::remove(config.checkpoint_path.c_str());
  return run;
}

/// sha256 of the sorted objects/ names, one per line.
std::string objects_hash(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir + "/objects")) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::string joined;
  for (const std::string& name : names) joined += name + "\n";
  return sha256_hex_of(joined);
}

// The hashes pin which bytes reach disk (stable over repeated runs); group
// commit may change only when they are written.
TEST(DiskWriter, GoldenManifestAndObjectsAtOneAndFourShards) {
  struct Golden {
    std::uint32_t shards;
    const char* manifest;
    const char* objects;
  };
  const Golden goldens[] = {
      {1, "0225e923afe7c01564104978ba5432121ca32327462d0e6213c4734c63fd829a",
       "c06d5a9050aa1e1e2e7f161e7bb4c73ae7b8cea1b3700508ef0ca374c0cdd4a7"},
      {4, "f702a50e7afc14d0d86c186b760721dfd2b762ef64e123434cc82e2077cf4ffb",
       "284cb92fbdc97cb93dbfc0e41ed6f11e2f5ed8185b311fee8485f6fd1ec2570e"},
  };
  for (const Golden& g : goldens) {
    const DurableRun run = durable_run(g.shards, /*updates=*/24);
    EXPECT_EQ(sha256_hex_of(read_file(run.dir + "/MANIFEST")), g.manifest)
        << "S=" << g.shards;
    EXPECT_EQ(objects_hash(run.dir), g.objects) << "S=" << g.shards;
  }
}

TEST(DiskWriter, RunResultSnapshotsEveryCounterAfterTheDrain) {
  // 27 updates: the last publishes queue after the last checkpoint (update
  // 24). One failed attempt with a 50 ms backoff holds the writer on the
  // run's last blob, so only the run's own drain commits it before
  // RunResult is filled.
  const std::uint64_t writes = durable_run(1, /*updates=*/27).after.blob_writes;
  ASSERT_GT(writes, 0u);
  engine::FaultPlan slow_last_write;
  slow_last_write.fail_write(/*times=*/1, /*after=*/writes - 1);
  const DurableRun run =
      durable_run(1, /*updates=*/27, slow_last_write, /*retry_backoff_ms=*/50.0);
  EXPECT_EQ(run.after.write_retries, 1u);
  EXPECT_EQ(run.result.disk, run.after);
  EXPECT_GT(run.after.commit_groups, 0u);
  EXPECT_GT(run.after.write_ns, 0u);
  EXPECT_EQ(run.after.manifest_appends, replay(run.dir).records);
}

// The checkpoint barrier: with the tier still open, the MANIFEST on disk
// already holds the checkpoint and every publish queued before it.
TEST(DiskWriter, CheckpointReturnsOnlyAfterEveryEarlierPublishIsDurable) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kVersions = 40;
  const std::string dir = fresh_dir("writer_barrier");
  optim::SolverConfig config;
  config.checkpoint_path = dir + ".ckpt";
  config.store_config.num_shards = kShards;
  config.store_config.disk.enabled = true;
  config.store_config.disk.dir = dir;
  engine::Cluster cluster(one_worker());
  core::AsyncContext ac(cluster, /*num_partitions=*/1, config.store_config);

  linalg::DenseVector w(16, 0.0);
  for (std::uint64_t k = 0; k < kVersions; ++k) {
    // Every coordinate changes, so every shard publishes every version.
    for (std::size_t i = 0; i < w.size(); ++i) w[i] += 1.0 + static_cast<double>(k);
    (void)ac.async_broadcast(w);
    ac.advance_version();
  }
  optim::detail::write_checkpoint(config, ac, w, kVersions, {});

  const ManifestState st = replay(dir);
  ASSERT_EQ(st.checkpoints.size(), 1u);
  const CheckpointRecord& cp = st.checkpoints.back();
  EXPECT_EQ(cp.update_index, kVersions);
  ASSERT_EQ(cp.model_version, kVersions);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(st.shards.contains(s)) << "shard " << s;
    for (std::uint64_t v = 0; v < cp.model_version; ++v) {
      EXPECT_TRUE(st.shards.at(s).contains(v)) << "shard " << s << " version " << v;
    }
  }
  std::remove(config.checkpoint_path.c_str());
}

// Three injected failures with a 20 ms base backoff hold the writer on its
// first blob for ~140 ms: publishing more than the queue holds must block,
// and the wait is counted.
TEST(DiskWriter, FullQueueBlocksPublishUntilTheWriterRecovers) {
  const std::string dir = fresh_dir("writer_backpressure");
  DiskTierConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  cfg.fsync = false;
  cfg.retry_backoff_ms = 20.0;
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.fail_write(/*times=*/3, /*after=*/0)};
  auto tier = DiskTier::open(cfg, OpenMode::kFresh, &metrics, &faults).value();
  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts, StoreConfig{});
  store.attach_disk(tier.get(), /*manifest_shard=*/0);

  // Whatever the writer took as its first group (at most a full queue),
  // more than a full queue is left to publish behind it.
  const engine::Version last = 2 * DiskTier::kQueueRecords + 1;
  linalg::DenseVector w(32, 0.0);
  for (engine::Version v = 0; v <= last; ++v) {
    w[v % w.size()] += 1.0;
    store.publish(w, v);
  }
  EXPECT_GE(metrics.queue_stalls.load(), 1u);
  EXPECT_GT(metrics.queue_stall_ns.load(), 0u);

  tier->drain();
  EXPECT_EQ(faults.stats().disk_writes_failed, 3u);
  EXPECT_EQ(metrics.write_retries.load(), 3u);
  const ManifestState st = replay(dir);
  ASSERT_TRUE(st.shards.contains(0));
  for (engine::Version v = 0; v <= last; ++v) {
    EXPECT_TRUE(st.shards.at(0).contains(v)) << "version " << v;
  }
}

}  // namespace
}  // namespace asyncml::store::disk
