// DiskTier + ModelStore durability integration: payload round-trips through
// the blob files, dedup, fresh-open manifest rotation, resume
// replay, every injected fault seam (fail_write / torn_write / corrupt_blob /
// fail_read), quarantine with fallback to the nearest intact ancestor, the
// GC-after-restore anchor regression, and the refusal to resume a manifest
// that a sharded build of the store wrote.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "engine/payload.hpp"
#include "linalg/blas.hpp"
#include "linalg/dense_vector.hpp"
#include "store/disk/blob.hpp"
#include "store/disk/blob_store.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/disk/manifest.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"

namespace asyncml::store::disk {
namespace {

namespace fs = std::filesystem;

DiskTierConfig tier_config(const std::string& dir) {
  DiskTierConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  cfg.retry_backoff_ms = 0.01;  // keep injected-retry tests fast
  cfg.fsync = false;            // tmpfs tests don't need real durability
  return cfg;
}

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

linalg::DenseVector make_model(std::size_t dim, double fill) {
  linalg::DenseVector w(dim, fill);
  for (std::size_t i = 0; i < dim; ++i) w[i] += 0.25 * static_cast<double>(i);
  return w;
}

engine::Payload payload_of(const linalg::DenseVector& w) {
  return engine::Payload::wrap<linalg::DenseVector>(w, w.size_bytes());
}

TEST(DiskTier, PayloadRoundTripsThroughDisk) {
  const std::string dir = fresh_dir("tier_roundtrip");
  auto opened = DiskTier::open(tier_config(dir), OpenMode::kFresh);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  auto tier = std::move(opened).value();

  const linalg::DenseVector w = make_model(96, 1.5);
  const auto digest = tier->put_payload(payload_of(w));
  ASSERT_TRUE(digest.is_ok()) << digest.status().to_string();

  // The fetch right after the put reads the blob file.
  auto hot = tier->fetch_payload(digest.value());
  ASSERT_TRUE(hot.is_ok());
  EXPECT_GE(tier->metrics().blob_reads.load(), 1u);
  ASSERT_TRUE(hot.value().holds<linalg::DenseVector>());
  const auto& got = hot.value().get<linalg::DenseVector>();
  ASSERT_EQ(got.size(), w.size());
  EXPECT_EQ(linalg::max_abs_diff({got.data(), got.size()}, {w.data(), w.size()}),
            0.0);

  // A different tier instance reads the blob file too.
  tier.reset();
  auto reopened = DiskTier::open(tier_config(dir), OpenMode::kResume);
  ASSERT_TRUE(reopened.is_ok());
  auto cold = reopened.value()->fetch_payload(digest.value());
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  EXPECT_GE(reopened.value()->metrics().blob_reads.load(), 1u);
  const auto& disk_got = cold.value().get<linalg::DenseVector>();
  EXPECT_EQ(linalg::max_abs_diff({disk_got.data(), disk_got.size()},
                                 {w.data(), w.size()}),
            0.0);
}

TEST(DiskTier, IdenticalPayloadsDedupIntoOneObject) {
  const std::string dir = fresh_dir("tier_dedup");
  auto tier = DiskTier::open(tier_config(dir), OpenMode::kFresh).value();
  const linalg::DenseVector w = make_model(64, 2.0);
  const auto first = tier->put_payload(payload_of(w));
  const auto second = tier->put_payload(payload_of(w));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(tier->metrics().blob_writes.load(), 1u);
  EXPECT_GE(tier->metrics().blob_dedup_hits.load(), 1u);
}

TEST(DiskTier, FreshOpenRotatesTheOldManifestAside) {
  const std::string dir = fresh_dir("tier_rotate");
  {
    auto tier = DiskTier::open(tier_config(dir), OpenMode::kFresh).value();
    PublishRecord rec;
    rec.shard = 0;
    rec.version = 1;
    tier->publish(rec, payload_of(make_model(8, 1.0)), {});
    tier->drain();
    ASSERT_EQ(tier->metrics().manifest_appends.load(), 1u);
  }
  auto again = DiskTier::open(tier_config(dir), OpenMode::kFresh).value();
  // Stale records must not leak into the new run's replay...
  EXPECT_TRUE(again->restored().shards.empty());
  // ...but the old log is kept aside for post-mortem, not destroyed.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest.old.0"));
}

TEST(DiskTier, ResumeReplaysPublishesFloorsAndCheckpoints) {
  const std::string dir = fresh_dir("tier_resume");
  support::Sha256Digest model_digest{};
  {
    auto tier = DiskTier::open(tier_config(dir), OpenMode::kFresh).value();
    const linalg::DenseVector w = make_model(32, 0.5);
    model_digest = tier->put_payload(payload_of(w)).value();
    for (std::uint64_t v = 1; v <= 3; ++v) {
      PublishRecord rec;
      rec.shard = static_cast<std::uint32_t>(v % 2);
      rec.version = v;
      rec.parent = v - 1;
      if (v == 1) {
        tier->publish(rec, payload_of(w), {});
      } else {
        tier->publish(rec, {}, payload_of(make_model(4, static_cast<double>(v))));
      }
    }
    tier->gc_floor(2);
    CheckpointRecord cp;
    cp.update_index = 9;
    cp.model_version = 3;
    cp.counters = {{"tasks_completed", 18}};
    ASSERT_TRUE(tier->checkpoint(cp, payload_of(w), {}).is_ok());
  }

  auto tier = DiskTier::open(tier_config(dir), OpenMode::kResume).value();
  const ManifestState& st = tier->restored();
  ASSERT_TRUE(st.shards.contains(0));
  ASSERT_TRUE(st.shards.contains(1));
  EXPECT_TRUE(st.shards.at(1).contains(1));
  EXPECT_TRUE(st.shards.at(0).contains(2));
  EXPECT_EQ(st.gc_floors.at(0), 2u);
  ASSERT_EQ(st.checkpoints.size(), 1u);
  EXPECT_EQ(st.checkpoints[0].update_index, 9u);
  // The writer filled the digests: both records name the model's blob.
  EXPECT_EQ(st.shards.at(1).at(1).base_digest, model_digest);
  EXPECT_EQ(st.checkpoints[0].model_digest, model_digest);
  // The blobs the replayed records point at are still fetchable.
  EXPECT_TRUE(tier->fetch_payload(model_digest).is_ok());
}

// A sharded build of the model store wrote records for shards other than 0.
// Resumed as one model, shard 0's slice would pass for the whole model, so
// the restore refuses such a directory: with a shard-1 publish record, and
// with only a shard-1 gc_floor record.
TEST(DiskTier, HistoryRestoreRefusesAManifestOfAShardedBuild) {
  PublishRecord base;
  base.version = 0;
  base.has_base = true;
  base.base_digest[0] = 1;
  base.base_bytes = 64;
  PublishRecord other_shard = base;
  other_shard.shard = 1;
  const std::vector<std::vector<std::uint8_t>> foreign = {
      encode_publish_record(other_shard), encode_gc_floor_record(/*shard=*/1, 0)};
  for (std::size_t i = 0; i < foreign.size(); ++i) {
    const std::string dir = fresh_dir("tier_sharded_" + std::to_string(i));
    fs::create_directories(dir);
    std::vector<std::uint8_t> bytes = manifest_header();
    for (const auto& record : {encode_publish_record(base), foreign[i]}) {
      bytes.insert(bytes.end(), record.begin(), record.end());
    }
    std::ofstream(dir + "/MANIFEST", std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    engine::BroadcastStore broadcasts;
    StoreConfig config;
    config.disk = tier_config(dir);
    ModelStore store(&broadcasts, config);
    const support::Status status = store.restore_from_disk(/*anchor=*/0);
    EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition)
        << "case " << i << ": " << status.to_string();
  }
}

// -- fault seams, one at a time (BlobStore level) ----------------------------

std::vector<std::uint8_t> small_payload() {
  std::vector<std::uint8_t> p(96);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  return p;
}

TEST(DiskFaults, TransientWriteFailureIsRetriedAndCounted) {
  const std::string dir = fresh_dir("fault_write_retry");
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.fail_write(1)};
  BlobStore store(dir, tier_config(dir), &metrics, &faults);
  ASSERT_TRUE(store.init().is_ok());

  const auto put = store.put(small_payload());
  ASSERT_TRUE(put.is_ok()) << put.status().to_string();
  EXPECT_EQ(faults.stats().disk_writes_failed, 1u);
  EXPECT_GE(metrics.write_retries.load(), 1u);
  EXPECT_TRUE(store.get(put.value()).is_ok());
}

TEST(DiskFaults, PersistentWriteFailureSurfacesAfterBoundedRetries) {
  const std::string dir = fresh_dir("fault_write_exhaust");
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.fail_write(/*times=*/100)};
  auto cfg = tier_config(dir);
  cfg.max_attempts = 3;
  BlobStore store(dir, cfg, &metrics, &faults);
  ASSERT_TRUE(store.init().is_ok());

  const auto put = store.put(small_payload());
  ASSERT_FALSE(put.is_ok());
  EXPECT_EQ(put.status().code(), support::StatusCode::kUnavailable);
  EXPECT_EQ(faults.stats().disk_writes_failed, 3u);  // once per attempt
}

TEST(DiskFaults, TornWriteIsQuarantinedOnReadAndRecoverableByRewrite) {
  const std::string dir = fresh_dir("fault_torn");
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.torn_write(1)};
  BlobStore store(dir, tier_config(dir), &metrics, &faults);
  ASSERT_TRUE(store.init().is_ok());

  const auto payload = small_payload();
  const auto put = store.put(payload);
  ASSERT_TRUE(put.is_ok());  // the tear is silent at write time, like real disks
  EXPECT_EQ(faults.stats().disk_writes_torn, 1u);

  const auto read = store.get(put.value());
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), support::StatusCode::kDataLoss);
  EXPECT_EQ(metrics.quarantines.load(), 1u);
  EXPECT_FALSE(store.contains(put.value()));  // never re-served

  // Content addressing makes the repair trivial: write the same bytes again.
  const auto rewrite = store.put(payload);
  ASSERT_TRUE(rewrite.is_ok());
  EXPECT_EQ(rewrite.value(), put.value());
  EXPECT_TRUE(store.get(put.value()).is_ok());
}

TEST(DiskFaults, CorruptBlobFailsVerificationOnRead) {
  const std::string dir = fresh_dir("fault_corrupt");
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.corrupt_blob(1)};
  BlobStore store(dir, tier_config(dir), &metrics, &faults);
  ASSERT_TRUE(store.init().is_ok());

  const auto put = store.put(small_payload());
  ASSERT_TRUE(put.is_ok());
  EXPECT_EQ(faults.stats().blobs_corrupted, 1u);
  const auto read = store.get(put.value());
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), support::StatusCode::kDataLoss);
  EXPECT_EQ(metrics.quarantines.load(), 1u);
}

TEST(DiskFaults, TransientReadFailureIsRetriedAndCounted) {
  const std::string dir = fresh_dir("fault_read_retry");
  engine::DiskTierMetrics metrics;
  engine::FaultState faults{engine::FaultPlan{}.fail_read(1)};
  BlobStore store(dir, tier_config(dir), &metrics, &faults);
  ASSERT_TRUE(store.init().is_ok());

  const auto payload = small_payload();
  const auto put = store.put(payload);
  ASSERT_TRUE(put.is_ok());
  const auto read = store.get(put.value());
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(faults.stats().disk_reads_failed, 1u);
  EXPECT_GE(metrics.read_retries.load(), 1u);
  EXPECT_EQ(read.value(), payload);
}

// -- ModelStore over the tier ------------------------------------------------

StoreConfig deep_chain_config() {
  StoreConfig cfg;
  cfg.base_interval = 100;  // keep v1.. as pure deltas
  return cfg;
}

/// Publishes versions 0..`last` with one-coordinate updates and returns the
/// model at each version.
std::vector<linalg::DenseVector> publish_chain(ModelStore& store,
                                               engine::Version last) {
  std::vector<linalg::DenseVector> models;
  linalg::DenseVector w = make_model(48, 1.0);
  for (engine::Version v = 0; v <= last; ++v) {
    w[v % w.size()] += 1.0 + static_cast<double>(v);
    store.publish(w, v);
    models.push_back(w);
  }
  return models;
}

TEST(DiskTierModelStore, RestoreServesHistoryWithoutReplay) {
  const std::string dir = fresh_dir("tier_restore");
  std::vector<linalg::DenseVector> models;
  {
    engine::BroadcastStore broadcasts;
    ModelStore store(&broadcasts, deep_chain_config());
    store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kFresh).value());
    models = publish_chain(store, 5);
  }

  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts, deep_chain_config());
  store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kResume).value());
  DiskTier* tier = store.disk_tier();
  const auto& st = tier->restored();
  ASSERT_TRUE(st.shards.contains(0));
  const std::uint64_t floor =
      st.gc_floors.contains(0) ? st.gc_floors.at(0) : 0;
  store.restore_from_manifest(st.shards.at(0), floor, /*anchor=*/5);

  ASSERT_TRUE(store.entry_of(5).has_value());
  const auto w5 = store.driver_cache().value_at(5);
  EXPECT_EQ(linalg::max_abs_diff({w5->data(), w5->size()},
                                 {models[5].data(), models[5].size()}),
            0.0);
  EXPECT_GE(tier->metrics().faulted_in.load(), 1u);
  // Earlier history resolves too — no update replay anywhere.
  const auto w3 = store.driver_cache().value_at(3);
  EXPECT_EQ(linalg::max_abs_diff({w3->data(), w3->size()},
                                 {models[3].data(), models[3].size()}),
            0.0);
}

TEST(DiskTierModelStore, QuarantinedBlobFallsBackToNearestIntactAncestor) {
  const std::string dir = fresh_dir("tier_fallback");
  std::vector<linalg::DenseVector> models;
  {
    engine::BroadcastStore broadcasts;
    ModelStore store(&broadcasts, deep_chain_config());
    store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kFresh).value());
    models = publish_chain(store, 5);
  }

  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts, deep_chain_config());
  store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kResume).value());
  DiskTier* tier = store.disk_tier();
  const PublishRecord& v4 = tier->restored().shards.at(0).at(4);
  ASSERT_TRUE(v4.has_delta && !v4.has_base);
  const support::Sha256Digest victim = v4.delta_digest;  // v4's only payload
  // Rot v4's delta blob on disk: flip one payload byte.
  const std::string path = tier->blobs().object_path(victim);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kBlobHeaderBytes + 2));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(kBlobHeaderBytes + 2));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x08);
    f.seekp(static_cast<std::streamoff>(kBlobHeaderBytes + 2));
    f.write(&byte, 1);
  }

  store.restore_from_manifest(tier->restored().shards.at(0), 0, /*anchor=*/5);

  // v5's chain runs through the rotted v4 delta: resolution must not crash
  // and must degrade to the nearest intact ancestor (v3), re-published as a
  // fresh base under v5.
  const auto w5 = store.driver_cache().value_at(5);
  EXPECT_EQ(linalg::max_abs_diff({w5->data(), w5->size()},
                                 {models[3].data(), models[3].size()}),
            0.0);
  EXPECT_GE(tier->metrics().quarantines.load(), 1u);
  EXPECT_GE(tier->metrics().bases_republished.load(), 1u);
  EXPECT_GE(tier->metrics().recovery_walks.load(), 1u);
  // Versions before the rot are untouched.
  const auto w2 = store.driver_cache().value_at(2);
  EXPECT_EQ(linalg::max_abs_diff({w2->data(), w2->size()},
                                 {models[2].data(), models[2].size()}),
            0.0);
}

// Regression (GC-after-restore): an aggressive GC floor arriving right after
// a restore must never collect the restore anchor out from under the run.
TEST(DiskTierModelStore, GcAfterRestoreNeverUnlinksTheAnchor) {
  const std::string dir = fresh_dir("tier_gc_anchor");
  std::vector<linalg::DenseVector> models;
  {
    engine::BroadcastStore broadcasts;
    ModelStore store(&broadcasts, deep_chain_config());
    store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kFresh).value());
    models = publish_chain(store, 5);
  }

  engine::BroadcastStore broadcasts;
  ModelStore store(&broadcasts, deep_chain_config());
  store.attach_disk(DiskTier::open(tier_config(dir), OpenMode::kResume).value());
  store.restore_from_manifest(store.disk_tier()->restored().shards.at(0), 0,
                              /*anchor=*/5);
  ASSERT_EQ(store.restore_anchor(), std::optional<engine::Version>(5));

  // The pathological floor: far above everything restored.
  store.gc_below(1000);
  ASSERT_TRUE(store.entry_of(5).has_value()) << "anchor was collected";
  EXPECT_EQ(store.restore_anchor(), std::optional<engine::Version>(5));
  const auto w5 = store.driver_cache().value_at(5);
  EXPECT_EQ(linalg::max_abs_diff({w5->data(), w5->size()},
                                 {models[5].data(), models[5].size()}),
            0.0);

  // A newer base-carrying publish releases the clamp; GC may then proceed.
  linalg::DenseVector next = models[5];
  next[0] += 3.0;
  store.publish(next, 6);
  EXPECT_EQ(store.restore_anchor(), std::nullopt);
  store.gc_below(6);
  EXPECT_FALSE(store.entry_of(5).has_value());
  const auto w6 = store.driver_cache().value_at(6);
  EXPECT_EQ(linalg::max_abs_diff({w6->data(), w6->size()},
                                 {next.data(), next.size()}),
            0.0);
}

}  // namespace
}  // namespace asyncml::store::disk
