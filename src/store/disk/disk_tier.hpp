#pragma once

// DiskTier: the durable tier beneath the model store (docs/DURABILITY.md).
//
// Composes the content-addressed BlobStore (objects) with the append-only
// manifest (naming).  The model plane talks to it in payload terms:
//
//   publish / gc_floor   queue a manifest record (and the payloads it names)
//   checkpoint           commit a checkpoint record and its blobs, and wait
//   put_payload          commit one blob, and wait
//   fetch_payload        digest -> verified blob read -> decoded Payload
//
// One writer thread owns every tier write. It starts when the tier opens;
// callers only queue the payload handles (shared, so nothing is copied and a
// GC erase cannot free a queued payload) and the record fields. Each time
// the writer wakes it commits everything queued as one group:
//
//   1. encode, hash, dedup-check and stage every blob into tmp/;
//   2. fsync each staged file, then rename it into objects/;
//   3. fsync objects/ once;
//   4. append the group's records with one write, then fsync MANIFEST once.
//
// A record therefore never names a blob that is not durable and named, and
// records commit in exactly the order they were queued. A blob that
// exhausts its retries drops only its own record. The queue holds at most
// kQueueRecords jobs; a caller that finds it full blocks, and the wait is
// counted (DiskTierMetrics::queue_stalls / queue_stall_ns).
//
// Open modes:
//   kFresh   a new run: any existing MANIFEST is rotated aside (manifest.old.N)
//            so stale records can never leak into the new run's replay; blobs
//            stay — content addressing makes them free dedup hits.
//   kResume  restart-without-replay: the manifest is replayed (torn tail
//            tolerated), truncated to its intact prefix, and `restored()`
//            exposes the replayed state for the store/solver to anchor on.
//
// Thread-safety: every method is safe from any thread; writes are
// serialized by the writer. The destructor commits everything still queued,
// then joins the writer.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "engine/payload.hpp"
#include "store/disk/blob_store.hpp"
#include "store/disk/manifest.hpp"
#include "store/store_config.hpp"
#include "support/sha256.hpp"
#include "support/status.hpp"

namespace asyncml::store::disk {

enum class OpenMode : std::uint8_t {
  kFresh,   ///< rotate any existing manifest; start an empty log
  kResume,  ///< replay the manifest (truncate torn tail) and expose it
};

class DiskTier {
 public:
  /// Opens (or creates) the tier at `config.dir`. `metrics` may be null — the
  /// tier then counts into a private DiskTierMetrics instance reachable via
  /// metrics(); `faults` may be null (no injection).
  [[nodiscard]] static support::StatusOr<std::unique_ptr<DiskTier>> open(
      DiskTierConfig config, OpenMode mode,
      engine::DiskTierMetrics* metrics = nullptr,
      engine::FaultState* faults = nullptr);

  /// Jobs the writer queue holds before a caller blocks.
  static constexpr std::size_t kQueueRecords = 64;

  ~DiskTier();
  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// Queues the publish record `record` (shard, version, parent and byte
  /// counts) with the payloads it names; an empty payload means the version
  /// has none of that kind, and the record's flags follow. The writer fills
  /// the digests. Returns once queued. A failed blob drops the record, with
  /// a stderr line.
  void publish(PublishRecord record, engine::Payload base, engine::Payload delta);

  /// Queues a gc_floor record (manifest shard 0, like every publish record
  /// the model store writes).
  void gc_floor(std::uint64_t floor);

  /// Commits a checkpoint record with its model and named aux blobs, and
  /// waits. The writer fills record.model_digest and record.aux. OK means
  /// the record, and every record queued before it, is durable.
  [[nodiscard]] support::Status checkpoint(
      CheckpointRecord record, engine::Payload model,
      std::vector<std::pair<std::string, engine::Payload>> aux);

  /// Envelope-encodes `payload` and commits it as a blob (no record), and
  /// waits.
  [[nodiscard]] support::StatusOr<support::Sha256Digest> put_payload(
      const engine::Payload& payload);

  /// Materializes the payload stored under `digest` by a verified blob read
  /// (kDataLoss = quarantined, fall back; kNotFound; kUnavailable).
  [[nodiscard]] support::StatusOr<engine::Payload> fetch_payload(
      const support::Sha256Digest& digest);

  /// Waits until everything queued so far is committed (or dropped).
  void drain();

  /// Manifest state replayed at open (empty in kFresh mode).
  [[nodiscard]] const ManifestState& restored() const noexcept { return restored_; }

  /// The replayed history of the one model the store writes: the publish
  /// records and the GC floor of manifest shard 0.
  struct ModelHistory {
    const std::map<std::uint64_t, PublishRecord>* records = nullptr;  ///< never null
    std::uint64_t gc_floor = 0;
  };

  /// restored() as one model's history. A manifest with publish or gc_floor
  /// records of any other shard was written by a sharded build of the model
  /// store; it is refused (kFailedPrecondition) rather than resumed as if
  /// shard 0 held the whole model.
  [[nodiscard]] support::StatusOr<ModelHistory> restored_model() const;

  [[nodiscard]] BlobStore& blobs() noexcept { return *blobs_; }
  [[nodiscard]] const std::string& dir() const noexcept { return cfg_.dir; }
  [[nodiscard]] const DiskTierConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] engine::DiskTierMetrics& metrics() noexcept { return *metrics_; }

 private:
  DiskTier(DiskTierConfig config, engine::DiskTierMetrics* metrics,
           engine::FaultState* faults);

  [[nodiscard]] support::Status init(OpenMode mode);

  // -- the writer ------------------------------------------------------------
  struct GcFloor {
    std::uint32_t shard = 0;
    std::uint64_t floor = 0;
  };
  /// What a waiting caller learns about its job.
  struct Outcome {
    support::Status status = support::Status::ok();
    support::Sha256Digest digest{};  ///< the first blob's address
  };
  /// One queued record (none for a bare put_payload) and the payloads it
  /// names, in the order of the record's digest fields.
  struct Job {
    std::variant<std::monostate, PublishRecord, GcFloor, CheckpointRecord> record;
    std::vector<engine::Payload> blobs;
    std::shared_ptr<Outcome> outcome;  ///< set when the caller waits
  };

  /// Queues `job`, blocking while the queue is full; returns its sequence
  /// number for wait_committed.
  std::uint64_t enqueue(Job job);
  void wait_committed(std::uint64_t seq);
  /// Queues `job` and waits for its outcome.
  [[nodiscard]] Outcome commit_and_wait(Job job);
  void writer_loop();
  /// Steps 1–4 of the commit protocol (header comment) for one group.
  void commit_group(std::vector<Job>& group);

  DiskTierConfig cfg_;
  engine::DiskTierMetrics own_;        ///< used when no external metrics given
  engine::DiskTierMetrics* metrics_;   ///< never null after construction
  std::unique_ptr<BlobStore> blobs_;
  ManifestWriter manifest_;
  ManifestState restored_;

  std::mutex queue_mutex_;
  std::condition_variable work_cv_;      ///< writer: a job arrived, or stop
  std::condition_variable progress_cv_;  ///< callers: the queue drained or a group committed
  std::vector<Job> queue_;
  std::uint64_t queued_seq_ = 0;     ///< jobs ever queued
  std::uint64_t committed_seq_ = 0;  ///< jobs whose group has committed
  bool stopping_ = false;

  std::thread writer_;  ///< last: it uses every member above
};

}  // namespace asyncml::store::disk
