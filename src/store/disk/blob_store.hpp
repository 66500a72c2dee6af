#pragma once

// Content-addressed blob store: the object half of the disk tier.
//
// Layout under the root directory:
//
//   objects/<sha256-hex>   published blobs (blob.hpp format)
//   tmp/                   staged writes; commit = fsync + atomic rename
//   quarantine/<hex>[.n]   blobs that failed an integrity check on read
//
// Writes go in batches, one per commit group of the tier writer: stage()
// writes each blob into tmp/, and commit() fsyncs every staged file, renames
// it into objects/, then fsyncs objects/ once. A reader therefore never
// observes a partially written object *name*, and a name that a later
// manifest record relies on is durable before that record is written (a
// torn write that loses the fsync race is exactly what the header CRC +
// hash verification on read catch). Content addressing makes writes
// idempotent: an object of the right size already named under objects/, or
// staged earlier in the same batch, is a free dedup hit.
//
// get() verifies header CRC and the sha256 content address on every read; a
// corrupt or truncated blob is moved into quarantine/ (kept for post-mortem,
// never re-served) and surfaces as kDataLoss so the caller can fall back to
// an intact ancestor.  Transient failures (injected fail_write/fail_read)
// surface as kUnavailable and are retried with bounded exponential backoff
// per DiskTierConfig::max_attempts.
//
// Fault seams (engine/fault.hpp kDiskFailWrite/kDiskTornWrite/
// kDiskCorruptBlob/kDiskFailRead) are evaluated here, once per attempt, so
// chaos plans exercise exactly the failure surface real disks have.

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "store/store_config.hpp"
#include "support/sha256.hpp"
#include "support/status.hpp"

namespace asyncml::store::disk {

class BlobStore {
 public:
  /// `metrics` may be null (a standalone store counts nowhere); `faults` may
  /// be null (no injection). Call init() before any put/get.
  BlobStore(std::string root, DiskTierConfig config,
            engine::DiskTierMetrics* metrics = nullptr,
            engine::FaultState* faults = nullptr);

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// The blobs of one commit: staged into tmp/ by stage(), made durable and
  /// named under objects/ together by commit(). A batch destroyed
  /// uncommitted removes its staged files.
  class Batch {
   public:
    Batch() = default;
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// True when `digest` was staged but did not become durable under
    /// objects/ at the last commit().
    [[nodiscard]] bool failed(const support::Sha256Digest& digest) const;

   private:
    friend class BlobStore;
    struct Staged {
      support::Sha256Digest digest{};
      std::string tmp;
      int fd = -1;
      std::size_t file_bytes = 0;
      std::size_t payload_bytes = 0;
    };
    /// File size of the newest staged copy of `digest`, if any.
    [[nodiscard]] std::optional<std::size_t> staged_bytes(
        const support::Sha256Digest& digest) const;

    std::vector<Staged> staged_;
    std::vector<support::Sha256Digest> failed_;
  };

  /// Creates objects/, tmp/, and quarantine/ under the root.
  [[nodiscard]] support::Status init();

  /// Hashes `payload` and stages it into `batch`, unless it is a dedup hit.
  /// Transient failures are retried; kUnavailable after max_attempts.
  [[nodiscard]] support::StatusOr<support::Sha256Digest> stage(
      Batch& batch, std::span<const std::uint8_t> payload);

  /// Makes `batch` durable: fsyncs each staged file, renames it into
  /// objects/, then fsyncs objects/ once (no syncs with fsync off). A blob
  /// whose sync or rename fails is reported by batch.failed(); a failed
  /// directory sync fails every blob of the batch.
  void commit(Batch& batch);

  /// Stage plus commit of one blob; returns its content address.
  [[nodiscard]] support::StatusOr<support::Sha256Digest> put(
      std::span<const std::uint8_t> payload);

  /// Reads and verifies the payload of `digest`. kNotFound when no such
  /// object exists; kDataLoss when it exists but fails verification (the
  /// object is quarantined first); kUnavailable after transient failures.
  [[nodiscard]] support::StatusOr<std::vector<std::uint8_t>> get(
      const support::Sha256Digest& digest);

  [[nodiscard]] bool contains(const support::Sha256Digest& digest) const;

  [[nodiscard]] std::string object_path(const support::Sha256Digest& digest) const;
  [[nodiscard]] const std::string& root() const noexcept { return root_; }

 private:
  /// Moves a failed object into quarantine/ (never overwrites an earlier
  /// quarantined copy of the same digest).
  void quarantine(const support::Sha256Digest& digest);

  /// One write attempt into tmp/; `fault` mutates the file image per the
  /// seam. The staged file stays open in `batch` until commit().
  [[nodiscard]] support::Status stage_file(Batch& batch,
                                           const support::Sha256Digest& digest,
                                           std::span<const std::uint8_t> payload,
                                           engine::DiskWriteFault fault);

  std::string root_;
  DiskTierConfig cfg_;
  engine::DiskTierMetrics* metrics_;
  engine::FaultState* faults_;
  std::uint64_t tmp_seq_ = 0;  ///< unique tmp-file suffix (guarded by seq_mutex_)
  std::mutex seq_mutex_;
};

}  // namespace asyncml::store::disk
