#pragma once

// Append-only manifest of the disk tier (docs/DURABILITY.md §manifest).
//
// The manifest is the tier's commit log: blobs under objects/ are anonymous
// content until a manifest record names them.  File grammar:
//
//   file    := "AMLMANI1" record*
//   record  := u8 type | u32 LE body_len | u32 LE crc32(body) | body
//
// Record bodies (all integers LE, digests raw 32 bytes):
//
//   type 1  publish     u32 shard | u64 version | u64 parent | u8 flags
//                       (bit0 has_base, bit1 has_delta) | 32B base_digest |
//                       32B delta_digest | u64 base_bytes | u64 delta_bytes
//   type 2  gc_floor    u32 shard | u64 floor
//   type 3  checkpoint  u64 update_index | u64 model_version | u64 round |
//                       32B model_digest | u32 n_counters |
//                       (u32 name_len | name | u64 value)* | u32 n_aux |
//                       (u32 name_len | name | 32B digest)*
//
// The loader replays records sequentially and is *torn-tail tolerant*: a
// truncated or CRC-failing record ends the replay at the last intact record
// (`torn_tail` set, `valid_bytes` = intact prefix length) — exactly what a
// crash mid-append leaves behind, and not an error.  An unknown type with a
// valid CRC is skipped (forward compatibility).  Duplicate (shard, version)
// publish records resolve last-wins, mirroring ModelStore::publish replace
// semantics.
//
// A resuming writer MUST truncate the file to `valid_bytes` before appending:
// appending after a torn tail would hide every post-restart record from any
// future replay that stops at the tear.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/sha256.hpp"
#include "support/status.hpp"

namespace asyncml::store::disk {

inline constexpr std::size_t kManifestMagicBytes = 8;
inline constexpr std::size_t kRecordHeaderBytes = 9;  // u8 type + u32 len + u32 crc

/// One (shard, version) → blobs binding.  Zero digest = no such payload.
struct PublishRecord {
  std::uint32_t shard = 0;
  std::uint64_t version = 0;
  std::uint64_t parent = 0;
  bool has_base = false;
  bool has_delta = false;
  support::Sha256Digest base_digest{};
  support::Sha256Digest delta_digest{};
  std::uint64_t base_bytes = 0;
  std::uint64_t delta_bytes = 0;
};

/// One durable solver checkpoint.  The model (and each auxiliary slot) lives
/// in the blob store as an envelope-encoded DenseVector payload; counters are
/// small enough to inline.
struct CheckpointRecord {
  std::uint64_t update_index = 0;
  std::uint64_t model_version = 0;
  std::uint64_t round = 0;
  support::Sha256Digest model_digest{};
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, support::Sha256Digest>> aux;
};

/// Result of replaying a manifest file.
struct ManifestState {
  /// Last-wins publish records, per shard, version-ordered.
  std::map<std::uint32_t, std::map<std::uint64_t, PublishRecord>> shards;
  /// Highest gc_floor record seen per shard.
  std::map<std::uint32_t, std::uint64_t> gc_floors;
  /// Checkpoint records in append order (restore walks them newest-first).
  std::vector<CheckpointRecord> checkpoints;
  std::uint64_t records = 0;          ///< intact records replayed
  std::uint64_t skipped_unknown = 0;  ///< valid-CRC records of unknown type
  bool torn_tail = false;             ///< file ended mid-record
  std::uint64_t valid_bytes = 0;      ///< intact prefix; truncate here to resume
};

/// Serializes one record (header + body) ready to append.
[[nodiscard]] std::vector<std::uint8_t> encode_publish_record(const PublishRecord& r);
[[nodiscard]] std::vector<std::uint8_t> encode_gc_floor_record(std::uint32_t shard,
                                                               std::uint64_t floor);
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_record(
    const CheckpointRecord& r);

/// The 8-byte file header a fresh manifest starts with.
[[nodiscard]] std::vector<std::uint8_t> manifest_header();

/// Replays a complete manifest file image.  Only a bad/missing file header is
/// an error; torn tails and unknown record types are tolerated (see above).
/// The decoder never reads out of bounds regardless of input — the fuzz
/// battery (tests/store/disk_fuzz_test.cpp) holds it to that.
[[nodiscard]] support::StatusOr<ManifestState> decode_manifest(
    std::span<const std::uint8_t> file);

/// Append-only manifest writer over one file descriptor.
class ManifestWriter {
 public:
  ManifestWriter() = default;
  ~ManifestWriter();

  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;

  /// Opens `path` for appending, creating it (with the file header) when
  /// absent.  `truncate_to` > 0 first truncates the file to that length —
  /// the resume path cutting off a torn tail.  `do_fsync` syncs after every
  /// append.
  [[nodiscard]] support::Status open(const std::string& path,
                                     std::uint64_t truncate_to, bool do_fsync);

  /// Appends encoded records (encode_*_record outputs, back to back) with
  /// one write(2), then fsyncs per `open`: the tier writer appends a whole
  /// commit group at once.
  [[nodiscard]] support::Status append(std::span<const std::uint8_t> records);

  void close();
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
  bool fsync_ = true;
};

}  // namespace asyncml::store::disk
