#pragma once

// Configuration of the delta-versioned model store (src/store/).

#include <cstddef>
#include <cstdint>
#include <string>

namespace asyncml::store {

/// Knobs of the content-addressed disk tier beneath the model store
/// (store/disk/, docs/DURABILITY.md). Off by default: with `enabled` false no
/// disk code runs anywhere on the publish/resolve paths.
struct DiskTierConfig {
  bool enabled = false;

  /// Root directory of the tier: `objects/` (sha256-named blobs), `tmp/`
  /// (staged writes, published by atomic rename), `quarantine/` (blobs
  /// that failed their integrity check), and the append-only `MANIFEST`.
  std::string dir;

  /// Attempts per blob operation on a *transient* error (kUnavailable —
  /// injected fail_write/fail_read or a real EINTR-ish failure). Corruption
  /// is never retried: the same bytes would fail the same check.
  std::uint32_t max_attempts = 4;

  /// Base backoff between attempts, doubled each retry.
  double retry_backoff_ms = 0.5;

  /// Every sync of the tier writer's commit protocol: each staged blob
  /// before its rename, `objects/` and the manifest once per commit group,
  /// and the tier root after open creates or rotates the manifest. Off
  /// skips them all, trading crash-safety of the last few records for speed
  /// (docs/DURABILITY.md §atomicity).
  bool fsync = true;
};

/// Delta nnz/dim ratio above which a publish densifies into a full base
/// snapshot, which is then cheaper than a delta: the wire break-even of the
/// (u32 index, f64 value) encoding is 12 bytes per touched coordinate against
/// 8 bytes per dense coordinate.
inline constexpr double kDeltaDensifyThreshold = 2.0 / 3.0;

struct StoreConfig {
  /// false → publish every version as a full snapshot (the pre-store wire
  /// model; also what dense workloads effectively degrade to).
  bool delta_enabled = true;

  /// A full base snapshot is forced every `base_interval` versions, bounding
  /// the delta-chain length a cold worker must fetch to materialize a model.
  std::uint32_t base_interval = 16;

  /// Durable disk tier beneath the store. Queued writes + read-fault-in
  /// only: a live run never *reads* from disk, so trajectories are
  /// bit-identical with the tier on or off; restores and cold joiners
  /// anchor on it.
  DiskTierConfig disk;
};

}  // namespace asyncml::store
