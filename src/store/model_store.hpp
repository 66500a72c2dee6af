#pragma once

// Delta-versioned model store: the driver-side half of sparse model shipping.
//
// The ASYNCbroadcaster (paper §4.3) already avoids re-broadcasting *past*
// models; this store removes the remaining O(dim) cost of broadcasting every
// *new* version.  publish(w, version) diffs the model against the previously
// published version and registers one of two payload kinds with the engine's
// BroadcastStore:
//
//   base   — a full DenseVector snapshot (8*dim wire bytes).  Forced for the
//            first version, every `base_interval` versions (bounding chain
//            length), when the delta densifies past kDeltaDensifyThreshold,
//            or whenever delta publishing is disabled.
//   delta  — a sparse overwrite set against the parent version
//            (ModelDelta, exactly 8 + 12*nnz wire bytes).
//
// A scheduled base (the every-`base_interval` kind) is *dual-published*: the
// base snapshot AND its delta against the parent are both registered, so the
// version chain is never broken by a base — a warm worker rides the delta
// chain straight through it, while a cold (or very stale) worker anchors on
// the snapshot.  Only densified deltas and post-GC rebases break the chain.
//
// Versions therefore form chains  base ← delta ← delta ← …  A worker-side
// VersionedModelCache materializes version v by walking v's chain down to its
// nearest locally materialized ancestor, stopping early at a base snapshot
// when that is the cheaper wire plan (the walk compares accumulated delta
// bytes against snapshot bytes), fetching only the missing links — each
// charged individually through the NetworkModel — and applying the deltas in
// O(Σ nnz).
//
// Garbage collection (`gc_below`) keys off the coordinator's STAT minimum
// in-flight version: once no dispatched task can reference versions < m they
// are erased by *exact broadcast id* (ids are registration-ordered, not
// version-ordered, so threshold pruning would hit foreign broadcasts), and
// the oldest retained version is rebased onto a fresh base snapshot when its
// chain reached below the cut.
//
// The store is the ASYNCbroadcaster of the paper (§4.3): `value_at` routes a
// worker's read to its charged cache and the driver's to the uncharged one,
// and core::HistoryBroadcast (the `w_br` tasks capture) resolves through it.
// It also owns the durable disk tier beneath it (docs/DURABILITY.md).

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/broadcast.hpp"
#include "engine/types.hpp"
#include "linalg/dense_vector.hpp"
#include "store/disk/manifest.hpp"
#include "store/model_delta.hpp"
#include "store/store_config.hpp"
#include "support/sha256.hpp"
#include "support/status.hpp"

namespace asyncml::engine {
class FaultState;
}  // namespace asyncml::engine

namespace asyncml::store {

namespace disk {
class DiskTier;
}  // namespace disk

class VersionedModelCache;

enum class EntryKind : std::uint8_t { kBase, kDelta };

/// Server-side metadata of one published version.  A version can carry a
/// base snapshot, a delta against its parent, or both (dual-published
/// scheduled bases).
///
/// With a disk tier attached, a payload can exist in two places: registered
/// with the BroadcastStore (id != 0) and/or durable under a content address
/// (hash != 0).  Only restore_from_manifest sets a hash: a live entry always
/// holds its broadcast ids, while a restored entry starts lazy — hash set,
/// id 0 — and the resolution walk faults the blob in on first use
/// (docs/DURABILITY.md).
struct VersionEntry {
  /// Primary representation: kBase whenever a snapshot exists.
  EntryKind kind = EntryKind::kBase;
  /// Version this entry's delta applies on top of (meaningful with a delta).
  engine::Version parent = 0;
  engine::BroadcastId base_id = 0;   ///< 0 = snapshot not in memory
  engine::BroadcastId delta_id = 0;  ///< 0 = delta not in memory
  std::size_t base_bytes = 0;        ///< modeled wire size of the snapshot
  std::size_t delta_bytes = 0;       ///< modeled wire size of the delta
  support::Sha256Digest base_hash{};   ///< content address on disk (0 = none)
  support::Sha256Digest delta_hash{};  ///< content address on disk (0 = none)

  [[nodiscard]] bool has_base() const noexcept {
    return base_id != 0 || !support::sha256_is_zero(base_hash);
  }
  [[nodiscard]] bool has_delta() const noexcept {
    return delta_id != 0 || !support::sha256_is_zero(delta_hash);
  }
};

/// One link of a resolution chain, with the payload pinned at snapshot time
/// so a concurrent GC cannot invalidate an in-progress resolution.  The head
/// link is consumed either as a materialized anchor (no payload read) or as
/// a base snapshot (`is_base`); every later link is a delta.
struct ChainLink {
  engine::Version version = 0;
  engine::BroadcastId id = 0;
  std::size_t bytes = 0;
  bool is_base = false;
  engine::Payload payload;
};

/// Membership test for a resolving cache's materialized versions.  The walk
/// probes it once per link it visits, so a resolve costs O(chain links) no
/// matter how many versions the cache holds.  It is called with the store
/// mutex held; the caller keeps its answers stable for the walk (the worker
/// cache holds its own mutex across chain_for: lock order cache → store).
using AnchorProbe = std::function<bool(engine::Version)>;

/// Publishing statistics (driver-side; what was *registered*, not fetched —
/// fetched traffic lives in ClusterMetrics).
struct StoreStats {
  std::uint64_t bases_published = 0;
  std::uint64_t deltas_published = 0;
  std::uint64_t base_bytes_published = 0;
  std::uint64_t delta_bytes_published = 0;
  std::uint64_t compactions = 0;  ///< GC rebases of the oldest retained version
};

class ModelStore {
 public:
  /// `disk_metrics` and `disk_faults` route the disk tier's counters and
  /// fault seams (cluster metrics and the run's FaultState); both may be null.
  explicit ModelStore(engine::BroadcastStore* broadcasts, StoreConfig config = {},
                      engine::DiskTierMetrics* disk_metrics = nullptr,
                      engine::FaultState* disk_faults = nullptr);
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// Publishes `w` as `version` (a delta against the previously published
  /// version, or a base snapshot per the rules above) and returns the
  /// registered broadcast id.  Republishing an existing version replaces its
  /// entry and invalidates cached materializations.  With the disk tier
  /// enabled, the first publish of a run that did not resume opens the tier
  /// fresh.
  ///
  /// Threading: publish and gc_below are driver-thread operations (not
  /// thread-safe against each other); the resolution APIs (entry_of /
  /// chain_for / the caches) are safe from any thread concurrently with them.
  engine::BroadcastId publish(const linalg::DenseVector& w, engine::Version version);

  /// Metadata of a published version (nullopt if unknown or GC'd).
  [[nodiscard]] std::optional<VersionEntry> entry_of(engine::Version version) const;
  [[nodiscard]] std::optional<engine::BroadcastId> id_of(engine::Version version) const;

  /// Snapshot of the cheapest chain that materializes `version`, anchor
  /// first, in apply order.  The walk runs toward the first version `anchors`
  /// reports as materialized (by the calling cache) but switches to a
  /// base snapshot head when that costs fewer wire bytes (accumulated delta
  /// bytes vs snapshot bytes); a chain-breaking entry (densified delta, GC
  /// rebase, first version) always anchors on its snapshot.  Aborts if the
  /// version was never published or was GC'd: both are upstream logic errors.
  [[nodiscard]] std::vector<ChainLink> chain_for(
      engine::Version version, const AnchorProbe* anchors = nullptr) const;

  /// Erases all versions < `min_version` (exact broadcast ids, server store
  /// and every registered cache), rebasing the oldest retained version onto a
  /// fresh base snapshot when its chain reached below the cut.  `min_version`
  /// must be a safe lower bound: the STAT minimum in-flight version, further
  /// floored by the SampleVersionTable minimum for history-reading solvers.
  void gc_below(engine::Version min_version);

  /// Resolves the model at `version`. On a worker thread this routes through
  /// the worker's cache_for (materialized hit = free; miss fetches and
  /// charges exactly the missing chain links); on the driver, through the
  /// uncharged driver_cache. Hold the returned handle for as long as you
  /// read the model (VersionedModelCache). Aborts if the version was never
  /// published or was GC'd — a logic error upstream.
  [[nodiscard]] std::shared_ptr<const linalg::DenseVector> value_at(
      engine::Version version) const;

  /// The per-worker materialization cache (created on first use). `bcache`
  /// and `metrics` belong to the worker; fetches charge through them.
  [[nodiscard]] VersionedModelCache& cache_for(engine::WorkerId worker,
                                               engine::BroadcastCache* bcache,
                                               engine::ClusterMetrics* metrics) const;

  /// Driver-side materialization cache: same resolution logic, no charging.
  [[nodiscard]] VersionedModelCache& driver_cache() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::optional<engine::Version> oldest() const;
  /// Versions below this have been GC'd (resolution aborts).
  [[nodiscard]] engine::Version gc_floor() const;
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const StoreConfig& config() const noexcept { return cfg_; }

  // -- durable disk tier (docs/DURABILITY.md) --------------------------------

  /// Attaches and takes ownership of a tier the caller opened: every publish
  /// queues its snapshot and delta payloads and a manifest record to the
  /// tier's writer thread, and the resolution walk faults lazy entries in
  /// from it. Call before the first publish.
  void attach_disk(std::unique_ptr<disk::DiskTier> tier);

  /// Whether the run keeps the tier: the configured switch, cleared when the
  /// first publish could not open the tier and the run went in-memory.
  [[nodiscard]] bool disk_enabled() const noexcept { return cfg_.disk.enabled; }

  /// The tier, or null: disabled, or enabled but before the first publish
  /// (the tier opens lazily with the first publish, kFresh).
  [[nodiscard]] disk::DiskTier* disk_tier() noexcept { return tier_.get(); }

  /// Restart-without-replay: opens the tier in kResume mode (manifest replay,
  /// torn tail truncated) and anchors the store on the replayed publishes at
  /// or below `anchor` (the checkpointed model version). A manifest that
  /// DiskTier::restored_model refuses is returned as its non-OK status, and
  /// the tier is closed again, so no publish is appended to it.
  ///
  /// Must run before the first publish of the resumed run.
  [[nodiscard]] support::Status restore_from_disk(engine::Version anchor);

  /// Rebuilds the version map from replayed manifest records: each record
  /// becomes a lazy entry (content hashes set, no in-memory payload) so a
  /// restarted coordinator serves history without replaying updates.  Only
  /// records at or above the newest base-carrying version ≤ `floor`... more
  /// precisely: the GC floor re-derives as the oldest version whose chain is
  /// fully on disk — records below the oldest base-carrying version are
  /// dropped (their chains would dangle).  `anchor` is the version the run
  /// resumes at; GC is clamped to it until a newer base is published, so a
  /// restore can never have its anchor collected from under it.
  void restore_from_manifest(
      const std::map<std::uint64_t, disk::PublishRecord>& records,
      std::uint64_t floor, engine::Version anchor);

  /// The version GC is currently clamped to after a restore (nullopt once a
  /// newer base has been published). Exposed for the GC regression tests.
  [[nodiscard]] std::optional<engine::Version> restore_anchor() const;

 private:
  enum class WalkOutcome : std::uint8_t {
    kOk,     ///< chain assembled
    kRetry,  ///< a lazy entry failed to fault in; its hash was cleared — rewalk
    kNoBase, ///< no reachable snapshot anywhere below: needs repair
  };

  /// chain_for body; requires mutex_ held. Retries walks around disk
  /// fault-in failures and repairs an unmaterializable version by
  /// re-publishing its nearest intact ancestor as a fresh base.
  [[nodiscard]] std::vector<ChainLink> chain_locked(
      engine::Version version, const AnchorProbe* anchors) const;

  /// One walk attempt; requires mutex_ held.
  [[nodiscard]] WalkOutcome walk_locked(
      engine::Version version, const AnchorProbe* anchors,
      std::vector<ChainLink>& out) const;

  /// Ensures the base (or delta) payload of `e` is registered in memory,
  /// faulting it in from the disk tier when the entry is lazy. On a failed
  /// fault-in (corrupt/quarantined/unreadable blob) the content hash is
  /// cleared — the payload is gone — and false is returned. Requires mutex_.
  [[nodiscard]] bool ensure_payload_locked(engine::Version version, VersionEntry& e,
                                           bool base) const;

  /// Last-resort fallback after data loss: materializes the newest intact
  /// version ≤ `version` and installs its value as a fresh base snapshot
  /// under `version` (counted in DiskTierMetrics::bases_republished, warned —
  /// never silent). Returns false when no version below is intact either.
  /// Requires mutex_ held.
  [[nodiscard]] bool repair_locked(engine::Version version) const;

  /// Materializes `version` server-side (GC rebase); requires mutex_ held.
  [[nodiscard]] linalg::DenseVector materialize_locked(engine::Version version) const;

  /// Registered caches, snapshotted under caches_mutex_.
  [[nodiscard]] std::vector<VersionedModelCache*> snapshot_caches();

  engine::BroadcastStore* broadcasts_;
  StoreConfig cfg_;

  mutable std::mutex mutex_;
  // mutable: the logically-const resolution walk faults lazy entries in from
  // disk (registering their payloads and recording the broadcast ids here).
  mutable std::map<engine::Version, VersionEntry> entries_;
  /// Diff source: value-equal to the last published model (a delta-only
  /// publish refreshes just its shipped coordinates, so an unchanged one may
  /// keep the other sign of a zero).
  linalg::DenseVector prev_;
  engine::Version prev_version_ = 0;
  bool has_prev_ = false;
  std::uint32_t since_base_ = 0;      ///< deltas published since the last base
  /// Publish scratch, dim-sized once: the diff writes the coordinates that
  /// differ from prev_ into its prefix, ascending.
  std::vector<std::uint32_t> changed_;
  engine::Version gc_floor_ = 0;
  StoreStats stats_;
  engine::DiskTierMetrics* disk_metrics_;
  engine::FaultState* disk_faults_;
  /// Durable tier (null = in-memory only): opened lazily at the first
  /// publish (kFresh), by restore_from_disk (kResume), or attached.
  std::unique_ptr<disk::DiskTier> tier_;
  /// Set by restore_from_manifest; GC clamps to it until a newer base lands.
  std::optional<engine::Version> restore_anchor_;

  // mutable: value_at() is logically const but creates a cache on first use.
  mutable std::mutex caches_mutex_;
  mutable std::vector<std::unique_ptr<VersionedModelCache>> worker_caches_;
  mutable std::unique_ptr<VersionedModelCache> driver_cache_;
};

}  // namespace asyncml::store
