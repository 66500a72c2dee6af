#pragma once

// Sharded model plane: S delta-versioned ModelStore shards behind one facade.
//
// A single ModelStore serializes every publish into one delta chain and makes
// every worker materialize the full model vector.  The ShardedModelStore
// partitions the feature index space across S shards (core/shard_map.hpp):
// each shard owns its own delta chain, base-snapshot cadence, and GC floor,
// so
//
//   * a publish only touches the shards whose slice actually changed — an
//     update with support confined to two shards publishes two small deltas
//     and skips the rest entirely (the skipped shards' chains stay short and
//     their bases stay cold);
//   * a sparse task materializes only the shards its batch-union support
//     touches (the ShardSet mask) — on rcv1-like data at 0.2% density most
//     batches hit a strict subset of the shards, and the untouched shards
//     ship zero bytes to that worker;
//   * GC runs per shard, keyed off the global STAT floor translated through
//     each shard's own (sparser) version set.
//
// Version translation: shard s resolves global version v at its newest
// published version ≤ v (`ModelStore::latest_at_or_below`) — exactly the
// publish that last changed the slice, so the assembled vector is bit-equal
// to what an unsharded store would serve.
//
// S == 1 is the bit-exact reference: every call delegates wholesale to a
// single ModelStore with no ShardMap, no assembly buffers, and no behavioural
// difference from pre-sharding builds.
//
// Assembly (S > 1): each (worker, version) pair owns an AssemblyEntry — a
// full-dim buffer plus a per-shard filled bitmap — and masked reads fill only
// the missing masked shards under the entry's mutex (the sharded analog of
// VersionedModelCache's single-flight).  Returned references stay valid until
// the version falls below the GC floor, same contract as the unsharded cache.
//
// Determinism: the ShardMap is a pure function of (dim, S), slices are
// copied bit-for-bit, and per-shard chains replay the same per-coordinate
// overwrite values the unsharded chain would — so solver trajectories are
// bit-identical across S (docs/SHARDING.md).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "core/shard_map.hpp"
#include "engine/broadcast.hpp"
#include "engine/types.hpp"
#include "linalg/dense_vector.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/model_store.hpp"
#include "support/status.hpp"

namespace asyncml::store {

class ShardedModelStore {
 public:
  /// S = config.num_shards.  With S == 1 the single shard is built eagerly
  /// (a ModelStore needs no dimension up front); with S > 1 the ShardMap and
  /// shards are built lazily at the first publish, when the model dimension
  /// is known (S is then clamped to the dimension).
  ShardedModelStore(engine::BroadcastStore* broadcasts, StoreConfig config);

  ShardedModelStore(const ShardedModelStore&) = delete;
  ShardedModelStore& operator=(const ShardedModelStore&) = delete;

  /// Publishes `w` as `version` into every shard whose slice changed since
  /// the previous publish (all shards on the first publish).  Returns the
  /// broadcast id of shard 0's entry serving `version` — with S == 1 exactly
  /// the unsharded ModelStore::publish return.
  ///
  /// Threading: driver-thread only, like ModelStore::publish.
  engine::BroadcastId publish(const linalg::DenseVector& w, engine::Version version);

  /// The assembled dense model at `version`.  On a worker thread this
  /// resolves through the worker's per-shard caches (charging exactly the
  /// missing chain links of the shards it fills); on the driver, uncharged.
  /// `mask` restricts the fill to the listed shards: coordinates outside the
  /// masked shards are unspecified in the returned vector, so callers must
  /// read only coordinates whose shard is in the mask (the batch kernels pass
  /// their partition's shard-support set).  Null mask = full assembly.
  [[nodiscard]] const linalg::DenseVector& value_at(
      engine::Version version, const core::ShardSet* mask = nullptr);

  /// Broadcast id serving `version` on shard 0 (nullopt if unknown/GC'd).
  /// With S == 1 this is exactly ModelStore::id_of.
  [[nodiscard]] std::optional<engine::BroadcastId> id_of(engine::Version version) const;

  /// Per-shard GC: translates the global floor through each shard's version
  /// set (a shard keeps its newest entry ≤ `min_version` — later versions may
  /// still resolve to it) and drops assembly buffers below the floor.
  void gc_below(engine::Version min_version);

  /// Published versions retained (global versions, not per-shard entries).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::optional<engine::Version> oldest() const;

  /// Direct shard access (shard 0 is the unsharded store when S == 1).
  /// Valid for s < active_shards().
  [[nodiscard]] ModelStore& shard(std::uint32_t s);
  [[nodiscard]] const ModelStore& shard(std::uint32_t s) const;

  /// Shards actually constructed: 1 before the first S > 1 publish (and
  /// always for S == 1), the clamped shard count after.
  [[nodiscard]] std::uint32_t active_shards() const;

  /// The routing map; null until the first publish when S > 1.
  [[nodiscard]] const core::ShardMap* shard_map() const;

  [[nodiscard]] bool sharded() const noexcept { return cfg_.num_shards > 1; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return cfg_; }

  /// Publish stats summed over shards.
  [[nodiscard]] StoreStats aggregate_stats() const;

  // ---- Durable disk tier (store/disk/, docs/DURABILITY.md) ---------------

  /// Routes the tier's counters into cluster metrics and its fault seams into
  /// the run's FaultState. Call before the first publish (AsyncContext ctor);
  /// both may be null.
  void set_disk_hooks(engine::DiskTierMetrics* metrics, engine::FaultState* faults);

  /// The tier, or null: disabled, or enabled but before the first publish
  /// (the tier opens lazily with the first publish, kFresh).
  [[nodiscard]] disk::DiskTier* disk_tier() noexcept { return tier_.get(); }

  /// Restart-without-replay: opens the tier in kResume mode (manifest replay,
  /// torn tail truncated) and anchors the store on the replayed publishes at
  /// or below `anchor` (the checkpointed model version). With S == 1 the
  /// shard replays immediately; with S > 1 the replay is deferred to the
  /// first publish, when the ShardMap (and thus the shards) exist.
  ///
  /// Must run before the first publish of the resumed run.
  [[nodiscard]] support::Status restore_from_disk(engine::Version anchor);

 private:
  struct AssemblyEntry {
    explicit AssemblyEntry(std::size_t dim, std::uint32_t num_shards)
        : w(dim), filled(num_shards, 0) {}
    linalg::DenseVector w;             ///< masked shards hold assembled values
    std::vector<std::uint8_t> filled;  ///< per-shard fill bitmap
    std::mutex fill_mutex;             ///< held across fills (single-flight)
  };

  /// Get-or-create the (worker, version) assembly entry. `worker` is -1 on
  /// the driver.
  [[nodiscard]] std::shared_ptr<AssemblyEntry> assembly_entry(
      int worker, engine::Version version);

  /// Drops assembly entries of exactly `version` (republish) across workers.
  void drop_assembly_at(engine::Version version);

  /// Attaches shard `s` to the tier and, when a deferred restore is pending,
  /// replays its slice of the manifest into the shard.
  void attach_shard(std::uint32_t s);

  engine::BroadcastStore* broadcasts_;
  StoreConfig cfg_;

  // Disk tier: owned here (shards borrow it), opened lazily at first publish
  // (kFresh) or eagerly by restore_from_disk (kResume).
  std::unique_ptr<disk::DiskTier> tier_;
  engine::DiskTierMetrics* disk_metrics_ = nullptr;
  engine::FaultState* disk_faults_ = nullptr;
  std::optional<engine::Version> pending_restore_anchor_;

  // Built at construction (S == 1) or first publish (S > 1); immutable after.
  std::unique_ptr<core::ShardMap> map_;
  std::vector<std::unique_ptr<ModelStore>> shards_;

  // Driver-private publish state (same threading contract as ModelStore).
  linalg::DenseVector prev_;
  engine::Version prev_version_ = 0;
  bool has_prev_ = false;

  // Global versions published (sharded mode), for size()/oldest() and the
  // republish-detection check; guarded by assembly_mutex_ (both are touched
  // on the same paths).
  std::set<engine::Version> versions_;

  mutable std::mutex assembly_mutex_;
  // worker (-1 = driver) → version → entry.
  std::map<int, std::map<engine::Version, std::shared_ptr<AssemblyEntry>>>
      assemblies_;
};

}  // namespace asyncml::store
