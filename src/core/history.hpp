#pragma once

// The ASYNCbroadcaster (paper §4.3): history-aware broadcast.
//
// Variance-reduced methods (SAGA/ASAGA) need the model parameters of *past*
// iterations to recompute historical gradients.  Broadcasting the full table
// of past parameters every iteration — what plain Spark forces (Algorithm 3,
// red line) — costs O(iterations × d) per round.  The ASYNCbroadcaster
// instead assigns every published model a version, ships only the (id,
// version) pair with each task, and lets workers fetch values they have not
// yet cached; a worker that already holds version v pays nothing to read it
// again.  The `value(index)` call of Algorithm 4 resolves, through the
// worker-local SampleVersionTable, to "the model as it was when sample
// `index` was last used".
//
// Publishing and resolution are delegated to the delta-versioned ModelStore
// (src/store/): a new version ships as a sparse delta against its
// predecessor (8 + 12*nnz wire bytes) instead of a full 8*dim snapshot, and
// a worker materializes version v from its nearest locally cached ancestor,
// fetching only the missing chain links.  HistoryRegistry remains the
// version-keyed facade the solvers and the AsyncContext talk to, and owns the
// durable disk tier beneath the store (docs/DURABILITY.md); the
// HistoryBroadcast handle is what task closures capture (the `w_br` of
// Algorithm 4).

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/broadcast.hpp"
#include "engine/types.hpp"
#include "linalg/dense_vector.hpp"
#include "store/disk/disk_tier.hpp"
#include "store/model_store.hpp"
#include "support/status.hpp"

namespace asyncml::core {

class HistoryRegistry {
 public:
  explicit HistoryRegistry(engine::BroadcastStore* broadcasts,
                           store::StoreConfig config = {})
      : disk_config_(config.disk), store_(broadcasts, std::move(config)) {}

  /// Publishes `w` as the model at `version` (sparse delta or base snapshot,
  /// per the store's policy); returns the broadcast id it registered.  With
  /// the disk tier enabled, the first publish of a run that did not resume
  /// opens the tier fresh.
  engine::BroadcastId publish(const linalg::DenseVector& w, engine::Version version);

  /// Broadcast id of a published version (nullopt if unknown/GC'd).
  [[nodiscard]] std::optional<engine::BroadcastId> id_of(engine::Version version) const;

  /// Resolves the model at `version`. On a worker thread this routes through
  /// the worker's VersionedModelCache (materialized hit = free; miss fetches
  /// and charges exactly the missing chain links); on the driver, through
  /// the uncharged driver cache. Aborts if the version was never published
  /// or was GC'd — a logic error upstream.
  [[nodiscard]] const linalg::DenseVector& value_at(engine::Version version) const;

  /// Garbage-collects versions older than `min_version` (exact broadcast ids
  /// on the server and in every worker cache; the oldest retained version is
  /// rebased onto a fresh base snapshot when its delta chain crossed the
  /// cut). `min_version` must be a safe bound — see AsyncContext::gc_history.
  void prune_below(engine::Version min_version);

  [[nodiscard]] std::size_t size() const;

  /// Oldest retained version (for prune policies); nullopt when empty.
  [[nodiscard]] std::optional<engine::Version> oldest() const;

  /// The underlying delta-versioned store (chain metadata, publish stats).
  [[nodiscard]] store::ModelStore& model_store() noexcept { return store_; }
  [[nodiscard]] const store::ModelStore& model_store() const noexcept {
    return store_;
  }

  // ---- Durable disk tier (store/disk/, docs/DURABILITY.md) ---------------

  /// Routes the tier's counters into cluster metrics and its fault seams into
  /// the run's FaultState. Call before the first publish (AsyncContext ctor);
  /// both may be null.
  void set_disk_hooks(engine::DiskTierMetrics* metrics, engine::FaultState* faults);

  /// Whether the run keeps the tier: the configured switch, cleared when the
  /// first publish could not open the tier and the run went in-memory.
  [[nodiscard]] bool disk_enabled() const noexcept { return disk_config_.enabled; }

  /// The tier, or null: disabled, or enabled but before the first publish
  /// (the tier opens lazily with the first publish, kFresh).
  [[nodiscard]] store::disk::DiskTier* disk_tier() noexcept { return tier_.get(); }

  /// Restart-without-replay: opens the tier in kResume mode (manifest replay,
  /// torn tail truncated) and anchors the store on the replayed publishes at
  /// or below `anchor` (the checkpointed model version). A manifest that
  /// DiskTier::restored_model refuses is returned as its non-OK status, and
  /// the store is not attached to the tier, so no publish is appended to it.
  ///
  /// Must run before the first publish of the resumed run.
  [[nodiscard]] support::Status restore_from_disk(engine::Version anchor);

 private:
  store::DiskTierConfig disk_config_;
  // Declared before the store, which borrows it: opened lazily at the first
  // publish (kFresh) or by restore_from_disk (kResume).
  std::unique_ptr<store::disk::DiskTier> tier_;
  engine::DiskTierMetrics* disk_metrics_ = nullptr;
  engine::FaultState* disk_faults_ = nullptr;
  // mutable: value_at() is logically const but materializes into caches.
  mutable store::ModelStore store_;
};

/// Copyable handle pinned to the version that was current at dispatch time —
/// the `w_br` of Algorithms 2 and 4.
class HistoryBroadcast {
 public:
  HistoryBroadcast() = default;
  HistoryBroadcast(std::shared_ptr<const HistoryRegistry> registry,
                   engine::Version pinned)
      : registry_(std::move(registry)), pinned_(pinned) {}

  [[nodiscard]] bool valid() const noexcept { return registry_ != nullptr; }
  [[nodiscard]] engine::Version version() const noexcept { return pinned_; }

  /// The model this task was dispatched against (`w_br.value`).
  [[nodiscard]] const linalg::DenseVector& value() const {
    return registry_->value_at(pinned_);
  }

  /// A historical model (`w_br.value(index)` resolves the sample's version
  /// through the SampleVersionTable first, then calls this).
  [[nodiscard]] const linalg::DenseVector& value_at(engine::Version v) const {
    return registry_->value_at(v);
  }

 private:
  std::shared_ptr<const HistoryRegistry> registry_;
  engine::Version pinned_ = 0;
};

/// Sentinel for "sample never visited": its historical gradient is the zero
/// vector (SAGA with an uninitialized table; ᾱ starts at 0 consistently).
/// Lives beside SampleVersionTable because every consumer of the table —
/// the per-row seq ops and the fused batch bodies alike — branches on it.
inline constexpr engine::Version kNeverVisited = ~engine::Version{0};

/// Worker-local "last version used per sample" table — the bookkeeping that
/// lets ASAGA recompute historical gradients instead of storing them.
///
/// Concurrency contract: entry i is only *written* by the task currently
/// processing the partition that owns sample i (the scheduler never runs two
/// tasks of one partition concurrently; cross-worker visibility after a
/// retry is established by the result-queue handoff).  Entries are atomics
/// because the driver's history GC scans min_version() concurrently with
/// task updates; entries only ever increase, so a concurrent scan can only
/// under-estimate the minimum — which keeps the GC bound conservative.  A
/// task writes its entries after its historical reads, so set() releases
/// and min_version() acquires: a scan that sees a raised entry (and may then
/// free the old version) is ordered after the reads of that version.
class SampleVersionTable {
 public:
  explicit SampleVersionTable(std::size_t n, engine::Version init = 0)
      : versions_(n) {
    for (auto& v : versions_) v.store(init, std::memory_order_relaxed);
  }

  [[nodiscard]] engine::Version get(std::size_t i) const {
    return versions_.at(i).load(std::memory_order_relaxed);
  }
  void set(std::size_t i, engine::Version v) {
    versions_.at(i).store(v, std::memory_order_release);
  }
  [[nodiscard]] std::size_t size() const noexcept { return versions_.size(); }

  /// Smallest version still referenced — safe lower bound for pruning.
  [[nodiscard]] engine::Version min_version() const;

 private:
  std::vector<std::atomic<engine::Version>> versions_;
};

}  // namespace asyncml::core
