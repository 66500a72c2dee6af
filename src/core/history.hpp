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
// Publishing, resolution and the durable disk tier live in the
// delta-versioned store::ModelStore (src/store/): a new version ships as a
// sparse delta against its predecessor (8 + 12*nnz wire bytes) instead of a
// full 8*dim snapshot, and a worker materializes version v from its nearest
// locally cached ancestor, fetching only the missing chain links.  The
// HistoryBroadcast handle below is what task closures capture (the `w_br` of
// Algorithm 4).

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "engine/types.hpp"
#include "linalg/dense_vector.hpp"
#include "store/model_store.hpp"

namespace asyncml::core {

/// Copyable handle pinned to the version that was current at dispatch time —
/// the `w_br` of Algorithms 2 and 4.
class HistoryBroadcast {
 public:
  HistoryBroadcast() = default;
  HistoryBroadcast(std::shared_ptr<const store::ModelStore> store,
                   engine::Version pinned)
      : store_(std::move(store)), pinned_(pinned) {}

  [[nodiscard]] bool valid() const noexcept { return store_ != nullptr; }
  [[nodiscard]] engine::Version version() const noexcept { return pinned_; }

  /// The model this task was dispatched against (`w_br.value`), as a
  /// counted handle: hold it for as long as you read the model.
  [[nodiscard]] std::shared_ptr<const linalg::DenseVector> value() const {
    return store_->value_at(pinned_);
  }

  /// A historical model (`w_br.value(index)` resolves the sample's version
  /// through the SampleVersionTable first, then calls this).
  [[nodiscard]] std::shared_ptr<const linalg::DenseVector> value_at(
      engine::Version v) const {
    return store_->value_at(v);
  }

 private:
  std::shared_ptr<const store::ModelStore> store_;
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
