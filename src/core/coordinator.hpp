#pragma once

// The ASYNCcoordinator (paper §4.2).
//
// The coordinator runs on the driver thread and owns no thread of its own:
// collecting pops the cluster's result channel, maintains the STAT table
// (dedup, EWMA task time, failure counts) and hands the results out in FIFO
// order (ASYNCcollect), annotated with worker attributes (staleness, worker
// id).  Failed task results are set aside so the scheduler can resubmit them
// without disturbing the FIFO.  Every method is driver-thread-only; results
// cross from the executors through the result channel alone.
//
// The model-parameter version is owned here: the server's solver loop calls
// advance_version() after each update, and staleness of a result is computed
// as (version at collection) − (version the task computed against).

#include <chrono>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/stat.hpp"
#include "engine/cluster.hpp"
#include "support/ewma.hpp"

namespace asyncml::core {

/// A task result annotated with the worker attributes the paper's
/// ASYNCcollectAll returns.
struct TaggedResult {
  engine::TaskResult result;
  /// Staleness of this result: version at collection − task's model version,
  /// the τ that Listing 1's α/(1+τ) applies.
  std::uint64_t staleness = 0;
  /// Snapshot of the submitting worker's STAT row at collection.
  WorkerStat worker;
};

class Coordinator {
 public:
  explicit Coordinator(engine::Cluster& cluster);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // -- bookkeeping reads ----------------------------------------------------

  [[nodiscard]] StatSnapshot stat() const;
  [[nodiscard]] engine::Version current_version() const noexcept { return version_; }

  /// True if a result is ready to collect (AC.hasNext()); drains the result
  /// channel without blocking first. A task leaves the outstanding count
  /// only when its result is taken off the channel, so
  /// total_outstanding() == 0 && !has_next() means no result is in flight.
  [[nodiscard]] bool has_next();

  // -- collection ------------------------------------------------------------

  /// FIFO pop of the next result, tagged at collection. Blocks up to
  /// `timeout`, and returns empty early once a failed task is waiting for
  /// try_collect_failure (or the cluster has shut the channel).
  [[nodiscard]] std::optional<TaggedResult> collect_for(std::chrono::milliseconds timeout);

  /// Non-blocking pop.
  [[nodiscard]] std::optional<TaggedResult> try_collect();

  /// Failed task results (after worker-side retries are exhausted upstream);
  /// drains the result channel without blocking first.
  [[nodiscard]] std::optional<engine::TaskResult> try_collect_failure();

  // -- server-side hooks ------------------------------------------------------

  /// Bumps the model version; call after every model update.
  void advance_version() { ++version_; }

  /// Seeds the version counter from a checkpoint. Call before any dispatch:
  /// tasks pin the version at dispatch time, so a resumed run must start
  /// counting where the interrupted one stopped (optim/checkpoint.hpp).
  void restore_version(engine::Version version) { version_ = version; }

  /// Records that `spec` was dispatched to `worker` against its model version
  /// (called by the scheduler; marks the worker unavailable), and tracks the
  /// task's logical identity (partition, seq). Registering the
  /// same identity again (a speculative replica or a failure retry) arms
  /// first-result-wins semantics: the first OK result for the identity is
  /// delivered, every later one is dropped as a duplicate — safe because a
  /// replica of the same (seed, partition, seq) recomputes the identical
  /// mini-batch, so duplicates are bit-identical.
  void on_task_dispatch(engine::WorkerId worker, const engine::TaskSpec& spec);

  /// Registers a speculative replica of an in-flight task with the dedup
  /// bookkeeping: succeeds only while the original's identity is still
  /// undelivered. Returns false when the original's result has already been
  /// accounted (it may be waiting uncollected) — a replica dispatched past
  /// that point would be delivered a second time.
  [[nodiscard]] bool try_register_replica(engine::WorkerId worker,
                                          const engine::TaskSpec& spec);

  /// Reverses one registration (on_task_dispatch / try_register_replica)
  /// for a task that was never actually submitted — e.g. the cluster shut
  /// down between registration and submit. Without this the phantom task
  /// would pin `outstanding` and the history-GC bound forever.
  void on_dispatch_aborted(engine::WorkerId worker, const engine::TaskSpec& spec);

  /// Writes off a registered copy presumed lost in transit (a dropped result
  /// — see engine/fault.hpp): unwinds its STAT registration like
  /// on_dispatch_aborted, but only if that copy is still unaccounted — false
  /// means its result was taken off the channel in the meantime and nothing
  /// was changed, so the caller can never double-unwind.
  /// Should the written-off result surface after all, per-worker dedup drops
  /// it as an excess arrival without touching STAT.
  [[nodiscard]] bool try_write_off(engine::WorkerId worker,
                                   const engine::TaskSpec& spec);

  /// Total tasks in flight across all workers (deadlock diagnostics).
  [[nodiscard]] int total_outstanding() const;

  /// Tasks currently in flight on one worker.
  [[nodiscard]] int outstanding(engine::WorkerId worker) const;

  /// Replica results dropped by first-result-wins dedup (OK duplicates plus
  /// failures of already-delivered tasks, which need no retry).
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return duplicates_dropped_;
  }

 private:
  /// Logical identity of a dispatched task: replicas share it, so it keys
  /// the first-result-wins bookkeeping. (partition, seq) is unique per
  /// logical dispatch — the scheduler never re-issues a round sequence for
  /// the same partition.
  using TaskKey = std::pair<engine::PartitionId, std::uint64_t>;
  struct InflightTask {
    /// Unaccounted replicas per worker. Accounting is per (identity, worker):
    /// an at-least-once transport echo from one worker (kDuplicateResult) can
    /// never consume the registration of a replica still running elsewhere —
    /// with a single shared count, a duplicate would burn the entry and the
    /// late replica's arrival would corrupt `outstanding` and be delivered a
    /// second time.
    std::map<engine::WorkerId, int> copies;
    bool delivered = false;  ///< an OK result has already been released
  };

  /// Drains the result channel without blocking.
  void poll();
  /// Dedups and routes one TaskResult taken off the channel: an OK result
  /// joins ready_, a failure joins failed_, a duplicate is dropped.
  void process_result(engine::TaskResult result);
  /// Takes the oldest ready result, tagged against the current version and
  /// STAT row.
  [[nodiscard]] std::optional<TaggedResult> take_next();
  void apply_result(const engine::TaskResult& r);
  /// Counts one task dispatched to `worker` against `version` in STAT.
  void register_dispatch(engine::WorkerId worker, engine::Version version);
  /// Reverses one register_dispatch slot (STAT half of abort/write-off).
  void unwind_dispatch(engine::WorkerId worker, engine::Version version);
  /// Drops the worker's copy from `it`'s entry; erases the entry when no
  /// copies remain and records the identity in last_accounted_seq_.
  void consume_copy(std::map<TaskKey, InflightTask>::iterator it,
                    engine::WorkerId worker);
  /// Refreshes `row.min_outstanding_version` from the in-flight version
  /// multiset.
  void fill_min_outstanding(WorkerStat& row) const;
  /// Derives a row snapshot's staleness fields from the current version.
  void fill_staleness(WorkerStat& row) const;

  engine::Cluster& cluster_;
  engine::Version version_ = 0;

  std::vector<WorkerStat> stats_;
  /// Per-worker versions of tasks currently in flight (one entry per task):
  /// the authoritative source of the history-GC bound. A plain "last
  /// dispatched version" is not enough — a multi-core worker can hold an old
  /// queued task while newer ones are dispatched past it.
  std::vector<std::multiset<engine::Version>> inflight_versions_;
  std::vector<support::Ewma> task_time_ewma_;
  /// First-result-wins bookkeeping for tasks registered per identity
  /// (on_task_dispatch). Entries die when their last replica is accounted
  /// for, so the map stays bounded by the in-flight task count.
  std::map<TaskKey, InflightTask> inflight_tasks_;
  /// Highest fully-accounted seq per partition. An arrival with no inflight
  /// entry and seq at or below this floor was already accounted in full —
  /// an injected duplicate of a retired task, or a written-off copy that
  /// surfaced late — and must be dropped without any STAT bookkeeping.
  std::map<engine::PartitionId, std::uint64_t> last_accounted_seq_;
  std::uint64_t duplicates_dropped_ = 0;

  /// Results taken off the channel but not yet collected, in arrival order.
  /// The channel is drained in one swap per wakeup, not one lock round trip
  /// per result.
  std::deque<engine::TaskResult> ready_;
  std::deque<engine::TaskResult> failed_;
};

}  // namespace asyncml::core
