#pragma once

// The ASYNCcoordinator (paper §4.2).
//
// A dedicated thread drains the cluster's result channel, annotates each task
// result with worker attributes (staleness, mini-batch provenance, worker
// id), maintains the STAT table, and exposes the annotated results in FIFO
// order (ASYNCcollect).  Failed task results are routed to a separate queue
// so the scheduler can resubmit them without disturbing the result FIFO.
//
// The model-parameter version is owned here: the server's solver loop calls
// advance_version() after each update, and staleness of a result is computed
// as (version at collection) − (version the task computed against).

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/stat.hpp"
#include "engine/cluster.hpp"
#include "support/blocking_queue.hpp"
#include "support/ewma.hpp"

namespace asyncml::core {

/// A task result annotated with the worker attributes the paper's
/// ASYNCcollectAll returns.
struct TaggedResult {
  engine::TaskResult result;
  /// Staleness of this result: version at arrival − task's model version.
  std::uint64_t staleness = 0;
  /// Snapshot of the submitting worker's STAT row at arrival.
  WorkerStat worker;
};

class Coordinator {
 public:
  explicit Coordinator(engine::Cluster& cluster);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Starts the drain thread. Called by AsyncContext's constructor.
  void start();

  /// Stops the drain thread (does not shut the cluster down). Idempotent.
  void stop();

  // -- bookkeeping reads ----------------------------------------------------

  [[nodiscard]] StatSnapshot stat() const;
  [[nodiscard]] engine::Version current_version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// True if an annotated result is waiting (AC.hasNext()). A result is
  /// queued before its task leaves the outstanding count, so
  /// total_outstanding() == 0 && !has_next() means no result is in flight.
  [[nodiscard]] bool has_next() const { return !results_.empty(); }

  /// True once stop() has been called (collect() will not block again).
  [[nodiscard]] bool stopped() const noexcept {
    return !running_.load(std::memory_order_acquire);
  }

  // -- collection ------------------------------------------------------------

  /// FIFO pop of the next annotated result; blocks up to `timeout`.
  [[nodiscard]] std::optional<TaggedResult> collect_for(std::chrono::milliseconds timeout);

  /// Blocking FIFO pop; returns nullopt only when stopped.
  [[nodiscard]] std::optional<TaggedResult> collect();

  /// Non-blocking pop.
  [[nodiscard]] std::optional<TaggedResult> try_collect();

  /// Failed task results (after worker-side retries are exhausted upstream).
  [[nodiscard]] std::optional<engine::TaskResult> try_collect_failure();

  // -- server-side hooks ------------------------------------------------------

  /// Bumps the model version; call after every model update.
  void advance_version() { version_.fetch_add(1, std::memory_order_acq_rel); }

  /// Seeds the version counter from a checkpoint. Call before any dispatch:
  /// tasks pin the version at dispatch time, so a resumed run must start
  /// counting where the interrupted one stopped (optim/checkpoint.hpp).
  void restore_version(engine::Version version) {
    version_.store(version, std::memory_order_release);
  }

  /// Records that `spec` was dispatched to `worker` against its model version
  /// (called by the scheduler; marks the worker unavailable), and tracks the
  /// task's logical identity (partition, seq). Registering the
  /// same identity again (a speculative replica or a failure retry) arms
  /// first-result-wins semantics: the first OK result for the identity is
  /// delivered, every later one is dropped as a duplicate — safe because a
  /// replica of the same (seed, partition, seq) recomputes the identical
  /// mini-batch, so duplicates are bit-identical.
  void on_task_dispatch(engine::WorkerId worker, const engine::TaskSpec& spec);

  /// Registers a speculative replica of an in-flight task, atomically with
  /// the dedup bookkeeping: succeeds only while the original's identity is
  /// still undelivered. Returns false when the original's result has already
  /// been accounted (it may be sitting uncollected in the result queue) — a
  /// replica dispatched past that point would be delivered a second time.
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
  /// means its result arrived in the meantime and nothing was changed, so the
  /// caller can never double-unwind in the race against the drain thread.
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
    return duplicates_dropped_.load(std::memory_order_relaxed);
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

  void drain_loop();
  /// Tags, dedups, and routes one delivered TaskResult (drain_loop body).
  void process_result(engine::TaskResult result);
  void apply_result_locked(const engine::TaskResult& r);
  /// Counts one task dispatched to `worker` against `version` in STAT.
  void register_dispatch_locked(engine::WorkerId worker, engine::Version version);
  /// Reverses one register_dispatch_locked slot (STAT half of abort/write-off).
  void unwind_dispatch_locked(engine::WorkerId worker, engine::Version version);
  /// Drops the worker's copy from `it`'s entry; erases the entry when no
  /// copies remain and records the identity in last_accounted_seq_.
  void consume_copy_locked(std::map<TaskKey, InflightTask>::iterator it,
                           engine::WorkerId worker);
  /// Refreshes `row.min_outstanding_version` from the in-flight version
  /// multiset; requires stat_mutex_ held.
  void fill_min_outstanding_locked(WorkerStat& row) const;

  engine::Cluster& cluster_;
  std::atomic<engine::Version> version_{0};

  mutable std::mutex stat_mutex_;
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
  std::atomic<std::uint64_t> duplicates_dropped_{0};

  support::BlockingQueue<TaggedResult> results_;
  support::BlockingQueue<engine::TaskResult> failures_;

  std::atomic<bool> running_{false};
  std::jthread drain_thread_;
};

}  // namespace asyncml::core
