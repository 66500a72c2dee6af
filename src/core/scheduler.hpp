#pragma once

// The ASYNCscheduler (paper §4.4), extended with dynamic placement.
//
// Dispatches tasks to workers according to a barrier-control strategy.
// Mirroring Spark's executor model, dispatch is *capacity aware*: a worker
// with C executor cores holds at most C tasks in flight, and each completed
// result frees a slot for the next idle partition owned by that worker.
// This keeps the number of concurrently in-flight tasks — and therefore the
// staleness of asynchronous updates — proportional to the cluster's core
// count rather than its partition count.
//
// A worker is *eligible* when it has free capacity, the barrier's per-worker
// filter passes, and the barrier's global gate allows dispatch.  The
// synchronous path (dispatch_all) bypasses capacity and ships one task per
// partition, which is exactly a BSP stage.
//
// Placement starts fixed (partition p on worker p % W) but may evolve:
//
//  * Locality-aware work stealing (SchedulerPolicy::steal_mode) — when a
//    worker has free capacity and no idle owned partition, it may claim an
//    idle partition from the most-backlogged peer, paying a one-time
//    data-migration cost modeled through NetworkModel.  Ownership transfers,
//    so subsequent rounds are local again.  Eligibility composes: a thief
//    must pass the barrier filter, and only a barrier-shunned victim may
//    lose its last partition (it cannot run it anyway).
//
//  * Speculative task replication (SchedulerPolicy::speculation_factor) — a
//    task whose in-flight age exceeds factor × the cluster-median EWMA
//    service time is re-dispatched to a fast worker with free capacity.
//    The coordinator's first-result-wins bookkeeping drops the loser; safe
//    because a replica of the same (seed, partition, seq) recomputes the
//    identical mini-batch, so duplicates are bit-identical.
//
// The scheduler stamps tasks with a monotonically increasing round sequence
// (shared by all tasks of one dispatch call); the task RNG derives from
// (seed, partition, seq), so every round samples a fresh deterministic
// mini-batch and a retry or replica of the same round recomputes the same
// batch.  Neither stealing nor speculation changes any computed value —
// only where and when work runs (docs/SCHEDULING.md, "Determinism").

#include <cstddef>
#include <functional>
#include <vector>

#include "core/barrier.hpp"
#include "core/coordinator.hpp"
#include "engine/cluster.hpp"
#include "support/stopwatch.hpp"

namespace asyncml::core {

/// Placement policy for partitions whose owner cannot service them.
enum class StealMode {
  kOff,       ///< fixed placement: partition p stays on worker p % W forever
  kLocality,  ///< backlogged peers shed idle partitions to free workers
};

/// Dynamic-placement knobs, set once per run (SolverConfig carries the
/// user-facing copies; docs/SCHEDULING.md is the handbook).
struct SchedulerPolicy {
  StealMode steal_mode = StealMode::kOff;

  /// Speculative replication threshold: replicate a task whose in-flight age
  /// exceeds `speculation_factor` × the cluster-median EWMA service time.
  /// <= 0 disables speculation.
  double speculation_factor = 0.0;

  /// Lost-task rescue: a task whose in-flight age exceeds `lost_task_factor`
  /// × the cluster-median EWMA service time is presumed lost — its result
  /// was dropped in transit or its holder died without notice — so ordinary
  /// speculation can never pay off (the "original" will not finish). The
  /// sweep writes the lost copy's registration off (Coordinator::
  /// try_write_off, race-safe against a late arrival) and dispatches a
  /// fresh replica, bypassing both the one-replica-per-task limit and the
  /// predicted-remaining gate, accepting any alive worker with a free core.
  /// <= 0 disables rescue (the default): like speculation, rescue re-executes
  /// tasks, which is only safe when task closures are stateless or
  /// re-entrant — SAGA's version-table tasks are neither. Runs that face
  /// result drops or crashes (chaos tests) opt in; 6.0 is a sane value, well
  /// above any speculation_factor. On a fast simulated cluster the EWMA
  /// median is sub-millisecond, so a horizon even briefly exceeded would
  /// otherwise fire constantly.
  double lost_task_factor = 0.0;

  /// Modeled resident bytes per partition — the one-time migration cost of
  /// a steal (and the remote-read cost of a speculative replica), charged
  /// through the cluster's NetworkModel. Empty = migration is free.
  std::vector<std::size_t> partition_bytes;
};

class AsyncScheduler {
 public:
  /// Builds the task for one partition; the scheduler fills in `id` and
  /// `seq` afterwards (everything else — fn, version, service floor, rng
  /// seed — is the solver's business).
  using TaskFactory = std::function<engine::TaskSpec(engine::PartitionId)>;

  AsyncScheduler(engine::Cluster& cluster, Coordinator& coordinator);

  /// Fixes the initial placement over the current member set: with all
  /// workers members (the default) partition p lives on worker p % W; with
  /// M < W members, on the p % M-th member. Call set_members first.
  void set_num_partitions(int num_partitions);

  // -- elastic membership ----------------------------------------------------
  //
  // The member set is the workers that own partitions and receive dispatch.
  // It changes mid-run: a dormant worker joins (FaultPlan kJoinWorker →
  // AsyncContext admits it), a crashed worker leaves. Neither event changes
  // any computed value — partition ownership moves, but a task's mini-batch
  // still derives from (seed, partition, seq) alone.

  /// Replaces the member set (size = cluster worker count). Call before
  /// set_num_partitions; non-members own nothing and receive no dispatch
  /// until admitted.
  void set_members(std::vector<bool> members);
  [[nodiscard]] bool is_member(engine::WorkerId worker) const {
    return member_[static_cast<std::size_t>(worker)];
  }
  [[nodiscard]] int member_count() const;

  /// Admits a dormant worker mid-run: marks it a member and moves idle
  /// partitions onto it from the most-loaded members, up to its fair share
  /// (⌊P / members⌋), charging the modeled migration cost. The worker's
  /// first task per partition then cold-anchors on the nearest store
  /// snapshot and catches up over the delta chain (store/model_store.hpp).
  /// Returns the number of partitions transferred.
  int admit_worker(engine::WorkerId worker);

  /// Tops mid-run joiners up toward their fair share: admit_worker can only
  /// move partitions that are idle *right now*, so a worker admitted while
  /// everything was busy keeps filling as results free partitions. Called by
  /// the AsyncContext membership poll each collect pass; restricted to
  /// workers still flagged as filling (a one-shot per admission), so a
  /// settled distribution — including one reshaped by work stealing — never
  /// churns. Returns the number of partitions transferred.
  int rebalance_joiners();

  /// Removes a dead worker from the member set and moves every partition it
  /// owned to the least-loaded alive members. Tasks it held in flight are
  /// not touched here: they surface as crash-synthesized failures and ride
  /// the normal retry path (or a replica already covers them). Returns the
  /// number of partitions transferred.
  int handle_worker_death(engine::WorkerId worker);

  /// Seeds the round counter from a checkpoint. Call before the first
  /// dispatch of a resumed run: mini-batches derive from (seed, partition,
  /// seq), so the seq stream must continue where the interrupted run
  /// stopped for the resumed trajectory to match the uninterrupted one.
  void resume_round(std::uint64_t round) { round_ = round; }

  /// Installs the dynamic-placement policy (defaults keep both features
  /// off, i.e. the classic fixed-placement scheduler).
  void set_policy(SchedulerPolicy policy);
  [[nodiscard]] const SchedulerPolicy& policy() const noexcept { return policy_; }

  [[nodiscard]] int num_partitions() const noexcept { return num_partitions_; }

  /// Partitions currently owned by `worker`. Throws std::out_of_range with a
  /// descriptive message for an invalid worker id.
  [[nodiscard]] const std::vector<engine::PartitionId>& partitions_of(
      engine::WorkerId worker) const;

  /// Fills `worker` to capacity with its idle partitions, ignoring barriers
  /// (used for priming). Returns the number of tasks submitted.
  int dispatch_worker(engine::WorkerId worker, const TaskFactory& factory);

  /// Dispatches idle partitions to every worker with free capacity that
  /// passes `barrier` (gate checked once against the current STAT snapshot).
  /// Under StealMode::kLocality, a stealing pass rebalances idle partitions
  /// onto eligible free workers first. Returns the number of tasks submitted.
  int dispatch_eligible(const BarrierControl& barrier, const TaskFactory& factory);

  /// One task per partition to every worker regardless of barrier or
  /// capacity — the synchronous BSP stage used by sync algorithms running
  /// through ASYNC. Under StealMode::kLocality the stage is preceded by a
  /// makespan-driven stealing pass over idle partitions.
  int dispatch_all(const TaskFactory& factory);

  /// Resubmits a failed task to the next worker (Spark retry semantics for
  /// the asynchronous path). The factory rebuilds the task for the partition.
  void resubmit(const engine::TaskResult& failed, const TaskFactory& factory);

  /// Marks the partition idle again; AsyncContext::collect calls this for
  /// every collected result.
  void on_result_collected(engine::PartitionId partition);

  /// Speculation sweep: re-dispatches every overdue in-flight task (age >
  /// speculation_factor × cluster-median EWMA) to a fast worker with free
  /// capacity, at most one replica per task. Driven by AsyncContext::collect
  /// so BSP-style rounds blocked on a straggler still speculate. Returns the
  /// number of replicas dispatched (0 when speculation is off).
  int maybe_speculate();

  [[nodiscard]] std::uint64_t rounds_dispatched() const noexcept { return round_; }
  [[nodiscard]] int busy_partitions() const noexcept { return busy_count_; }
  [[nodiscard]] std::uint64_t partitions_stolen() const noexcept { return steals_; }
  [[nodiscard]] std::uint64_t tasks_speculated() const noexcept { return speculations_; }

 private:
  /// Everything the scheduler must remember about an in-flight dispatch to
  /// replicate it bit-identically: the exact spec (same fn → same pinned
  /// model version, same rng seed / partition / seq → same mini-batch).
  struct InflightRecord {
    engine::TaskSpec spec;
    support::TimePoint dispatched_at{};
    engine::WorkerId worker = 0;
    /// Tasks ahead of this one in the worker's mailbox at dispatch time:
    /// with the worker's EWMA it predicts when the task *should* finish, so
    /// the speculation sweep can tell "slow worker" from "deep queue".
    int queue_ahead = 0;
    bool speculated = false;
    bool valid = false;
  };

  /// Dispatches up to `budget` idle partitions of `worker`; -1 = no limit.
  int dispatch_partitions(engine::WorkerId worker, const TaskFactory& factory,
                          std::uint64_t seq, int budget);

  /// One stealing pass over the current backlog. `barrier` non-null applies
  /// eligibility (thieves must pass the filter; only filtered-out victims
  /// may lose their last partition); `capacity_mode` restricts thieves to
  /// workers with free capacity and no idle owned partition (the
  /// asynchronous path). Without it (the synchronous path, one pass per
  /// round) the drain estimate never drops below one task time and a victim
  /// must clear the margin in kStealRounds consecutive rounds. Returns the
  /// number of ownership transfers.
  int steal_pass(const StatSnapshot& stat, const BarrierControl* barrier,
                 bool capacity_mode);

  /// Moves ownership of `partition` from `victim` to `thief`, charging the
  /// modeled migration cost to the partition's next task.
  void transfer_ownership(engine::PartitionId partition, engine::WorkerId victim,
                          engine::WorkerId thief);

  [[nodiscard]] std::size_t partition_data_bytes(engine::PartitionId p) const;
  [[nodiscard]] int idle_owned(engine::WorkerId worker) const;

  /// True when `worker` may be dispatched to: a member that is still alive.
  [[nodiscard]] bool dispatchable(engine::WorkerId worker) const;

  /// Moves idle partitions from the most-loaded members onto `worker` until
  /// it owns its fair share (⌊P / members⌋); the admit/rebalance core.
  int fill_toward_share(engine::WorkerId worker);

  engine::Cluster& cluster_;
  Coordinator& coordinator_;
  SchedulerPolicy policy_;
  std::vector<bool> member_;   ///< elastic member set (all true by default)
  std::vector<bool> filling_;  ///< joiners still below their fair share
  std::vector<std::vector<engine::PartitionId>> owned_;
  std::vector<bool> busy_;           ///< per-partition in-flight flag
  std::vector<std::size_t> cursor_;  ///< per-worker round-robin position
  std::vector<InflightRecord> inflight_;     ///< per-partition dispatch records
  std::vector<double> pending_migration_ms_; ///< charge on next dispatch
  int busy_count_ = 0;
  int num_partitions_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t speculations_ = 0;
  /// Consecutive synchronous rounds in which `imbalance_victim_` cleared
  /// the steal margin (kStealRounds in scheduler.cpp).
  int imbalanced_rounds_ = 0;
  engine::WorkerId imbalance_victim_ = -1;
};

}  // namespace asyncml::core
