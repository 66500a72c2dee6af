#pragma once

// AsynchronousContext (AC) — the entry point of ASYNC (paper §5.1).
//
// Created once per application, the AC wires together the three components:
// the ASYNCcoordinator (result tagging + STAT), the ASYNCbroadcaster
// (history-aware broadcast), and the ASYNCscheduler (barrier-controlled
// dispatch).  The paper's Table-1 API maps as follows:
//
//   paper                          this class
//   ---------------------------    -----------------------------------------
//   AC = new ASYNCcontext          AsyncContext ac(cluster, partitions)
//   ASYNCreduce(f, AC)             ac.async_reduce(rdd, op, barrier, opts)
//   ASYNCaggregate(zero)(seq,comb) ac.async_aggregate(rdd, zero, seq, ...)
//   ASYNCbarrier(f, AC.STAT)       the BarrierControl passed to dispatch
//   ASYNCcollect()                 ac.collect(...).result.payload
//   ASYNCcollectAll()              ac.collect(...) (TaggedResult: + attrs)
//   ASYNCbroadcast(w)              ac.async_broadcast(w) -> HistoryBroadcast
//   AC.STAT                        ac.stat()
//   AC.hasNext()                   ac.has_next()
//
// ASYNCbarrier is a *dispatch-side* predicate here rather than an RDD
// transformation: semantically identical (it decides which workers receive
// tasks built from the RDD), but it lives with the scheduler because that is
// where our engine makes placement decisions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "core/barrier.hpp"
#include "core/coordinator.hpp"
#include "core/history.hpp"
#include "core/scheduler.hpp"
#include "engine/actions.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"

namespace asyncml::core {

/// Per-dispatch knobs a solver chooses.
struct SubmitOptions {
  /// Base service time per task in ms (straggler multipliers apply on top).
  double service_floor_ms = 0.0;
  /// Experiment seed for mini-batch sampling.
  std::uint64_t rng_seed = 1;
  /// Version tag for dispatched tasks; nullopt = the version current at
  /// dispatch time (the right choice for asynchronous algorithms).
  std::optional<engine::Version> model_version;
};

class AsyncContext {
 public:
  /// `store_config` tunes the delta-versioned model store behind
  /// ASYNCbroadcast (delta vs full-snapshot publishing, base cadence).
  AsyncContext(engine::Cluster& cluster, int num_partitions,
               store::StoreConfig store_config = {});

  AsyncContext(const AsyncContext&) = delete;
  AsyncContext& operator=(const AsyncContext&) = delete;

  // -- bookkeeping (AC.STAT / AC.hasNext) ------------------------------------

  [[nodiscard]] StatSnapshot stat() const { return coordinator_.stat(); }
  [[nodiscard]] bool has_next() { return coordinator_.has_next(); }
  [[nodiscard]] engine::Version current_version() const {
    return coordinator_.current_version();
  }
  void advance_version() { coordinator_.advance_version(); }

  /// Seeds the version and dispatch-round counters from a checkpoint
  /// (optim/checkpoint.hpp). Call before the first broadcast or dispatch of
  /// a resumed run: tasks pin the model version, and the batch RNG keys on
  /// the round seq — both streams must continue where the interrupted run
  /// stopped, not restart at zero.
  /// When the store's disk tier is enabled this also reopens the tier in
  /// resume mode and anchors the model plane on the manifest (restart without
  /// replay, docs/DURABILITY.md); a tier that cannot be reopened aborts —
  /// silently resuming without the durable state the checkpoint names would
  /// fake a successful durable restore.
  void restore(engine::Version version, std::uint64_t round);

  // -- collection (ASYNCcollect / ASYNCcollectAll) ----------------------------

  /// Blocking FIFO collect, run on the driver thread: it pops the cluster's
  /// result channel itself. If `retry_factory` is non-null, failed tasks
  /// observed while waiting are resubmitted through it (Spark retry
  /// semantics); the retry budget guards against permanently failing tasks.
  /// Returns empty only once the cluster has shut its result channel.
  [[nodiscard]] std::optional<TaggedResult> collect(
      const AsyncScheduler::TaskFactory* retry_factory = nullptr);

  /// Non-blocking collect.
  [[nodiscard]] std::optional<TaggedResult> try_collect() {
    auto collected = coordinator_.try_collect();
    if (collected.has_value()) {
      scheduler_.on_result_collected(collected->result.partition);
    }
    return collected;
  }

  // -- broadcast (ASYNCbroadcast) ---------------------------------------------

  /// Publishes `w` as the model at the *current* version and returns the
  /// pinned handle tasks should capture.
  [[nodiscard]] HistoryBroadcast async_broadcast(const linalg::DenseVector& w);

  /// Handle pinned to an already-published version.
  [[nodiscard]] HistoryBroadcast handle_for(engine::Version version) const {
    return HistoryBroadcast(store_, version);
  }

  /// The ASYNCbroadcaster's versioned model store.
  [[nodiscard]] store::ModelStore& history() { return *store_; }

  /// Garbage-collects history the STAT table proves unreachable: versions
  /// below the minimum in-flight dispatch version (no running task can read
  /// an older pinned model).  History-reading solvers pass the extra floor
  /// their bookkeeping requires — ASAGA/SAGA their SampleVersionTable
  /// minimum, epoch VR the current snapshot version.  Returns the bound GC'd
  /// against.
  engine::Version gc_history(
      std::optional<engine::Version> extra_floor = std::nullopt) {
    engine::Version bound = stat().min_inflight_version();
    if (extra_floor.has_value()) bound = std::min(bound, *extra_floor);
    store_->gc_below(bound);
    return bound;
  }

  // -- task factories and dispatch --------------------------------------------

  /// Builds a factory producing tasks from a prepared per-partition task
  /// function — the entry point of the fused batch gradient bodies
  /// (optim/grad_batch.hpp); the RDD aggregate factory lowers to it.
  [[nodiscard]] AsyncScheduler::TaskFactory make_fn_factory(
      std::shared_ptr<const engine::TaskFn> fn, SubmitOptions options) {
    return [this, fn = std::move(fn), options](engine::PartitionId p) {
      engine::TaskSpec spec;
      spec.partition = p;
      spec.model_version = options.model_version.value_or(coordinator_.current_version());
      spec.fn = fn;
      spec.service_floor_ms = options.service_floor_ms;
      spec.rng_seed = options.rng_seed;
      return spec;
    };
  }

  /// Builds a factory producing aggregate tasks over `rdd` (one per
  /// partition): acc = zero; acc = seq_op(acc, element) per sampled element.
  template <typename T, typename U, typename SeqOp>
  [[nodiscard]] AsyncScheduler::TaskFactory make_aggregate_factory(
      const engine::Rdd<T>& rdd, U zero, SeqOp seq_op, SubmitOptions options) {
    return make_fn_factory(engine::make_aggregate_fn<T, U, SeqOp>(
                               rdd, std::move(zero), std::move(seq_op)),
                           std::move(options));
  }

  /// ASYNCaggregate: dispatch aggregate tasks to workers passing `barrier`.
  /// Returns the number of tasks submitted (0 when the gate is closed).
  template <typename T, typename U, typename SeqOp>
  int async_aggregate(const engine::Rdd<T>& rdd, U zero, SeqOp seq_op,
                      const BarrierControl& barrier, const SubmitOptions& options) {
    const auto factory =
        make_aggregate_factory(rdd, std::move(zero), std::move(seq_op), options);
    return scheduler_.dispatch_eligible(barrier, factory);
  }

  /// ASYNCreduce: aggregate specialization folding elements with `op` from a
  /// provided identity (gradient sums use a zero vector).
  template <typename T, typename Op>
  int async_reduce(const engine::Rdd<T>& rdd, T identity, Op op,
                   const BarrierControl& barrier, const SubmitOptions& options) {
    return async_aggregate(rdd, std::move(identity), std::move(op), barrier, options);
  }

  /// Synchronous round *through* ASYNC (what the paper's synchronous SAGA
  /// does): dispatch one aggregate task per partition to every worker, block
  /// until all results arrive (retrying failures), return them.
  template <typename T, typename U, typename SeqOp>
  [[nodiscard]] std::vector<TaggedResult> sync_round(const engine::Rdd<T>& rdd, U zero,
                                                     SeqOp seq_op,
                                                     const SubmitOptions& options) {
    return sync_round_fn(engine::make_aggregate_fn<T, U, SeqOp>(
                             rdd, std::move(zero), std::move(seq_op)),
                         options);
  }

  /// sync_round over a prepared task function (fused batch bodies).
  [[nodiscard]] std::vector<TaggedResult> sync_round_fn(
      std::shared_ptr<const engine::TaskFn> fn, const SubmitOptions& options) {
    const auto factory = make_fn_factory(std::move(fn), options);
    const int total = scheduler_.dispatch_all(factory);
    std::vector<TaggedResult> out;
    out.reserve(static_cast<std::size_t>(total));
    while (static_cast<int>(out.size()) < total) {
      auto collected = collect(&factory);
      if (!collected.has_value()) break;  // cluster shut down
      out.push_back(std::move(*collected));
    }
    return out;
  }

  [[nodiscard]] Coordinator& coordinator() { return coordinator_; }
  [[nodiscard]] AsyncScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] engine::Cluster& cluster() { return cluster_; }

  /// Total failed-task retries performed through collect().
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

 private:
  /// Applies pending membership changes (FaultPlan-driven): admits dormant
  /// workers whose join version has been reached, removes crashed members.
  /// No-op (one branch) when the cluster has no fault plan.
  void poll_membership();

  engine::Cluster& cluster_;
  Coordinator coordinator_;
  AsyncScheduler scheduler_;
  std::shared_ptr<store::ModelStore> store_;
  /// Total failed-task retries before collect() aborts. Chaos runs push far
  /// more injected failures through collect() than a healthy run ever sees;
  /// the budget still backstops infinite retry loops.
  static constexpr std::uint64_t kMaxRetriesTotal = 10'000;
  std::uint64_t retries_ = 0;
  /// Telemetry anchor for the driver's accumulate segment: the instant the
  /// last successful collect() returned. Epoch = unset (telemetry off, or no
  /// collect yet this update).
  support::TimePoint last_collect_return_{};
};

}  // namespace asyncml::core
