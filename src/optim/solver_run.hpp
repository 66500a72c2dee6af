#pragma once

// The run skeleton every cluster solver shares, so that a solver file holds
// only its state and its step — the loop of the paper's listing.
//
//   RunScope  run-metric reset, telemetry, the convergence trace and its
//             stopwatch, and the RunResult epilogue.
//   AsyncRun  RunScope plus what the solvers on core::AsyncContext repeat:
//             the service floor, the gradient representation and
//             shard-support table, the context with its scheduler policy,
//             submit options, resume, and the per-update snapshot → GC →
//             checkpoint.
//
// The timed window opens at start(), which each solver calls where its loop
// begins: after the context, the policy and, where the solver publishes
// before its loop, the first publish.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/async_context.hpp"
#include "metrics/trace.hpp"
#include "optim/objective.hpp"
#include "optim/solver_util.hpp"
#include "support/stopwatch.hpp"

namespace asyncml::optim::detail {

/// Base service time of one task touching `fraction` of its partition: the
/// configured floor, else the cost model's estimate.
[[nodiscard]] inline double service_floor(const Workload& workload,
                                          const SolverConfig& config, double fraction,
                                          bool two_pass = false) {
  return config.service_floor_ms > 0.0
             ? config.service_floor_ms
             : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                           fraction, two_pass);
}

/// One solver run: constructed before the solver's state, finished once.
class RunScope {
 public:
  RunScope(engine::Cluster& cluster, const Workload& workload, const SolverConfig& config)
      : cluster(cluster),
        workload(workload),
        config(config),
        w(workload.dim()),
        recorder_(config.eval_every) {
    reset_run_metrics(cluster.metrics());
    begin_telemetry(cluster, config);
    recorder_.reserve_for(config.updates);
  }

  /// Opens the timed window with the trace's first point.
  void start(std::uint64_t first_update = 0) {
    watch_.reset();
    recorder_.snapshot(first_update, 0.0, w);
  }

  /// Trace point on the eval_every cadence.
  void snapshot(std::uint64_t updates) {
    recorder_.maybe_snapshot(updates, watch_.elapsed_ms(), w);
  }

  [[nodiscard]] std::uint64_t tasks_completed() const {
    return cluster.metrics().tasks_completed.load();
  }

  /// Closes the window with the final trace point, then fills the run
  /// counters and telemetry and evaluates the trace's objective.
  [[nodiscard]] RunResult finish(std::string algorithm, std::uint64_t updates,
                                 std::uint64_t tasks) {
    recorder_.snapshot(updates, watch_.elapsed_ms(), w);
    RunResult result;
    result.algorithm = std::move(algorithm);
    result.wall_ms = watch_.elapsed_ms();
    result.updates = updates;
    result.tasks = tasks;
    result.final_w = std::move(w);
    fill_run_stats(result, cluster.metrics());
    finish_telemetry(result, cluster, config);
    result.trace = recorder_.finalize([this](const linalg::DenseVector& model) {
      return full_objective(*workload.dataset, *workload.loss, model);
    });
    return result;
  }

  engine::Cluster& cluster;
  const Workload& workload;
  const SolverConfig& config;
  linalg::DenseVector w;  ///< the model the trace follows

 private:
  metrics::TraceRecorder recorder_;
  support::Stopwatch watch_;
};

/// What a solver's tasks compute. It fixes their modeled service time and
/// whether the scheduler may run a task twice.
enum class TaskKind {
  kGradient,        ///< one gradient pass, re-entrant (SGD, ASGD)
  kTwoPass,         ///< fresh + reference gradient, re-entrant (EpochVR)
  kHistoryWriting,  ///< two passes that rewrite SampleVersionTable entries (SAGA, ASAGA)
};

/// RunScope for the solvers on core::AsyncContext.
///
/// Resume (config.resume_from) restores the model and the version and
/// dispatch-round streams. Synchronous rounds then continue bit-exactly: the
/// batch RNG keys on (seed, partition, seq). Asynchronous runs continue
/// trajectory-equivalently, since arrival order is scheduling-dependent.
/// Solver state beyond the model restarts cold, a warm start at the restored
/// model: the version table of SAGA and ASAGA names history the restarted
/// process no longer holds, and ᾱ without it would bias every correction
/// term (their checkpoints still carry ᾱ, for inspection); EpochVR opens a
/// fresh epoch.
class AsyncRun : public RunScope {
 public:
  AsyncRun(engine::Cluster& cluster, const Workload& workload, const SolverConfig& config,
           TaskKind tasks)
      : RunScope(cluster, workload, config),
        grad_cfg(grad_config(workload, config)),
        shard_support(shard_support_table(workload, config)),
        ac(cluster, workload.num_partitions(), config.store_config) {
    core::SchedulerPolicy policy = scheduler_policy(workload, config);
    if (tasks == TaskKind::kHistoryWriting) {
      // A replica, speculative or a lost-task rescue, re-runs the body, and
      // the body is not idempotent. Stealing moves work without duplicating
      // it and stays available (docs/SCHEDULING.md, "Composition caveats").
      policy.speculation_factor = 0.0;
      policy.lost_task_factor = 0.0;
    }
    ac.scheduler().set_policy(std::move(policy));
    opts.service_floor_ms = service_floor(workload, config, config.batch_fraction,
                                          tasks != TaskKind::kGradient);
    opts.rng_seed = config.seed;
    if (auto cp = maybe_resume(config); cp.has_value()) {
      w = std::move(cp->model);
      resumed_at = cp->update_index;
      ac.restore(cp->model_version, cp->round);
    }
  }

  void start() { RunScope::start(resumed_at); }

  /// RunScope::finish, after the disk tier's writer has committed every
  /// queued record: wall_ms and RunResult::disk include that work.
  [[nodiscard]] RunResult finish(std::string algorithm, std::uint64_t updates,
                                 std::uint64_t tasks) {
    if (auto* tier = ac.history().sharded_store().disk_tier(); tier != nullptr) {
      tier->drain();
    }
    return RunScope::finish(std::move(algorithm), updates, tasks);
  }

  /// After update `updates` is applied and the version advanced: trace
  /// snapshot, history GC, checkpoint. `floor` (the GC floor) and `aux` (the
  /// checkpoint's solver vectors) are called only when GC or a checkpoint is
  /// due.
  template <typename FloorFn = NoFloor, typename AuxFn = NoAux>
  void end_update(std::uint64_t updates, FloorFn&& floor = {}, AuxFn&& aux = {}) {
    snapshot(updates);
    maybe_gc_history(ac, config, updates, floor);
    maybe_checkpoint(config, ac, w, updates, aux);
  }

  const linalg::GradVectorConfig grad_cfg;
  /// Per-partition shard-support sets: on a sharded plane, workers of a
  /// sparse workload fetch only the shards their partition touches.
  const std::shared_ptr<const std::vector<core::ShardSet>> shard_support;
  core::AsyncContext ac;
  core::SubmitOptions opts;
  std::uint64_t resumed_at = 0;  ///< checkpointed update index; 0 on a fresh start
};

}  // namespace asyncml::optim::detail
