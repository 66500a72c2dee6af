#pragma once

// Shared solver configuration.
//
// One struct covers all solvers; fields irrelevant to a given algorithm are
// ignored (documented per field).  Defaults reproduce the paper's §6.1
// parameter-tuning choices at our scale.

#include <cstdint>
#include <optional>
#include <string>

#include "core/barrier.hpp"
#include "core/scheduler.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/step_size.hpp"
#include "optim/workload.hpp"
#include "store/store_config.hpp"
#include "telemetry/telemetry.hpp"

namespace asyncml::optim {

struct SolverConfig {
  /// Model-update budget. Synchronous solvers: iterations. Asynchronous
  /// solvers: collected task results (each is one update).
  std::uint64_t updates = 200;

  /// Mini-batch sampling rate b (fraction of each partition per task).
  double batch_fraction = 0.1;

  /// Learning-rate schedule (sync solvers use it directly; async solvers
  /// scale it by async_step_scale).
  StepSchedule step = constant_step(0.05);

  /// Async step heuristic (§6.1): async step = sync step / num_workers.
  /// nullopt → 1/num_workers; 1.0 → no scaling.
  std::optional<double> async_step_scale;

  /// Staleness-dependent learning-rate modulation (paper Listing 1):
  /// lr ← lr / (1 + staleness). Only read by asynchronous solvers.
  bool staleness_adaptive_lr = false;

  /// Barrier control for asynchronous dispatch (default ASP). Only read by
  /// asynchronous solvers.
  core::BarrierControl barrier = core::barriers::asp();

  /// Base service time per task in ms; 0 → derive from `cost`.
  double service_floor_ms = 0.0;
  CostModel cost;

  /// Dynamic partition placement (docs/SCHEDULING.md): kLocality lets a
  /// worker with free capacity and no idle owned partition claim an idle
  /// partition from the most-backlogged peer, paying a one-time modeled
  /// migration cost; ownership transfers so later rounds are local. Read by
  /// every solver that schedules through the AsyncContext.
  core::StealMode steal_mode = core::StealMode::kOff;

  /// Speculative task replication: re-dispatch a task whose in-flight age
  /// exceeds `speculation_factor` × the cluster-median EWMA service time to
  /// a fast worker (first result wins, duplicates dropped — replicas of the
  /// same (seed, partition, seq) are bit-identical). <= 0 disables; 2.0 is
  /// a good starting point (docs/SCHEDULING.md).
  double speculation_factor = 0.0;

  /// Lost-task rescue horizon (SchedulerPolicy::lost_task_factor,
  /// docs/FAULTS.md): a task in flight longer than `lost_task_factor` × the
  /// cluster-median EWMA service time is presumed lost (dropped result,
  /// crashed holder) — its registration is written off and a fresh replica
  /// dispatched. <= 0 (default) disables. Only safe for solvers whose task
  /// bodies are re-entrant (plain gradient sums; NOT SAGA's version-table
  /// tasks, which force it off); 6.0 is a sane horizon for chaos runs.
  double lost_task_factor = 0.0;

  // -- checkpoint / restore (optim/checkpoint.hpp, docs/FAULTS.md) -----------

  /// Snapshot the solver state (model, version, round, STAT totals, solver
  /// aux vectors) to `checkpoint_path` every `checkpoint_every` model
  /// updates. 0 (default) = never. Read by every solver on the AsyncContext
  /// (Sgd, Asgd, Saga, Asaga, EpochVr); MllibSgd and NaiveSaga ignore it.
  std::uint64_t checkpoint_every = 0;

  /// Snapshot destination: a pointer file naming the directory that holds
  /// the checkpoint record — the store's disk tier when it is live, else a
  /// self-contained `<path>.0` or `<path>.1` beside it (optim/checkpoint.hpp).
  /// Each snapshot replaces the previous one. Required when
  /// checkpoint_every > 0.
  std::string checkpoint_path;

  /// Resume from this checkpoint before the first update (the same five
  /// solvers): Sgd continues bit-exactly (same trajectory as the
  /// uninterrupted run), Asgd trajectory-equivalently; Saga, Asaga and
  /// EpochVr warm-start at the checkpointed model with their other state
  /// cold (docs/FAULTS.md). A checkpoint_path pointer; the newest record in
  /// the directory it names whose blobs verify is the one resumed. Empty =
  /// fresh start. A missing or malformed pointer, or a directory with no
  /// intact record, aborts loudly rather than silently restarting.
  std::string resume_from;

  /// Snapshot the model every `eval_every` updates for the trace.
  std::uint64_t eval_every = 5;

  /// Experiment seed (drives mini-batch sampling).
  std::uint64_t seed = 1;

  /// Epoch-based variance reduction (EpochVrSolver only): inner updates per
  /// epoch; `updates` then counts total inner updates across epochs.
  std::uint64_t epoch_inner_updates = 50;

  /// Gradient accumulation representation. kAuto reads the workload's
  /// dataset density and starts sparse for sparse datasets, so task results
  /// ship O(batch-support) bytes instead of dim×8; sparse accumulators
  /// densify at linalg::kDefaultDensifyThreshold.
  linalg::GradMode grad_mode = linalg::GradMode::kAuto;

  /// Delta-versioned model store behind ASYNCbroadcast: delta vs
  /// full-snapshot publishing, base-snapshot cadence, and the durable disk
  /// tier beneath it. Only read by solvers publishing through the
  /// AsyncContext.
  store::StoreConfig store_config;

  /// Span-based telemetry (docs/TELEMETRY.md): per-task pipeline segments
  /// recorded into lock-free per-thread rings, harvested every
  /// `telemetry.harvest_every` processed results, surfaced as
  /// RunResult::telemetry (+ optional JSON export). Off by default — the
  /// disabled path is bit-and-timing-identical to not having the subsystem.
  /// Read by the engine-path solvers (sgd/asgd/saga/asaga/naive_saga/
  /// mllib_sgd/epoch_vr).
  telemetry::TelemetryConfig telemetry;

  /// Model-history GC cadence: every `gc_every` updates the AsyncContext
  /// solvers compact delta chains below the STAT minimum in-flight version
  /// (AsyncContext::gc_history). 0 disables GC (history grows unboundedly —
  /// only sensible for short diagnostic runs).
  std::uint64_t gc_every = 64;

  /// Concrete per-run representation (solvers call this via
  /// detail::grad_config with the workload's dim/density).  The kAuto choice
  /// is driven by the expected support of one task's batch gradient — the
  /// union of `expected_batch_rows` rows — not the raw per-cell density: a
  /// mid-density dataset saturates a large batch and should start dense.
  [[nodiscard]] linalg::GradVectorConfig grad_config(
      std::size_t dim, double dataset_density,
      double expected_batch_rows = 1.0) const {
    return linalg::resolve_grad_config(
        grad_mode, dim,
        linalg::expected_union_density(dataset_density, expected_batch_rows));
  }
};

}  // namespace asyncml::optim
