#pragma once

// Internals shared by the solvers: run-metric bookkeeping and the gradient
// task bodies (the `map` bodies of Algorithms 1–4).

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/async_context.hpp"
#include "core/history.hpp"
#include "data/dataset.hpp"
#include "engine/metrics.hpp"
#include "linalg/blas.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/checkpoint.hpp"
#include "optim/grad_batch.hpp"
#include "optim/loss.hpp"
#include "optim/payloads.hpp"
#include "optim/run_result.hpp"
#include "optim/solver_config.hpp"
#include "store/disk/disk_tier.hpp"
#include "support/thread_util.hpp"

namespace asyncml::optim::detail {

/// Resolves the gradient representation for a (workload, config) pair: the
/// expected per-task batch support (dataset density unioned over the rows
/// one task samples) drives the kAuto choice, so rcv1-like runs accumulate
/// and ship sparse gradients without any per-solver opt-in while saturating
/// batches start dense.
[[nodiscard]] inline linalg::GradVectorConfig grad_config(const Workload& workload,
                                                          const SolverConfig& config) {
  const double rows_per_task =
      config.batch_fraction * static_cast<double>(workload.n()) /
      static_cast<double>(std::max(1, workload.num_partitions()));
  return config.grad_config(workload.dim(), workload.dataset->density(),
                            std::max(1.0, rows_per_task));
}

/// Sentinel for "sample never visited" (canonical definition lives beside
/// SampleVersionTable in core/history.hpp).
inline constexpr engine::Version kNeverVisited = core::kNeverVisited;

inline void reset_run_metrics(engine::ClusterMetrics& m) {
  m.reset_waits();
  m.broadcast_bytes.reset();
  m.broadcast_base_bytes.reset();
  m.broadcast_delta_bytes.reset();
  m.result_bytes.reset();
  m.task_messages.reset();
  m.broadcast_fetches.reset();
  m.broadcast_hits.reset();
  m.tasks_completed.reset();
  m.tasks_failed.reset();
  m.task_compute_ns.reset();
  m.migration_bytes.reset();
  m.partitions_stolen.reset();
  m.tasks_speculated.reset();
  m.duplicate_results.reset();
  m.reset_wire_counters();
  m.disk.reset();
}

inline void fill_run_stats(RunResult& r, const engine::ClusterMetrics& m) {
  const support::Histogram waits = m.total_wait_histogram();
  r.mean_wait_ms = waits.mean_ns() / 1e6;
  r.p95_wait_ms = waits.quantile_ns(0.95) / 1e6;
  r.broadcast_bytes = m.broadcast_bytes.load();
  r.broadcast_base_bytes = m.broadcast_base_bytes.load();
  r.broadcast_delta_bytes = m.broadcast_delta_bytes.load();
  r.result_bytes = m.result_bytes.load();
  r.broadcast_fetches = m.broadcast_fetches.load();
  r.broadcast_hits = m.broadcast_hits.load();
  const std::uint64_t completed = m.tasks_completed.load();
  r.mean_task_compute_ms =
      completed > 0
          ? static_cast<double>(m.task_compute_ns.load()) / 1e6 /
                static_cast<double>(completed)
          : 0.0;
  r.migration_bytes = m.migration_bytes.load();
  r.partitions_stolen = m.partitions_stolen.load();
  r.tasks_speculated = m.tasks_speculated.load();
  r.duplicates_dropped = m.duplicate_results.load();
  for (std::size_t ch = 0; ch < engine::kNumWireChannels; ++ch) {
    const auto& w = m.wire(static_cast<engine::WireChannel>(ch));
    r.wire[ch] = {w.frames.load(), w.bytes_sent.load(), w.bytes_received.load()};
  }
  r.disk = m.disk.snapshot();
}

/// Arms the cluster's span recorder for this run when
/// config.telemetry.enabled; otherwise a no-op — the recorder stays inert
/// and no clock is read anywhere on the task path. Must run before the
/// first dispatch (the recorder rebuilds its rings).
inline void begin_telemetry(engine::Cluster& cluster, const SolverConfig& config) {
  if (!config.telemetry.enabled) return;
  cluster.telemetry().configure(config.telemetry);
}

/// Final telemetry sweep: harvests what the cadence cycle has not drained
/// yet, builds the report into `r.telemetry`, writes the JSON export when
/// config.telemetry.export_path is set, and disarms the recorder so the
/// cluster can host an untraced run next.
inline void finish_telemetry(RunResult& r, engine::Cluster& cluster,
                             const SolverConfig& config) {
  if (!config.telemetry.enabled) return;
  r.telemetry = cluster.telemetry().finish();
  if (!config.telemetry.export_path.empty() && r.telemetry != nullptr) {
    r.telemetry->write_json(config.telemetry.export_path);
  }
}

/// Scheduler policy for a (workload, config) pair: the SolverConfig knobs
/// plus the workload's modeled per-partition bytes (the migration cost of a
/// steal). Installed via ac.scheduler().set_policy by every solver that
/// schedules through the AsyncContext.
[[nodiscard]] inline core::SchedulerPolicy scheduler_policy(const Workload& workload,
                                                            const SolverConfig& config) {
  core::SchedulerPolicy policy;
  policy.steal_mode = config.steal_mode;
  policy.speculation_factor = config.speculation_factor;
  policy.lost_task_factor = config.lost_task_factor;
  policy.partition_bytes = workload.partition_bytes();
  return policy;
}

/// Loads config.resume_from when set. A malformed or unreadable checkpoint
/// aborts loudly: silently starting from zero would masquerade as a
/// successful resume with a wrong trajectory.
[[nodiscard]] inline std::optional<SolverCheckpoint> maybe_resume(
    const SolverConfig& config) {
  if (config.resume_from.empty()) return std::nullopt;
  auto loaded = load_checkpoint(config.resume_from);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "maybe_resume: cannot resume from '%s': %s\n",
                 config.resume_from.c_str(), loaded.status().to_string().c_str());
    std::abort();
  }
  return std::move(loaded).value();
}

/// Solver-specific checkpoint vectors (SAGA's "alpha_bar").
using CheckpointAux = std::map<std::string, linalg::DenseVector>;

/// The GC floor and the checkpoint aux of a solver that has neither.
struct NoFloor {
  std::optional<engine::Version> operator()() const { return std::nullopt; }
};
struct NoAux {
  CheckpointAux operator()() const { return {}; }
};

/// Writes the solver state at `update_index` to config.checkpoint_path.
inline void write_checkpoint(const SolverConfig& config, core::AsyncContext& ac,
                             const linalg::DenseVector& w, std::uint64_t update_index,
                             CheckpointAux aux) {
  SolverCheckpoint cp;
  cp.update_index = update_index;
  cp.model_version = ac.current_version();
  cp.round = ac.scheduler().rounds_dispatched();
  cp.model = w;
  cp.aux = std::move(aux);
  const core::StatSnapshot stat = ac.stat();
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const auto& row : stat.workers) {
    completed += static_cast<std::uint64_t>(row.tasks_completed);
    failed += static_cast<std::uint64_t>(row.tasks_failed);
  }
  cp.counters["tasks_completed"] = completed;
  cp.counters["tasks_failed"] = failed;
  cp.counters["duplicates_dropped"] = ac.coordinator().duplicates_dropped();
  cp.counters["retries"] = ac.retries();

  // With the store's disk tier live, the record goes into it: the record and
  // its blobs are one job for the tier's writer, and the save waits for it,
  // so every publish record queued before it is durable too before the
  // pointer names the tier. If that fails (an injected write fault that
  // exhausts its retries, a full disk), the same record goes into a
  // self-contained directory instead.
  if (auto* tier = ac.history().disk_tier(); tier != nullptr) {
    if (save_checkpoint(config.checkpoint_path, cp, *tier).is_ok()) return;
    std::fprintf(stderr,
                 "maybe_checkpoint: disk-tier checkpoint failed; writing a "
                 "self-contained checkpoint instead\n");
  }
  const support::Status saved = save_checkpoint(config.checkpoint_path, cp);
  if (!saved.is_ok()) {
    std::fprintf(stderr, "maybe_checkpoint: cannot write '%s': %s\n",
                 config.checkpoint_path.c_str(), saved.to_string().c_str());
    std::abort();
  }
}

/// Snapshots the solver state to config.checkpoint_path on the
/// checkpoint_every cadence. `update_index` counts *completed* model updates
/// (call with k+1 after the k-th update has been applied and the version
/// advanced, so a restore at index k resumes with update k+1). `aux` is a
/// callable returning the solver's CheckpointAux; it runs only when a
/// checkpoint is due, so its O(dim) copies are not paid on every update.
template <typename AuxFn = NoAux>
  requires std::invocable<AuxFn&>
void maybe_checkpoint(const SolverConfig& config, core::AsyncContext& ac,
                      const linalg::DenseVector& w, std::uint64_t update_index,
                      AuxFn&& aux = {}) {
  if (config.checkpoint_every == 0 || update_index == 0 ||
      update_index % config.checkpoint_every != 0) {
    return;
  }
  write_checkpoint(config, ac, w, update_index, aux());
}

/// STAT-keyed history GC on the configured cadence: every `gc_every` updates,
/// delta chains below the minimum in-flight version (further floored by
/// `extra_floor` — the SampleVersionTable minimum for history-reading
/// solvers) are compacted. Exactly then no dispatched task can reference the
/// erased versions.
///
/// `extra_floor` is a callable returning the floor (std::optional or a plain
/// version): it is evaluated only when GC is due, so an O(n) table scan runs
/// once per `gc_every` updates, not once per update.
template <typename FloorFn = NoFloor>
  requires std::invocable<FloorFn&>
void maybe_gc_history(core::AsyncContext& ac, const SolverConfig& config,
                      std::uint64_t updates, FloorFn&& extra_floor = {}) {
  if (config.gc_every == 0 || updates == 0 || updates % config.gc_every != 0) return;
  ac.gc_history(std::optional<engine::Version>(extra_floor()));
}

/// Dispatch with a liveness guarantee: if the barrier admits nobody AND the
/// cluster is completely idle (so no collect can ever re-open it), keep
/// retrying until something is in flight. Randomized barriers (PSP) need the
/// retries; deterministic ones exit the loop on the first pass because
/// either something was dispatched or tasks are already outstanding.
inline int dispatch_live(core::AsyncContext& ac, const core::BarrierControl& barrier,
                         const core::AsyncScheduler::TaskFactory& factory) {
  int submitted = ac.scheduler().dispatch_eligible(barrier, factory);
  while (submitted == 0 && ac.coordinator().total_outstanding() == 0 &&
         !ac.has_next()) {
    support::precise_sleep_ms(0.1);
    submitted = ac.scheduler().dispatch_eligible(barrier, factory);
  }
  return submitted;
}

/// Combine op summing GradCount partials (driver side of reduce(_+_)).
[[nodiscard]] inline auto grad_comb() {
  return [](GradCount a, const GradCount& b) {
    if (b.count == 0) return a;
    a.grad.add(b.grad);
    a.count += b.count;
    return a;
  };
}

/// Combine op for GradHist partials.
[[nodiscard]] inline auto grad_hist_comb() {
  return [](GradHist a, const GradHist& b) {
    if (b.count == 0) return a;
    a.grad.add(b.grad);
    a.hist.add(b.hist);
    a.count += b.count;
    return a;
  };
}

// ---- Compatibility block for e2ebench/traced.cpp ---------------------------
// traced.cpp, the end-to-end bench's hand copy of the ASGD, ASAGA and SGD
// loops, still names the read mask of the deleted sharded model plane: the
// type core::ShardSet, the per-partition table shard_support_table(workload,
// config), and a trailing table argument to grad_task_fn and saga_task_fn.
// With one model store there is nothing to mask, so the type is empty, the
// table is null and the two functions ignore their trailing parameter. The
// block runs to the end of the file and goes when traced.cpp does.
}  // namespace asyncml::optim::detail

namespace asyncml::core {
struct ShardSet {};
}  // namespace asyncml::core

namespace asyncml::optim::detail {

[[nodiscard]] inline std::shared_ptr<const std::vector<core::ShardSet>>
shard_support_table(const Workload& /*workload*/, const SolverConfig& /*config*/) {
  return nullptr;
}

/// Gradient-sum task body (Algorithms 1–2): the fused batch kernel over the
/// workload's partitions. `fraction` engaged = mini-batch sample; nullopt =
/// full partition pass (epoch heads).
template <typename Handle>
[[nodiscard]] std::shared_ptr<const engine::TaskFn> grad_task_fn(
    const Workload& workload, const SolverConfig& /*config*/, Handle w_br,
    linalg::GradVectorConfig grad_cfg, std::optional<double> fraction,
    std::shared_ptr<const std::vector<core::ShardSet>> = nullptr) {
  return make_grad_batch_fn(workload.dataset, workload.partitions, workload.loss, w_br,
                            grad_cfg, fraction);
}

/// SAGA task body (Algorithm 4): fresh gradient at the pinned model,
/// historical gradient at each sample's last version, table advanced to the
/// pinned version.
[[nodiscard]] inline std::shared_ptr<const engine::TaskFn> saga_task_fn(
    const Workload& workload, const SolverConfig& /*config*/,
    core::HistoryBroadcast w_br, std::shared_ptr<core::SampleVersionTable> table,
    linalg::GradVectorConfig grad_cfg, std::optional<double> fraction,
    std::shared_ptr<const std::vector<core::ShardSet>> = nullptr) {
  return make_saga_batch_fn(
      workload.dataset, workload.partitions, workload.loss, w_br, std::move(table),
      grad_cfg, fraction,
      [w_br](engine::Version v) { return w_br.value_at(v); },
      w_br.version());
}

}  // namespace asyncml::optim::detail
