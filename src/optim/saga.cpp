#include "optim/saga.hpp"

#include "core/async_context.hpp"
#include "metrics/trace.hpp"
#include "optim/objective.hpp"
#include "optim/solver_util.hpp"
#include "support/stopwatch.hpp"

namespace asyncml::optim {

RunResult SagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                          const SolverConfig& config) {
  const std::size_t dim = workload.dim();
  const std::size_t n = workload.n();
  const double service_ms =
      config.service_floor_ms > 0.0
          ? config.service_floor_ms
          : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                        config.batch_fraction, /*saga_two_pass=*/true);

  const linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  // Per-partition shard-support sets (sparse workloads on a sharded plane).
  const auto support_table = detail::shard_support_table(workload, config);

  detail::reset_run_metrics(cluster.metrics());
  detail::begin_telemetry(cluster, config);

  core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  // History-writing tasks (SampleVersionTable updates) are not idempotent
  // under racing replicas, so speculation is forced off regardless of the
  // config knob; stealing never duplicates execution and stays available
  // (docs/SCHEDULING.md, "Composition caveats").
  core::SchedulerPolicy policy = detail::scheduler_policy(workload, config);
  policy.speculation_factor = 0.0;
  policy.lost_task_factor = 0.0;  // rescue re-executes tasks: same hazard
  ac.scheduler().set_policy(std::move(policy));
  auto table =
      std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  linalg::DenseVector w(dim);
  linalg::DenseVector alpha_bar(dim);  // ᾱ — "averageHistory" of Algorithm 3
  std::uint64_t k0 = 0;
  if (auto cp = detail::maybe_resume(config); cp.has_value()) {
    // SAGA resumes the *model* and the version/round streams, but restarts
    // ᾱ and the version table cold: the table's entries reference published
    // history the restarted process no longer holds, and restoring ᾱ
    // without them would bias every correction term. A cold table is just
    // plain SAGA warm-started at w — unbiased, converging from a better
    // iterate. The checkpoint still carries "alpha_bar" for inspection.
    w = std::move(cp->model);
    k0 = cp->update_index;
    ac.restore(cp->model_version, cp->round);
  }
  core::HistoryBroadcast w_br = ac.async_broadcast(w);

  metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  support::Stopwatch watch;
  recorder.snapshot(k0, 0.0, w);

  auto comb = detail::grad_hist_comb();
  linalg::DenseVector direction(dim);  // step scratch, reused across rounds
  for (std::uint64_t k = k0; k < config.updates; ++k) {
    std::vector<core::TaggedResult> results = ac.sync_round_fn(
        detail::saga_task_fn(workload, config, w_br, table, grad_cfg,
                             config.batch_fraction, support_table),
        opts);

    GradHist total;
    for (core::TaggedResult& r : results) {
      total = comb(std::move(total), r.result.payload.get<GradHist>());
    }
    if (total.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(total.count);
      // w ← w − α (ĝ_new − ĝ_old + ᾱ)
      direction = alpha_bar;
      total.grad.scale_into(inv_b, direction.span());
      total.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(k), direction.span(), w.span());
      // ᾱ ← ᾱ + (1/n) Σ_B (∇f_j − α_j)
      const double inv_n = 1.0 / static_cast<double>(n);
      total.grad.scale_into(inv_n, alpha_bar.span());
      total.hist.scale_into(-inv_n, alpha_bar.span());
    }
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    recorder.maybe_snapshot(k + 1, watch.elapsed_ms(), w);
    detail::maybe_gc_history(ac, config, k + 1, [&] { return table->min_version(); });
    detail::maybe_checkpoint(config, ac, w, k + 1, {{"alpha_bar", alpha_bar}});
  }
  recorder.snapshot(config.updates, watch.elapsed_ms(), w);

  RunResult result;
  result.algorithm = "SAGA";
  result.wall_ms = watch.elapsed_ms();
  result.updates = config.updates;
  result.tasks = cluster.metrics().tasks_completed.load();
  result.final_w = w;
  detail::fill_run_stats(result, cluster.metrics());
  detail::finish_telemetry(result, cluster, config);
  result.trace = recorder.finalize([&](const linalg::DenseVector& model) {
    return full_objective(*workload.dataset, *workload.loss, model);
  });
  return result;
}

}  // namespace asyncml::optim
