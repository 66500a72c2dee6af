#include "optim/asaga.hpp"

#include "core/async_context.hpp"
#include "metrics/trace.hpp"
#include "optim/objective.hpp"
#include "optim/solver_util.hpp"
#include "support/stopwatch.hpp"

namespace asyncml::optim {

RunResult AsagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                           const SolverConfig& config) {
  const std::size_t dim = workload.dim();
  const std::size_t n = workload.n();
  const double service_ms =
      config.service_floor_ms > 0.0
          ? config.service_floor_ms
          : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                        config.batch_fraction, /*saga_two_pass=*/true);
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));

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
  ac.scheduler().set_policy(std::move(policy));
  auto table =
      std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  linalg::DenseVector w(dim);
  linalg::DenseVector alpha_bar(dim);
  core::HistoryBroadcast w_br = ac.async_broadcast(w);  // version 0

  auto rebuild_factory = [&] {
    return ac.make_fn_factory(
        detail::saga_task_fn(workload, config, w_br, table, grad_cfg,
                             config.batch_fraction, support_table),
        opts);
  };
  core::AsyncScheduler::TaskFactory factory = rebuild_factory();

  metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  support::Stopwatch watch;
  recorder.snapshot(0, 0.0, w);

  detail::dispatch_live(ac, config.barrier, factory);

  // Step scratch, reused across updates: a per-update copy of ᾱ would churn
  // the heap between the long-lived history snapshots.
  linalg::DenseVector direction(dim);
  std::uint64_t updates = 0;
  while (updates < config.updates) {
    auto collected = ac.collect(&factory);
    if (!collected.has_value()) break;

    const GradHist& g = collected->result.payload.get<GradHist>();
    if (g.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(g.count);
      direction = alpha_bar;
      g.grad.scale_into(inv_b, direction.span());
      g.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());

      const double inv_n = 1.0 / static_cast<double>(n);
      g.grad.scale_into(inv_n, alpha_bar.span());
      g.hist.scale_into(-inv_n, alpha_bar.span());
    }
    ++updates;
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    factory = rebuild_factory();
    recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
    // History GC: floored by the sample table so recomputable historical
    // gradients keep their versions resolvable.
    detail::maybe_gc_history(ac, config, updates, [&] { return table->min_version(); });

    detail::dispatch_live(ac, config.barrier, factory);
  }
  recorder.snapshot(updates, watch.elapsed_ms(), w);

  RunResult result;
  result.algorithm = "ASAGA";
  result.wall_ms = watch.elapsed_ms();
  result.updates = updates;
  result.tasks = updates;
  result.final_w = w;
  detail::fill_run_stats(result, cluster.metrics());
  detail::finish_telemetry(result, cluster, config);
  result.trace = recorder.finalize([&](const linalg::DenseVector& model) {
    return full_objective(*workload.dataset, *workload.loss, model);
  });
  return result;
}

}  // namespace asyncml::optim
