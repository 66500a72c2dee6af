#include "optim/asaga.hpp"

#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult AsagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                           const SolverConfig& config) {
  detail::AsyncRun run(cluster, workload, config, detail::TaskKind::kHistoryWriting);
  core::AsyncContext& ac = run.ac;
  linalg::DenseVector& w = run.w;
  const std::size_t n = workload.n();
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));

  auto table = std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);
  linalg::DenseVector alpha_bar(workload.dim());
  core::HistoryBroadcast w_br = ac.async_broadcast(w);

  auto rebuild_factory = [&] {
    return ac.make_fn_factory(
        detail::saga_task_fn(workload, config, w_br, table, run.grad_cfg,
                             config.batch_fraction, run.shard_support),
        run.opts);
  };
  core::AsyncScheduler::TaskFactory factory = rebuild_factory();

  run.start();
  detail::dispatch_live(ac, config.barrier, factory);

  // Step scratch, reused across updates: a per-update copy of ᾱ would churn
  // the heap between the long-lived history snapshots.
  linalg::DenseVector direction(workload.dim());
  std::uint64_t updates = run.resumed_at;
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
    // History GC is floored by the sample table, so recomputable historical
    // gradients keep their versions resolvable.
    run.end_update(
        updates, [&] { return table->min_version(); },
        [&] { return detail::CheckpointAux{{"alpha_bar", alpha_bar}}; });

    detail::dispatch_live(ac, config.barrier, factory);
  }
  return run.finish("ASAGA", updates, updates);
}

}  // namespace asyncml::optim
