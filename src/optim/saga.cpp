#include "optim/saga.hpp"

#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult SagaSolver::run(engine::Cluster& cluster, const Workload& workload,
                          const SolverConfig& config) {
  detail::AsyncRun run(cluster, workload, config, detail::TaskKind::kHistoryWriting);
  core::AsyncContext& ac = run.ac;
  linalg::DenseVector& w = run.w;
  const std::size_t n = workload.n();

  auto table = std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);
  linalg::DenseVector alpha_bar(workload.dim());  // ᾱ — "averageHistory" of Algorithm 3
  core::HistoryBroadcast w_br = ac.async_broadcast(w);

  run.start();

  auto comb = detail::grad_hist_comb();
  linalg::DenseVector direction(workload.dim());  // step scratch, reused across rounds
  for (std::uint64_t k = run.resumed_at; k < config.updates; ++k) {
    std::vector<core::TaggedResult> results = ac.sync_round_fn(
        detail::saga_task_fn(workload, config, w_br, table, run.grad_cfg,
                             config.batch_fraction),
        run.opts);

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
    run.end_update(
        k + 1, [&] { return table->min_version(); },
        [&] { return detail::CheckpointAux{{"alpha_bar", alpha_bar}}; });
  }
  return run.finish("SAGA", config.updates, run.tasks_completed());
}

}  // namespace asyncml::optim
