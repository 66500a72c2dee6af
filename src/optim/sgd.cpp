#include "optim/sgd.hpp"

#include <algorithm>

#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult SgdSolver::run(engine::Cluster& cluster, const Workload& workload,
                         const SolverConfig& config) {
  detail::AsyncRun run(cluster, workload, config, detail::TaskKind::kGradient);
  core::AsyncContext& ac = run.ac;
  linalg::DenseVector& w = run.w;
  auto comb = detail::grad_comb();

  run.start();

  std::uint64_t tasks = 0;
  for (std::uint64_t k = run.resumed_at; k < config.updates; ++k) {
    // Publish w at the round's version; workers ride the delta chain.
    core::HistoryBroadcast w_br = ac.async_broadcast(w);

    std::vector<core::TaggedResult> results = ac.sync_round_fn(
        detail::grad_task_fn(workload, config, w_br, run.grad_cfg, config.batch_fraction,
                             run.shard_support),
        run.opts);
    tasks += results.size();

    // Combine in partition order, not arrival order: together with the
    // (seed, partition, seq) task RNG this makes the iterate sequence
    // independent of placement — stealing and speculative replicas change
    // the wall clock, never the bits (docs/SCHEDULING.md, "Determinism").
    std::sort(results.begin(), results.end(),
              [](const core::TaggedResult& a, const core::TaggedResult& b) {
                return a.result.partition < b.result.partition;
              });
    GradCount total{linalg::GradVector(run.grad_cfg)};
    for (core::TaggedResult& r : results) {
      total = comb(std::move(total), r.result.payload.get<GradCount>());
    }
    if (total.count > 0) {
      total.grad.scale_into(-config.step(k) / static_cast<double>(total.count),
                            w.span());
    }
    ac.advance_version();
    run.end_update(k + 1);
  }
  return run.finish("SGD", config.updates, tasks);
}

}  // namespace asyncml::optim
