#include "optim/asgd.hpp"

#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult AsgdSolver::run(engine::Cluster& cluster, const Workload& workload,
                          const SolverConfig& config) {
  // AC = new ASYNCcontext; models publish through the delta-versioned store.
  detail::AsyncRun run(cluster, workload, config, detail::TaskKind::kGradient);
  core::AsyncContext& ac = run.ac;
  linalg::DenseVector& w = run.w;
  // Listing 1 applies alpha/(1+staleness) directly, so the staleness factor
  // replaces the 1/P heuristic rather than stacking on top of it.
  const double default_scale = config.staleness_adaptive_lr
                                   ? 1.0
                                   : 1.0 / static_cast<double>(cluster.num_workers());
  const double step_scale = config.async_step_scale.value_or(default_scale);

  core::HistoryBroadcast w_br = ac.async_broadcast(w);  // publish at the current version

  // Factory building this round's gradient tasks against the latest w_br.
  auto rebuild_factory = [&] {
    return ac.make_fn_factory(
        detail::grad_task_fn(workload, config, w_br, run.grad_cfg, config.batch_fraction,
                             run.shard_support),
        run.opts);
  };
  core::AsyncScheduler::TaskFactory factory = rebuild_factory();

  run.start();
  // Prime every worker the barrier admits (all of them, initially).
  detail::dispatch_live(ac, config.barrier, factory);

  std::uint64_t updates = run.resumed_at;
  while (updates < config.updates) {
    auto collected = ac.collect(&factory);  // while(AC.hasNext()) { ASYNCcollect() }
    if (!collected.has_value()) break;      // context stopped

    const GradCount& g = collected->result.payload.get<GradCount>();
    if (g.count > 0) {
      // Algorithm 2 indexes the schedule by the outer iteration αᵢ: one
      // logical iteration yields up to one result per partition, so the
      // decay advances once per P collected updates (each update still
      // applies the per-result step α/W per the §6.1 heuristic).
      const std::uint64_t round =
          updates / static_cast<std::uint64_t>(std::max(1, workload.num_partitions()));
      double lr = config.step(round) * step_scale;
      if (config.staleness_adaptive_lr) {
        lr /= 1.0 + static_cast<double>(collected->staleness);  // Listing 1
      }
      g.grad.scale_into(-lr / static_cast<double>(g.count), w.span());
    }
    ++updates;
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    factory = rebuild_factory();
    run.end_update(updates);

    // points.ASYNCbarrier(f, AC.STAT) ... — admit whatever the barrier allows.
    detail::dispatch_live(ac, config.barrier, factory);
  }
  return run.finish(config.staleness_adaptive_lr ? "ASGD-staleness" : "ASGD", updates,
                    updates);
}

}  // namespace asyncml::optim
