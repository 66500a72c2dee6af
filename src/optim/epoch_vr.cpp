#include "optim/epoch_vr.hpp"

#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult EpochVrSolver::run(engine::Cluster& cluster, const Workload& workload,
                             const SolverConfig& config) {
  detail::AsyncRun run(cluster, workload, config, detail::TaskKind::kTwoPass);
  core::AsyncContext& ac = run.ac;
  linalg::DenseVector& w = run.w;
  const std::size_t dim = workload.dim();
  // The full-gradient pass touches the whole partition.
  core::SubmitOptions full_opts = run.opts;
  full_opts.service_floor_ms = config.cost.task_service_ms(
      *workload.dataset, workload.num_partitions(), 1.0);
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));

  run.start();

  std::uint64_t updates = run.resumed_at;
  auto comb = detail::grad_comb();
  linalg::DenseVector direction(dim);  // step scratch, reused across updates
  bool running = true;                 // false once the context stops
  while (running && updates < config.updates) {
    // ---- Epoch head: synchronous full gradient at the snapshot w̃. --------
    // The previous epoch's history (its snapshot and inner versions) is dead
    // once the tail drain left the cluster quiet; compact it.
    if (config.gc_every != 0) (void)ac.gc_history();
    const linalg::DenseVector snapshot = w;
    core::HistoryBroadcast snapshot_br = ac.async_broadcast(snapshot);
    const engine::Version snapshot_version = snapshot_br.version();

    auto full_results = ac.sync_round_fn(
        detail::grad_task_fn(workload, config, snapshot_br, run.grad_cfg,
                             /*fraction=*/std::nullopt, run.shard_support),
        full_opts);
    GradCount mu_sum;
    for (core::TaggedResult& r : full_results) {
      mu_sum = comb(std::move(mu_sum), r.result.payload.get<GradCount>());
    }
    linalg::DenseVector mu(dim);
    if (mu_sum.count > 0) {
      mu_sum.grad.scale_into(1.0 / static_cast<double>(mu_sum.count), mu.span());
    }

    // ---- Asynchronous inner loop. -----------------------------------------
    core::HistoryBroadcast w_br = ac.handle_for(snapshot_version);
    auto rebuild_factory = [&] {
      return ac.make_fn_factory(
          detail::svrg_task_fn(workload, config, w_br, snapshot_br, run.grad_cfg,
                               config.batch_fraction, run.shard_support),
          run.opts);
    };
    core::AsyncScheduler::TaskFactory factory = rebuild_factory();
    // Inner tasks dispatched and not yet collected. Each accepted dispatch
    // delivers exactly one result (retries and replicas keep its identity),
    // so the tail drains by this count: the coordinator's outstanding count
    // drops before a result is queued, so polling it can stop one short and
    // leave an inner result for the next epoch's synchronous round.
    int in_flight = detail::dispatch_live(ac, config.barrier, factory);

    // w ← w − α [(ĝ_cur − ĝ_snap) + μ]; false for a task that sampled nothing.
    const auto step = [&](const core::TaggedResult& collected) {
      const GradHist& g = collected.result.payload.get<GradHist>();
      if (g.count == 0) return false;
      const double inv_b = 1.0 / static_cast<double>(g.count);
      direction = mu;
      g.grad.scale_into(inv_b, direction.span());
      g.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
      return true;
    };
    // In-flight inner tasks still read the epoch's w̃ — floor the GC there.
    const auto floor = [&] { return snapshot_version; };

    std::uint64_t inner = 0;
    while (inner < config.epoch_inner_updates && updates < config.updates) {
      auto collected = ac.collect(&factory);
      if (!collected.has_value()) {
        running = false;
        break;
      }
      --in_flight;
      (void)step(*collected);
      ++inner;
      ++updates;
      ac.advance_version();
      w_br = ac.async_broadcast(w);
      factory = rebuild_factory();
      run.end_update(updates, floor);
      if (inner < config.epoch_inner_updates && updates < config.updates) {
        in_flight += detail::dispatch_live(ac, config.barrier, factory);
      }
    }

    // ---- Epoch tail: drain in-flight inner tasks so the next epoch's
    // synchronous stage sees a quiet cluster (Listing 3's epoch boundary).
    // Leftover inner results are still valid SVRG updates; apply them. ------
    for (; running && in_flight > 0; --in_flight) {
      auto leftover = ac.collect(&factory);
      if (!leftover.has_value()) {
        running = false;
      } else if (step(*leftover)) {
        ++updates;
        ac.advance_version();
        run.end_update(updates, floor);
      }
    }
  }
  return run.finish("EpochVR", updates, updates);
}

}  // namespace asyncml::optim
