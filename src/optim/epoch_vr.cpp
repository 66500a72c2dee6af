#include "optim/epoch_vr.hpp"

#include "core/async_context.hpp"
#include "metrics/trace.hpp"
#include "optim/objective.hpp"
#include "optim/solver_util.hpp"
#include "support/stopwatch.hpp"

namespace asyncml::optim {

RunResult EpochVrSolver::run(engine::Cluster& cluster, const Workload& workload,
                             const SolverConfig& config) {
  const std::size_t dim = workload.dim();
  const double batch_service_ms =
      config.service_floor_ms > 0.0
          ? config.service_floor_ms
          : config.cost.task_service_ms(*workload.dataset, workload.num_partitions(),
                                        config.batch_fraction, /*saga_two_pass=*/true);
  // The full-gradient pass touches the whole partition.
  const double full_service_ms = config.cost.task_service_ms(
      *workload.dataset, workload.num_partitions(), 1.0);
  const double step_scale =
      config.async_step_scale.value_or(1.0 / static_cast<double>(cluster.num_workers()));

  const linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  // Per-partition shard-support sets (sparse workloads on a sharded plane).
  const auto support_table = detail::shard_support_table(workload, config);

  detail::reset_run_metrics(cluster.metrics());
  detail::begin_telemetry(cluster, config);

  core::AsyncContext ac(cluster, workload.num_partitions(), config.store_config);
  ac.scheduler().set_policy(detail::scheduler_policy(workload, config));

  linalg::DenseVector w(dim);
  metrics::TraceRecorder recorder(config.eval_every);
  recorder.reserve_for(config.updates);
  support::Stopwatch watch;
  recorder.snapshot(0, 0.0, w);

  std::uint64_t updates = 0;
  auto comb = detail::grad_comb();
  while (updates < config.updates) {
    // ---- Epoch head: synchronous full gradient at the snapshot w̃. --------
    // The previous epoch's history (its snapshot and inner versions) is dead
    // once the tail drain left the cluster quiet; compact it.
    if (config.gc_every != 0) (void)ac.gc_history();
    const linalg::DenseVector snapshot = w;
    core::HistoryBroadcast snapshot_br = ac.async_broadcast(snapshot);
    const engine::Version snapshot_version = snapshot_br.version();

    core::SubmitOptions full_opts;
    full_opts.service_floor_ms = full_service_ms;
    full_opts.rng_seed = config.seed;
    auto full_results = ac.sync_round_fn(
        detail::grad_task_fn(workload, config, snapshot_br, grad_cfg,
                             /*fraction=*/std::nullopt, support_table),
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
    core::SubmitOptions opts;
    opts.service_floor_ms = batch_service_ms;
    opts.rng_seed = config.seed;

    core::HistoryBroadcast w_br = ac.handle_for(snapshot_version);
    auto rebuild_factory = [&] {
      return ac.make_fn_factory(
          detail::svrg_task_fn(workload, config, w_br, snapshot_br, grad_cfg,
                               config.batch_fraction, support_table),
          opts);
    };
    core::AsyncScheduler::TaskFactory factory = rebuild_factory();
    detail::dispatch_live(ac, config.barrier, factory);

    std::uint64_t inner = 0;
    while (inner < config.epoch_inner_updates && updates < config.updates) {
      auto collected = ac.collect(&factory);
      if (!collected.has_value()) return RunResult{};  // context stopped

      const GradHist& g = collected->result.payload.get<GradHist>();
      if (g.count > 0) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        linalg::DenseVector direction = mu;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
      }
      ++inner;
      ++updates;
      ac.advance_version();
      w_br = ac.async_broadcast(w);
      factory = rebuild_factory();
      recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
      // In-flight inner tasks still read the epoch's w̃ — floor the GC there.
      detail::maybe_gc_history(ac, config, updates, [&] { return snapshot_version; });
      if (inner < config.epoch_inner_updates && updates < config.updates) {
        detail::dispatch_live(ac, config.barrier, factory);
      }
    }

    // ---- Epoch tail: drain in-flight inner tasks so the next epoch's
    // synchronous stage sees a quiet cluster (Listing 3's epoch boundary). --
    while (ac.coordinator().total_outstanding() > 0 || ac.has_next()) {
      auto leftover = ac.collect(&factory);
      if (!leftover.has_value()) break;
      // Leftover inner results are still valid SVRG updates; apply them.
      const GradHist& g = leftover->result.payload.get<GradHist>();
      if (g.count > 0) {
        const double inv_b = 1.0 / static_cast<double>(g.count);
        linalg::DenseVector direction = mu;
        g.grad.scale_into(inv_b, direction.span());
        g.hist.scale_into(-inv_b, direction.span());
        linalg::axpy(-config.step(updates) * step_scale, direction.span(), w.span());
        ++updates;
        ac.advance_version();
        recorder.maybe_snapshot(updates, watch.elapsed_ms(), w);
      }
    }
  }
  recorder.snapshot(updates, watch.elapsed_ms(), w);

  RunResult result;
  result.algorithm = "EpochVR";
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
