#include "optim/sgd.hpp"

#include <algorithm>

#include "engine/actions.hpp"
#include "optim/solver_run.hpp"

namespace asyncml::optim {

namespace detail {

RunResult run_sync_sgd(engine::Cluster& cluster, const Workload& workload,
                       const SolverConfig& config, bool tree,
                       const char* algorithm_name) {
  RunScope<SolverConfig> run(cluster, workload, config);
  linalg::DenseVector& w = run.w;
  const double service_ms = service_floor(workload, config, config.batch_fraction);
  const linalg::GradVectorConfig grad_cfg = grad_config(workload, config);
  auto comb = grad_comb();

  run.start();

  engine::BroadcastId previous_id = 0;
  std::vector<engine::BroadcastId> dead_ids;  // erased from worker caches below
  for (std::uint64_t k = 0; k < config.updates; ++k) {
    // Fresh broadcast of w each iteration (Algorithm 1 line 2); workers
    // fetch it once, tasks on the same worker share the cached copy.
    engine::Broadcast<linalg::DenseVector> w_br =
        cluster.broadcast(w, w.size_bytes());

    engine::StageOptions stage;
    stage.seq = k;
    stage.model_version = k;
    stage.service_floor_ms = service_ms;
    stage.rng_seed = config.seed;

    auto fn = grad_task_fn(workload, config, w_br, grad_cfg, config.batch_fraction);
    GradCount zero{linalg::GradVector(grad_cfg)};
    const int parts = workload.num_partitions();
    const GradCount total =
        tree ? engine::tree_aggregate_sync_fn(cluster, std::move(fn), parts,
                                              std::move(zero), comb, stage)
             : engine::aggregate_sync_fn(cluster, std::move(fn), parts,
                                         std::move(zero), comb, stage);

    if (total.count > 0) {
      total.grad.scale_into(-config.step(k) / static_cast<double>(total.count),
                            w.span());
    }
    run.snapshot(k + 1);

    // The previous iteration's broadcast is dead: drop it from the store so
    // memory stays bounded over long runs (Spark unpersists similarly), and
    // periodically trim the worker caches too — by the exact dead ids, never
    // an id threshold: broadcast ids are registration-ordered, so a threshold
    // would also evict unrelated broadcasts registered mid-run.
    if (previous_id != 0) {
      cluster.store().erase(previous_id);
      dead_ids.push_back(previous_id);
    }
    previous_id = w_br.id();
    if ((k & 63u) == 63u) {
      for (int worker = 0; worker < cluster.num_workers(); ++worker) {
        engine::BroadcastCache& cache = cluster.worker(worker).cache();
        for (const engine::BroadcastId id : dead_ids) cache.erase(id);
      }
      dead_ids.clear();
    }
  }
  return run.finish(algorithm_name, config.updates, run.tasks_completed());
}

}  // namespace detail

RunResult SgdSolver::run(engine::Cluster& cluster, const Workload& workload,
                         const SolverConfig& config) {
  return detail::run_sync_sgd(cluster, workload, config, /*tree=*/false, "SGD");
}

RunResult ScheduledSgdSolver::run(engine::Cluster& cluster, const Workload& workload,
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
    if (config.combine_mode == core::CombineMode::kTree) {
      // Tree aggregation through the live context (core/shard_route.hpp):
      // partition-ordered partials reduce as log-depth combine tasks — per
      // shard on a sharded plane — instead of one driver hot loop. Safe here
      // because the round is fully collected (no foreign tasks in flight).
      std::vector<linalg::GradVector> parts;
      parts.reserve(results.size());
      for (core::TaggedResult& r : results) {
        GradCount gc = r.result.payload.get<GradCount>();
        if (gc.count == 0) continue;
        total.count += gc.count;
        parts.push_back(std::move(gc.grad));
      }
      core::TreeCombineOptions tree;
      tree.fanout = config.combine_fanout;
      tree.seq = k;
      tree.model_version = ac.current_version();
      tree.rng_seed = config.seed;
      total.grad = core::tree_combine_async(
          ac, std::move(parts), ac.history().sharded_store().shard_map(), run.grad_cfg,
          tree);
    } else {
      for (core::TaggedResult& r : results) {
        total = comb(std::move(total), r.result.payload.get<GradCount>());
      }
    }
    if (total.count > 0) {
      total.grad.scale_into(-config.step(k) / static_cast<double>(total.count),
                            w.span());
    }
    ac.advance_version();
    run.end_update(k + 1);
  }
  return run.finish("SGD-sched", config.updates, tasks);
}

}  // namespace asyncml::optim
