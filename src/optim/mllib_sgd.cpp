#include "optim/mllib_sgd.hpp"

#include <vector>

#include "engine/actions.hpp"
#include "optim/solver_run.hpp"

namespace asyncml::optim {

RunResult MllibSgdSolver::run(engine::Cluster& cluster, const Workload& workload,
                              const SolverConfig& config) {
  detail::RunScope run(cluster, workload, config);
  linalg::DenseVector& w = run.w;
  const double service_ms = detail::service_floor(workload, config, config.batch_fraction);
  const linalg::GradVectorConfig grad_cfg = detail::grad_config(workload, config);
  auto comb = detail::grad_comb();

  run.start();

  engine::BroadcastId previous_id = 0;
  std::vector<engine::BroadcastId> dead_ids;  // erased from worker caches below
  for (std::uint64_t k = 0; k < config.updates; ++k) {
    // Fresh broadcast of w each iteration (Algorithm 1 line 2); workers
    // fetch it once, tasks on the same worker share the cached copy.
    engine::Broadcast<linalg::DenseVector> w_br =
        cluster.broadcast(w, w.size_bytes());

    engine::StageOptions stage;
    // seq = k+1 aligns batches with SgdSolver (the AsyncScheduler's round
    // counter starts at 1), so the two trajectories are directly comparable.
    stage.seq = k + 1;
    stage.model_version = k;
    stage.service_floor_ms = service_ms;
    stage.rng_seed = config.seed;
    const GradCount total = engine::tree_aggregate_sync_fn(
        cluster, detail::grad_task_fn(workload, config, w_br, grad_cfg, config.batch_fraction),
        workload.num_partitions(), GradCount{linalg::GradVector(grad_cfg)}, comb, stage);

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
  return run.finish("MLlib-SGD", config.updates, run.tasks_completed());
}

}  // namespace asyncml::optim
