#include "optim/admm.hpp"

#include "linalg/blas.hpp"
#include "optim/solver_run.hpp"

namespace asyncml::optim {

namespace {

/// Worker-resident primal/dual state, one (x_p, u_p) pair per partition.
/// Same partition-affinity contract as core::SampleVersionTable: entry p is
/// only touched by the task currently running partition p.
struct AdmmLocalState {
  std::vector<linalg::DenseVector> x;
  std::vector<linalg::DenseVector> u;

  AdmmLocalState(int partitions, std::size_t dim)
      : x(static_cast<std::size_t>(partitions), linalg::DenseVector(dim)),
        u(static_cast<std::size_t>(partitions), linalg::DenseVector(dim)) {}
};

}  // namespace

RunResult AsyncAdmmSolver::run(engine::Cluster& cluster, const Workload& workload,
                               const AdmmConfig& config) {
  detail::RunScope<AdmmConfig> run(cluster, workload, config);
  linalg::DenseVector& z = run.w;
  const std::size_t dim = workload.dim();
  const int partitions = workload.num_partitions();
  const double service_ms = detail::service_floor(workload, config, 1.0);

  // Default local step from the ρ-regularized subproblem's smoothness:
  // L_local ≈ 2·E‖x‖² (mean-normalized partition loss) + ρ.
  double mean_norm_sq = 0.0;
  const std::size_t probe = std::min<std::size_t>(workload.n(), 256);
  for (std::size_t r = 0; r < probe; ++r) {
    mean_norm_sq += workload.dataset->row(r).norm_squared();
  }
  mean_norm_sq /= std::max<std::size_t>(1, probe);
  const double local_step = config.local_step > 0.0
                                ? config.local_step
                                : 1.0 / (2.0 * mean_norm_sq + config.rho);

  core::AsyncContext ac(cluster, partitions);
  auto state = std::make_shared<AdmmLocalState>(partitions, dim);

  core::SubmitOptions opts;
  opts.service_floor_ms = service_ms;
  opts.rng_seed = config.seed;

  linalg::DenseVector share_sum(dim);  // Σ_p (x_p + u_p), updated incrementally
  std::vector<linalg::DenseVector> last_share(
      static_cast<std::size_t>(partitions), linalg::DenseVector(dim));
  core::HistoryBroadcast z_br = ac.async_broadcast(z);

  // The partition task: inexact local argmin + dual ascent, returns x_p + u_p.
  const auto make_factory = [&](core::HistoryBroadcast z_handle) {
    auto fn = std::make_shared<const engine::TaskFn>(
        [points = workload.points, state, z_handle, loss = workload.loss, dim,
         rho = config.rho, steps = config.local_gd_steps,
         eta = local_step](engine::TaskContext& ctx)
            -> support::StatusOr<engine::Payload> {
          const std::size_t p = static_cast<std::size_t>(ctx.partition);
          linalg::DenseVector& x = state->x[p];
          linalg::DenseVector& u = state->u[p];
          const linalg::DenseVector& z_local = z_handle.value();

          linalg::DenseVector grad(dim);
          for (int s = 0; s < steps; ++s) {
            grad.set_zero();
            std::size_t count = 0;
            points.foreach_partition(ctx.partition, ctx,
                                     [&](const data::LabeledPoint& point) {
                                       const double coeff = loss->derivative(
                                           point.features.dot(x.span()), point.label);
                                       point.features.axpy_into(coeff, grad.span());
                                       ++count;
                                     });
            if (count > 0) {
              linalg::scal(1.0 / static_cast<double>(count), grad.span());
            }
            // + ρ (x − z + u) from the augmented Lagrangian.
            for (std::size_t i = 0; i < dim; ++i) {
              grad[i] += rho * (x[i] - z_local[i] + u[i]);
            }
            linalg::axpy(-eta, grad.span(), x.span());
          }
          // Dual ascent: u ← u + x − z.
          for (std::size_t i = 0; i < dim; ++i) u[i] += x[i] - z_local[i];

          linalg::DenseVector share = x;
          linalg::axpy(1.0, u.span(), share.span());
          const std::size_t bytes = share.size_bytes();
          return engine::Payload::wrap<linalg::DenseVector>(std::move(share), bytes);
        });
    return [this_fn = std::move(fn), &ac, opts](engine::PartitionId p) {
      engine::TaskSpec spec;
      spec.partition = p;
      spec.model_version = ac.current_version();
      spec.fn = this_fn;
      spec.service_floor_ms = opts.service_floor_ms;
      spec.rng_seed = opts.rng_seed;
      return spec;
    };
  };

  core::AsyncScheduler::TaskFactory factory = make_factory(z_br);

  run.start();

  detail::dispatch_live(ac, config.barrier, factory);

  std::uint64_t updates = 0;
  while (updates < config.updates) {
    auto collected = ac.collect(&factory);
    if (!collected.has_value()) break;

    const std::size_t p = static_cast<std::size_t>(collected->result.partition);
    const auto& share = collected->result.payload.get<linalg::DenseVector>();
    // z ← mean_p (x_p + u_p), maintained incrementally.
    linalg::axpy(-1.0, last_share[p].span(), share_sum.span());
    linalg::axpy(1.0, share.span(), share_sum.span());
    last_share[p] = share;
    z = share_sum;
    linalg::scal(1.0 / static_cast<double>(partitions), z.span());

    ++updates;
    ac.advance_version();
    z_br = ac.async_broadcast(z);
    factory = make_factory(z_br);
    run.snapshot(updates);

    detail::dispatch_live(ac, config.barrier, factory);
  }
  return run.finish("AsyncADMM", updates, updates);
}

}  // namespace asyncml::optim
