// Property sweep: distributed mini-batch gradients computed through the
// engine must equal the serial gradient of the same batch, across losses ×
// dataset storage kinds × partition counts.

#include <gtest/gtest.h>

#include <tuple>

#include "data/synthetic.hpp"
#include "engine/actions.hpp"
#include "linalg/blas.hpp"
#include "optim/payloads.hpp"
#include "optim/solver_util.hpp"
#include "optim/workload.hpp"
#include "reference/per_row.hpp"

namespace asyncml::optim {
namespace {

using Param = std::tuple<const char* /*loss*/, bool /*sparse*/, int /*partitions*/>;

class DistributedGradientProperty : public ::testing::TestWithParam<Param> {};

std::shared_ptr<const Loss> loss_by_name(const std::string& name) {
  if (name == "ls") return make_least_squares();
  if (name == "logistic") return make_logistic();
  return make_squared_hinge();
}

data::Dataset make_data(bool sparse, std::uint64_t seed) {
  if (sparse) {
    return data::synthetic::make_sparse(
               data::synthetic::SparseSpec{
                   .name = "p", .rows = 120, .cols = 30, .density = 0.2},
               seed)
        .dataset;
  }
  return data::synthetic::make_dense(
             data::synthetic::DenseSpec{.name = "p", .rows = 120, .cols = 30}, seed)
      .dataset;
}

TEST_P(DistributedGradientProperty, EngineGradientMatchesSerialReference) {
  const auto [loss_name, sparse, partitions] = GetParam();
  const auto loss = loss_by_name(loss_name);
  auto dataset = std::make_shared<const data::Dataset>(make_data(sparse, 11));
  const Workload workload = Workload::create(dataset, partitions, loss);

  engine::Cluster::Config config;
  config.num_workers = 3;
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  engine::Cluster cluster(config);

  linalg::DenseVector w(workload.dim());
  for (std::size_t j = 0; j < w.size(); ++j) w[j] = 0.01 * static_cast<double>(j % 7);
  auto w_br = cluster.broadcast(w, w.size_bytes());

  engine::StageOptions stage;
  stage.seq = 5;
  stage.rng_seed = 99;
  const double fraction = 0.4;
  const GradCount total = engine::aggregate_sync(
      cluster, workload.points.sample(fraction), GradCount{},
      reference::make_grad_seq(workload.loss, w_br,
                               linalg::GradVectorConfig(workload.dim())),
      detail::grad_comb(), stage);

  // Serial reference: iterate partitions in order with the same task RNG
  // derivation the worker uses: (seed, partition+1, seq).
  linalg::DenseVector expected(workload.dim());
  std::uint64_t expected_count = 0;
  for (int p = 0; p < partitions; ++p) {
    support::RngStream rng =
        support::RngStream(stage.rng_seed).substream(p + 1).substream(stage.seq);
    for (std::size_t r = workload.partitions[p].begin; r < workload.partitions[p].end;
         ++r) {
      if (!rng.bernoulli(fraction)) continue;
      const data::LabeledPoint point = dataset->point(r);
      const double coeff = loss->derivative(point.features.dot(w.span()), point.label);
      point.features.axpy_into(coeff, expected.span());
      ++expected_count;
    }
  }

  EXPECT_EQ(total.count, expected_count);
  const linalg::DenseVector grad = total.grad.to_dense();
  ASSERT_EQ(grad.size(), expected.size());
  EXPECT_LT(linalg::max_abs_diff(grad.span(), expected.span()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    LossStorageParts, DistributedGradientProperty,
    ::testing::Combine(::testing::Values("ls", "logistic", "hinge"),
                       ::testing::Bool(), ::testing::Values(1, 4, 7)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_sparse_" : "_dense_") +
             std::to_string(std::get<2>(info.param)) + "parts";
    });

}  // namespace
}  // namespace asyncml::optim
