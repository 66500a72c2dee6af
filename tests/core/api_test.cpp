// The paper-parity API: Table-1-named free functions must behave exactly as
// the AsyncContext methods they forward to; this test transliterates the
// paper's Algorithm 2 skeleton using only those names.

#include "core/api.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "optim/loss.hpp"
#include "optim/objective.hpp"
#include "optim/payloads.hpp"
#include "optim/workload.hpp"

namespace asyncml::core {
namespace {

engine::Cluster::Config quiet_config(int workers) {
  engine::Cluster::Config config;
  config.num_workers = workers;
  config.cores_per_worker = 2;
  config.network.time_scale = 0.0;
  return config;
}

TEST(PaperApi, StatAndHasNext) {
  engine::Cluster cluster(quiet_config(3));
  AsyncContext ac(cluster, 3);
  EXPECT_EQ(STAT(ac).num_workers(), 3);
  EXPECT_FALSE(ASYNChasNext(ac));
}

TEST(PaperApi, ReduceCollectRoundTrip) {
  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 4);
  const auto rdd = engine::make_vector_rdd(std::vector<long>(40, 1L), 4);

  int dispatched =
      ASYNCreduce(ac, rdd, 0L, [](long a, const long& b) { return a + b; },
                  barriers::asp());
  long total = 0;
  int collected = 0;
  while (collected < 4) {
    auto payload = ASYNCcollect(ac);
    ASSERT_TRUE(payload.has_value());
    total += payload->get<long>();
    ++collected;
    dispatched += ASYNCreduce(ac, rdd, 0L, [](long a, const long& b) { return a + b; },
                              barriers::asp());
  }
  EXPECT_GE(dispatched, 4);
  EXPECT_GT(total, 0);
  // Drain leftovers from the trailing dispatches.
  while (ac.coordinator().total_outstanding() > 0 || ac.has_next()) {
    (void)ac.collect();
  }
}

TEST(PaperApi, CollectAllCarriesAttributes) {
  engine::Cluster cluster(quiet_config(1));
  AsyncContext ac(cluster, 1);
  const auto rdd = engine::make_vector_rdd(std::vector<int>{5}, 1);
  ASYNCaggregate(ac, rdd, 0L, [](long a, const int& b) { return a + b; },
                 barriers::asp());
  auto tagged = ASYNCcollectAll(ac);
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->worker.id, 0);
  EXPECT_EQ(tagged->staleness, 0u);
  EXPECT_EQ(tagged->result.payload.get<long>(), 5L);
}

TEST(PaperApi, BroadcastHistoryByName) {
  engine::Cluster cluster(quiet_config(1));
  AsyncContext ac(cluster, 1);
  const HistoryBroadcast w0 = ASYNCbroadcast(ac, linalg::DenseVector{1.0});
  ac.advance_version();
  const HistoryBroadcast w1 = ASYNCbroadcast(ac, linalg::DenseVector{2.0});
  EXPECT_DOUBLE_EQ((*w1.value())[0], 2.0);
  EXPECT_DOUBLE_EQ((*w1.value_at(w0.version()))[0], 1.0);
}

TEST(PaperApi, Algorithm2Transliteration) {
  // Algorithm 2 of the paper, written with Table-1 names only. Converges on
  // a tiny least-squares problem.
  const auto problem = data::synthetic::tiny(120, 6, 0.0, 3);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const auto workload =
      optim::Workload::create(dataset, 4, optim::make_least_squares());
  const std::size_t dim = workload.dim();

  engine::Cluster cluster(quiet_config(2));
  AsyncContext ac(cluster, 4);                               // AC = new ASYNCcontext
  linalg::DenseVector w(dim);

  const auto barrier = barriers::asp();                      // f: STAT.foreach(true)
  const auto sampled = workload.points.sample(0.4);          // .sample(b)
  const auto loss = workload.loss;

  std::uint64_t updates = 0;
  core::HistoryBroadcast w_br = ASYNCbroadcast(ac, w);       // w_br = broadcast(w)
  auto grad_map = [loss, &dim](core::HistoryBroadcast handle) {
    return [loss, handle, dim](optim::GradCount acc, const data::LabeledPoint& p) {
      acc.grad.ensure(linalg::GradVectorConfig(dim));
      const auto model = handle.value();
      p.features.axpy_into(loss->derivative(p.features.dot(model->span()), p.label),
                           acc.grad);
      acc.count += 1;
      return acc;
    };
  };
  ASYNCaggregate(ac, sampled, optim::GradCount{}, grad_map(w_br), barrier);

  while (updates < 200) {
    auto collected = ASYNCcollectAll(ac);                    // AC.ASYNCcollect()
    ASSERT_TRUE(collected.has_value());
    const auto& g = collected->result.payload.get<optim::GradCount>();
    if (g.count > 0) {
      g.grad.scale_into(-0.02 / static_cast<double>(g.count), w.span());
    }
    ++updates;
    ac.advance_version();
    w_br = ASYNCbroadcast(ac, w);
    ASYNCaggregate(ac, sampled, optim::GradCount{}, grad_map(w_br), barrier);
  }

  const double err = optim::full_objective(*dataset, *loss, w);
  EXPECT_LT(err, 0.5);
  while (ac.coordinator().total_outstanding() > 0 || ac.has_next()) {
    (void)ac.collect();
  }
}

}  // namespace
}  // namespace asyncml::core
