// Version-churn properties of the delta-versioned model store: chain-resolved
// models must equal the directly published ones across update densities, and
// flipping ASGD from full-snapshot to delta publishing must collapse the
// charged broadcast bytes without changing the trajectory.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "optim/asgd.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "support/rng.hpp"

namespace asyncml::store {
namespace {

class DeltaDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DeltaDensitySweep, ChainResolutionEqualsDirectlyPublishedModel) {
  const double update_density = GetParam();
  constexpr std::size_t kDim = 300;
  constexpr engine::Version kVersions = 48;

  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
  StoreConfig config;
  config.base_interval = 8;
  ModelStore store(&broadcasts, config);

  // Publish a version churn where each update touches a random
  // `update_density` fraction of the coordinates; keep golden copies.
  support::RngStream rng(/*seed=*/31 + static_cast<std::uint64_t>(update_density * 1e4));
  linalg::DenseVector w(kDim);
  std::vector<linalg::DenseVector> golden;
  for (engine::Version v = 0; v < kVersions; ++v) {
    for (std::size_t i = 0; i < kDim; ++i) {
      if (rng.bernoulli(update_density)) w[i] += rng.uniform(-1.0, 1.0);
    }
    store.publish(w, v);
    golden.push_back(w);
  }

  // Resolve every version through a fresh worker cache in an adversarial
  // order (newest first, so anchors sit *above* most requests and chains
  // resolve from bases), then re-resolve in ascending order (hits + short
  // delta hops).  Every materialization must match its golden copy bit for
  // bit: deltas carry assignments, so a chain never rounds.
  VersionedModelCache& cache = store.cache_for(0, &bcache, &metrics);
  for (engine::Version v = kVersions; v-- > 0;) {
    EXPECT_TRUE(linalg::bitwise_equal(*cache.value_at(v), golden[v]))
        << "version " << v << " at density " << update_density;
  }
  for (engine::Version v = 0; v < kVersions; ++v) {
    EXPECT_TRUE(linalg::bitwise_equal(*cache.value_at(v), golden[v])) << "version " << v;
  }

  // A fresh worker cache, oldest first, dropping each handle before the next
  // resolve: every v−1 → v step may advance the cache's own v−1 in place.
  engine::ClusterMetrics fresh_metrics(1);
  engine::BroadcastCache fresh_bcache(&broadcasts, &net, &fresh_metrics);
  VersionedModelCache& fresh = store.cache_for(1, &fresh_bcache, &fresh_metrics);
  for (engine::Version v = 0; v < kVersions; ++v) {
    EXPECT_TRUE(linalg::bitwise_equal(*fresh.value_at(v), golden[v]))
        << "version " << v << " at density " << update_density;
  }

  // The driver-side cache resolves identically, without wire traffic.
  const std::uint64_t bytes = metrics.broadcast_bytes.load();
  for (engine::Version v = 0; v < kVersions; v += 7) {
    EXPECT_TRUE(linalg::bitwise_equal(*store.driver_cache().value_at(v), golden[v]));
  }
  EXPECT_EQ(metrics.broadcast_bytes.load(), bytes);
}

INSTANTIATE_TEST_SUITE_P(UpdateDensities, DeltaDensitySweep,
                         ::testing::Values(0.001, 0.01, 0.1, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           if (info.param >= 1.0) return std::string("d1000");
                           return "d" + std::to_string(static_cast<int>(
                                            info.param * 1000.0));
                         });

TEST(DeltaBroadcastAccounting, AsgdShipsThreeTimesFewerBroadcastBytes) {
  // Acceptance criterion: on an rcv1-like sparse workload, delta publishing
  // drops ASGD's charged broadcast bytes >= 3x versus full-snapshot
  // publishing with the objective trajectory matching to <= 1e-8.  One
  // worker with one core serializes execution, so both runs follow the same
  // deterministic schedule — and because deltas ship overwrite values, the
  // resolved models (and hence the trajectories) are bit-identical.
  const auto problem = data::synthetic::make_sparse(
      data::synthetic::SparseSpec{
          .name = "rcv1-like", .rows = 400, .cols = 2000, .density = 0.01},
      /*seed=*/23);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const optim::Workload workload =
      optim::Workload::create(dataset, 8, optim::make_least_squares());

  optim::SolverConfig config;
  config.updates = 64;
  config.batch_fraction = 0.1;
  config.step = optim::constant_step(0.05);
  config.eval_every = 8;
  config.seed = 21;

  engine::Cluster::Config cluster_config;
  cluster_config.num_workers = 1;
  cluster_config.cores_per_worker = 1;
  cluster_config.network.time_scale = 0.0;

  config.store_config.delta_enabled = false;
  engine::Cluster snapshot_cluster(cluster_config);
  const optim::RunResult snapshot =
      optim::AsgdSolver::run(snapshot_cluster, workload, config);

  config.store_config.delta_enabled = true;
  engine::Cluster delta_cluster(cluster_config);
  const optim::RunResult delta =
      optim::AsgdSolver::run(delta_cluster, workload, config);

  ASSERT_GT(snapshot.broadcast_bytes, 0u);
  ASSERT_GT(delta.broadcast_bytes, 0u);
  EXPECT_GE(static_cast<double>(snapshot.broadcast_bytes),
            3.0 * static_cast<double>(delta.broadcast_bytes))
      << "snapshot=" << snapshot.broadcast_bytes
      << " delta=" << delta.broadcast_bytes;

  // Trajectories match: same final model and same recorded objective curve.
  EXPECT_LT(linalg::max_abs_diff(snapshot.final_w.span(), delta.final_w.span()),
            1e-10);
  ASSERT_EQ(snapshot.trace.size(), delta.trace.size());
  for (std::size_t i = 0; i < snapshot.trace.size(); ++i) {
    EXPECT_NEAR(snapshot.trace[i].error, delta.trace[i].error, 1e-8);
  }

  // The split accounting explains the total: full-snapshot runs ship only
  // base bytes, delta runs mostly delta bytes.
  EXPECT_EQ(snapshot.broadcast_delta_bytes, 0u);
  EXPECT_EQ(snapshot.broadcast_bytes,
            snapshot.broadcast_base_bytes + snapshot.broadcast_delta_bytes);
  EXPECT_EQ(delta.broadcast_bytes,
            delta.broadcast_base_bytes + delta.broadcast_delta_bytes);
  EXPECT_GT(delta.broadcast_delta_bytes, 0u);
}

}  // namespace
}  // namespace asyncml::store
