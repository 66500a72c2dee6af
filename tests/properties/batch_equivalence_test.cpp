// Bit-compatibility of the fused batch task bodies with the per-row reference
// (tests/reference/per_row.hpp): for every loss kind and density, each fused
// body and its per-row counterpart run on the same TaskContext (seed,
// partition, seq) and must return *bit-identical* results — same count, same
// representation, same wire size, same bits (grad_batch.hpp's contract). An
// SgdSolver run, on 1 worker or on 3 workers × 2 cores, must then follow the
// per-row SGD loop bit for bit.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <type_traits>

#include "data/synthetic.hpp"
#include "optim/sgd.hpp"
#include "optim/solver_util.hpp"
#include "reference/per_row.hpp"

namespace asyncml::optim {
namespace {

constexpr int kPartitions = 4;

Workload make_workload(double density, std::shared_ptr<const Loss> loss) {
  if (density >= 1.0) {
    const auto problem = data::synthetic::make_dense(
        data::synthetic::DenseSpec{.name = "dense", .rows = 160, .cols = 80},
        /*seed=*/23);
    return Workload::create(std::make_shared<const data::Dataset>(problem.dataset),
                            kPartitions, std::move(loss));
  }
  const auto problem = data::synthetic::make_sparse(
      data::synthetic::SparseSpec{
          .name = "sweep", .rows = 160, .cols = 80, .density = density},
      /*seed=*/23);
  return Workload::create(std::make_shared<const data::Dataset>(problem.dataset),
                          kPartitions, std::move(loss));
}

// The synthetic generators emit regression targets; logistic/hinge consume
// them as real-valued labels, which exercises both sign branches of their
// derivative kernels across a batch.
std::shared_ptr<const Loss> loss_by_name(const std::string& name) {
  if (name == "least_squares") return make_least_squares();
  if (name == "logistic") return make_logistic();
  return make_squared_hinge();
}

// Exactly the worker's derivation (engine/worker.cpp).
engine::TaskContext task_context(engine::PartitionId partition, std::uint64_t seq) {
  engine::TaskContext ctx;
  ctx.partition = partition;
  ctx.seq = seq;
  ctx.rng = support::RngStream(/*seed=*/7)
                .substream(static_cast<std::uint64_t>(partition) + 1)
                .substream(seq);
  return ctx;
}

linalg::DenseVector model(std::size_t dim, std::uint64_t seed) {
  linalg::DenseVector w(dim);
  support::RngStream rng(seed);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.uniform(-0.5, 0.5);
  return w;
}

void expect_bit_equal(const linalg::GradVector& fused, const linalg::GradVector& ref) {
  EXPECT_EQ(fused.is_dense(), ref.is_dense());
  EXPECT_EQ(fused.size_bytes(), ref.size_bytes());
  EXPECT_TRUE(linalg::bitwise_equal(fused.to_dense(), ref.to_dense()));
}

/// Runs both bodies on the same context and compares their payloads.
template <typename Payload>
void expect_same_task(const engine::TaskFn& fused, const engine::TaskFn& ref,
                      engine::PartitionId partition, std::uint64_t seq) {
  SCOPED_TRACE("partition " + std::to_string(partition) + " seq " + std::to_string(seq));
  engine::TaskContext fused_ctx = task_context(partition, seq);
  engine::TaskContext ref_ctx = task_context(partition, seq);
  const auto a = fused(fused_ctx);
  const auto b = ref(ref_ctx);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  const Payload& got = a.value().template get<Payload>();
  const Payload& want = b.value().template get<Payload>();
  EXPECT_EQ(got.count, want.count);
  expect_bit_equal(got.grad, want.grad);
  if constexpr (std::is_same_v<Payload, GradHist>) expect_bit_equal(got.hist, want.hist);
}

/// A HistoryRegistry holding `models` as versions 0, 1, … (on `num_shards`
/// shards), plus one handle pinned at each version.
struct History {
  engine::BroadcastStore store;
  std::shared_ptr<core::HistoryRegistry> registry;
  std::vector<core::HistoryBroadcast> handles;

  History(std::initializer_list<const linalg::DenseVector*> models,
          std::uint32_t num_shards = 1) {
    store::StoreConfig cfg;
    cfg.num_shards = num_shards;
    registry = std::make_shared<core::HistoryRegistry>(&store, cfg);
    for (const linalg::DenseVector* w : models) {
      const auto v = static_cast<engine::Version>(handles.size());
      registry->publish(*w, v);
      handles.emplace_back(registry, v);
    }
  }
};

using Case = std::tuple<std::string, double>;

class TaskBodySweep : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const auto& [loss_name, density] = GetParam();
    workload_.emplace(make_workload(density, loss_by_name(loss_name)));
    config_.batch_fraction = 0.3;
    grad_cfg_ = detail::grad_config(*workload_, config_);
    w_old_ = model(workload_->dim(), 3);
    w_new_ = model(workload_->dim(), 4);
  }

  /// Two laps of SAGA tasks over tables that start at kNeverVisited: lap 1
  /// reads version 0 and takes the never-visited branch, lap 2 reads
  /// version 1 and recomputes visited rows' history at version 0.
  void check_saga_laps(History& history,
                       std::shared_ptr<const std::vector<core::ShardSet>> support) {
    auto fused_table =
        std::make_shared<core::SampleVersionTable>(workload_->n(), core::kNeverVisited);
    auto ref_table =
        std::make_shared<core::SampleVersionTable>(workload_->n(), core::kNeverVisited);
    for (int lap = 0; lap < 2; ++lap) {
      const core::HistoryBroadcast& w_br = history.handles[lap];
      const auto fused = detail::saga_task_fn(*workload_, config_, w_br, fused_table,
                                              grad_cfg_, config_.batch_fraction, support);
      const auto ref = reference::saga_task_fn(*workload_, w_br, ref_table, grad_cfg_,
                                               config_.batch_fraction);
      for (int p = 0; p < kPartitions; ++p) {
        expect_same_task<GradHist>(*fused, *ref, p,
                                   static_cast<std::uint64_t>(lap * kPartitions + p));
      }
    }
    for (std::size_t i = 0; i < workload_->n(); ++i) {
      ASSERT_EQ(fused_table->get(i), ref_table->get(i)) << "sample " << i;
    }
  }

  std::optional<Workload> workload_;
  SolverConfig config_;
  linalg::GradVectorConfig grad_cfg_;
  linalg::DenseVector w_old_;
  linalg::DenseVector w_new_;
};

TEST_P(TaskBodySweep, GradBodyMatchesPerRowWithEngineBroadcast) {
  engine::Cluster::Config cluster_config;
  cluster_config.num_workers = 1;
  cluster_config.network.time_scale = 0.0;
  engine::Cluster cluster(cluster_config);
  const engine::Broadcast<linalg::DenseVector> w_br =
      cluster.broadcast(w_new_, w_new_.size_bytes());
  for (const std::optional<double> fraction : {std::optional<double>(0.3),
                                               std::optional<double>()}) {
    const auto fused =
        detail::grad_task_fn(*workload_, config_, w_br, grad_cfg_, fraction);
    const auto ref = reference::grad_task_fn(*workload_, w_br, grad_cfg_, fraction);
    for (int p = 0; p < kPartitions; ++p) expect_same_task<GradCount>(*fused, *ref, p, 5);
  }
}

TEST_P(TaskBodySweep, GradBodyMatchesPerRowWithHistoryBroadcast) {
  History history({&w_new_});
  for (const std::optional<double> fraction : {std::optional<double>(0.3),
                                               std::optional<double>()}) {
    const auto fused = detail::grad_task_fn(*workload_, config_, history.handles[0],
                                            grad_cfg_, fraction);
    const auto ref =
        reference::grad_task_fn(*workload_, history.handles[0], grad_cfg_, fraction);
    for (int p = 0; p < kPartitions; ++p) expect_same_task<GradCount>(*fused, *ref, p, 5);
  }
}

TEST_P(TaskBodySweep, SagaBodyMatchesPerRowOverTwoLaps) {
  History history({&w_old_, &w_new_});
  check_saga_laps(history, nullptr);
}

TEST_P(TaskBodySweep, SvrgBodyMatchesPerRow) {
  History history({&w_old_, &w_new_});
  const core::HistoryBroadcast& snapshot_br = history.handles[0];
  const core::HistoryBroadcast& w_br = history.handles[1];
  const auto fused =
      detail::make_svrg_batch_fn(workload_->dataset, workload_->partitions,
                                 workload_->loss, w_br, snapshot_br, grad_cfg_,
                                 config_.batch_fraction);
  const auto ref = reference::svrg_task_fn(*workload_, w_br, snapshot_br, grad_cfg_,
                                           config_.batch_fraction);
  for (int p = 0; p < kPartitions; ++p) expect_same_task<GradHist>(*fused, *ref, p, 9);
}

// On a 4-shard plane the fused bodies read only the shards their partition's
// support touches; the reference materializes every shard.
TEST_P(TaskBodySweep, MaskedBodiesOnFourShardsMatchUnmaskedPerRow) {
  config_.store_config.num_shards = 4;
  const auto support = detail::shard_support_table(*workload_, config_);
  History history({&w_old_, &w_new_}, /*num_shards=*/4);
  const auto fused = detail::grad_task_fn(*workload_, config_, history.handles[1],
                                          grad_cfg_, config_.batch_fraction, support);
  const auto ref = reference::grad_task_fn(*workload_, history.handles[1], grad_cfg_,
                                           config_.batch_fraction);
  for (int p = 0; p < kPartitions; ++p) expect_same_task<GradCount>(*fused, *ref, p, 5);
  check_saga_laps(history, support);
}

INSTANTIATE_TEST_SUITE_P(
    LossDensityGrid, TaskBodySweep,
    ::testing::Combine(::testing::Values("least_squares", "logistic",
                                         "squared_hinge"),
                       ::testing::Values(0.001, 0.01, 0.1, 1.0)),
    [](const ::testing::TestParamInfo<Case>& info) {
      const std::string& loss = std::get<0>(info.param);
      const double density = std::get<1>(info.param);
      const std::string d = density >= 1.0
                                ? "dense"
                                : "d" + std::to_string(static_cast<int>(density * 1000));
      return loss + "_" + d;
    });

class SgdTrajectory : public ::testing::TestWithParam<double> {};

// The solver's partition-ordered fold over the scheduler's rounds equals the
// per-row BSP loop bit for bit on any placement: `workers` × `cores` only
// changes where each (seed, partition, seq) task runs.
void expect_matches_per_row_loop(double density, int workers, int cores) {
  const Workload workload = make_workload(density, make_least_squares());
  SolverConfig config;
  config.updates = 15;
  config.batch_fraction = 0.3;
  config.step = constant_step(0.02);
  config.eval_every = 15;
  config.seed = 7;

  engine::Cluster::Config cluster_config;
  cluster_config.num_workers = workers;
  cluster_config.cores_per_worker = cores;
  cluster_config.network.time_scale = 0.0;
  engine::Cluster fused_cluster(cluster_config);
  const RunResult fused = SgdSolver::run(fused_cluster, workload, config);
  engine::Cluster ref_cluster(cluster_config);
  const linalg::DenseVector ref = reference::run_sgd(ref_cluster, workload, config);
  EXPECT_TRUE(linalg::bitwise_equal(fused.final_w, ref));
}

TEST_P(SgdTrajectory, OneWorkerRunMatchesPerRowLoop) {
  expect_matches_per_row_loop(GetParam(), /*workers=*/1, /*cores=*/1);
}

TEST_P(SgdTrajectory, ThreeWorkersTwoCoresMatchPerRowLoop) {
  expect_matches_per_row_loop(GetParam(), /*workers=*/3, /*cores=*/2);
}

INSTANTIATE_TEST_SUITE_P(Densities, SgdTrajectory, ::testing::Values(0.05, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param >= 1.0 ? std::string("dense")
                                                    : std::string("d50");
                         });

}  // namespace
}  // namespace asyncml::optim
