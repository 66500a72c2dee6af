// Cross-transport conformance (ISSUE 9 tentpole acceptance): the transport
// backend is a *wiring* knob, not a *math* knob. The same seeded run must
// produce the same trajectory whether frames stay in-process or genuinely
// cross a Unix socket to a worker process and come back as decoded echoes:
//
//   - SGD (synchronous, placement-independent): bit-identical
//     final model and trace across both backends.
//   - ASGD at 1 worker × 1 core (serial, deterministic): objective within
//     1e-8 of the in-process oracle (bitwise in practice).
//
// Because the socket backend re-encodes every payload at the endpoint and
// the driver consumes the decoded bytes, any codec non-canonicality or
// precision loss shows up here as a trajectory divergence.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "data/synthetic.hpp"
#include "optim/asgd.hpp"
#include "optim/objective.hpp"
#include "optim/sgd.hpp"
#include "transport/frame.hpp"

namespace asyncml::optim {
namespace {

data::synthetic::Problem sparse_problem(double density) {
  data::synthetic::SparseSpec spec;
  spec.rows = 160;
  spec.cols = 96;
  spec.density = density;
  spec.noise_std = 0.0;
  return data::synthetic::make_sparse(spec, /*seed=*/41);
}

RunResult run_scheduled_sgd(const std::shared_ptr<const data::Dataset>& dataset,
                            transport::Backend backend) {
  const Workload workload = Workload::create(dataset, 8, make_least_squares());

  engine::Cluster::Config cluster_config;
  cluster_config.num_workers = 4;
  cluster_config.cores_per_worker = 2;
  cluster_config.network.time_scale = 0.0;
  cluster_config.transport.backend = backend;
  engine::Cluster cluster(cluster_config);

  SolverConfig config;
  config.updates = 24;
  config.batch_fraction = 0.25;
  config.service_floor_ms = 0.1;
  config.eval_every = 8;
  config.seed = 23;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  return SgdSolver::run(cluster, workload, config);
}

RunResult run_asgd_serial(const std::shared_ptr<const data::Dataset>& dataset,
                          transport::Backend backend) {
  const Workload workload = Workload::create(dataset, 8, make_least_squares());

  engine::Cluster::Config cluster_config;
  // One worker, one core: tasks execute serially, so the staleness pattern —
  // and with it the trajectory — is deterministic and comparable bit-level
  // across backends.
  cluster_config.num_workers = 1;
  cluster_config.cores_per_worker = 1;
  cluster_config.network.time_scale = 0.0;
  cluster_config.transport.backend = backend;
  engine::Cluster cluster(cluster_config);

  SolverConfig config;
  config.updates = 96;
  config.batch_fraction = 0.25;
  config.service_floor_ms = 0.1;
  config.eval_every = 32;
  config.seed = 23;
  config.step = inverse_decay_step(0.05, 1.0, 0.01);
  return AsgdSolver::run(cluster, workload, config);
}

using Param = std::tuple<double /*density*/, transport::Backend>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::to_string(std::get<0>(info.param)) + "_" +
                     transport::backend_name(std::get<1>(info.param));
  for (char& c : name) {
    if (c == '.') c = 'p';
    if (c == '-') c = '_';
  }
  return "density_" + name;
}

class TransportConformance : public ::testing::TestWithParam<Param> {};

// Synchronous path: every backend must reproduce the in-process oracle's
// final model bit for bit and its error trace exactly.
TEST_P(TransportConformance, SgdIsBitIdenticalToTheInProcessOracle) {
  const auto [density, backend] = GetParam();
  const auto problem = sparse_problem(density);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);

  const RunResult oracle =
      run_scheduled_sgd(dataset, transport::Backend::kInProcess);
  ASSERT_EQ(oracle.updates, 24u);

  const RunResult over_wire = run_scheduled_sgd(dataset, backend);
  EXPECT_EQ(over_wire.updates, oracle.updates);
  EXPECT_TRUE(linalg::bitwise_equal(oracle.final_w, over_wire.final_w))
      << "backend " << transport::backend_name(backend) << " density " << density;
  ASSERT_EQ(over_wire.trace.size(), oracle.trace.size());
  for (std::size_t i = 0; i < oracle.trace.size(); ++i) {
    EXPECT_EQ(over_wire.trace[i].error, oracle.trace[i].error)
        << "trace point " << i;
    EXPECT_EQ(over_wire.trace[i].update, oracle.trace[i].update);
  }
}

// Async path, serialized: the objective agrees to ≤ 1e-8 (bitwise in
// practice — the decoded echo carries the exact float64 bit patterns).
TEST_P(TransportConformance, SerialAsgdObjectiveMatchesTheInProcessOracle) {
  const auto [density, backend] = GetParam();
  const auto problem = sparse_problem(density);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);

  const RunResult oracle = run_asgd_serial(dataset, transport::Backend::kInProcess);
  const RunResult over_wire = run_asgd_serial(dataset, backend);
  EXPECT_EQ(over_wire.updates, oracle.updates);
  EXPECT_NEAR(over_wire.final_error(), oracle.final_error(), 1e-8)
      << "backend " << transport::backend_name(backend) << " density " << density;
}

INSTANTIATE_TEST_SUITE_P(
    DensitiesTimesBackends, TransportConformance,
    ::testing::Combine(::testing::Values(0.01, 1.0),
                       ::testing::Values(transport::Backend::kUnixSocket)),
    param_name);

// The wire counters of a socket run measure real frames: an SGD run
// over the Unix socket must record traffic on the task, result and model
// channels — the proof that the trajectory above actually crossed a socket.
TEST(TransportConformance, SocketRunsActuallyMoveFrames) {
  const auto problem = sparse_problem(0.01);
  auto dataset = std::make_shared<const data::Dataset>(problem.dataset);
  const RunResult r = run_scheduled_sgd(dataset, transport::Backend::kUnixSocket);

  const auto& task = r.wire[static_cast<std::size_t>(engine::WireChannel::kTask)];
  const auto& result = r.wire[static_cast<std::size_t>(engine::WireChannel::kResult)];
  const auto& model = r.wire[static_cast<std::size_t>(engine::WireChannel::kModel)];
  EXPECT_GT(task.frames, 0u);
  EXPECT_GT(task.bytes_sent, task.frames * transport::kFrameHeaderBytes);
  EXPECT_GT(result.frames, 0u);
  EXPECT_GT(result.bytes_sent, 0u);
  EXPECT_GT(model.frames, 0u);
  EXPECT_GT(model.bytes_sent, 0u);

  // …while the in-process oracle reports charged bytes with no ack traffic.
  const RunResult local = run_scheduled_sgd(dataset, transport::Backend::kInProcess);
  const auto& local_result =
      local.wire[static_cast<std::size_t>(engine::WireChannel::kResult)];
  EXPECT_GT(local_result.frames, 0u);
  EXPECT_EQ(local_result.bytes_received, 0u);
}

}  // namespace
}  // namespace asyncml::optim
