// The socket backend against real worker processes: Unix-socket transports
// spawn tools/asyncml_worker, handshake, and relay every message kind through
// a genuine serialize → socket → decode → re-encode → ack round trip.
//
// Flake guard: every wait in here is deadline-bounded (transport
// io_deadline_ms riding on poll()) — there are no raw sleeps — and each
// transport listens in its own temporary socket directory, so parallel test
// runs cannot collide.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "store/model_delta.hpp"
#include "transport/frame.hpp"
#include "transport/transport.hpp"

namespace asyncml::transport {
namespace {

TransportConfig socket_config(Backend backend) {
  TransportConfig config;
  config.backend = backend;
  // Generous for CI schedulers, but every wait is bounded by it: a hung
  // endpoint fails the test in finite time instead of wedging the runner.
  config.io_deadline_ms = 15000.0;
  return config;
}

engine::TaskResult make_result(engine::WorkerId worker) {
  engine::TaskResult result;
  result.id = 101;
  result.worker = worker;
  result.partition = 4;
  result.seq = 9;
  result.model_version = 3;
  optim::GradCount gc;
  gc.grad = linalg::GradVector(linalg::GradVectorConfig(256, 0.9, false));
  for (std::uint32_t i = 0; i < 20; ++i) {
    gc.grad.set(i * 11 + 2, 1.5 * static_cast<double>(i) - 7.0);
  }
  gc.count = 20;
  const std::size_t modeled = optim::payload_size_bytes(gc);
  result.payload = engine::Payload::wrap(std::move(gc), modeled);
  result.compute_ms = 0.5;
  result.service_ms = 1.5;
  return result;
}

class SocketTransportTest : public ::testing::TestWithParam<Backend> {};

TEST_P(SocketTransportTest, StartsHandshakesAndStops) {
  engine::ClusterMetrics metrics(3);
  auto transport = make_transport(socket_config(GetParam()), 3, nullptr, &metrics);
  ASSERT_TRUE(transport->start().is_ok());
  EXPECT_EQ(transport->backend(), GetParam());
  for (engine::WorkerId w = 0; w < 3; ++w) {
    EXPECT_TRUE(transport->channel(w).alive());
    EXPECT_TRUE(transport->channel(w).is_wire());
    EXPECT_EQ(transport->channel(w).worker(), w);
  }
  // The hello handshake is control traffic, and it is *measured*:
  const auto& control = metrics.wire(engine::WireChannel::kControl);
  EXPECT_EQ(control.frames.load(), 3u);
  EXPECT_GT(control.bytes_sent.load(), 0u);
  EXPECT_GT(control.bytes_received.load(), 0u);
  transport->stop();
  transport->stop();  // idempotent
}

TEST_P(SocketTransportTest, TaskSpecRoundTripsThroughTheEndpoint) {
  auto transport = make_transport(socket_config(GetParam()), 1, nullptr, nullptr);
  ASSERT_TRUE(transport->start().is_ok());

  engine::TaskSpec spec;
  spec.id = 55;
  spec.partition = 2;
  spec.seq = 7;
  spec.model_version = 4;
  spec.service_floor_ms = 3.5;
  spec.rng_seed = 0xABCDEFull;
  spec.migration_ms = 0.25;
  ASSERT_TRUE(transport->channel(0).ship_task(spec).is_ok());
  // The decoded echo overwrote the wire fields — verbatim for a clean codec.
  EXPECT_EQ(spec.id, 55u);
  EXPECT_EQ(spec.partition, 2);
  EXPECT_EQ(spec.seq, 7u);
  EXPECT_EQ(spec.model_version, 4u);
  EXPECT_EQ(spec.service_floor_ms, 3.5);
  EXPECT_EQ(spec.rng_seed, 0xABCDEFull);
  EXPECT_EQ(spec.migration_ms, 0.25);
  transport->stop();
}

TEST_P(SocketTransportTest, ResultShipReturnsTheDecodedEcho) {
  auto transport = make_transport(socket_config(GetParam()), 1, nullptr, nullptr);
  ASSERT_TRUE(transport->start().is_ok());

  const engine::TaskResult original = make_result(0);
  const std::size_t modeled = original.payload.bytes();
  auto shipped = transport->channel(0).ship_result(original);
  ASSERT_TRUE(shipped.is_ok());
  EXPECT_EQ(shipped.value().charge_ms, 0.0);  // real I/O: wall time, no charge
  EXPECT_GT(shipped.value().wire_ns, 0u);

  const engine::TaskResult& echoed = shipped.value().result;
  EXPECT_EQ(echoed.id, original.id);
  EXPECT_EQ(echoed.seq, original.seq);
  EXPECT_EQ(echoed.payload.bytes(), modeled) << "charged bytes are backend-invariant";
  const auto& in = original.payload.get<optim::GradCount>();
  const auto& out = echoed.payload.get<optim::GradCount>();
  EXPECT_EQ(out.count, in.count);
  EXPECT_TRUE(linalg::bitwise_equal(in.grad.to_dense(), out.grad.to_dense()));
  transport->stop();
}

TEST_P(SocketTransportTest, ModelDeltaFetchRoundTripsCompressed) {
  engine::ClusterMetrics metrics(1);
  auto transport = make_transport(socket_config(GetParam()), 1, nullptr, &metrics);
  ASSERT_TRUE(transport->start().is_ok());

  store::ModelDelta delta;
  delta.parent = 30;
  delta.dim = 8192;
  for (std::uint32_t i = 0; i < 200; ++i) {
    delta.indices.push_back(i * 40 + 1);
    delta.values.push_back(0.001 * static_cast<double>(i));
  }
  const std::size_t modeled = delta.wire_bytes();
  const engine::Payload payload = engine::Payload::wrap(std::move(delta), modeled);

  auto fetched =
      transport->channel(0).fetch_payload(payload, engine::BroadcastClass::kDelta);
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value().charge_ms, 0.0);
  const auto& out = fetched.value().payload.get<store::ModelDelta>();
  EXPECT_EQ(out.parent, 30u);
  const auto& in = payload.get<store::ModelDelta>();
  EXPECT_EQ(out.dim, in.dim);
  EXPECT_EQ(out.indices, in.indices);
  EXPECT_EQ(out.values, in.values);  // finite, no -0.0: == is bitwise here
  EXPECT_EQ(fetched.value().payload.bytes(), modeled);

  // Measured bytes on the model channel: lz4 on the delta chain should move
  // fewer wire bytes than the modeled payload size.
  const auto& model = metrics.wire(engine::WireChannel::kModel);
  EXPECT_EQ(model.frames.load(), 1u);
  EXPECT_GT(model.bytes_sent.load(), 0u);
  EXPECT_LT(model.bytes_sent.load(), modeled + 256) << "delta frame failed to compress";
  transport->stop();
}

TEST_P(SocketTransportTest, WireMetricsCountEveryChannel) {
  engine::ClusterMetrics metrics(1);
  auto transport = make_transport(socket_config(GetParam()), 1, nullptr, &metrics);
  ASSERT_TRUE(transport->start().is_ok());

  engine::TaskSpec spec;
  spec.id = 1;
  ASSERT_TRUE(transport->channel(0).ship_task(spec).is_ok());
  ASSERT_TRUE(transport->channel(0).ship_result(make_result(0)).is_ok());

  const auto& task = metrics.wire(engine::WireChannel::kTask);
  EXPECT_EQ(task.frames.load(), 1u);
  EXPECT_GT(task.bytes_sent.load(), kFrameHeaderBytes);
  const auto& result = metrics.wire(engine::WireChannel::kResult);
  EXPECT_EQ(result.frames.load(), 1u);
  EXPECT_GT(result.bytes_sent.load(), result.bytes_received.load() / 2);
  transport->stop();
}

// Hard-killing the worker process mid-session: the next round trip fails
// with kUnavailable within the I/O deadline, the channel goes (and stays)
// dead, and the other workers' channels are untouched.
TEST_P(SocketTransportTest, KilledPeerSynthesizesUnavailableAndStaysDead) {
  auto transport = make_transport(socket_config(GetParam()), 2, nullptr, nullptr);
  ASSERT_TRUE(transport->start().is_ok());

  transport->kill_worker(0);
  const auto t0 = std::chrono::steady_clock::now();
  auto shipped = transport->channel(0).ship_result(make_result(0));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(shipped.is_ok());
  EXPECT_EQ(shipped.status().code(), support::StatusCode::kUnavailable);
  EXPECT_LT(waited_ms, 15000.0) << "death must be discovered within the deadline";
  EXPECT_FALSE(transport->channel(0).alive());

  // Dead is forever — and cheap: no I/O is attempted on a dead channel.
  engine::TaskSpec spec;
  EXPECT_FALSE(transport->channel(0).ship_task(spec).is_ok());
  EXPECT_FALSE(transport->channel(0).alive());

  // The survivor is unaffected.
  EXPECT_TRUE(transport->channel(1).alive());
  auto ok = transport->channel(1).ship_result(make_result(1));
  EXPECT_TRUE(ok.is_ok());
  transport->stop();
}

// A frame larger than the endpoint's cap: the endpoint's decoder rejects it
// at the header, tears the stream down, and the driver sees a dead channel —
// never a hang, never a giant allocation.
TEST_P(SocketTransportTest, OversizedFrameKillsTheChannelNotTheRunner) {
  TransportConfig config = socket_config(GetParam());
  config.max_frame_bytes = 1 << 12;  // 4 KiB cap, both sides
  auto transport = make_transport(config, 1, nullptr, nullptr);
  ASSERT_TRUE(transport->start().is_ok());

  engine::TaskResult big;
  big.id = 9;
  optim::GradCount gc;
  gc.grad = linalg::GradVector(linalg::GradVectorConfig(100000, 0.9, false));
  for (std::uint32_t i = 0; i < 2000; ++i) {
    gc.grad.set(i * 50 + 3, static_cast<double>(i));
  }
  gc.count = 2000;
  const std::size_t modeled = optim::payload_size_bytes(gc);
  ASSERT_GT(modeled, config.max_frame_bytes);
  big.payload = engine::Payload::wrap(std::move(gc), modeled);

  auto shipped = transport->channel(0).ship_result(std::move(big));
  EXPECT_FALSE(shipped.is_ok());
  EXPECT_FALSE(transport->channel(0).alive());
  transport->stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, SocketTransportTest,
                         ::testing::Values(Backend::kUnixSocket),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           std::string name = backend_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SocketTransport, MissingWorkerBinaryFailsLoudlyAtStart) {
  TransportConfig config = socket_config(Backend::kUnixSocket);
  config.worker_binary = "/nonexistent/asyncml_worker";
  auto transport = make_transport(config, 1, nullptr, nullptr);
  const auto status = transport->start();
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition);
  transport->stop();  // safe after failed start
}

// The in-process reference implements the same Channel contract with modeled
// charges instead of I/O — pinned here so the seam stays symmetric.
TEST(InProcessTransport, ReturnsModeledChargesAndNeverTouchesTheSpec) {
  engine::NetworkModel network;
  network.time_scale = 1.0;
  engine::ClusterMetrics metrics(1);
  TransportConfig config;  // kInProcess
  auto transport = make_transport(config, 1, &network, &metrics);
  ASSERT_TRUE(transport->start().is_ok());
  EXPECT_FALSE(transport->channel(0).is_wire());

  engine::TaskResult result = make_result(0);
  const std::size_t modeled = result.payload.bytes();
  auto shipped = transport->channel(0).ship_result(std::move(result));
  ASSERT_TRUE(shipped.is_ok());
  EXPECT_EQ(shipped.value().wire_ns, 0u);
  EXPECT_EQ(shipped.value().charge_ms,
            network.transfer_ms(modeled));  // the modeled charge, exactly
  const auto& wire = metrics.wire(engine::WireChannel::kResult);
  EXPECT_EQ(wire.bytes_sent.load(), modeled);  // charged bytes, not frame bytes
  EXPECT_EQ(wire.bytes_received.load(), 0u);   // no ack exists in-process
  transport->stop();
}

}  // namespace
}  // namespace asyncml::transport
