// Microbenchmark — the transport layer's codec and wire costs.
//
// Four numbers the transport design hinges on (docs/TRANSPORT.md):
//
//   1. Frame codec throughput: ns to encode / decode a realistic
//      gradient-bearing result frame (rcv1-shaped sparse GradCount, ~48 KB).
//      The codec sits on every socket-backend round trip. The checked-in
//      baseline measures ~144 µs encode and ~179 µs decode against a
//      ~752 µs Unix-socket RTT (micro_transport.rtt.*), so the codec is a
//      visible share of the trip, not noise under it.
//   2. lz4 delta ratio: wire bytes / raw bytes for a delta-chain envelope
//      (micro_transport.lz4_delta.bytes_ratio). The sparse [index, float64]
//      stream is the compressible shape the delta chain ships all day.
//   3. Loopback RTT: min µs for a full ship_result round trip — encode,
//      socket, endpoint decode + canonical re-encode, ack, decode — over
//      Unix-socket and TCP backends with a real worker process.
//   4. Codec bit-identity (micro_transport.codec.bit_identical): the
//      encode∘decode∘encode invariant the conformance suite builds on,
//      enforced here with a hard exit 1 so the CI bench-perf job fails on
//      any canonicality regression.
//
// Results merge into bench_results/BENCH_micro.json; tools/bench_diff.py
// diffs them against the checked-in baseline.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "linalg/grad_vector.hpp"
#include "optim/payloads.hpp"
#include "store/model_delta.hpp"
#include "transport/frame.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

using namespace asyncml;

namespace {

constexpr int kCodecIters = 2000;
constexpr int kRttIters = 400;
constexpr int kReps = 3;
constexpr std::uint32_t kDim = 47236;  // rcv1 feature count
constexpr std::uint32_t kNnz = 4000;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The workhorse frame: a sparse GradCount result, rcv1-shaped.
engine::TaskResult make_result() {
  engine::TaskResult result;
  result.id = 7;
  result.worker = 0;
  result.partition = 3;
  result.seq = 12;
  result.model_version = 9;
  optim::GradCount gc;
  gc.grad = linalg::GradVector(linalg::GradVectorConfig(kDim, 0.9, false));
  for (std::uint32_t i = 0; i < kNnz; ++i) {
    gc.grad.set((i * 11u) % kDim, 0.125 * static_cast<double>(i % 97) - 6.0);
  }
  gc.count = 256;
  const std::size_t modeled = gc.grad.size_bytes();
  result.payload = engine::Payload::wrap(std::move(gc), modeled);
  result.compute_ms = 0.5;
  result.service_ms = 2.0;
  return result;
}

// A delta-chain envelope: the lz4 path's daily bread.
std::vector<std::uint8_t> make_delta_envelope() {
  std::vector<std::pair<std::uint32_t, double>> entries;
  for (std::uint32_t i = 0; i < kNnz; ++i) {
    entries.emplace_back((i * 13u) % kDim, 1.0 / (1.0 + static_cast<double>(i % 53)));
  }
  std::sort(entries.begin(), entries.end());  // a delta's indices ascend
  store::ModelDelta delta;
  delta.parent = 41;
  delta.dim = kDim;
  for (const auto& [index, value] : entries) {
    delta.indices.push_back(index);
    delta.values.push_back(value);
  }
  const std::size_t modeled = delta.wire_bytes();
  return transport::encode_payload_envelope(
      engine::Payload::wrap(std::move(delta), modeled));
}

/// Min-µs ship_result RTT over a freshly started 1-worker transport.
double measure_rtt_us(transport::Backend backend, const engine::TaskResult& result) {
  transport::TransportConfig config;
  config.backend = backend;
  auto transport = transport::make_transport(config, /*num_workers=*/1,
                                             /*network=*/nullptr, /*metrics=*/nullptr);
  if (support::Status s = transport->start(); !s.is_ok()) {
    std::cerr << "FAIL: transport start (" << transport::backend_name(backend)
              << "): " << s.to_string() << "\n";
    std::exit(1);
  }
  double min_us = 0.0;
  for (int i = 0; i < kRttIters; ++i) {
    auto receipt = transport->channel(0).ship_result(result);
    if (!receipt.is_ok()) {
      std::cerr << "FAIL: ship_result (" << transport::backend_name(backend)
                << "): " << receipt.status().to_string() << "\n";
      std::exit(1);
    }
    const double us = static_cast<double>(receipt.value().wire_ns) * 1e-3;
    min_us = i == 0 ? us : std::min(min_us, us);
  }
  transport->stop();
  return min_us;
}

}  // namespace

int main() {
  bench::banner("Micro: transport codec and wire costs",
                "frame codec cost is reported next to the loopback RTT it "
                "rides; the lz4 delta chain compresses; encode∘decode∘encode "
                "is byte-identical");

  const engine::TaskResult result = make_result();
  const transport::TaskResultMsg msg = transport::to_wire(result);
  const std::vector<std::uint8_t> body = transport::encode_task_result(msg);
  const std::vector<std::uint8_t> frame = transport::encode_frame(
      static_cast<std::uint8_t>(transport::FrameKind::kTaskResult), body);

  // 1. Codec throughput, min-of-k over kCodecIters batches.
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_ms();
    for (int i = 0; i < kCodecIters; ++i) {
      const auto encoded = transport::encode_frame(
          static_cast<std::uint8_t>(transport::FrameKind::kTaskResult),
          transport::encode_task_result(msg));
      if (encoded.size() != frame.size()) std::exit(1);
    }
    const double enc = (now_ms() - t0) * 1e6 / kCodecIters;
    encode_ns = rep == 0 ? enc : std::min(encode_ns, enc);

    t0 = now_ms();
    for (int i = 0; i < kCodecIters; ++i) {
      transport::FrameDecoder decoder(64ull << 20);
      std::vector<transport::Frame> frames;
      if (!decoder.feed(frame, frames).is_ok() || frames.size() != 1) std::exit(1);
      transport::TaskResultMsg out;
      const auto bytes = frames[0].message_bytes();
      if (!bytes.is_ok() ||
          !transport::decode_task_result(bytes.value(), out).is_ok()) {
        std::exit(1);
      }
    }
    const double dec = (now_ms() - t0) * 1e6 / kCodecIters;
    decode_ns = rep == 0 ? dec : std::min(decode_ns, dec);
  }

  // 2. lz4 delta ratio: wire body vs raw envelope.
  const std::vector<std::uint8_t> envelope = make_delta_envelope();
  const std::vector<std::uint8_t> lz4_frame = transport::encode_frame_lz4(
      static_cast<std::uint8_t>(transport::FrameKind::kModelDelta), envelope);
  const double raw_bytes = static_cast<double>(envelope.size());
  const double wire_bytes =
      static_cast<double>(lz4_frame.size() - transport::kFrameHeaderBytes);
  // Savings factor, raw/wire — higher is better, matching the other
  // *.bytes_ratio keys bench_diff.py knows how to orient.
  const double ratio = raw_bytes / wire_bytes;

  // 3. Loopback RTT through a real worker process.
  const double uds_us = measure_rtt_us(transport::Backend::kUnixSocket, result);
  const double tcp_us = measure_rtt_us(transport::Backend::kTcp, result);

  // 4. Bit-identity: decode the recorded frames and re-encode canonically.
  bool bit_identical = true;
  {
    const auto reencoded =
        transport::reencode_message(transport::FrameKind::kTaskResult, body);
    bit_identical = reencoded.is_ok() && reencoded.value() == body;
    transport::FrameDecoder decoder(64ull << 20);
    std::vector<transport::Frame> frames;
    if (!decoder.feed(lz4_frame, frames).is_ok() || frames.size() != 1) {
      bit_identical = false;
    } else {
      const auto env_bytes = frames[0].message_bytes();
      bit_identical = bit_identical && env_bytes.is_ok() &&
                      env_bytes.value() == envelope;
    }
  }

  metrics::Table table({"metric", "value"});
  table.add_row({"result frame bytes", std::to_string(frame.size())});
  table.add_row({"encode ns/frame", metrics::Table::num(encode_ns, 1)});
  table.add_row({"decode ns/frame", metrics::Table::num(decode_ns, 1)});
  table.add_row({"lz4 delta ratio", metrics::Table::num(ratio, 4)});
  table.add_row({"unix-socket RTT us", metrics::Table::num(uds_us, 1)});
  table.add_row({"tcp RTT us", metrics::Table::num(tcp_us, 1)});
  table.add_row({"codec bit-identical", bit_identical ? "yes" : "NO"});
  std::cout << "\n";
  table.print(std::cout);

  bench::update_bench_json({
      {"micro_transport.codec.encode_ns", encode_ns},
      {"micro_transport.codec.decode_ns", decode_ns},
      {"micro_transport.codec.frame_bytes", static_cast<double>(frame.size())},
      {"micro_transport.codec.bit_identical", bit_identical ? 1.0 : 0.0},
      {"micro_transport.lz4_delta.raw_bytes", raw_bytes},
      {"micro_transport.lz4_delta.wire_bytes", wire_bytes},
      {"micro_transport.lz4_delta.bytes_ratio", ratio},
      {"micro_transport.rtt.unix_socket_us", uds_us},
      {"micro_transport.rtt.tcp_us", tcp_us},
  });

  if (!bit_identical) {
    std::cerr << "FAIL: encode∘decode∘encode is not byte-identical — the "
                 "canonical-encoding invariant is broken\n";
    return 1;
  }
  if (ratio <= 1.0) {
    std::cerr << "FAIL: lz4 made the delta envelope bigger (savings ratio "
              << ratio << ") — the compressible-shape assumption is broken\n";
    return 1;
  }
  std::cout << "\nshape check: codec ns/frame sits below the socket RTT it "
               "rides; the delta chain compresses (> 1x); bit-identity "
               "holds.\n";
  return 0;
}
