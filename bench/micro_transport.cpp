// Microbenchmark — the transport layer's codec and wire costs.
//
// Four numbers the transport design hinges on (docs/TRANSPORT.md):
//
//   1. Frame codec cost: ns to encode / decode a gradient-bearing result
//      frame in two shapes, the rcv1-shaped sparse GradCount (~48 KB,
//      micro_transport.codec.*) and the 800-dim dense GradCount that
//      sgd-epsilon-durable ships (6 476 B, micro_transport.dense.*), plus
//      the CRC-32 every frame carries (micro_transport.crc32.ns_64k, one
//      64 KiB buffer). The codec sits on every socket-backend round trip,
//      four passes per trip. The checked-in baseline measures ~28 µs encode
//      and ~40 µs decode of the 48 KB frame against a ~311 µs Unix-socket
//      RTT (micro_transport.rtt.*), so the codec is a visible share of the
//      trip, not noise under it.
//   2. lz4 delta ratio: wire bytes / raw bytes for a delta-chain envelope
//      (micro_transport.lz4_delta.bytes_ratio). The sparse [index, float64]
//      stream is the compressible shape the delta chain ships all day.
//   3. Unix-socket RTT: min µs for a full ship_result round trip — encode,
//      socket, endpoint decode + canonical re-encode, ack, decode — with a
//      real worker process.
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
#include "support/crc32.hpp"
#include "transport/frame.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

using namespace asyncml;

namespace {

constexpr int kCodecIters = 2000;
constexpr int kCrcIters = 200;
constexpr int kRttIters = 400;
constexpr int kReps = 3;
constexpr std::uint32_t kDim = 47236;  // rcv1 feature count
constexpr std::uint32_t kNnz = 4000;
constexpr std::uint32_t kDenseDim = 800;  // epsilon stand-in feature count

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

// The frame sgd-epsilon-durable ships: an 800-dim dense GradCount result.
engine::TaskResult make_dense_result() {
  engine::TaskResult result;
  result.id = 200;
  result.worker = 0;
  result.partition = 3;
  result.seq = 12;
  result.model_version = 9;
  optim::GradCount gc;
  gc.grad = linalg::GradVector(linalg::GradVectorConfig(kDenseDim, 0.1, true));
  std::vector<double> values(kDenseDim);
  for (std::uint32_t i = 0; i < kDenseDim; ++i) {
    values[i] = 0.001 * static_cast<double>(i % 211) - 0.1;
  }
  gc.grad.assign_dense(values);
  gc.count = 100;
  const std::size_t modeled = gc.grad.size_bytes();
  result.payload = engine::Payload::wrap(std::move(gc), modeled);
  result.compute_ms = 0.5;
  result.service_ms = 2.0;
  return result;
}

struct CodecNs {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t frame_bytes = 0;
};

/// Min-of-k ns to encode `result` into a result frame and to decode that
/// frame back, each rep averaged over kCodecIters frames.
CodecNs measure_codec(const engine::TaskResult& result) {
  const transport::TaskResultMsg msg = transport::to_wire(result);
  const std::vector<std::uint8_t> frame = transport::encode_frame(
      static_cast<std::uint8_t>(transport::FrameKind::kTaskResult),
      transport::encode_task_result(msg));
  CodecNs out;
  out.frame_bytes = frame.size();
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_ms();
    for (int i = 0; i < kCodecIters; ++i) {
      const auto encoded = transport::encode_frame(
          static_cast<std::uint8_t>(transport::FrameKind::kTaskResult),
          transport::encode_task_result(msg));
      if (encoded.size() != frame.size()) std::exit(1);
    }
    const double enc = (now_ms() - t0) * 1e6 / kCodecIters;
    out.encode_ns = rep == 0 ? enc : std::min(out.encode_ns, enc);

    t0 = now_ms();
    for (int i = 0; i < kCodecIters; ++i) {
      transport::FrameDecoder decoder(64ull << 20);
      std::vector<transport::Frame> frames;
      if (!decoder.feed(frame, frames).is_ok() || frames.size() != 1) std::exit(1);
      transport::TaskResultMsg decoded;
      const auto bytes = frames[0].message_bytes();
      if (!bytes.is_ok() ||
          !transport::decode_task_result(bytes.value(), decoded).is_ok()) {
        std::exit(1);
      }
    }
    const double dec = (now_ms() - t0) * 1e6 / kCodecIters;
    out.decode_ns = rep == 0 ? dec : std::min(out.decode_ns, dec);
  }
  return out;
}

/// Min-of-k ns for one support::crc32 over a 64 KiB buffer.
double measure_crc_ns_64k() {
  std::vector<std::uint8_t> buffer(64u << 10);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  volatile std::uint32_t sink = 0;
  double min_ns = 0.0;
  for (int i = 0; i < kCrcIters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = support::crc32(buffer);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    min_ns = i == 0 ? ns : std::min(min_ns, ns);
  }
  static_cast<void>(sink);
  return min_ns;
}

/// Min-µs ship_result RTT over a freshly started 1-worker Unix-socket
/// transport.
double measure_rtt_us(const engine::TaskResult& result) {
  transport::TransportConfig config;
  config.backend = transport::Backend::kUnixSocket;
  auto transport = transport::make_transport(config, /*num_workers=*/1,
                                             /*network=*/nullptr, /*metrics=*/nullptr);
  if (support::Status s = transport->start(); !s.is_ok()) {
    std::cerr << "FAIL: transport start: " << s.to_string() << "\n";
    std::exit(1);
  }
  double min_us = 0.0;
  for (int i = 0; i < kRttIters; ++i) {
    auto receipt = transport->channel(0).ship_result(result);
    if (!receipt.is_ok()) {
      std::cerr << "FAIL: ship_result: " << receipt.status().to_string() << "\n";
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

  // 1. Codec cost of both result shapes, and the CRC-32 inside it.
  const CodecNs sparse = measure_codec(result);
  const CodecNs dense = measure_codec(make_dense_result());
  const double crc_ns_64k = measure_crc_ns_64k();

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

  // 3. Unix-socket RTT through a real worker process.
  const double uds_us = measure_rtt_us(result);

  // 4. Bit-identity: decode the recorded frames and re-encode canonically.
  bool bit_identical = true;
  {
    const std::vector<std::uint8_t> body =
        transport::encode_task_result(transport::to_wire(result));
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
  table.add_row({"sparse result frame bytes", std::to_string(sparse.frame_bytes)});
  table.add_row({"sparse encode ns/frame", metrics::Table::num(sparse.encode_ns, 1)});
  table.add_row({"sparse decode ns/frame", metrics::Table::num(sparse.decode_ns, 1)});
  table.add_row({"dense result frame bytes", std::to_string(dense.frame_bytes)});
  table.add_row({"dense encode ns/frame", metrics::Table::num(dense.encode_ns, 1)});
  table.add_row({"dense decode ns/frame", metrics::Table::num(dense.decode_ns, 1)});
  table.add_row({"crc32 ns/64 KiB", metrics::Table::num(crc_ns_64k, 1)});
  table.add_row({"lz4 delta ratio", metrics::Table::num(ratio, 4)});
  table.add_row({"unix-socket RTT us", metrics::Table::num(uds_us, 1)});
  table.add_row({"codec bit-identical", bit_identical ? "yes" : "NO"});
  std::cout << "\n";
  table.print(std::cout);

  bench::update_bench_json({
      {"micro_transport.codec.encode_ns", sparse.encode_ns},
      {"micro_transport.codec.decode_ns", sparse.decode_ns},
      {"micro_transport.codec.frame_bytes", static_cast<double>(sparse.frame_bytes)},
      {"micro_transport.codec.bit_identical", bit_identical ? 1.0 : 0.0},
      {"micro_transport.dense.encode_ns", dense.encode_ns},
      {"micro_transport.dense.decode_ns", dense.decode_ns},
      {"micro_transport.dense.frame_bytes", static_cast<double>(dense.frame_bytes)},
      {"micro_transport.crc32.ns_64k", crc_ns_64k},
      {"micro_transport.lz4_delta.raw_bytes", raw_bytes},
      {"micro_transport.lz4_delta.wire_bytes", wire_bytes},
      {"micro_transport.lz4_delta.bytes_ratio", ratio},
      {"micro_transport.rtt.unix_socket_us", uds_us},
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
