#pragma once

// The pluggable Transport seam (docs/TRANSPORT.md).
//
// A Transport owns one Channel per worker. Every driver↔worker exchange —
// task dispatch headers, task results, broadcast/model payload fetches, and
// control traffic — goes through the worker's Channel as a request/ack round
// trip:
//
//   kInProcess   The deterministic reference. Nothing is serialized; the
//                channel returns the modeled NetworkModel charge for the
//                caller to sleep, exactly reproducing the pre-seam engine.
//   kUnixSocket  The worker's *wire plane* runs as a separate process
//                (tools/asyncml_worker) connected over AF_UNIX. Every
//                message is genuinely framed (msgpack + lz4 on
//                the delta chain), decoded, validated and re-encoded by the
//                remote endpoint, and the bytes the driver consumes are the
//                *decoded* echo — so a codec bug changes trajectories and
//                the conformance suite catches it. Task compute itself stays
//                in-library (closures cannot cross a process boundary);
//                remote execution is the roadmap follow-up.
//
// Failure semantics are fail-stop and uniform across backends: a dead peer
// (SIGKILL, disconnect, I/O deadline) marks the channel dead, the owning
// Worker converts in-flight work to synthesized kUnavailable results, and
// the elastic-membership machinery (docs/FAULTS.md) takes over — identical
// to a kCrashWorker fault.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/metrics.hpp"
#include "engine/network.hpp"
#include "engine/payload.hpp"
#include "engine/task.hpp"
#include "engine/types.hpp"
#include "support/status.hpp"

namespace asyncml::transport {

enum class Backend : std::uint8_t {
  kInProcess = 0,
  kUnixSocket = 1,
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

struct TransportConfig {
  Backend backend = Backend::kInProcess;
  /// Frame decoders reject any frame whose declared body or raw length
  /// exceeds this, before allocating.
  std::size_t max_frame_bytes = 64ull << 20;
  /// Deadline for one blocking I/O step of a round trip (connect, write,
  /// read). Socket waits are poll()-bounded — there are no raw sleeps.
  double io_deadline_ms = 10000.0;
  /// Worker launcher binary for the socket backend. Empty resolves
  /// $ASYNCML_WORKER_BIN, then `asyncml_worker` next to the running binary.
  std::string worker_binary;
};

/// What a result ship handed back: the (decoded) result plus the timing the
/// caller still owes the cost model. The in-process backend performs no I/O
/// and returns the modeled transfer as `charge_ms` (the worker sleeps it,
/// exactly like the pre-seam code); the socket backend already spent real wall
/// time on the wire and report it as `wire_ns` with `charge_ms == 0`.
struct ShipReceipt {
  engine::TaskResult result;
  double charge_ms = 0.0;
  std::uint64_t wire_ns = 0;
};

/// Same contract for a model-plane payload fetch.
struct FetchReceipt {
  engine::Payload payload;
  double charge_ms = 0.0;
};

/// One worker's wire. Thread-safe: a worker's executor threads (results,
/// fetches) and the driver (task dispatch) may call concurrently; socket
/// round trips serialize on an internal mutex.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Round-trips the spec's wire header. On the socket backend the decoded
  /// echo overwrites the spec's wire-visible fields (fn stays local); the
  /// in-process backend leaves the spec untouched. Non-OK means the peer is
  /// unreachable — the caller still delivers the spec so it bounces through
  /// the worker's fail-stop path.
  [[nodiscard]] virtual support::Status ship_task(engine::TaskSpec& spec) = 0;

  /// Round-trips a task result. The returned result is what the driver must
  /// consume (the decoded echo on the socket backend). Non-OK means the result
  /// never left the machine: the worker synthesizes kUnavailable.
  [[nodiscard]] virtual support::StatusOr<ShipReceipt> ship_result(
      engine::TaskResult result) = 0;

  /// Round-trips a broadcast/model payload (delta frames lz4-compressed).
  /// The returned payload carries the original modeled bytes() so charged
  /// accounting is backend-invariant.
  [[nodiscard]] virtual support::StatusOr<FetchReceipt> fetch_payload(
      const engine::Payload& payload, engine::BroadcastClass cls) = 0;

  /// False once the peer is known dead (fail-stop; never flips back).
  [[nodiscard]] virtual bool alive() const = 0;

  /// True when ships do real I/O (the socket backend): the caller measures wall
  /// time instead of sleeping a modeled charge.
  [[nodiscard]] virtual bool is_wire() const = 0;

  [[nodiscard]] virtual engine::WorkerId worker() const = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Brings every channel up (spawns and handshakes worker processes on the
  /// socket backend). Must be called once before channel().
  [[nodiscard]] virtual support::Status start() = 0;

  /// Sends shutdown frames, closes channels, reaps worker processes.
  /// Idempotent.
  virtual void stop() = 0;

  [[nodiscard]] virtual Channel& channel(engine::WorkerId worker) = 0;
  [[nodiscard]] virtual Backend backend() const = 0;

  /// Chaos hook: hard-kills worker `w`'s peer. SIGKILL on the socket
  /// backends (the wire discovers the death on the next I/O); an immediate
  /// dead-mark in-process.
  virtual void kill_worker(engine::WorkerId worker) = 0;
};

/// Builds the configured backend. `network` and `metrics` may outlive the
/// transport and must stay valid while it runs; `network` drives the
/// in-process modeled charges, `metrics` receives the per-channel wire
/// counters (either may be null in tests).
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    const TransportConfig& config, int num_workers,
    const engine::NetworkModel* network, engine::ClusterMetrics* metrics);

}  // namespace asyncml::transport
