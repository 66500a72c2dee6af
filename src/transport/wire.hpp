#pragma once

// Typed wire schema: msgpack encodings of everything that crosses a channel.
//
// Encodings are *canonical*: for a given value the encoder always produces
// the same bytes (sparse gradient entries are emitted in ascending index
// order), so encode∘decode∘encode is byte-identical — the endpoint relay and
// the conformance/bench bit-identity checks depend on it. Double fields ride
// as msgpack float64 (exact bit pattern), and decoded gradient vectors
// preserve the source's representation (dense stays dense, sparse stays
// sparse, the configured densify threshold rides along), so decoded values —
// and their modeled `size_bytes()` — are bit-for-bit what was encoded.
//
// Payload codecs exist for the engine's gradient-bearing types (GradCount,
// GradHist, GradVector, DenseVector, ModelDelta). Any other payload type
// crosses as *opaque*: the frame carries only (kind, modeled byte size) and
// the receiver reuses its local object — honest metadata-only traffic for
// types whose bytes never mattered to the cost model (captured datasets,
// test scalars).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/payload.hpp"
#include "engine/task.hpp"
#include "engine/types.hpp"
#include "support/status.hpp"
#include "transport/frame.hpp"

namespace asyncml::linalg {
class GradVector;
}

namespace asyncml::transport {

inline constexpr std::uint32_t kProtocolVersion = 1;

// ---------------------------------------------------------------------------
// Control messages.

struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::int32_t worker = -1;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloMsg& msg);
[[nodiscard]] support::Status decode_hello(std::span<const std::uint8_t> body,
                                           HelloMsg& out);

struct ErrorMsg {
  std::uint32_t code = 0;  ///< support::StatusCode numeric value
  std::string message;
};

[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorMsg& msg);
[[nodiscard]] support::Status decode_error(std::span<const std::uint8_t> body,
                                           ErrorMsg& out);

/// Materializes a decoded ErrorMsg as the Status it reports (a bad code
/// byte degrades to kInternal rather than failing).
[[nodiscard]] support::Status error_to_status(const ErrorMsg& msg);

// ---------------------------------------------------------------------------
// Dispatch plane: the serializable header of a TaskSpec. The task function
// itself never crosses the wire (closures are a library artifact); the
// fields below are what a remote executor would need to schedule and seed
// the task, and they round-trip verbatim.

struct TaskSpecMsg {
  engine::TaskId id = 0;
  std::int32_t partition = engine::kNoPartition;
  std::uint64_t seq = 0;
  engine::Version model_version = 0;
  double service_floor_ms = 0.0;
  std::uint64_t rng_seed = 0;
  double migration_ms = 0.0;
};

[[nodiscard]] TaskSpecMsg to_wire(const engine::TaskSpec& spec);
/// Overwrites the wire-visible fields of `spec` with the decoded image
/// (fn/enqueued_at stay local).
void apply_wire(const TaskSpecMsg& msg, engine::TaskSpec& spec);

[[nodiscard]] std::vector<std::uint8_t> encode_task_spec(const TaskSpecMsg& msg);
[[nodiscard]] support::Status decode_task_spec(std::span<const std::uint8_t> body,
                                               TaskSpecMsg& out);

// ---------------------------------------------------------------------------
// Payload codecs.

enum class PayloadKind : std::uint8_t {
  kNone = 0,         ///< empty payload (failed task)
  kOpaque = 1,       ///< unregistered type: metadata-only
  kGradCount = 2,    ///< optim::GradCount
  kGradHist = 3,     ///< optim::GradHist
  // 4 held a bare linalg::GradVector; it is refused like any unknown kind.
  kDenseVector = 5,  ///< linalg::DenseVector (base snapshots)
  kModelDelta = 6,   ///< store::ModelDelta (delta chain)
};

struct EncodedPayload {
  PayloadKind kind = PayloadKind::kNone;
  std::uint64_t modeled_bytes = 0;  ///< the cost model's Payload::bytes()
  std::vector<std::uint8_t> body;   ///< empty for kNone/kOpaque
};

/// Serializes a payload; unregistered types yield kOpaque with an empty body.
[[nodiscard]] EncodedPayload encode_payload(const engine::Payload& payload);

/// Reconstructs a payload from its encoding. The result carries
/// `modeled_bytes` as its Payload::bytes() so charged accounting is
/// backend-invariant. kOpaque requires `opaque_source` (the local original);
/// without one it fails kInvalidArgument.
[[nodiscard]] support::StatusOr<engine::Payload> decode_payload(
    PayloadKind kind, std::span<const std::uint8_t> body, std::uint64_t modeled_bytes,
    const engine::Payload* opaque_source);

// ---------------------------------------------------------------------------
// Model plane: a self-delimiting payload envelope [kind, modeled_bytes,
// body] used by the broadcast/delta fetch frames.

[[nodiscard]] std::vector<std::uint8_t> encode_payload_envelope(
    const engine::Payload& payload);
[[nodiscard]] support::StatusOr<engine::Payload> decode_payload_envelope(
    std::span<const std::uint8_t> body, const engine::Payload* opaque_source);

/// Frame kind an envelope for `payload` travels under: kModelDelta for the
/// delta chain (the lz4-compressed path), kModelBase for dense snapshots,
/// kOpaque otherwise.
[[nodiscard]] FrameKind envelope_frame_kind(const engine::Payload& payload);

// ---------------------------------------------------------------------------
// Result plane.

struct TaskResultMsg {
  engine::TaskId id = 0;
  std::int32_t worker = 0;
  std::int32_t partition = engine::kNoPartition;
  std::uint64_t seq = 0;
  engine::Version model_version = 0;
  std::uint32_t status_code = 0;
  std::string status_message;
  double compute_ms = 0.0;
  double service_ms = 0.0;
  PayloadKind payload_kind = PayloadKind::kNone;
  std::uint64_t payload_modeled_bytes = 0;
  std::vector<std::uint8_t> payload_body;
};

[[nodiscard]] TaskResultMsg to_wire(const engine::TaskResult& result);
/// Rebuilds an engine result from the decoded image; `opaque_source` supplies
/// the local payload object for kOpaque. finished_at is left unset (the
/// worker stamps it at delivery).
[[nodiscard]] support::StatusOr<engine::TaskResult> from_wire(
    const TaskResultMsg& msg, const engine::Payload* opaque_source);

[[nodiscard]] std::vector<std::uint8_t> encode_task_result(const TaskResultMsg& msg);
[[nodiscard]] support::Status decode_task_result(std::span<const std::uint8_t> body,
                                                 TaskResultMsg& out);

// ---------------------------------------------------------------------------
// Endpoint relay helper: decodes a request body of `kind` and re-encodes it
// from the decoded form (full typed round trip for registered payloads).

[[nodiscard]] support::StatusOr<std::vector<std::uint8_t>> reencode_message(
    FrameKind frame_kind, std::span<const std::uint8_t> body);

}  // namespace asyncml::transport
