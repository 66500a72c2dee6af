#pragma once

// Length-prefixed frame layer of the transport plane (docs/TRANSPORT.md).
//
// Every message on a transport channel travels as one frame:
//
//   offset  size  field
//        0     4  magic "AMF1"
//        4     1  type      (low 7 bits = FrameKind, bit 7 = ack)
//        5     1  flags     (bit 0 = body is lz4 block-compressed)
//        6     2  reserved  (must be zero)
//        8     4  body_len  (u32 LE, bytes following the header)
//       12     4  raw_len   (u32 LE, uncompressed body length)
//       16     4  crc32     (u32 LE, support::crc32 of the body as on the wire)
//       20     …  body      (msgpack message, possibly lz4-compressed)
//
// The decoder is incremental — it accepts arbitrary split/coalesced reads —
// and validates the complete header *before* allocating body storage, so a
// lying length field can never drive an allocation past max_frame_bytes.
// Any malformed input poisons the decoder (a byte stream is unrecoverable
// once framing is lost) and every entry point returns Status, never throws.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/status.hpp"

namespace asyncml::transport {

/// Message kinds carried over a channel. Acks echo the request kind with
/// kAckBit set.
enum class FrameKind : std::uint8_t {
  kHello = 1,       ///< connection handshake (wire::HelloMsg)
  kTaskSpec = 2,    ///< dispatch-plane task header (wire::TaskSpecMsg)
  kTaskResult = 3,  ///< result-plane task result (wire::TaskResultMsg)
  kModelBase = 4,   ///< model-plane payload envelope: full base snapshot
  kModelDelta = 5,  ///< model-plane payload envelope: sparse delta (lz4)
  kOpaque = 6,      ///< model-plane payload envelope: unregistered type
  kShutdown = 7,    ///< control: endpoint exits after acking
  kError = 8,       ///< control: decode failure report (wire::ErrorMsg)
};

inline constexpr std::uint8_t kAckBit = 0x80;
inline constexpr std::uint8_t kFlagLz4 = 0x01;
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;

[[nodiscard]] constexpr std::uint8_t ack_type(FrameKind kind) {
  return static_cast<std::uint8_t>(kind) | kAckBit;
}

struct Frame {
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t raw_len = 0;  ///< uncompressed body length
  std::vector<std::uint8_t> body;  ///< as on the wire (compressed if kFlagLz4)

  [[nodiscard]] FrameKind kind() const {
    return static_cast<FrameKind>(type & ~kAckBit);
  }
  [[nodiscard]] bool is_ack() const { return (type & kAckBit) != 0; }
  [[nodiscard]] bool compressed() const { return (flags & kFlagLz4) != 0; }

  /// The uncompressed message bytes: the body itself, or its lz4 decode when
  /// kFlagLz4 is set. Non-OK on a malformed compressed block.
  [[nodiscard]] support::StatusOr<std::vector<std::uint8_t>> message_bytes() const;
};

/// Encodes one frame. `raw_len` is the uncompressed body length (equal to
/// body.size() unless `flags` carries kFlagLz4).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(std::uint8_t type,
                                                     std::uint8_t flags,
                                                     std::span<const std::uint8_t> body,
                                                     std::uint32_t raw_len);

/// Uncompressed convenience overload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(std::uint8_t type,
                                                     std::span<const std::uint8_t> body);

/// Lz4-compresses `body` and emits the frame with kFlagLz4 — unless the
/// compressed form is not smaller, in which case the frame ships raw (the
/// flag tells the decoder which happened).
[[nodiscard]] std::vector<std::uint8_t> encode_frame_lz4(std::uint8_t type,
                                                         std::span<const std::uint8_t> body);

/// Incremental frame decoder. feed() buffers arbitrary chunks and appends
/// every completed frame to `out`; a malformed stream returns non-OK and
/// poisons the decoder permanently.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}

  support::Status feed(std::span<const std::uint8_t> data, std::vector<Frame>& out);

  /// True while a partially received frame (header or body) is pending —
  /// a peer disconnect in this state tore a frame mid-flight.
  [[nodiscard]] bool mid_frame() const { return !buf_.empty(); }
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size(); }
  [[nodiscard]] bool poisoned() const { return poisoned_; }

 private:
  support::Status poison(std::string message);

  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  bool poisoned_ = false;
};

}  // namespace asyncml::transport
