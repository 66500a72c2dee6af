#include "transport/frame.hpp"

#include <array>
#include <cstring>

#include "support/crc32.hpp"
#include "transport/lz4.hpp"

namespace asyncml::transport {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'A', 'M', 'F', '1'};

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

bool valid_kind(std::uint8_t type) {
  const std::uint8_t kind = type & ~kAckBit;
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kError);
}

}  // namespace

StatusOr<std::vector<std::uint8_t>> Frame::message_bytes() const {
  if (!compressed()) {
    if (raw_len != body.size()) {
      return Status(StatusCode::kInvalidArgument,
                    "frame raw_len disagrees with uncompressed body length");
    }
    return body;
  }
  std::vector<std::uint8_t> raw(raw_len);
  if (Status s = lz4_decompress(body, raw); !s.is_ok()) return s;
  return raw;
}

std::vector<std::uint8_t> encode_frame(std::uint8_t type, std::uint8_t flags,
                                       std::span<const std::uint8_t> body,
                                       std::uint32_t raw_len) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + body.size());
  std::uint8_t* h = out.data();
  std::memcpy(h, kMagic.data(), kMagic.size());
  h[4] = type;
  h[5] = flags;
  h[6] = 0;
  h[7] = 0;
  put_u32le(h + 8, static_cast<std::uint32_t>(body.size()));
  put_u32le(h + 12, raw_len);
  put_u32le(h + 16, support::crc32(body));
  if (!body.empty()) {
    std::memcpy(h + kFrameHeaderBytes, body.data(), body.size());
  }
  return out;
}

std::vector<std::uint8_t> encode_frame(std::uint8_t type,
                                       std::span<const std::uint8_t> body) {
  return encode_frame(type, 0, body, static_cast<std::uint32_t>(body.size()));
}

std::vector<std::uint8_t> encode_frame_lz4(std::uint8_t type,
                                           std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> packed = lz4_compress(body);
  if (packed.size() >= body.size()) {
    return encode_frame(type, body);
  }
  return encode_frame(type, kFlagLz4, packed,
                      static_cast<std::uint32_t>(body.size()));
}

Status FrameDecoder::poison(std::string message) {
  poisoned_ = true;
  buf_.clear();
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status FrameDecoder::feed(std::span<const std::uint8_t> data, std::vector<Frame>& out) {
  if (poisoned_) {
    return Status(StatusCode::kFailedPrecondition,
                  "frame decoder poisoned by earlier malformed input");
  }
  buf_.insert(buf_.end(), data.begin(), data.end());

  std::size_t consumed = 0;
  while (buf_.size() - consumed >= kFrameHeaderBytes) {
    const std::uint8_t* h = buf_.data() + consumed;
    if (std::memcmp(h, kMagic.data(), kMagic.size()) != 0) {
      return poison("bad frame magic");
    }
    const std::uint8_t type = h[4];
    const std::uint8_t flags = h[5];
    if (!valid_kind(type)) {
      return poison("unknown frame type " + std::to_string(type));
    }
    if ((flags & ~kFlagLz4) != 0) {
      return poison("unknown frame flags " + std::to_string(flags));
    }
    if (h[6] != 0 || h[7] != 0) {
      return poison("nonzero reserved frame bytes");
    }
    const std::uint32_t body_len = get_u32le(h + 8);
    const std::uint32_t raw_len = get_u32le(h + 12);
    const std::uint32_t crc = get_u32le(h + 16);
    // Allocation guard: both lengths are validated against the cap before any
    // body storage is reserved — a lying length field cannot drive memory use.
    if (body_len > max_frame_ || raw_len > max_frame_) {
      return poison("oversized frame: body_len=" + std::to_string(body_len) +
                    " raw_len=" + std::to_string(raw_len) + " exceeds cap " +
                    std::to_string(max_frame_));
    }
    if ((flags & kFlagLz4) == 0 && raw_len != body_len) {
      return poison("uncompressed frame with raw_len != body_len");
    }
    if (buf_.size() - consumed < kFrameHeaderBytes + body_len) break;

    Frame frame;
    frame.type = type;
    frame.flags = flags;
    frame.raw_len = raw_len;
    const std::uint8_t* body = h + kFrameHeaderBytes;
    frame.body.assign(body, body + body_len);
    if (support::crc32(frame.body) != crc) {
      return poison("frame crc mismatch");
    }
    out.push_back(std::move(frame));
    consumed += kFrameHeaderBytes + body_len;
  }
  if (consumed > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return Status::ok();
}

}  // namespace asyncml::transport
