#include "transport/lz4.hpp"

#include <cstring>

namespace asyncml::transport {

using support::Status;
using support::StatusCode;

namespace {

constexpr std::size_t kHashBits = 13;
constexpr std::size_t kMinMatch = 4;
// Format end-of-block rules: the last 5 bytes are always literals and the
// last match must not start within the final 12 bytes.
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMfLimit = 12;
constexpr std::size_t kMaxOffset = 65535;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

void emit_sequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
                   std::size_t lit_len, std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  std::size_t match_nibble = 0;
  if (match_len > 0) {
    const std::size_t m = match_len - kMinMatch;
    match_nibble = m < 15 ? m : 15;
  }
  out.push_back(static_cast<std::uint8_t>(lit_nibble << 4 | match_nibble));
  if (lit_nibble == 15) emit_length(out, lit_len - 15);
  out.insert(out.end(), lit, lit + lit_len);
  if (match_len == 0) return;  // final literal-only sequence
  out.push_back(static_cast<std::uint8_t>(offset));
  out.push_back(static_cast<std::uint8_t>(offset >> 8));
  if (match_nibble == 15) emit_length(out, match_len - kMinMatch - 15);
}

}  // namespace

std::vector<std::uint8_t> lz4_compress(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  out.reserve(lz4_compress_bound(src.size()));
  const std::size_t n = src.size();
  const std::uint8_t* base = src.data();

  if (n < kMfLimit + 1) {
    emit_sequence(out, base, n, 0, 0);
    return out;
  }

  // Positions stored +1 so 0 means "empty slot"; stale entries are verified
  // byte-for-byte before use.
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0u);
  const std::size_t mflimit = n - kMfLimit;
  const std::size_t match_limit = n - kLastLiterals;
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (i < mflimit) {
    const std::uint32_t h = hash4(load32(base + i));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i + 1);
    if (cand != 0) {
      const std::size_t c = cand - 1;
      const std::size_t offset = i - c;
      if (offset > 0 && offset <= kMaxOffset && load32(base + c) == load32(base + i)) {
        std::size_t len = kMinMatch;
        while (i + len < match_limit && base[c + len] == base[i + len]) ++len;
        emit_sequence(out, base + anchor, i - anchor, len, offset);
        i += len;
        anchor = i;
        continue;
      }
    }
    ++i;
  }
  emit_sequence(out, base + anchor, n - anchor, 0, 0);
  return out;
}

Status lz4_decompress(std::span<const std::uint8_t> src, std::span<std::uint8_t> dst) {
  const std::size_t slen = src.size();
  const std::size_t dlen = dst.size();
  std::size_t ip = 0;
  std::size_t op = 0;

  if (slen == 0) {
    return dlen == 0 ? Status::ok()
                     : Status(StatusCode::kInvalidArgument, "lz4: empty block, nonzero raw size");
  }

  while (ip < slen) {
    const std::uint8_t token = src[ip++];

    std::size_t lit = token >> 4;
    if (lit == 15) {
      std::uint8_t b;
      do {
        if (ip >= slen) {
          return Status(StatusCode::kInvalidArgument, "lz4: truncated literal length");
        }
        b = src[ip++];
        lit += b;
      } while (b == 255);
    }
    if (lit > slen - ip) {
      return Status(StatusCode::kInvalidArgument, "lz4: literal run past input end");
    }
    if (lit > dlen - op) {
      return Status(StatusCode::kInvalidArgument, "lz4: literal run past output end");
    }
    if (lit > 0) std::memcpy(dst.data() + op, src.data() + ip, lit);  // dst may be null
    ip += lit;
    op += lit;

    if (ip == slen) break;  // literal-only final sequence

    if (slen - ip < 2) {
      return Status(StatusCode::kInvalidArgument, "lz4: truncated match offset");
    }
    const std::size_t offset =
        static_cast<std::size_t>(src[ip]) | static_cast<std::size_t>(src[ip + 1]) << 8;
    ip += 2;
    if (offset == 0 || offset > op) {
      return Status(StatusCode::kInvalidArgument, "lz4: match offset outside written prefix");
    }

    std::size_t match_len = (token & 0x0Fu) + kMinMatch;
    if ((token & 0x0Fu) == 15) {
      std::uint8_t b;
      do {
        if (ip >= slen) {
          return Status(StatusCode::kInvalidArgument, "lz4: truncated match length");
        }
        b = src[ip++];
        match_len += b;
      } while (b == 255);
    }
    if (match_len > dlen - op) {
      return Status(StatusCode::kInvalidArgument, "lz4: match run past output end");
    }
    // Byte-wise copy: overlapping matches (offset < match_len) replicate the
    // just-written bytes, which is the format's RLE mechanism.
    const std::size_t from = op - offset;
    for (std::size_t k = 0; k < match_len; ++k) {
      dst[op + k] = dst[from + k];
    }
    op += match_len;
  }

  if (op != dlen) {
    return Status(StatusCode::kInvalidArgument,
                  "lz4: decompressed size mismatch (got " + std::to_string(op) +
                      ", expected " + std::to_string(dlen) + ")");
  }
  return Status::ok();
}

}  // namespace asyncml::transport
