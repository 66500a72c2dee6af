#include "support/crc32.hpp"

#include <array>
#include <cstddef>

namespace asyncml::support {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][b] is the CRC contribution of
// byte b followed by k zero bytes, so one step folds 8 bytes with 8 lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Assembled from bytes, so the result does not depend on host endianness;
// compilers fold it into one load on little-endian targets.
std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ get_u32le(p);
    const std::uint32_t hi = get_u32le(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace asyncml::support
