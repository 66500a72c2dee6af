#pragma once

// The byte-at-a-time CRC-32: one table lookup per byte. Production runs the
// slicing-by-8 loop of support/crc32.cpp; this header is the oracle it must
// match on every length, alignment and chunking (tests/support/crc32_test.cpp).
// Nothing under src/ includes it.

#include <array>
#include <cstdint>
#include <span>

#include "support/crc32.hpp"

namespace asyncml::support::reference {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

[[nodiscard]] inline std::uint32_t crc32_bytewise_update(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    state = kCrcTable[(state ^ b) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

[[nodiscard]] inline std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  return crc32_final(crc32_bytewise_update(crc32_init(), data));
}

}  // namespace asyncml::support::reference
