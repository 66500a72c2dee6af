// The slicing-by-8 CRC-32 every frame, blob and manifest record carries
// (support/crc32.hpp) against the byte-at-a-time oracle
// (tests/reference/crc32_bytewise.hpp): every short length at every start
// alignment, a long buffer, chunked updates, and the standard check values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "reference/crc32_bytewise.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"

namespace asyncml::support {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Lengths 0–1031 cover every tail length (0–7) after 0–128 whole 8-byte
// steps; offsets 0–7 start the steps at every alignment.
TEST(Crc32, MatchesBytewiseOracleAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 1031;
  const std::vector<std::uint8_t> buffer = random_bytes(kMaxLen + 8, 18);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, len);
      ASSERT_EQ(crc32(data), reference::crc32_bytewise(data))
          << "offset " << offset << " len " << len;
    }
  }
  const std::vector<std::uint8_t> large = random_bytes((64u << 10) + 5, 19);
  EXPECT_EQ(crc32(large), reference::crc32_bytewise(large));
}

TEST(Crc32, ChainedUpdatesOverRandomSplitsMatchOneShot) {
  RngStream rng(20);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<std::uint8_t> data = random_bytes(rng() % 4096, 100 + trial);
    std::vector<std::size_t> cuts(rng() % 8);
    for (std::size_t& cut : cuts) cut = rng() % (data.size() + 1);
    cuts.push_back(data.size());
    std::sort(cuts.begin(), cuts.end());

    std::uint32_t state = crc32_init();
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
      state = crc32_update(state, std::span(data).subspan(begin, cut - begin));
      begin = cut;
    }
    ASSERT_EQ(crc32_final(state), crc32(data))
        << "trial " << trial << " size " << data.size() << " cuts " << cuts.size();
  }
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>(32, 0)), 0x190A55ADu);
}

}  // namespace
}  // namespace asyncml::support
