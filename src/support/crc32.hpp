#pragma once

// IEEE CRC-32 (the zlib/PNG polynomial, reflected, table-driven).
//
// One implementation serves every integrity check in the tree: the transport
// frames (transport/frame.cpp) and the disk tier's blob + manifest records
// (store/disk/).  The disk store must not depend on the transport layer,
// hence the home here in support/.
//
// The loop is slicing-by-8: eight constexpr 256-entry tables fold 8 bytes
// per step, read as two little-endian words assembled from bytes, so there
// is one portable path with no intrinsics and no CPU dispatch; a byte loop
// takes the tail.  On a 4-vCPU x86 host it runs at 1.7–1.9 GB/s, against
// 0.36 GB/s for one lookup per byte: 3.4–3.7 µs instead of 18 µs for the
// 6 476-byte result frame sgd-epsilon-durable ships, which each socket round
// trip checksums four times.  PCLMUL folding is not taken: it could save at
// most those ~3.5 µs per pass (~14 µs per round trip), while that workload's
// disk-tier writer, at ~0.7–0.8 ms per record and busy ~0.9 of the run, is
// what caps it, so a second, dispatched path would buy nothing end to end.
// tests/reference/crc32_bytewise.hpp keeps the byte loop as the oracle.

#include <cstdint>
#include <span>

namespace asyncml::support {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor, polynomial 0xEDB88320).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: `crc32_update(crc32_init(), chunk)` chained over chunks,
/// then `crc32_final` — equal to crc32() over the concatenation.
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::span<const std::uint8_t> data);
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

}  // namespace asyncml::support
