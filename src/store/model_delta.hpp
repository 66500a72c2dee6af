#pragma once

// Sparse model delta: the driver→worker payload the store ships instead of a
// full snapshot when a version changed only a mini-batch's support.
//
// A delta stores *assignments* (index, new value) against its parent version
// rather than differences: applying `w[i] = v` reproduces the published model
// bit-for-bit, whereas `w[i] += (v - old)` would accumulate rounding across a
// chain.  The entries are two flat arrays with strictly ascending indices —
// the order the store's diff finds them in, and the order the wire carries —
// so building, applying and encoding a delta are all O(nnz).  The modeled
// wire size is exact:
//
//   u64 nnz header + nnz x (u32 index, f64 value) = 8 + 12*nnz bytes.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/types.hpp"

namespace asyncml::store {

struct ModelDelta {
  /// Version this delta applies on top of (the previously published version).
  engine::Version parent = 0;
  /// Dimension of the model the delta applies to.
  std::size_t dim = 0;
  /// Changed coordinates, strictly ascending, each < dim.
  std::vector<std::uint32_t> indices;
  /// New value of each changed coordinate (same length as indices).
  std::vector<double> values;

  [[nodiscard]] std::size_t nnz() const noexcept { return indices.size(); }

  /// Exact modeled wire size: the nnz header always ships, even for an empty
  /// delta (a republish of an unchanged model).
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return sizeof(std::uint64_t) + nnz() * (sizeof(std::uint32_t) + sizeof(double));
  }

  /// Overwrites the changed coordinates of `w` (the chain-apply kernel, a
  /// plain O(nnz) scatter).
  void apply_to(std::span<double> w) const {
    assert(w.size() == dim && indices.size() == values.size());
    for (std::size_t k = 0; k < indices.size(); ++k) w[indices[k]] = values[k];
  }
};

}  // namespace asyncml::store
