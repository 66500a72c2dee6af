#pragma once

// Sharded model plane: routing feature indices to coordinator shards.
//
// A single coordinator owning the whole model vector caps both model size and
// broadcast fan-out (ROADMAP north star: 10⁸-feature models, >64 workers).
// The ShardMap partitions the feature index space [0, dim) across S shards;
// each shard owns its own delta-versioned ModelStore chain, base-snapshot
// cadence, and GC floor (store/sharded_store.hpp), and sparse workloads fetch
// only the shards their batch-union support touches.
//
// The partition is balanced contiguous ranges (docs/SHARDING.md): base =
// dim/S coordinates per shard, the dim%S remainder spread over the leftmost
// shards, so extract / scatter are memcpys.
//
// Determinism: a ShardMap is a pure function of (dim, S) — the driver and
// every worker derive identical maps, and the per-coordinate placement never
// depends on the data, so sharding can never change which coordinate a
// value lands on (the S=1 bit-exactness argument starts here).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace asyncml::core {

/// Sorted set of shard ids a partition's row-support union touches — the
/// fetch mask of a masked model read (HistoryBroadcast::value(support)).
struct ShardSet {
  std::vector<std::uint32_t> ids;  ///< sorted, unique

  [[nodiscard]] bool empty() const noexcept { return ids.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ids.size(); }
};

class ShardMap {
 public:
  /// Unsharded identity (dim 0, one shard) — the S=1 reference.
  ShardMap() = default;

  /// `num_shards` is clamped to [1, max(1, dim)]: a shard must own at least
  /// one coordinate.
  ShardMap(std::size_t dim, std::uint32_t num_shards);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::uint32_t num_shards() const noexcept { return num_shards_; }

  /// Shard owning global coordinate `index`.
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t index) const noexcept {
    assert(index < dim_);
    // Balanced ranges: the first `rem_` shards hold base_+1 coordinates.
    const std::uint32_t wide = rem_ * (base_ + 1);
    return index < wide ? index / (base_ + 1) : rem_ + (index - wide) / base_;
  }

  /// Index of `index` inside its shard's slice.
  [[nodiscard]] std::uint32_t local_of(std::uint32_t index) const noexcept {
    assert(index < dim_);
    return index - bounds_[shard_of(index)];
  }

  /// Inverse of (shard_of, local_of).
  [[nodiscard]] std::uint32_t global_of(std::uint32_t shard,
                                        std::uint32_t local) const noexcept {
    assert(shard < num_shards_);
    return bounds_[shard] + local;
  }

  /// Number of coordinates shard `shard` owns.
  [[nodiscard]] std::size_t shard_dim(std::uint32_t shard) const noexcept {
    assert(shard < num_shards_);
    return bounds_[shard + 1] - bounds_[shard];
  }

  /// Copies shard `shard`'s slice of the full-dim `w` into `slice`
  /// (slice.size() == shard_dim(shard)).
  void extract(std::uint32_t shard, std::span<const double> w,
               std::span<double> slice) const;

  /// Writes shard `shard`'s slice back into the full-dim `w` — the assembly
  /// kernel of masked model materialization.
  void scatter(std::uint32_t shard, std::span<const double> slice,
               std::span<double> w) const;

  /// True when shard `shard`'s slice of `a` and `b` differ anywhere — the
  /// skip-unchanged-shard test of ShardedModelStore::publish.
  [[nodiscard]] bool slice_differs(std::uint32_t shard, std::span<const double> a,
                                   std::span<const double> b) const;

 private:
  std::size_t dim_ = 0;
  std::uint32_t num_shards_ = 1;
  std::uint32_t base_ = 0;  ///< dim / S
  std::uint32_t rem_ = 0;   ///< dim % S (spread over the left shards)
  std::vector<std::uint32_t> bounds_;  ///< S+1 boundaries
};

}  // namespace asyncml::core
