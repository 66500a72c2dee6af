#pragma once

// Worker-side versioned model cache: the consumer half of the delta store.
//
// value_at(v) asks the store for the cheapest chain from v down to this
// cache's nearest materialized ancestor (or a base snapshot, when that costs
// fewer wire bytes), fetches only the missing links — each charged
// individually through the worker's BroadcastCache/NetworkModel, base links
// as BroadcastClass::kSnapshot and delta links as kDelta — and materializes
// the dense model by applying the overwrite deltas in O(Σ nnz).  A version
// already materialized is a pure cache hit: no wire traffic, no payload
// lookups.
//
// A miss costs O(chain links), independent of how many versions the cache
// holds: the store's walk probes this cache's materialized set link by link
// (AnchorProbe) instead of receiving a copy of it.  The probe runs with the
// cache mutex held across ModelStore::chain_for, so the lock order is
// cache → store — the same as the commit path's re-check against the store
// entry.  Nothing takes store → cache: the store calls drop_below/invalidate
// only after releasing its own mutex.
//
// Resolution is single-flight per cache: when both executor threads of a
// worker need new versions at once, the second waits for the first and then
// anchors on its materialization instead of re-fetching almost the same
// chain (one worker, one wire).
//
// Base snapshots are materialized zero-copy by aliasing the broadcast payload
// (Payload::share), so a chain's base costs memory once regardless of how
// many caches anchor on it.
//
// value_at hands out a counted handle, and a reader holds it for as long as
// it reads.  That lets a resolve advance a model in place: when the chain's
// head is a materialization this cache allocated itself and the map holds
// its only reference, the resolve takes it out of the map and applies the
// deltas to it, instead of copying O(dim) for every new version.  Deltas
// are overwrites, so the values are the same bits whichever buffer receives
// them.  A base alias is never written.
//
// Thread safety: all methods are safe to call from the worker's executor
// threads concurrently with driver-side publish/GC.  A returned handle keeps
// its model's bits unchanged for as long as it is held, GC or not.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/broadcast.hpp"
#include "engine/types.hpp"
#include "linalg/dense_vector.hpp"

namespace asyncml::store {

class ModelStore;

class VersionedModelCache {
 public:
  /// `bcache`/`metrics` may be null (the driver-side cache): resolution then
  /// reads payloads without charging.
  VersionedModelCache(const ModelStore* store, engine::BroadcastCache* bcache,
                      engine::ClusterMetrics* metrics)
      : store_(store), bcache_(bcache), metrics_(metrics) {}

  VersionedModelCache(const VersionedModelCache&) = delete;
  VersionedModelCache& operator=(const VersionedModelCache&) = delete;

  /// The dense model at `version`.  Materialized hit = free; miss fetches
  /// exactly the chain links missing from this worker and charges their exact
  /// wire bytes, planning the chain in O(links).  Aborts (via
  /// ModelStore::chain_for) on unknown/GC'd versions.
  [[nodiscard]] std::shared_ptr<const linalg::DenseVector> value_at(
      engine::Version version);

  /// True if `version` is materialized locally (value_at would be free).
  [[nodiscard]] bool contains(engine::Version version) const;

  /// Number of materialized versions held.
  [[nodiscard]] std::size_t size() const;

  // -- ModelStore hooks -------------------------------------------------------

  /// GC propagation: drops materialized versions < `min_version` and evicts
  /// the exact erased broadcast ids from the worker's payload cache.
  void drop_below(engine::Version min_version,
                  const std::vector<engine::BroadcastId>& erased_ids);

  /// Republish propagation: invalidates one version's materialization.
  void invalidate(engine::Version version,
                  const std::vector<engine::BroadcastId>& erased_ids);

 private:
  const ModelStore* store_;
  engine::BroadcastCache* bcache_;   ///< null on the driver — no charging
  engine::ClusterMetrics* metrics_;  ///< null on the driver
  /// One materialized version.
  struct Materialized {
    std::shared_ptr<const linalg::DenseVector> model;
    /// Allocated by this cache (non-const), not an alias of a broadcast
    /// payload: the only kind a resolve may advance in place.
    bool owned = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable resolved_cv_;
  std::unordered_map<engine::Version, Materialized> models_;
  std::unordered_set<engine::Version> inflight_;  ///< single-flight latches
};

}  // namespace asyncml::store
