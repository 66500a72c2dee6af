#pragma once

// Broadcast machinery: driver-side store, worker-side cache, typed handle.
//
// Mirrors Spark's broadcast-variable design: the driver registers a value
// under a unique id; tasks carry only the id; the first access on a worker
// fetches the value (charged to the network model) and caches it, so repeated
// accesses are free.  The ASYNCbroadcaster of the paper builds on this by
// keying history entries as (broadcast id, version) pairs — see
// core/history.hpp.

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "engine/metrics.hpp"
#include "engine/network.hpp"
#include "engine/payload.hpp"
#include "engine/types.hpp"

namespace asyncml::transport {
class Channel;
}  // namespace asyncml::transport

namespace asyncml::engine {

/// Driver-side authoritative map id -> payload. Thread-safe.
class BroadcastStore {
 public:
  /// Registers a payload and returns its id.
  BroadcastId put(Payload payload);

  /// Looks up a payload; returns an empty payload when absent.
  [[nodiscard]] Payload get(BroadcastId id) const;

  /// Removes one entry; no-op if absent. There is deliberately no id-threshold
  /// prune: broadcast-id order is registration order, not version order, so a
  /// threshold would erase unrelated broadcasts that happen to have been
  /// registered mid-run — owners erase their exact ids instead.
  void erase(BroadcastId id);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<BroadcastId, Payload> entries_;
  BroadcastId next_id_ = 1;
};

/// Per-worker cache with fetch-through to the store. A miss charges the
/// network model (sleep) and counts fetched bytes; a hit is free — this is
/// exactly the saving the ASYNCbroadcaster exploits for historical gradients.
///
/// With a transport channel attached, a miss instead round-trips the payload
/// over the worker's wire (transport/transport.hpp): the in-process backend
/// returns the same modeled charge to sleep, the socket backends spend real
/// wall time and hand back the decoded echo, which is what gets cached.
class BroadcastCache {
 public:
  BroadcastCache(const BroadcastStore* store, const NetworkModel* net,
                 ClusterMetrics* metrics, transport::Channel* channel = nullptr)
      : store_(store), net_(net), metrics_(metrics), channel_(channel) {}

  /// Returns the payload for `id`, fetching and caching on first access.
  /// `cls` labels the charged bytes for the base/delta traffic split.
  [[nodiscard]] Payload get_or_fetch(BroadcastId id,
                                     BroadcastClass cls = BroadcastClass::kSnapshot);

  /// Caches a payload the caller already holds (a chain link snapshotted by
  /// the model store): a hit is free, a miss charges the transfer exactly
  /// like get_or_fetch but without re-reading the driver store — so a payload
  /// pinned before a concurrent GC still resolves. Returns the cached copy.
  [[nodiscard]] Payload admit(BroadcastId id, const Payload& payload,
                              BroadcastClass cls = BroadcastClass::kSnapshot);

  /// True if `id` is locally cached (no fetch).
  [[nodiscard]] bool contains(BroadcastId id) const;

  /// Drops one cached entry; no-op if absent. Exact-id eviction for the same
  /// reason BroadcastStore has no threshold prune (ids are not version-ordered).
  void erase(BroadcastId id);

  [[nodiscard]] std::size_t size() const;

 private:
  /// Charges and inserts `payload` under `id` unless already cached.
  Payload charge_and_cache(BroadcastId id, Payload payload, BroadcastClass cls);

  const BroadcastStore* store_;
  const NetworkModel* net_;
  ClusterMetrics* metrics_;
  transport::Channel* channel_;
  mutable std::mutex mutex_;
  std::unordered_map<BroadcastId, Payload> cache_;
};

// Thread-local pointer to the executing worker's environment; set by the
// worker loop for the duration of a task. Broadcast handles use it to route
// value() through the worker's cache when called from task code; the model
// store uses it to find the worker's versioned model cache and metrics.
struct WorkerEnv {
  WorkerId id = -1;
  BroadcastCache* cache = nullptr;
  ClusterMetrics* metrics = nullptr;
};

[[nodiscard]] WorkerEnv* current_worker_env() noexcept;
void set_current_worker_env(WorkerEnv* env) noexcept;

/// Typed broadcast handle, copyable into task closures (like Spark's
/// `Broadcast[T]`). On the driver, value() reads the store directly; inside a
/// task it goes through the worker's cache.
template <typename T>
class Broadcast {
 public:
  Broadcast() = default;
  Broadcast(BroadcastId id, const BroadcastStore* store) : id_(id), store_(store) {}

  [[nodiscard]] BroadcastId id() const noexcept { return id_; }
  [[nodiscard]] bool valid() const noexcept { return store_ != nullptr; }

  [[nodiscard]] const T& value() const {
    if (WorkerEnv* env = current_worker_env(); env != nullptr && env->cache != nullptr) {
      // Payloads are shared_ptr-backed; the cache keeps the object alive for
      // the worker's lifetime, so returning a reference is safe.
      return env->cache->get_or_fetch(id_).template get<T>();
    }
    return store_->get(id_).template get<T>();
  }

 private:
  BroadcastId id_ = 0;
  const BroadcastStore* store_ = nullptr;
};

}  // namespace asyncml::engine
