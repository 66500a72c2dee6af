#include "engine/broadcast.hpp"

#include "support/thread_util.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/transport.hpp"

namespace asyncml::engine {

BroadcastId BroadcastStore::put(Payload payload) {
  std::lock_guard lock(mutex_);
  const BroadcastId id = next_id_++;
  entries_.emplace(id, std::move(payload));
  return id;
}

Payload BroadcastStore::get(BroadcastId id) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? Payload{} : it->second;
}

void BroadcastStore::erase(BroadcastId id) {
  std::lock_guard lock(mutex_);
  entries_.erase(id);
}

std::size_t BroadcastStore::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

Payload BroadcastCache::get_or_fetch(BroadcastId id, BroadcastClass cls) {
  // Fetch-through from task code (data partitions, history payloads) counts
  // as the calling task's model-fetch/materialize segment. The model chain
  // walk charges through admit() under VersionedModelCache::value_at's own
  // timer, so this never double-counts.
  telemetry::ScopedStageTimer fetch_timer(telemetry::Stage::kModelFetch);
  {
    std::lock_guard lock(mutex_);
    if (const auto it = cache_.find(id); it != cache_.end()) {
      if (metrics_ != nullptr) metrics_->broadcast_hits.add(1);
      return it->second;
    }
  }
  // Miss: fetch from the driver store, charging transfer time. The fetch is
  // done outside the cache lock so slow transfers don't serialize the other
  // executor thread of this worker.
  Payload payload = store_->get(id);
  if (!payload.has_value()) return payload;
  return charge_and_cache(id, std::move(payload), cls);
}

Payload BroadcastCache::admit(BroadcastId id, const Payload& payload,
                              BroadcastClass cls) {
  {
    std::lock_guard lock(mutex_);
    if (const auto it = cache_.find(id); it != cache_.end()) {
      if (metrics_ != nullptr) metrics_->broadcast_hits.add(1);
      return it->second;
    }
  }
  if (!payload.has_value()) return payload;
  return charge_and_cache(id, payload, cls);
}

Payload BroadcastCache::charge_and_cache(BroadcastId id, Payload payload,
                                         BroadcastClass cls) {
  if (channel_ != nullptr) {
    // Round-trip through the worker's wire. The in-process backend hands back
    // the modeled charge to sleep (bit-identical to the legacy path below);
    // socket backends spend real wall time and return the decoded echo,
    // which is what gets cached. A dead wire keeps the local copy — the
    // values are identical either way, and the worker fail-stops on its next
    // result ship.
    support::StatusOr<transport::FetchReceipt> fetched =
        channel_->fetch_payload(payload, cls);
    if (fetched.is_ok()) {
      payload = std::move(fetched.value().payload);
      if (fetched.value().charge_ms > 0.0) {
        support::precise_sleep_ms(fetched.value().charge_ms);
      }
    } else if (net_ != nullptr) {
      support::precise_sleep_ms(net_->transfer_ms(payload.bytes()));
    }
  } else if (net_ != nullptr) {
    support::precise_sleep_ms(net_->transfer_ms(payload.bytes()));
  }
  if (metrics_ != nullptr) metrics_->count_broadcast_fetch(cls, payload.bytes());
  std::lock_guard lock(mutex_);
  // A concurrent fetch of the same id may have landed first; keep the
  // existing entry (identical content) so references into it stay valid.
  return cache_.emplace(id, std::move(payload)).first->second;
}

bool BroadcastCache::contains(BroadcastId id) const {
  std::lock_guard lock(mutex_);
  return cache_.contains(id);
}

void BroadcastCache::erase(BroadcastId id) {
  std::lock_guard lock(mutex_);
  cache_.erase(id);
}

std::size_t BroadcastCache::size() const {
  std::lock_guard lock(mutex_);
  return cache_.size();
}

namespace {
thread_local WorkerEnv* t_worker_env = nullptr;
}  // namespace

WorkerEnv* current_worker_env() noexcept { return t_worker_env; }
void set_current_worker_env(WorkerEnv* env) noexcept { t_worker_env = env; }

}  // namespace asyncml::engine
