#include "store/model_cache.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "store/model_store.hpp"
#include "telemetry/telemetry.hpp"

namespace asyncml::store {

std::shared_ptr<const linalg::DenseVector> VersionedModelCache::value_at(
    engine::Version version) {
  // Telemetry model-fetch segment: the whole resolution — hit or chain walk,
  // including the modeled wire sleeps the admits charge — is the "fetch and
  // materialize w" cost of the calling task. No-op off the executor threads.
  telemetry::ScopedStageTimer fetch_timer(telemetry::Stage::kModelFetch);
  // Resolution can race a same-version republish replacing the entry; the
  // loop simply re-resolves against the store's current chain.
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::vector<ChainLink> chain;
    std::shared_ptr<const linalg::DenseVector> anchor;
    bool in_place = false;
    {
      std::unique_lock lock(mutex_);
      // Single-flight: one chain resolution at a time per cache. A sibling
      // executor thread needing the same — or a nearby — version waits for
      // the in-progress materialization and then either hits it directly or
      // anchors on it, instead of re-fetching almost the same chain over the
      // (modeled) wire: one worker, one wire.
      resolved_cv_.wait(lock, [&] {
        return models_.contains(version) || inflight_.empty();
      });
      if (const auto it = models_.find(version); it != models_.end()) {
        if (metrics_ != nullptr) metrics_->broadcast_hits.add(1);
        return it->second.model;
      }
      inflight_.insert(version);
      // The walk probes models_ under this lock (lock order cache → store,
      // as in the commit path), so it visits only the chain's links and the
      // anchor it picks is still materialized when taken below. Payloads in
      // the chain are pinned: a concurrent GC cannot pull a link out from
      // under the apply loop.
      const AnchorProbe materialized = [this](engine::Version v) {
        return models_.contains(v);
      };
      chain = store_->chain_for(version, &materialized);
      assert(!chain.empty());
      if (!chain.front().is_base) {
        const auto it = models_.find(chain.front().version);
        // Copying the handle increments its count with acquire-release
        // ordering, so every reader that has dropped its handle is ordered
        // before this thread's writes. A count of 2 (the map's and this
        // copy) means nobody else holds it, and nobody can get it while the
        // lock is held: take it out of the map and advance it in place.
        anchor = it->second.model;
        if (it->second.owned && anchor.use_count() == 2) {
          models_.erase(it);
          in_place = true;
        }
      }
    }
    // From here on this thread owns the latch for `version`: every exit path
    // below releases it (a restart or a commit).

    const ChainLink& head = chain.front();
    // The target version's own payload id (its delta link — or its base when
    // the chain is just the base): re-validated against a concurrent
    // same-version republish before the materialization is committed.
    const engine::BroadcastId resolved_id = chain.back().id;
    const auto still_current = [&] {
      const auto entry = store_->entry_of(version);
      return entry.has_value() &&
             (entry->base_id == resolved_id || entry->delta_id == resolved_id);
    };

    std::shared_ptr<linalg::DenseVector> w;
    if (head.is_base) {
      // The chain anchors on a base snapshot: admit it (charged on a miss)
      // and materialize it zero-copy by aliasing the payload.
      engine::Payload payload = head.payload;
      if (bcache_ != nullptr) {
        payload = bcache_->admit(head.id, payload, engine::BroadcastClass::kSnapshot);
      }
      std::shared_ptr<const linalg::DenseVector> base =
          payload.share<linalg::DenseVector>();
      if (head.version == version) {
        // Commit under the cache lock with the store entry re-checked inside
        // it: a republish swapping the entry after this check must wait for
        // the lock before invalidating, so it erases a stale commit rather
        // than racing past it.
        std::lock_guard lock(mutex_);
        if (!still_current()) {
          inflight_.erase(version);
          resolved_cv_.notify_all();
          continue;
        }
        const auto it = models_.emplace(version, Materialized{std::move(base)}).first;
        inflight_.erase(version);
        resolved_cv_.notify_all();
        return it->second.model;
      }
      w = std::make_shared<linalg::DenseVector>(*base);
      // Caching an ancestor base is always safe: bases below the target
      // are never republished (only the newest version can be), and a GC
      // rebase reuses identical values under a fresh id.
      std::lock_guard lock(mutex_);
      models_.emplace(head.version, Materialized{std::move(base)});
    } else if (in_place) {
      // Not a const object: this cache allocated it (below) as non-const.
      w = std::const_pointer_cast<linalg::DenseVector>(std::move(anchor));
    } else {
      // Nearest materialized ancestor, held elsewhere too: start from a copy.
      w = std::make_shared<linalg::DenseVector>(*anchor);
    }

    for (std::size_t i = 1; i < chain.size(); ++i) {
      engine::Payload payload = chain[i].payload;
      if (bcache_ != nullptr) {
        payload = bcache_->admit(chain[i].id, payload, engine::BroadcastClass::kDelta);
      }
      payload.get<ModelDelta>().apply_to(w->span());
    }

    // Commit under the cache lock with the store entry re-checked inside it
    // (see the base-head commit above for why the ordering is airtight): a
    // version republished with different content while we applied the old
    // chain must not be served as a "materialized hit" forever. A failed
    // check drops `w`, an anchor taken in place included, and walks again.
    std::lock_guard lock(mutex_);
    if (!still_current()) {
      inflight_.erase(version);
      resolved_cv_.notify_all();
      continue;
    }
    const auto it =
        models_.emplace(version, Materialized{std::move(w), /*owned=*/true}).first;
    inflight_.erase(version);
    resolved_cv_.notify_all();
    return it->second.model;
  }
  std::fprintf(stderr,
               "VersionedModelCache: version %llu kept being invalidated during "
               "resolution — republish storm?\n",
               static_cast<unsigned long long>(version));
  std::abort();
}

bool VersionedModelCache::contains(engine::Version version) const {
  std::lock_guard lock(mutex_);
  return models_.contains(version);
}

std::size_t VersionedModelCache::size() const {
  std::lock_guard lock(mutex_);
  return models_.size();
}

void VersionedModelCache::drop_below(
    engine::Version min_version,
    const std::vector<engine::BroadcastId>& erased_ids) {
  {
    std::lock_guard lock(mutex_);
    for (auto it = models_.begin(); it != models_.end();) {
      it = it->first < min_version ? models_.erase(it) : std::next(it);
    }
  }
  if (bcache_ != nullptr) {
    for (const engine::BroadcastId id : erased_ids) bcache_->erase(id);
  }
}

void VersionedModelCache::invalidate(
    engine::Version version, const std::vector<engine::BroadcastId>& erased_ids) {
  {
    std::lock_guard lock(mutex_);
    models_.erase(version);
  }
  resolved_cv_.notify_all();
  if (bcache_ != nullptr) {
    for (const engine::BroadcastId id : erased_ids) bcache_->erase(id);
  }
}

}  // namespace asyncml::store
