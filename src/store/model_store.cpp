#include "store/model_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "store/disk/disk_tier.hpp"
#include "store/model_cache.hpp"

namespace asyncml::store {

namespace {
/// Coordinates the publish diff compares between densify-limit checks.
constexpr std::size_t kDiffBlock = 256;
}  // namespace

ModelStore::ModelStore(engine::BroadcastStore* broadcasts, StoreConfig config,
                       engine::DiskTierMetrics* disk_metrics,
                       engine::FaultState* disk_faults)
    : broadcasts_(broadcasts),
      cfg_(std::move(config)),
      disk_metrics_(disk_metrics),
      disk_faults_(disk_faults) {
  assert(broadcasts_ != nullptr);
  if (cfg_.base_interval == 0) cfg_.base_interval = 1;  // every version a base
}

ModelStore::~ModelStore() = default;

engine::BroadcastId ModelStore::publish(const linalg::DenseVector& w,
                                        engine::Version version) {
  if (cfg_.disk.enabled && tier_ == nullptr) {
    // First publish of a non-resumed run: open a fresh tier (rotating any
    // stale manifest aside). Failure downgrades to in-memory, once, loudly.
    auto tier = disk::DiskTier::open(cfg_.disk, disk::OpenMode::kFresh,
                                     disk_metrics_, disk_faults_);
    if (tier.is_ok()) {
      tier_ = std::move(tier).value();
    } else {
      std::fprintf(stderr,
                   "ModelStore: disk tier open failed (%s); running "
                   "in-memory only\n",
                   tier.status().to_string().c_str());
      cfg_.disk.enabled = false;
    }
  }
  // publish() runs on the driver thread only (it is not thread-safe against
  // itself or gc_below); prev_/since_base_ are driver-private state, so the
  // O(dim) diff and payload construction stay OFF mutex_ — workers resolving
  // concurrent versions only contend on the brief entries_ commit below.
  std::vector<engine::BroadcastId> replaced;
  bool replacing_parent = false;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = entries_.find(version); it != entries_.end()) {
      // Same-version republish (epoch boundaries re-broadcast the current
      // version when no update landed in between).  Unchanged model: the
      // existing entry already is this publish — keep it, zero wire cost.
      if (has_prev_ && version == prev_version_ && w == prev_) {
        return it->second.has_base() ? it->second.base_id : it->second.delta_id;
      }
      // Changed model: the entry is swapped below (after the new payloads
      // exist, so resolutions never observe a gap) and caches invalidated.
      // The replaced version cannot serve as its own delta parent, so the
      // new entry starts a fresh base.
      replacing_parent = version == prev_version_;
      // Lazy restored entries hold no broadcast (id 0) — only in-memory
      // payloads need erasing; their blobs stay on disk untouched.
      if (it->second.base_id != 0) replaced.push_back(it->second.base_id);
      if (it->second.delta_id != 0) replaced.push_back(it->second.delta_id);
    }
  }

  const std::size_t dim = w.size();
  const bool can_delta = has_prev_ && !replacing_parent && cfg_.delta_enabled &&
                         dim == prev_.size();
  const bool scheduled_base = since_base_ + 1 >= cfg_.base_interval;
  bool densified = false;

  // Diff into the reused index scratch first and build the delta only once
  // it is known to stay sparse: a densifying publish (every dense-model
  // update) then allocates nothing but its base snapshot.  The compare is
  // branch-free — every index is written and the count advances by the
  // comparison — because ~10% of a sparse workload's coordinates change, a
  // rate a data-dependent branch mispredicts on.  `!=` decides what ships:
  // -0.0 vs 0.0 does not, NaN always does.
  std::size_t n = 0;
  if (can_delta) {
    if (changed_.size() < dim) changed_.resize(dim);
    const double limit = kDeltaDensifyThreshold * static_cast<double>(dim);
    const double* cur = w.data();
    const double* old = prev_.data();
    std::uint32_t* out = changed_.data();
    for (std::size_t start = 0; start < dim; start += kDiffBlock) {
      const std::size_t end = std::min(dim, start + kDiffBlock);
      for (std::size_t i = start; i < end; ++i) {
        out[n] = static_cast<std::uint32_t>(i);
        n += static_cast<std::size_t>(cur[i] != old[i]);
      }
      // The count only grows, so checking once per block decides exactly
      // "total changed > limit" while still stopping a dense diff early.
      if (static_cast<double>(n) > limit) {
        densified = true;  // a full snapshot is cheaper; break the chain
        break;
      }
    }
  }

  VersionEntry entry;
  // A densified entry still records its would-be parent (the manifest keeps it).
  entry.parent = can_delta ? prev_version_ : 0;
  engine::Payload delta_payload;
  engine::Payload base_payload;
  // The delta twin ships whenever it stayed sparse — also alongside a
  // scheduled base, so warm workers ride the chain straight through it.
  if (can_delta && !densified) {
    ModelDelta delta;
    delta.parent = prev_version_;
    delta.dim = dim;
    // changed_ is already ascending: copy it and gather the new values.
    delta.indices.assign(changed_.data(), changed_.data() + n);
    delta.values.resize(n);
    for (std::size_t k = 0; k < n; ++k) delta.values[k] = w[delta.indices[k]];
    entry.delta_bytes = delta.wire_bytes();
    delta_payload = engine::Payload::wrap<ModelDelta>(std::move(delta), entry.delta_bytes);
    entry.delta_id = broadcasts_->put(delta_payload);
  }
  if (!can_delta || densified || scheduled_base) {
    entry.base_bytes = w.size_bytes();
    base_payload = engine::Payload::wrap<linalg::DenseVector>(w, entry.base_bytes);
    entry.base_id = broadcasts_->put(base_payload);
    since_base_ = 0;
  } else {
    since_base_ += 1;
  }
  entry.kind = entry.has_base() ? EntryKind::kBase : EntryKind::kDelta;

  {
    std::lock_guard lock(mutex_);
    entries_[version] = entry;
    if (entry.has_delta()) {
      stats_.deltas_published += 1;
      stats_.delta_bytes_published += entry.delta_bytes;
    }
    if (entry.has_base()) {
      stats_.bases_published += 1;
      stats_.base_bytes_published += entry.base_bytes;
    }
    // A fresh base above the restore anchor re-anchors every later
    // resolution in memory — the restored history no longer needs GC
    // protection.
    if (restore_anchor_.has_value() && version > *restore_anchor_ &&
        entry.base_id != 0) {
      restore_anchor_.reset();
    }
  }
  if (entry.has_base()) {
    prev_ = w;
  } else {
    // A delta-only publish refreshes just the coordinates it shipped.  Every
    // other coordinate is value-equal to w (at most the sign of a zero
    // differs), which `!=` does not ship either, so later diffs pick the
    // same sets as against a full copy.
    for (std::size_t k = 0; k < n; ++k) prev_[changed_[k]] = w[changed_[k]];
  }
  prev_version_ = version;
  has_prev_ = true;

  if (!replaced.empty()) {
    // Old payloads are erased only after the swap, so a resolution that
    // pinned them mid-flight keeps working and then re-validates (see
    // VersionedModelCache::value_at).
    for (const engine::BroadcastId id : replaced) broadcasts_->erase(id);
    for (VersionedModelCache* cache : snapshot_caches()) {
      cache->invalidate(version, replaced);
    }
  }

  if (tier_ != nullptr) {
    // Queued AFTER the in-memory commit, to the tier's writer thread: the
    // live run never waits on or reads from disk, so trajectories are
    // bit-identical with the tier on or off. The queued handles keep the
    // payloads alive whatever GC erases meanwhile. A failed write drops this
    // version's record (durability degrades, never correctness).
    disk::PublishRecord rec;
    rec.version = version;
    rec.parent = entry.parent;
    rec.base_bytes = entry.base_bytes;
    rec.delta_bytes = entry.delta_bytes;
    tier_->publish(rec, std::move(base_payload), std::move(delta_payload));
  }
  return entry.has_base() ? entry.base_id : entry.delta_id;
}

void ModelStore::attach_disk(std::unique_ptr<disk::DiskTier> tier) {
  tier_ = std::move(tier);
}

support::Status ModelStore::restore_from_disk(engine::Version anchor) {
  if (!cfg_.disk.enabled) {
    return support::Status(support::StatusCode::kFailedPrecondition,
                           "model store: disk tier disabled");
  }
  assert(tier_ == nullptr);
  auto tier = disk::DiskTier::open(cfg_.disk, disk::OpenMode::kResume, disk_metrics_,
                                   disk_faults_);
  if (!tier.is_ok()) return tier.status();
  const auto history = tier.value()->restored_model();
  if (!history.is_ok()) return history.status();
  tier_ = std::move(tier).value();
  restore_from_manifest(*history.value().records, history.value().gc_floor, anchor);
  return support::Status::ok();
}

void ModelStore::restore_from_manifest(
    const std::map<std::uint64_t, disk::PublishRecord>& records,
    std::uint64_t floor, engine::Version anchor) {
  // A restored chain must terminate at a snapshot: entries below the oldest
  // base-carrying record at/above the manifest floor would dangle (their
  // parents were GC'd before the crash), so the floor rounds up to it.
  std::uint64_t effective_floor = floor;
  bool found_base = false;
  for (const auto& [version, rec] : records) {
    if (version < floor) continue;
    if (rec.has_base) {
      effective_floor = version;
      found_base = true;
      break;
    }
  }
  std::lock_guard lock(mutex_);
  if (!found_base) {
    // Nothing on disk can anchor a walk; the resumed run's first publish
    // starts a fresh base. GC floor still honors the manifest.
    gc_floor_ = std::max(gc_floor_, floor);
    return;
  }
  for (const auto& [version, rec] : records) {
    if (version < effective_floor) continue;
    VersionEntry entry;
    entry.parent = rec.parent;
    entry.base_bytes = rec.base_bytes;
    entry.delta_bytes = rec.delta_bytes;
    if (rec.has_base) entry.base_hash = rec.base_digest;
    if (rec.has_delta) entry.delta_hash = rec.delta_digest;
    entry.kind = entry.has_base() ? EntryKind::kBase : EntryKind::kDelta;
    entries_[version] = entry;
  }
  gc_floor_ = std::max(gc_floor_, effective_floor);
  // Clamp GC to the version the run resumes at (or the newest restored one
  // below it): until a new base is published above it, collecting it would
  // unlink the only anchor the resumed run has.
  auto it = entries_.upper_bound(anchor);
  restore_anchor_ =
      it == entries_.begin() ? entries_.begin()->first : std::prev(it)->first;
}

std::optional<engine::Version> ModelStore::restore_anchor() const {
  std::lock_guard lock(mutex_);
  return restore_anchor_;
}

std::optional<VersionEntry> ModelStore::entry_of(engine::Version version) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(version);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<engine::BroadcastId> ModelStore::id_of(engine::Version version) const {
  const auto entry = entry_of(version);
  if (!entry.has_value()) return std::nullopt;
  return entry->has_base() ? entry->base_id : entry->delta_id;
}

bool ModelStore::ensure_payload_locked(engine::Version version, VersionEntry& e,
                                       bool base) const {
  engine::BroadcastId& id = base ? e.base_id : e.delta_id;
  support::Sha256Digest& hash = base ? e.base_hash : e.delta_hash;
  if (id != 0) return true;
  if (support::sha256_is_zero(hash)) return false;
  support::StatusOr<engine::Payload> payload =
      tier_ != nullptr
          ? tier_->fetch_payload(hash)
          : support::StatusOr<engine::Payload>(support::Status(
                support::StatusCode::kFailedPrecondition, "no disk tier attached"));
  if (!payload.is_ok()) {
    std::fprintf(stderr,
                 "ModelStore: disk fault-in of version %llu %s failed (%s); "
                 "falling back to an intact ancestor\n",
                 static_cast<unsigned long long>(version), base ? "base" : "delta",
                 payload.status().to_string().c_str());
    // The blob is gone (quarantined or unreadable): forget the address so
    // the rewalk plans around it.
    hash = {};
    return false;
  }
  id = broadcasts_->put(std::move(payload).value());
  return true;
}

std::vector<ChainLink> ModelStore::chain_locked(engine::Version version,
                                                const AnchorProbe* anchors) const {
  std::vector<ChainLink> chain;
  while (true) {
    chain.clear();
    switch (walk_locked(version, anchors, chain)) {
      case WalkOutcome::kOk:
        return chain;
      case WalkOutcome::kRetry:
        // A lazy entry's blob was lost; its hash is cleared, so the next
        // walk plans a different chain. Each retry clears at least one
        // hash — the loop terminates.
        if (tier_ != nullptr) tier_->metrics().recovery_walks.add(1);
        continue;
      case WalkOutcome::kNoBase:
        // Every snapshot below is gone. Install the nearest intact
        // ancestor's value as a fresh base under `version` — loud, counted,
        // and the only alternative to aborting after real data loss.
        if (!repair_locked(version)) {
          std::fprintf(stderr,
                       "ModelStore: version %llu has no intact snapshot or "
                       "ancestor left to recover from\n",
                       static_cast<unsigned long long>(version));
          std::abort();
        }
        continue;
    }
  }
}

ModelStore::WalkOutcome ModelStore::walk_locked(engine::Version version,
                                                const AnchorProbe* anchors,
                                                std::vector<ChainLink>& out) const {
  // Walk from `version` toward older versions collecting delta links, keeping
  // the cheapest base stop seen so far; commit to a materialized anchor only
  // while its accumulated delta cost still beats every base plan.
  std::vector<ChainLink> deltas;  // walk order: version, parent, grandparent…
  std::size_t delta_cost = 0;
  std::size_t best_base_cost = std::numeric_limits<std::size_t>::max();
  engine::Version best_base = 0;

  const auto die = [&](engine::Version u) {
    std::fprintf(stderr,
                 "ModelStore: version %llu (resolving %llu) %s — a task "
                 "referenced a model below the GC bound or one never "
                 "published\n",
                 static_cast<unsigned long long>(u),
                 static_cast<unsigned long long>(version),
                 u < gc_floor_ ? "was garbage-collected" : "was never published");
    std::abort();
  };
  const auto pinned_payload = [&](engine::BroadcastId id, engine::Version u) {
    engine::Payload payload = broadcasts_->get(id);
    if (!payload.has_value()) {
      std::fprintf(stderr,
                   "ModelStore: broadcast %llu of version %llu missing from "
                   "the store — entry erased without going through gc_below?\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(u));
      std::abort();
    }
    return payload;
  };
  // Assembles the final chain from the best base stop: [base] + deltas above.
  const auto base_plan = [&]() -> WalkOutcome {
    if (best_base_cost == std::numeric_limits<std::size_t>::max()) {
      return WalkOutcome::kNoBase;
    }
    VersionEntry& base_entry = entries_.at(best_base);
    if (!ensure_payload_locked(best_base, base_entry, /*base=*/true)) {
      return WalkOutcome::kRetry;
    }
    out.push_back(ChainLink{best_base, base_entry.base_id, base_entry.base_bytes,
                            /*is_base=*/true,
                            pinned_payload(base_entry.base_id, best_base)});
    for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
      if (it->version > best_base) out.push_back(std::move(*it));
    }
    return WalkOutcome::kOk;
  };

  engine::Version u = version;
  while (true) {
    const auto it = entries_.find(u);
    if (it == entries_.end()) {
      // Mid-chain gap: a restored chain referencing a version the manifest
      // floor dropped (the pre-crash GC rebase was in-memory only). The
      // chain is broken here — fall back to the best base above the gap.
      if (u != version) return base_plan();
      die(u);
    }
    VersionEntry& e = it->second;

    if (u != version && anchors != nullptr && (*anchors)(u)) {
      if (delta_cost <= best_base_cost) {
        // Materialized anchor wins: [anchor] + deltas above it.
        out.push_back(ChainLink{u, 0, 0, /*is_base=*/false, engine::Payload{}});
        for (auto dit = deltas.rbegin(); dit != deltas.rend(); ++dit) {
          out.push_back(std::move(*dit));
        }
        return WalkOutcome::kOk;
      }
      return base_plan();
    }
    if (e.has_base()) {
      const std::size_t cost = e.base_bytes + delta_cost;
      if (cost < best_base_cost) {
        best_base_cost = cost;
        best_base = u;
      }
    }
    // Chain broken (densified delta, GC rebase, first version), or no
    // cheaper anchor can exist below: take the best base seen.
    if (!e.has_delta() || delta_cost >= best_base_cost) return base_plan();

    if (!ensure_payload_locked(u, e, /*base=*/false)) return WalkOutcome::kRetry;
    deltas.push_back(ChainLink{u, e.delta_id, e.delta_bytes, /*is_base=*/false,
                               pinned_payload(e.delta_id, u)});
    delta_cost += e.delta_bytes;
    u = e.parent;
  }
}

bool ModelStore::repair_locked(engine::Version version) const {
  // Newest-first over versions strictly below: the closest intact ancestor
  // loses the fewest updates.
  auto it = entries_.upper_bound(version);
  while (it != entries_.begin()) {
    --it;
    const engine::Version candidate = it->first;
    if (candidate >= version) continue;
    std::vector<ChainLink> chain;
    bool usable = false;
    for (;;) {
      chain.clear();
      const WalkOutcome outcome = walk_locked(candidate, nullptr, chain);
      if (outcome == WalkOutcome::kOk) {
        usable = true;
        break;
      }
      if (outcome == WalkOutcome::kNoBase) break;  // next older candidate
      // kRetry: a hash was cleared; the rewalk plans differently.
    }
    if (!usable) continue;
    assert(!chain.empty() && chain.front().is_base);
    linalg::DenseVector w = chain.front().payload.get<linalg::DenseVector>();
    for (std::size_t i = 1; i < chain.size(); ++i) {
      chain[i].payload.get<ModelDelta>().apply_to(w.span());
    }
    VersionEntry& entry = entries_[version];
    entry.base_bytes = w.size_bytes();
    entry.base_id = broadcasts_->put(engine::Payload::wrap<linalg::DenseVector>(
        std::move(w), entry.base_bytes));
    entry.base_hash = {};
    entry.delta_id = 0;
    entry.delta_bytes = 0;
    entry.delta_hash = {};
    entry.kind = EntryKind::kBase;
    if (tier_ != nullptr) tier_->metrics().bases_republished.add(1);
    std::fprintf(stderr,
                 "ModelStore: version %llu lost to corruption; re-published "
                 "version %llu's model as its base (staleness absorbed, run "
                 "continues)\n",
                 static_cast<unsigned long long>(version),
                 static_cast<unsigned long long>(candidate));
    return true;
  }
  return false;
}

std::vector<ChainLink> ModelStore::chain_for(engine::Version version,
                                             const AnchorProbe* anchors) const {
  std::lock_guard lock(mutex_);
  return chain_locked(version, anchors);
}

linalg::DenseVector ModelStore::materialize_locked(engine::Version version) const {
  const std::vector<ChainLink> chain = chain_locked(version, nullptr);
  assert(!chain.empty() && chain.front().is_base);
  linalg::DenseVector w = chain.front().payload.get<linalg::DenseVector>();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    chain[i].payload.get<ModelDelta>().apply_to(w.span());
  }
  return w;
}

void ModelStore::gc_below(engine::Version min_version) {
  std::vector<engine::BroadcastId> erased;
  bool floor_advanced = false;
  bool dropped_entries = false;
  {
    std::lock_guard lock(mutex_);
    if (restore_anchor_.has_value()) {
      // Never collect the disk-restore anchor out from under a pending
      // rehydrate: every lazy chain in entries_ bottoms out at or above it.
      min_version = std::min(min_version, *restore_anchor_);
    }
    if (min_version > gc_floor_) {
      gc_floor_ = min_version;
      floor_advanced = true;
    }
    const auto first_keep = entries_.lower_bound(min_version);
    if (entries_.begin() != first_keep) {
      dropped_entries = true;
      if (first_keep == entries_.end()) {
        // Everything is below the cut; the next publish cannot chain onto a
        // GC'd parent, so force it to start a fresh base.
        has_prev_ = false;
      } else if (first_keep->second.has_delta() &&
                 first_keep->second.parent < min_version) {
        // The oldest retained version's delta chains below the cut. Drop the
        // dangling delta; if that leaves the version without a payload,
        // materialize it first and rebase it onto a fresh base snapshot.
        VersionEntry& entry = first_keep->second;
        if (!entry.has_base()) {
          linalg::DenseVector w = materialize_locked(first_keep->first);
          entry.base_bytes = w.size_bytes();
          entry.base_id = broadcasts_->put(engine::Payload::wrap<linalg::DenseVector>(
              std::move(w), entry.base_bytes));
          entry.base_hash = {};
          stats_.compactions += 1;
        }
        if (entry.delta_id != 0) {
          broadcasts_->erase(entry.delta_id);
          erased.push_back(entry.delta_id);
        }
        entry.delta_id = 0;
        entry.delta_bytes = 0;
        entry.delta_hash = {};  // un-fetched lazy delta: just forget the address
        entry.kind = EntryKind::kBase;
      }
      for (auto it = entries_.begin(); it != first_keep;) {
        // Exact ids, never an id threshold: foreign broadcasts may interleave.
        // Lazy restored entries (id 0, hash set) have nothing in memory.
        if (it->second.base_id != 0) {
          broadcasts_->erase(it->second.base_id);
          erased.push_back(it->second.base_id);
        }
        if (it->second.delta_id != 0) {
          broadcasts_->erase(it->second.delta_id);
          erased.push_back(it->second.delta_id);
        }
        it = entries_.erase(it);
      }
    }
  }
  if (dropped_entries) {
    for (VersionedModelCache* cache : snapshot_caches()) {
      cache->drop_below(min_version, erased);
    }
  }
  // The durable floor record makes the retained range self-describing: a
  // restart re-derives its GC bound from the manifest, never from replay.
  if (tier_ != nullptr && floor_advanced) tier_->gc_floor(min_version);
}

std::shared_ptr<const linalg::DenseVector> ModelStore::value_at(
    engine::Version version) const {
  // Worker threads resolve through their charged cache, the driver through
  // the uncharged one.
  engine::WorkerEnv* env = engine::current_worker_env();
  if (env != nullptr && env->cache != nullptr) {
    return cache_for(env->id, env->cache, env->metrics).value_at(version);
  }
  return driver_cache().value_at(version);
}

VersionedModelCache& ModelStore::cache_for(engine::WorkerId worker,
                                           engine::BroadcastCache* bcache,
                                           engine::ClusterMetrics* metrics) const {
  assert(worker >= 0 && bcache != nullptr);
  std::lock_guard lock(caches_mutex_);
  const auto index = static_cast<std::size_t>(worker);
  if (index >= worker_caches_.size()) worker_caches_.resize(index + 1);
  if (worker_caches_[index] == nullptr) {
    worker_caches_[index] =
        std::make_unique<VersionedModelCache>(this, bcache, metrics);
  }
  return *worker_caches_[index];
}

VersionedModelCache& ModelStore::driver_cache() const {
  std::lock_guard lock(caches_mutex_);
  if (driver_cache_ == nullptr) {
    driver_cache_ = std::make_unique<VersionedModelCache>(this, nullptr, nullptr);
  }
  return *driver_cache_;
}

std::vector<VersionedModelCache*> ModelStore::snapshot_caches() {
  std::lock_guard lock(caches_mutex_);
  std::vector<VersionedModelCache*> out;
  out.reserve(worker_caches_.size() + 1);
  for (const auto& cache : worker_caches_) {
    if (cache != nullptr) out.push_back(cache.get());
  }
  if (driver_cache_ != nullptr) out.push_back(driver_cache_.get());
  return out;
}

std::size_t ModelStore::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::optional<engine::Version> ModelStore::oldest() const {
  std::lock_guard lock(mutex_);
  if (entries_.empty()) return std::nullopt;
  return entries_.begin()->first;
}

engine::Version ModelStore::gc_floor() const {
  std::lock_guard lock(mutex_);
  return gc_floor_;
}

StoreStats ModelStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace asyncml::store
