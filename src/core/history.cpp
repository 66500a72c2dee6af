#include "core/history.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "store/model_cache.hpp"

namespace asyncml::core {

engine::BroadcastId HistoryRegistry::publish(const linalg::DenseVector& w,
                                             engine::Version version) {
  if (disk_config_.enabled && tier_ == nullptr) {
    // First publish of a non-resumed run: open a fresh tier (rotating any
    // stale manifest aside). Failure downgrades to in-memory, once, loudly.
    auto tier = store::disk::DiskTier::open(disk_config_, store::disk::OpenMode::kFresh,
                                            disk_metrics_, disk_faults_);
    if (tier.is_ok()) {
      tier_ = std::move(tier).value();
      store_.attach_disk(tier_.get());
    } else {
      std::fprintf(stderr,
                   "HistoryRegistry: disk tier open failed (%s); running "
                   "in-memory only\n",
                   tier.status().to_string().c_str());
      disk_config_.enabled = false;
    }
  }
  return store_.publish(w, version);
}

std::optional<engine::BroadcastId> HistoryRegistry::id_of(
    engine::Version version) const {
  return store_.id_of(version);
}

const linalg::DenseVector& HistoryRegistry::value_at(engine::Version version) const {
  // Worker threads resolve through their charged cache, the driver through
  // the uncharged one.
  engine::WorkerEnv* env = engine::current_worker_env();
  if (env != nullptr && env->cache != nullptr) {
    return store_.cache_for(env->id, env->cache, env->metrics).value_at(version);
  }
  return store_.driver_cache().value_at(version);
}

void HistoryRegistry::prune_below(engine::Version min_version) {
  store_.gc_below(min_version);
}

std::size_t HistoryRegistry::size() const { return store_.size(); }

std::optional<engine::Version> HistoryRegistry::oldest() const {
  return store_.oldest();
}

void HistoryRegistry::set_disk_hooks(engine::DiskTierMetrics* metrics,
                                     engine::FaultState* faults) {
  disk_metrics_ = metrics;
  disk_faults_ = faults;
}

support::Status HistoryRegistry::restore_from_disk(engine::Version anchor) {
  if (!disk_config_.enabled) {
    return support::Status(support::StatusCode::kFailedPrecondition,
                           "history: disk tier disabled");
  }
  if (tier_ == nullptr) {
    auto tier = store::disk::DiskTier::open(disk_config_, store::disk::OpenMode::kResume,
                                            disk_metrics_, disk_faults_);
    if (!tier.is_ok()) return tier.status();
    tier_ = std::move(tier).value();
  }
  const auto history = tier_->restored_model();
  if (!history.is_ok()) return history.status();
  store_.attach_disk(tier_.get());
  store_.restore_from_manifest(*history.value().records, history.value().gc_floor,
                               anchor);
  return support::Status::ok();
}

engine::Version SampleVersionTable::min_version() const {
  engine::Version m = ~engine::Version{0};
  if (versions_.empty()) return 0;
  for (const auto& v : versions_) {
    m = std::min(m, v.load(std::memory_order_acquire));
  }
  return m;
}

}  // namespace asyncml::core
