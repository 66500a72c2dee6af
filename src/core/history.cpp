#include "core/history.hpp"

#include <algorithm>

#include "store/model_cache.hpp"

namespace asyncml::core {

engine::BroadcastId HistoryRegistry::publish(const linalg::DenseVector& w,
                                             engine::Version version) {
  return store_.publish(w, version);
}

std::optional<engine::BroadcastId> HistoryRegistry::id_of(
    engine::Version version) const {
  return store_.id_of(version);
}

const linalg::DenseVector& HistoryRegistry::value_at(engine::Version version) const {
  // Worker-vs-driver routing (charged worker cache vs free driver cache) and
  // per-shard assembly both live in the sharded store.
  return store_.value_at(version);
}

const linalg::DenseVector& HistoryRegistry::value_at(engine::Version version,
                                                     const ShardSet* mask) const {
  return store_.value_at(version, mask);
}

void HistoryRegistry::prune_below(engine::Version min_version) {
  store_.gc_below(min_version);
}

std::size_t HistoryRegistry::size() const { return store_.size(); }

std::optional<engine::Version> HistoryRegistry::oldest() const {
  return store_.oldest();
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
