#include "core/history.hpp"

#include <algorithm>

namespace asyncml::core {

engine::Version SampleVersionTable::min_version() const {
  engine::Version m = ~engine::Version{0};
  if (versions_.empty()) return 0;
  for (const auto& v : versions_) {
    m = std::min(m, v.load(std::memory_order_acquire));
  }
  return m;
}

}  // namespace asyncml::core
