// One worker cache, two resolving executor threads, one driver thread that
// publishes, republishes the head and collects history — the interleaving a
// live ASAGA run produces. Every stable version a resolver reads must be
// bit-identical to the model the driver last published under it. Built into
// the store module, so the CI ThreadSanitizer leg runs it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "support/rng.hpp"

namespace asyncml::store {
namespace {

constexpr std::size_t kDim = 48;
constexpr engine::Version kVersions = 400;
constexpr engine::Version kWindow = 24;  ///< versions kept behind the head
constexpr engine::Version kNoPin = std::numeric_limits<engine::Version>::max();

/// The driver's schedule: the first model published under each version and,
/// for every fifth version, the changed model it is republished with.
struct History {
  std::vector<linalg::DenseVector> first;
  std::vector<linalg::DenseVector> last;  ///< the value a stable version holds

  History() {
    support::RngStream rng(11);
    linalg::DenseVector w(kDim);
    for (engine::Version v = 0; v < kVersions; ++v) {
      // Mostly sparse updates; every 37th touches everything and densifies.
      const std::size_t touches = v % 37 == 36 ? kDim : 1 + v % 3;
      for (std::size_t t = 0; t < touches; ++t) {
        const std::size_t i = touches == kDim ? t : rng.next_below(kDim);
        w[i] += rng.uniform(-1.0, 1.0);
      }
      first.push_back(w);
      if (v % 5 == 4) w[v % kDim] += 0.5;
      last.push_back(w);
    }
  }
};

TEST(VersionedModelCacheRace, ResolversRacePublishRepublishAndGc) {
  const History history;
  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
  StoreConfig config;
  config.base_interval = 8;  // dual-published bases inside the window
  ModelStore store(&broadcasts, config);
  VersionedModelCache& cache = store.cache_for(0, &bcache, &metrics);

  // `stable`: newest version that will not be republished again. `head`:
  // newest published version, possibly mid-republish. A resolver pins the
  // version it reads before checking it against `announced`, the driver
  // announces a GC floor before scanning the pins (both seq_cst), so a
  // pinned read is never collected: the STAT min-in-flight bound in miniature.
  std::atomic<engine::Version> stable{kNoPin};
  std::atomic<engine::Version> head{kNoPin};
  std::atomic<engine::Version> announced{0};
  std::array<std::atomic<engine::Version>, 2> pins{kNoPin, kNoPin};
  std::array<std::atomic<std::uint64_t>, 2> reads{0, 0};
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};

  const auto resolver = [&](int id) {
    support::RngStream rng(100 + static_cast<std::uint64_t>(id));
    std::atomic<engine::Version>& pin = pins[static_cast<std::size_t>(id)];
    while (!done.load()) {
      const engine::Version s = stable.load();
      if (s == kNoPin) {
        std::this_thread::yield();
        continue;
      }
      if (rng.next_below(4) == 0) {
        // Resolve the head while the driver may be republishing it; its
        // value is only checked once it is stable.
        const engine::Version h = head.load();
        pin.store(h);
        if (h >= announced.load()) (void)cache.value_at(h);
        pin.store(kNoPin);
        continue;
      }
      const engine::Version lo = s > kWindow / 2 ? s - kWindow / 2 : 0;
      const engine::Version u = lo + rng.next_below(s - lo + 1);
      pin.store(u);
      if (u >= announced.load()) {
        const auto got = cache.value_at(u);
        if (!linalg::bitwise_equal(*got, history.last[u])) mismatches.fetch_add(1);
        reads[static_cast<std::size_t>(id)].fetch_add(1);
      }
      pin.store(kNoPin);
    }
  };
  std::thread a(resolver, 0);
  std::thread b(resolver, 1);

  for (engine::Version v = 0; v < kVersions; ++v) {
    store.publish(history.first[v], v);
    head.store(v);
    // Let both resolvers keep pace so publishes, republishes and GC
    // interleave with live resolutions instead of finishing before they start.
    while (v > 0 && std::min(reads[0].load(), reads[1].load()) < 2 * v) {
      std::this_thread::yield();
    }
    if (v % 5 == 4) store.publish(history.last[v], v);  // republish the head
    stable.store(v);
    if (v >= kWindow && v % 8 == 0) {
      engine::Version floor = v - kWindow;
      announced.store(floor);
      for (const auto& pin : pins) floor = std::min(floor, pin.load());
      store.gc_below(floor);
    }
  }
  done.store(true);
  a.join();
  b.join();

  EXPECT_EQ(mismatches.load(), 0);
  // With the resolvers gone nothing pins history: a last GC must cut the
  // cache down to the window, and the newest version still resolves.
  store.gc_below(kVersions - kWindow);
  EXPECT_EQ(store.gc_floor(), kVersions - kWindow);
  EXPECT_FALSE(cache.contains(kVersions - kWindow - 1));
  EXPECT_TRUE(linalg::bitwise_equal(*cache.value_at(kVersions - 1),
                                    history.last[kVersions - 1]));
}

TEST(VersionedModelCacheRace, HeldHandleKeepsItsBitsWhileTheCacheAdvances) {
  // Thread A holds v's handle and re-reads it while thread B resolves
  // v+1 … v+k on the same worker cache, dropping each handle as it goes —
  // so from v+2 on every step advances the cache's own v+i−1 in place. A's
  // model must keep its bits, and B must read the published models.
  const History history;
  engine::BroadcastStore broadcasts;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
  ModelStore store(&broadcasts);
  for (engine::Version v = 0; v < kVersions; ++v) store.publish(history.last[v], v);
  VersionedModelCache& cache = store.cache_for(0, &bcache, &metrics);

  constexpr engine::Version kHeld = 1;  // a chain resolve: the cache's own copy
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::atomic<int> held_mismatches{0};
  std::thread a([&, held = cache.value_at(kHeld)] {
    reading.store(true);
    bool last_pass = false;
    while (!last_pass) {
      last_pass = done.load();
      if (!linalg::bitwise_equal(*held, history.last[kHeld])) {
        held_mismatches.fetch_add(1);
      }
    }
  });
  int mismatches = 0;
  std::thread b([&] {
    while (!reading.load()) std::this_thread::yield();
    for (engine::Version v = kHeld + 1; v < kVersions; ++v) {
      if (!linalg::bitwise_equal(*cache.value_at(v), history.last[v])) ++mismatches;
    }
  });
  b.join();
  done.store(true);
  a.join();

  EXPECT_EQ(held_mismatches.load(), 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(cache.contains(kHeld));  // held, so copied rather than taken
}

}  // namespace
}  // namespace asyncml::store
