// Microbenchmark — delta-chain apply vs full-snapshot fetch in the model store.
//
// Times the steady-state step every asynchronous round pays: a worker that
// already holds version v−1 materializes version v.  Under delta publishing
// it fetches one sparse overwrite delta (8 + 12*nnz wire bytes) and applies
// it onto a copy of its cached ancestor; under full-snapshot publishing it
// fetches the full 8*dim payload.  Reports the wall cost of resolution and —
// the headline — the modeled per-version wire bytes, across a sweep of
// per-version update densities.  No google-benchmark dependency: plain
// wall-clock over enough iterations to dominate timer noise.
//
// The same sweep also times the driver-side publish (diff + payload build)
// at each density, and checks that every version of every chain resolves
// bitwise to the model that was published (micro_model_store.chain.
// bit_identical, a hard invariant for tools/bench_diff.py --strict).
//
// A second table times a cache miss at cache occupancies 16 and 8192: the
// resolve walk probes the cache's materialized set link by link, so the cost
// must not grow with the number of versions the cache holds.

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"

using namespace asyncml;

namespace {

struct CaseResult {
  double ns_per_resolve = 0.0;
  std::uint64_t step_wire_bytes = 0;  ///< bytes charged for the v−1 → v step
};

/// One update: ~`density * dim` random coordinates of `w` move.
void churn(linalg::DenseVector& w, double density, support::RngStream& rng) {
  const auto touches = std::max<std::size_t>(
      1, static_cast<std::size_t>(density * static_cast<double>(w.size())));
  for (std::size_t t = 0; t < touches; ++t) {
    w[rng.next_below(w.size())] += rng.uniform(-1.0, 1.0);
  }
}

/// Publishes `versions` churned models over `dim` coords and returns them.
std::vector<linalg::DenseVector> publish_churn(store::ModelStore& model_store,
                                               std::size_t dim,
                                               engine::Version versions,
                                               double density) {
  support::RngStream rng(7);
  linalg::DenseVector w(dim);
  std::vector<linalg::DenseVector> published;
  for (engine::Version v = 0; v < versions; ++v) {
    churn(w, density, rng);
    model_store.publish(w, v);
    published.push_back(w);
  }
  return published;
}

/// True iff a fresh worker cache resolves every published version bitwise,
/// both newest-first (chains anchor on bases) and oldest-first (warm
/// v−1 → v delta steps).
bool chain_bit_identical(const engine::BroadcastStore& broadcasts,
                         store::ModelStore& model_store,
                         const std::vector<linalg::DenseVector>& published) {
  engine::NetworkModel net;
  net.time_scale = 0.0;
  bool identical = true;
  for (const bool newest_first : {true, false}) {
    engine::ClusterMetrics metrics(1);
    engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
    store::VersionedModelCache cache(&model_store, &bcache, &metrics);
    for (std::size_t k = 0; k < published.size(); ++k) {
      const std::size_t v = newest_first ? published.size() - 1 - k : k;
      identical = identical && linalg::bitwise_equal(*cache.value_at(v), published[v]);
    }
  }
  return identical;
}

/// Mean driver-side publish cost over a long run at `dim` and `density`
/// with one base per `base_interval` versions; an untimed GC every 64
/// versions (the solvers' default cadence) bounds the store.
double publish_ns(std::size_t dim, double density, std::uint32_t base_interval) {
  constexpr engine::Version kPublishes = 4096;
  engine::BroadcastStore broadcasts;
  store::StoreConfig config;
  config.base_interval = base_interval;
  store::ModelStore model_store(&broadcasts, config);
  support::RngStream rng(11);
  linalg::DenseVector w(dim);
  double total_ms = 0.0;
  for (engine::Version v = 0; v < kPublishes; ++v) {
    churn(w, density, rng);
    support::Stopwatch watch;
    model_store.publish(w, v);
    total_ms += watch.elapsed_ms();
    if (v % 64 == 63) model_store.gc_below(v);
  }
  return total_ms * 1e6 / static_cast<double>(kPublishes);
}

CaseResult run_case(const engine::BroadcastStore& broadcasts,
                    store::ModelStore& model_store, engine::Version head,
                    int iters) {
  engine::NetworkModel net;
  net.time_scale = 0.0;  // measure CPU cost; bytes are counted, not slept
  CaseResult out;
  double total_ms = 0.0;
  for (int it = -3; it < iters; ++it) {  // negative iterations warm the caches
    // A warm worker: it materialized v−1 last round and its task has dropped
    // the handle, so the cache advances v−1 to v in place. The cache lives on
    // the heap, as ModelStore::cache_for allocates it in the engine, so the
    // timing does not follow this frame's stack layout.
    engine::ClusterMetrics metrics(1);
    engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
    const auto cache =
        std::make_unique<store::VersionedModelCache>(&model_store, &bcache, &metrics);
    (void)cache->value_at(head - 1);
    metrics.broadcast_bytes.reset();

    support::Stopwatch watch;
    const auto w = cache->value_at(head);
    if (it >= 0) total_ms += watch.elapsed_ms();
    if (it == 0) out.step_wire_bytes = metrics.broadcast_bytes.load();
    if ((*w)[0] > 1e300) std::cout << "";  // keep the resolve observable
  }
  out.ns_per_resolve = total_ms * 1e6 / static_cast<double>(iters);
  return out;
}

/// Miss-resolve cost against cache occupancy: a worker cache holding
/// `cached` materialized versions resolves a version it has never seen.  As
/// in ASAGA's dense history every publish is a base, so the resolve is a
/// one-link zero-copy alias and any growth with `cached` is chain-planning
/// overhead.  The store holds the same versions whatever `cached` is, and
/// occupancy is held at `cached` by dropping the oldest version and its
/// payload (untimed) after each miss.
double miss_resolve_ns(std::size_t cached) {
  constexpr std::size_t kDim = 64;
  constexpr engine::Version kHistory = 8192;  ///< versions before the misses
  constexpr int kMisses = 512;
  engine::BroadcastStore broadcasts;
  store::StoreConfig config;
  config.delta_enabled = false;
  store::ModelStore model_store(&broadcasts, config);
  linalg::DenseVector w(kDim);
  for (engine::Version v = 0; v < kHistory + kMisses; ++v) {
    w[v % kDim] += 1.0;
    model_store.publish(w, v);
  }

  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
  store::VersionedModelCache cache(&model_store, &bcache, &metrics);
  for (engine::Version v = kHistory - cached; v < kHistory; ++v) {
    (void)cache.value_at(v);
  }

  double total_ms = 0.0;
  for (int i = 0; i < kMisses; ++i) {
    const engine::Version v = kHistory + static_cast<engine::Version>(i);
    support::Stopwatch watch;
    const auto resolved = cache.value_at(v);
    total_ms += watch.elapsed_ms();
    if ((*resolved)[0] > 1e300) std::cout << "";  // keep the resolve observable
    // Evict exactly as GC would: the oldest version and its payload id.
    const engine::Version oldest = v - cached;
    cache.drop_below(oldest + 1, {*model_store.id_of(oldest)});
  }
  return total_ms * 1e6 / kMisses;
}

}  // namespace

int main() {
  bench::banner("Micro: model-store resolution, delta chain vs full snapshot",
                "a worker holding version v-1 pays O(delta-nnz) wire bytes for "
                "version v, not O(dim)");

  constexpr std::size_t kDim = 16384;
  constexpr engine::Version kVersions = 16;  // one base + 15 deltas
  const std::vector<double> kDensities = {0.0001, 0.001, 0.01, 0.1};

  metrics::Table table({"update density", "publish ns (delta)",
                        "resolve ns (snapshot)", "resolve ns (delta)",
                        "step B (snapshot)", "step B (delta)", "bytes ratio"});
  std::vector<std::string> rows;
  std::vector<std::pair<std::string, double>> json;
  bool chains_bit_identical = true;

  for (double density : kDensities) {
    engine::BroadcastStore snap_broadcasts;
    store::StoreConfig snap_config;
    snap_config.delta_enabled = false;
    store::ModelStore snap_store(&snap_broadcasts, snap_config);
    const auto snap_published = publish_churn(snap_store, kDim, kVersions, density);

    engine::BroadcastStore delta_broadcasts;
    store::StoreConfig delta_config;
    delta_config.base_interval = kVersions;  // a single chain for the sweep
    store::ModelStore delta_store(&delta_broadcasts, delta_config);
    const auto delta_published = publish_churn(delta_store, kDim, kVersions, density);
    chains_bit_identical =
        chains_bit_identical &&
        chain_bit_identical(snap_broadcasts, snap_store, snap_published) &&
        chain_bit_identical(delta_broadcasts, delta_store, delta_published);
    const double publish = publish_ns(kDim, density, kVersions);

    const double nnz_per_chain =
        std::max(1.0, density * static_cast<double>(kDim) *
                          static_cast<double>(kVersions - 1));
    const int iters = static_cast<int>(std::clamp(
        4.0e7 / (nnz_per_chain + static_cast<double>(kDim)), 50.0, 20000.0));

    const CaseResult snap =
        run_case(snap_broadcasts, snap_store, kVersions - 1, iters);
    const CaseResult delta =
        run_case(delta_broadcasts, delta_store, kVersions - 1, iters);

    const auto whole = [](double v) {
      return std::to_string(static_cast<long long>(v + 0.5));
    };
    table.add_row(
        {metrics::Table::num(density, 4), whole(publish), whole(snap.ns_per_resolve),
         whole(delta.ns_per_resolve), std::to_string(snap.step_wire_bytes),
         std::to_string(delta.step_wire_bytes),
         metrics::Table::num(static_cast<double>(snap.step_wire_bytes) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, delta.step_wire_bytes)),
                             3)});
    std::ostringstream os;
    os << density << ',' << publish << ',' << snap.ns_per_resolve << ','
       << delta.ns_per_resolve << ',' << snap.step_wire_bytes << ','
       << delta.step_wire_bytes;
    rows.push_back(os.str());

    const std::string level = "d" + std::to_string(static_cast<int>(density * 10000));
    json.emplace_back("micro_model_store.publish." + level + "_ns", publish);
    const std::string key = "micro_model_store." + level;
    json.emplace_back(key + ".snapshot_ns", snap.ns_per_resolve);
    json.emplace_back(key + ".delta_ns", delta.ns_per_resolve);
    json.emplace_back(key + ".bytes_ratio",
                      static_cast<double>(snap.step_wire_bytes) /
                          static_cast<double>(
                              std::max<std::uint64_t>(1, delta.step_wire_bytes)));
  }

  // Miss resolve vs cache occupancy: planning walks only the chain, so the
  // cost is flat in the number of materialized versions.
  metrics::Table occupancy({"cached versions", "miss resolve ns"});
  for (const std::size_t cached : {std::size_t{16}, std::size_t{8192}}) {
    const double ns = miss_resolve_ns(cached);
    occupancy.add_row({std::to_string(cached),
                       std::to_string(static_cast<long long>(ns + 0.5))});
    json.emplace_back("micro_model_store.miss_resolve.c" + std::to_string(cached) +
                          "_ns",
                      ns);
  }

  json.emplace_back("micro_model_store.chain.bit_identical",
                    chains_bit_identical ? 1.0 : 0.0);

  bench::write_csv("micro_model_store.csv",
                   "density,publish_ns,snapshot_ns,delta_ns,snapshot_bytes,delta_bytes",
                   rows);
  bench::update_bench_json(json);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nshape check: per-version delta bytes collapse at low update "
               "density and approach one snapshot as deltas densify; delta "
               "resolution pays an O(dim) ancestor copy plus O(nnz) applies "
               "(microseconds) for orders-of-magnitude fewer wire bytes.\n\n";
  occupancy.print(std::cout);
  std::cout << "\nshape check: miss resolve cost is flat in cache occupancy "
               "(the walk probes only the chain's links).\n";
  if (!chains_bit_identical) {
    std::cerr << "FAIL: a resolved version differs from the published model\n";
    return 1;
  }
  return 0;
}
