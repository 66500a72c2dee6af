// Microbenchmark — the sharded model plane's routing/scatter/assembly path.
//
// Two costs a sharded plane (docs/SHARDING.md) adds or removes versus the
// single-store reference, swept over S ∈ {2, 4, 8} at dim 16384:
//   * route:    ShardMap::shard_of/local_of over a sparse support list — the
//               per-coordinate routing arithmetic gradient scatter pays;
//   * resolve:  materializing a version from per-shard delta chains, masked
//               (a one-shard support set, the sparse-workload fast path) vs
//               the full S-shard assembly, with the modeled wire bytes a warm
//               worker pays for the v−1 → v step in each mode.
//
// Like bench_micro_grad_batch this doubles as an invariant check: the masked
// and full assemblies must be bit-identical to the unsharded store's
// materialization, and the process exits 1 when they are not, so the CI
// bench-perf job fails hard on a sharding correctness break.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/shard_map.hpp"
#include "harness.hpp"
#include "store/model_cache.hpp"
#include "store/model_store.hpp"
#include "store/sharded_store.hpp"

using namespace asyncml;

namespace {

constexpr std::size_t kDim = 16384;
constexpr engine::Version kVersions = 32;
constexpr std::size_t kTouchesPerVersion = 32;  // ~0.2% update density
constexpr int kPasses = 6;                      // first pass warms, 5 measured

/// Identical sparse churn into any store with a publish(w, v) method.
template <typename Store>
void publish_churn(Store& model_store) {
  support::RngStream rng(7);
  linalg::DenseVector w(kDim);
  for (engine::Version v = 0; v < kVersions; ++v) {
    for (std::size_t t = 0; t < kTouchesPerVersion; ++t) {
      w[rng.next_below(kDim)] += rng.uniform(-1.0, 1.0);
    }
    model_store.publish(w, v);
  }
}

/// Modeled wire bytes a worker holding version v−1 pays to materialize the
/// chain head of one shard (micro_model_store's warm-worker step).
std::uint64_t shard_step_bytes(const engine::BroadcastStore& broadcasts,
                               store::ModelStore& shard, engine::Version head) {
  const auto at_head = shard.latest_at_or_below(head);
  const auto at_prev = shard.latest_at_or_below(head - 1);
  if (!at_head.has_value() || !at_prev.has_value()) return 0;
  engine::NetworkModel net;
  net.time_scale = 0.0;
  engine::ClusterMetrics metrics(1);
  engine::BroadcastCache bcache(&broadcasts, &net, &metrics);
  store::VersionedModelCache cache(&shard, &bcache, &metrics);
  (void)cache.value_at(*at_prev);
  metrics.broadcast_bytes.reset();
  (void)cache.value_at(*at_head);
  return metrics.broadcast_bytes.load();
}

struct CaseResult {
  double route_ns = 0.0;  ///< per routed support list (4096 coords)
  double masked_resolve_ns = 0.0;
  double full_resolve_ns = 0.0;
  std::uint64_t masked_step_bytes = 0;
  std::uint64_t full_step_bytes = 0;
  bool bit_identical = true;
};

CaseResult run_case(std::uint32_t num_shards) {
  CaseResult out;
  const core::ShardMap map(kDim, num_shards);

  // ---- route: shard_of/local_of over a sparse support list. ---------------
  {
    support::RngStream rng(11);
    std::vector<std::uint32_t> coords(4096);
    for (auto& c : coords) c = static_cast<std::uint32_t>(rng.next_below(kDim));
    std::uint64_t sink = 0;
    const int iters = 2000;
    support::Stopwatch watch;
    for (int it = 0; it < iters; ++it) {
      for (const std::uint32_t c : coords) {
        sink += map.shard_of(c) + map.local_of(c);
      }
    }
    out.route_ns = watch.elapsed_ms() * 1e6 / iters;
    if (sink == 0) std::cout << "";  // keep the routing observable
  }

  // ---- resolve: masked vs full assembly from per-shard delta chains. ------
  core::ShardSet mask;
  mask.ids = {0};
  store::StoreConfig sharded_cfg;
  sharded_cfg.num_shards = num_shards;
  double masked_ms = 0.0;
  double full_ms = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    engine::BroadcastStore masked_bcasts;
    store::ShardedModelStore masked_store(&masked_bcasts, sharded_cfg);
    publish_churn(masked_store);
    engine::BroadcastStore full_bcasts;
    store::ShardedModelStore full_store(&full_bcasts, sharded_cfg);
    publish_churn(full_store);

    support::Stopwatch masked_watch;
    for (engine::Version v = 0; v < kVersions; ++v) {
      (void)masked_store.value_at(v, &mask);
    }
    if (pass > 0) masked_ms += masked_watch.elapsed_ms();

    support::Stopwatch full_watch;
    for (engine::Version v = 0; v < kVersions; ++v) {
      (void)full_store.value_at(v);
    }
    if (pass > 0) full_ms += full_watch.elapsed_ms();

    if (pass == 0) {
      // Invariant + wire model, once: against the unsharded reference.
      engine::BroadcastStore ref_bcasts;
      store::ModelStore ref_store(&ref_bcasts);
      publish_churn(ref_store);
      for (engine::Version v = 0; v < kVersions; ++v) {
        const linalg::DenseVector& want = ref_store.driver_cache().value_at(v);
        const linalg::DenseVector& masked_got = masked_store.value_at(v, &mask);
        for (std::uint32_t local = 0; local < map.shard_dim(0); ++local) {
          const std::uint32_t i = map.global_of(0, local);
          if (masked_got[i] != want[i]) out.bit_identical = false;
        }
        const linalg::DenseVector& full_got = full_store.value_at(v);
        for (std::size_t i = 0; i < kDim; ++i) {
          if (full_got[i] != want[i]) out.bit_identical = false;
        }
      }
      out.masked_step_bytes =
          shard_step_bytes(masked_bcasts, masked_store.shard(0), kVersions - 1);
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        out.full_step_bytes +=
            shard_step_bytes(full_bcasts, full_store.shard(s), kVersions - 1);
      }
    }
  }
  const double denom = static_cast<double>((kPasses - 1) * kVersions);
  out.masked_resolve_ns = masked_ms * 1e6 / denom;
  out.full_resolve_ns = full_ms * 1e6 / denom;
  return out;
}

}  // namespace

int main() {
  bench::banner("Micro: shard routing, scatter and masked assembly",
                "a sparse batch whose support touches one of S shards "
                "resolves and pays wire bytes for that shard alone");

  metrics::Table table({"S", "route ns", "resolve ns (masked)", "resolve ns (full)",
                        "step B (masked)", "step B (full)", "bytes ratio"});
  std::vector<std::string> rows;
  std::vector<std::pair<std::string, double>> json;
  bool all_bit_identical = true;

  for (const std::uint32_t num_shards : {2u, 4u, 8u}) {
    const CaseResult r = run_case(num_shards);
    all_bit_identical = all_bit_identical && r.bit_identical;
    const double bytes_ratio =
        static_cast<double>(r.full_step_bytes) /
        static_cast<double>(std::max<std::uint64_t>(1, r.masked_step_bytes));

    const auto whole = [](double v) {
      return std::to_string(static_cast<long long>(v + 0.5));
    };
    table.add_row({std::to_string(num_shards), whole(r.route_ns),
                   whole(r.masked_resolve_ns), whole(r.full_resolve_ns),
                   std::to_string(r.masked_step_bytes), std::to_string(r.full_step_bytes),
                   metrics::Table::num(bytes_ratio, 3)});
    std::ostringstream os;
    os << num_shards << ',' << r.route_ns << ',' << r.masked_resolve_ns << ',' << r.full_resolve_ns << ','
       << r.masked_step_bytes << ',' << r.full_step_bytes;
    rows.push_back(os.str());

    std::ostringstream key;
    key << "micro_shard_route.s" << num_shards;
    json.emplace_back(key.str() + ".route_ns", r.route_ns);
    json.emplace_back(key.str() + ".masked_resolve_ns", r.masked_resolve_ns);
    json.emplace_back(key.str() + ".full_resolve_ns", r.full_resolve_ns);
    json.emplace_back(key.str() + ".bytes_ratio", bytes_ratio);
  }
  json.emplace_back("micro_shard_route.assembly.bit_identical",
                    all_bit_identical ? 1.0 : 0.0);

  bench::write_csv("micro_shard_route.csv",
                   "shards,route_ns,masked_resolve_ns,full_resolve_ns,"
                   "masked_step_bytes,full_step_bytes",
                   rows);
  bench::update_bench_json(json);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nshape check: masked resolution cost and step bytes stay "
               "roughly flat in S while the full assembly scales with it, so "
               "the bytes ratio grows ~linearly; routing is a "
               "nanosecond-scale overhead.\n";
  if (!all_bit_identical) {
    std::cerr << "FAIL: sharded assembly diverged from the unsharded store\n";
    return 1;
  }
  return 0;
}
