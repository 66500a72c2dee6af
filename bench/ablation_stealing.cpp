// Ablation A4 — dynamic placement: work stealing × speculative replication.
//
// Barrier-wait SGD in ASYNC (SgdSolver, every round dispatched and collected
// through the ASYNCscheduler) under the controlled-delay straggler, with each
// combination of the two dynamic-placement features (docs/SCHEDULING.md):
//
//   fixed       classic p % W placement (the seed scheduler)
//   steal       locality-aware work stealing only
//   spec        speculative task replication only
//   steal+spec  both
//
// Expected shape: with no delay all four run alike (zero steals, trajectory
// bit-identical — the steal trigger keeps host hiccups from reshuffling a
// healthy cluster, docs/SCHEDULING.md §3). At 100% delay, stealing rebalances the straggler's
// backlog once (a handful of one-time migrations), speculation trims the
// in-round tail, and the combination reaches the target objective fastest —
// all with bit-identical iterates, since replicas recompute the same
// (seed, partition, seq) mini-batches and results combine in partition order.

#include <iostream>
#include <optional>

#include "harness.hpp"

using namespace asyncml;

int main() {
  bench::banner(
      "Ablation A4: work stealing x speculative replication (barrier-wait SGD, CDS)",
      "steal+spec cuts wall-clock-to-target >= 1.3x at 100% delay; no-delay "
      "runs are bit-identical to fixed placement");

  constexpr int kWorkers = 8;
  constexpr int kPartitions = 24;  // 3 per worker: backlog visible per round
  constexpr std::uint64_t kIterations = 20;

  const bench::BenchDataset ds = bench::load_dataset("epsilon", /*row_scale=*/1.0);
  const optim::Workload workload =
      optim::Workload::create(ds.data, kPartitions, optim::make_least_squares());
  const bench::RunPlan plan =
      bench::make_plan(ds, /*saga=*/false, kIterations, kPartitions, /*seed=*/47,
                       /*service_floor_ms=*/6.0);

  struct Entry {
    const char* name;
    core::StealMode steal;
    double speculation;
  };
  const std::vector<Entry> entries = {
      {"fixed", core::StealMode::kOff, 0.0},
      {"steal", core::StealMode::kLocality, 0.0},
      {"spec", core::StealMode::kOff, 2.0},
      {"steal+spec", core::StealMode::kLocality, 2.0},
  };

  metrics::Table table({"delay", "placement", "wall ms", "mean wait ms", "stolen",
                        "specul.", "dups", "migration KB", "vs fixed"});
  std::vector<std::string> rows;

  for (double delay : {0.0, 1.0}) {
    auto model = delay > 0.0
                     ? std::make_shared<straggler::ControlledDelay>(0, delay)
                     : std::shared_ptr<straggler::ControlledDelay>();

    std::optional<optim::RunResult> fixed;
    for (const Entry& entry : entries) {
      optim::SolverConfig config = plan.sync_config;
      config.steal_mode = entry.steal;
      config.speculation_factor = entry.speculation;

      engine::Cluster cluster(bench::cluster_config(kWorkers, model));
      const optim::RunResult run = optim::SgdSolver::run(cluster, workload, config);

      const std::string vs_fixed =
          fixed.has_value() ? bench::speedup_str(fixed->trace, run.trace) : "1.00x";
      const bool bits_match =
          !fixed.has_value() || linalg::bitwise_equal(fixed->final_w, run.final_w);
      if (!bits_match) {
        std::cout << "  [check] WARNING: " << entry.name << " at delay " << delay
                  << " diverged from the fixed-placement trajectory\n";
      }

      std::ostringstream os;
      os << delay << ',' << entry.name << ',' << run.wall_ms << ',' << run.mean_wait_ms
         << ',' << run.partitions_stolen << ',' << run.tasks_speculated << ','
         << run.duplicates_dropped << ',' << run.migration_bytes / 1024;
      rows.push_back(os.str());
      table.add_row({std::to_string(static_cast<int>(delay * 100)) + "%", entry.name,
                     metrics::Table::num(run.wall_ms, 4),
                     metrics::Table::num(run.mean_wait_ms, 4),
                     std::to_string(run.partitions_stolen),
                     std::to_string(run.tasks_speculated),
                     std::to_string(run.duplicates_dropped),
                     std::to_string(run.migration_bytes / 1024), vs_fixed});

      if (!fixed.has_value()) fixed = run;
    }
  }

  bench::write_csv("ablation_stealing.csv",
                   "delay,placement,wall_ms,mean_wait_ms,stolen,speculated,dups,"
                   "migration_kb",
                   rows);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nshape check: at 0% delay every row matches fixed (0 steals, "
               "bit-identical trajectory); at 100% delay steal+spec is the "
               "fastest row with >= 1.3x vs fixed.\n";
  return 0;
}
