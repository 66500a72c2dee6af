// Figure 4 — "Average wait time per iteration with 8 workers for ASGD and
// SGD in ASYNC for different delay intensities."
//
// Wait time: from a worker submitting its task result until it receives the
// next task.  Expected shape (paper): SGD's average wait grows markedly with
// delay intensity (everyone waits for the straggler at the barrier); ASGD's
// is flat and small.
//
// Beyond the paper, a dynamic-placement section reruns the barrier-wait SGD
// with the ASYNCscheduler's work stealing + speculative replication
// (docs/SCHEDULING.md): under the controlled-delay straggler the straggler
// sheds partitions to healthy peers and overdue tasks are replicated, so the
// same trajectory reaches the target objective >= 1.3x sooner; with no delay
// installed nothing fires and the fixed-placement trajectory is reproduced
// bit for bit.

#include <iostream>

#include "harness.hpp"

using namespace asyncml;

int main() {
  bench::banner(
      "Figure 4: average wait time per iteration, ASGD vs SGD (8 workers, CDS)",
      "SGD wait grows with delay intensity; ASGD wait is flat");

  constexpr int kWorkers = 8;
  constexpr int kPartitions = 32;
  constexpr std::uint64_t kIterations = 30;
  const std::vector<double> kDelays = {0.0, 0.3, 0.6, 1.0};

  metrics::Table summary({"dataset", "delay", "SGD wait ms", "ASGD wait ms",
                          "SGD p95 ms", "ASGD p95 ms"});
  std::vector<std::string> rows;

  for (const bench::BenchDataset& ds : bench::all_datasets(/*row_scale=*/2.0)) {
    const optim::Workload workload =
        optim::Workload::create(ds.data, kPartitions, optim::make_least_squares());
    const bench::RunPlan plan =
        bench::make_plan(ds, /*saga=*/false, kIterations, kPartitions, /*seed=*/13,
                        /*service_floor_ms=*/6.0);

    for (double delay : kDelays) {
      auto model = delay > 0.0
                       ? std::make_shared<straggler::ControlledDelay>(0, delay)
                       : std::shared_ptr<straggler::ControlledDelay>();

      engine::Cluster sync_cluster(bench::cluster_config(kWorkers, model));
      const optim::RunResult sync =
          optim::SgdSolver::run(sync_cluster, workload, plan.sync_config);

      engine::Cluster async_cluster(bench::cluster_config(kWorkers, model));
      const optim::RunResult async_run =
          optim::AsgdSolver::run(async_cluster, workload, plan.async_config);

      std::ostringstream os;
      os << ds.name << ',' << delay << ',' << sync.mean_wait_ms << ','
         << async_run.mean_wait_ms;
      rows.push_back(os.str());
      summary.add_row({ds.name, std::to_string(static_cast<int>(delay * 100)) + "%",
                       metrics::Table::num(sync.mean_wait_ms, 4),
                       metrics::Table::num(async_run.mean_wait_ms, 4),
                       metrics::Table::num(sync.p95_wait_ms, 4),
                       metrics::Table::num(async_run.p95_wait_ms, 4)});
    }
  }

  bench::write_csv("fig4.csv", "dataset,delay,sgd_wait_ms,asgd_wait_ms", rows);
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "\nshape check: within each dataset, the SGD column rises with delay "
               "while the ASGD column stays ~constant (paper Fig 4).\n";

  // ---- Dynamic placement: work stealing + speculative replication ---------
  // Barrier-wait SGD through the scheduler, 24 partitions (3 per worker) so
  // the straggler's backlog is visible per round. "off" = fixed placement;
  // "on" = stealing + speculation. Same seeds + partition-ordered combining
  // => the trajectories must match bit for bit; only wall clock may differ.
  bench::banner(
      "Figure 4b: barrier-wait SGD with work stealing + speculative replication",
      "steal+spec reaches the target objective >= 1.3x sooner under CDS; "
      "no-delay trajectory is bit-identical to fixed placement");

  // Deliberately the same setup (and seed) as bench_ablation_stealing's
  // fixed / steal+spec rows, so the two binaries cross-check each other's
  // numbers.
  constexpr int kStealPartitions = 24;
  const bench::BenchDataset ds = bench::load_dataset("epsilon", /*row_scale=*/1.0);
  const optim::Workload workload = optim::Workload::create(
      ds.data, kStealPartitions, optim::make_least_squares());
  const bench::RunPlan plan =
      bench::make_plan(ds, /*saga=*/false, /*sync_iterations=*/20, kStealPartitions,
                       /*seed=*/47, /*service_floor_ms=*/6.0);

  metrics::Table steal_table({"delay", "placement", "wall ms", "mean wait ms",
                              "stolen", "specul.", "dups", "migration KB",
                              "time-to-target speedup"});
  std::vector<std::string> steal_rows;

  for (double delay : {0.0, 1.0}) {
    auto model = delay > 0.0
                     ? std::make_shared<straggler::ControlledDelay>(0, delay)
                     : std::shared_ptr<straggler::ControlledDelay>();

    optim::SolverConfig off = plan.sync_config;
    engine::Cluster off_cluster(bench::cluster_config(kWorkers, model));
    const optim::RunResult fixed = optim::SgdSolver::run(off_cluster, workload, off);

    optim::SolverConfig on = off;
    on.steal_mode = core::StealMode::kLocality;
    on.speculation_factor = 2.0;
    engine::Cluster on_cluster(bench::cluster_config(kWorkers, model));
    const optim::RunResult dynamic = optim::SgdSolver::run(on_cluster, workload, on);

    const bool bit_identical = linalg::bitwise_equal(fixed.final_w, dynamic.final_w);

    for (const auto* run : {&fixed, &dynamic}) {
      const bool on_run = run == &dynamic;
      std::ostringstream os;
      os << delay << ',' << (on_run ? "steal+spec" : "fixed") << ',' << run->wall_ms
         << ',' << run->mean_wait_ms << ',' << run->partitions_stolen << ','
         << run->tasks_speculated << ',' << run->duplicates_dropped << ','
         << run->migration_bytes / 1024;
      steal_rows.push_back(os.str());
      steal_table.add_row(
          {std::to_string(static_cast<int>(delay * 100)) + "%",
           on_run ? "steal+spec" : "fixed", metrics::Table::num(run->wall_ms, 4),
           metrics::Table::num(run->mean_wait_ms, 4),
           std::to_string(run->partitions_stolen),
           std::to_string(run->tasks_speculated),
           std::to_string(run->duplicates_dropped),
           std::to_string(run->migration_bytes / 1024),
           on_run ? bench::speedup_str(fixed.trace, dynamic.trace) : "1.00x"});
    }
    std::cout << "  [check] delay " << static_cast<int>(delay * 100)
              << "%: trajectories bit-identical: " << (bit_identical ? "yes" : "NO")
              << "\n";
  }

  bench::write_csv("fig4_stealing.csv",
                   "delay,placement,wall_ms,mean_wait_ms,stolen,speculated,dups,"
                   "migration_kb",
                   steal_rows);
  std::cout << "\n";
  steal_table.print(std::cout);
  std::cout << "\nshape check: at 100% delay the steal+spec time-to-target speedup "
               "is >= 1.3x; at 0% delay zero steals and a bit-identical "
               "trajectory.\n";
  return 0;
}
