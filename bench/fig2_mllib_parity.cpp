// Figure 2 — "The performance of SGD implemented in ASYNC versus Mllib."
//
// The paper shows that ASYNC's synchronous SGD matches MLlib's on all three
// datasets (same initial step, MLlib's 1/√t decay), establishing that the
// synchronous baselines of the later figures are well optimized.  Here, as in
// the paper, SGD runs in ASYNC (SgdSolver: w published through
// ASYNCbroadcast, each round dispatched and collected through the
// ASYNCscheduler) and MLlib-SGD on plain Spark stages (a fresh broadcast per
// iteration, treeAggregate).  Both draw the same mini-batches and apply the
// same step.  Expected shape: overlapping error-vs-time curves per dataset.

#include <iostream>

#include "harness.hpp"

using namespace asyncml;

int main() {
  bench::banner("Figure 2: SGD in ASYNC vs MLlib-style SGD (8 workers)",
                "the two implementations have near-identical error-vs-time curves");

  constexpr int kWorkers = 8;
  constexpr int kPartitions = 32;
  constexpr std::uint64_t kIterations = 60;

  metrics::Table summary({"dataset", "final err (ASYNC)", "final err (MLlib)",
                          "wall ms (ASYNC)", "wall ms (MLlib)", "parity"});
  std::vector<std::string> rows;

  for (const bench::BenchDataset& ds : bench::all_datasets(/*row_scale=*/2.0)) {
    const optim::Workload workload =
        optim::Workload::create(ds.data, kPartitions, optim::make_least_squares());
    const bench::RunPlan plan = bench::make_plan(ds, /*saga=*/false, kIterations,
                                                 kPartitions, /*seed=*/7);

    engine::Cluster c1(bench::cluster_config(kWorkers));
    const optim::RunResult sgd = optim::SgdSolver::run(c1, workload, plan.sync_config);
    engine::Cluster c2(bench::cluster_config(kWorkers));
    const optim::RunResult mllib =
        optim::MllibSgdSolver::run(c2, workload, plan.sync_config);

    for (const std::string& r : bench::trace_rows(ds.name + "-ASYNC", sgd.trace)) {
      rows.push_back(r);
    }
    for (const std::string& r : bench::trace_rows(ds.name + "-MLlib", mllib.trace)) {
      rows.push_back(r);
    }

    const double ratio =
        (sgd.final_error() + 1e-15) / (mllib.final_error() + 1e-15);
    summary.add_row({ds.name, metrics::Table::num(sgd.final_error()),
                     metrics::Table::num(mllib.final_error()),
                     metrics::Table::num(sgd.wall_ms, 4),
                     metrics::Table::num(mllib.wall_ms, 4),
                     (ratio > 0.5 && ratio < 2.0) ? "yes" : "NO"});
  }

  bench::write_csv("fig2.csv", "series,time_ms,update,error", rows);
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "\nshape check: 'parity' should be yes on every dataset (paper: "
               "curves overlap).\n";
  return 0;
}
