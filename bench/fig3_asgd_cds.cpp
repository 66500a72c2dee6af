// Figure 3 (a–c) — "The performance of ASGD and SGD in ASYNC with 8 workers
// for different delay intensities of 0%, 30%, 60% and 100%."
//
// Controlled Delay Straggler: one of 8 workers is slowed by the delay
// intensity.  Expected shape (paper): SGD's curves stretch right as the
// delay grows; ASGD's curves are nearly delay-invariant; at 100% delay ASGD
// reaches the sync run's error up to ~2x faster.

#include <iostream>

#include "harness.hpp"

using namespace asyncml;

int main() {
  bench::banner(
      "Figure 3: ASGD vs SGD under a controlled-delay straggler (8 workers)",
      "ASGD converges at the same rate for every delay; SGD degrades with delay; "
      "~2x speedup at 100% delay");

  constexpr int kWorkers = 8;
  constexpr int kPartitions = 32;
  constexpr std::uint64_t kIterations = 40;
  const std::vector<double> kDelays = {0.0, 0.3, 0.6, 1.0};

  // "task compute µs" is the real CPU time per task before service-floor
  // padding: wall clock here is floor-pinned by design (the floor models the
  // cluster), so the fused batch kernels' win surfaces in this column, not
  // in wall time.
  metrics::Table summary(
      {"dataset", "delay", "SGD wall ms", "ASGD wall ms", "SGD err", "ASGD err",
       "speedup(ASGD vs SGD)", "task compute us", "ASGD result KB",
       "ASGD bcast KB (base+delta)"});
  std::vector<std::string> rows;

  for (const bench::BenchDataset& ds : bench::all_datasets(/*row_scale=*/2.0)) {
    const optim::Workload workload =
        optim::Workload::create(ds.data, kPartitions, optim::make_least_squares());
    const bench::RunPlan plan =
        bench::make_plan(ds, /*saga=*/false, kIterations, kPartitions, /*seed=*/11,
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

      const std::string tag = ds.name + "-d" + std::to_string(static_cast<int>(delay * 100));
      for (const std::string& r : bench::trace_rows(tag + "-Sync", sync.trace)) {
        rows.push_back(r);
      }
      for (const std::string& r : bench::trace_rows(tag + "-ASYNC", async_run.trace)) {
        rows.push_back(r);
      }

      summary.add_row({ds.name, std::to_string(static_cast<int>(delay * 100)) + "%",
                       metrics::Table::num(sync.wall_ms, 4),
                       metrics::Table::num(async_run.wall_ms, 4),
                       metrics::Table::num(sync.final_error()),
                       metrics::Table::num(async_run.final_error()),
                       bench::speedup_str(sync.trace, async_run.trace),
                       metrics::Table::num(async_run.mean_task_compute_ms * 1e3, 4),
                       metrics::Table::num(
                           static_cast<double>(async_run.result_bytes) / 1024.0, 4),
                       bench::bcast_kb_str(async_run)});
    }
  }

  bench::write_csv("fig3.csv", "series,time_ms,update,error", rows);
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "\nshape check: SGD wall time grows with delay; ASGD wall time stays "
               "~flat; speedup grows with delay (paper: up to 2x at 100%).\n";

  // ---- Charged vs measured wire bytes (docs/TRANSPORT.md). ----------------
  // The same seeded ASGD run twice: over the in-process backend, whose wire
  // counters record the *charged* (modeled) payload bytes, and over the
  // Unix-socket backend, whose counters record the *measured* frame bytes
  // actually moved between processes — one ClusterMetrics path for both.
  // Measured may exceed charged only by framing overhead (20-byte header +
  // msgpack field tags per frame); anything beyond that allowance is flagged
  // as divergence. The lz4 delta chain legitimately undershoots — that gap
  // is the compression win, reported as a ratio.
  const bench::BenchDataset wire_ds = bench::load_dataset("rcv1", /*row_scale=*/1.0);
  const optim::Workload wire_workload =
      optim::Workload::create(wire_ds.data, kPartitions, optim::make_least_squares());
  const bench::RunPlan wire_plan =
      bench::make_plan(wire_ds, /*saga=*/false, /*sync_iterations=*/8, kPartitions,
                       /*seed=*/11, /*service_floor_ms=*/2.0);

  engine::Cluster charged_cluster(bench::cluster_config(kWorkers));
  const optim::RunResult charged_run =
      optim::AsgdSolver::run(charged_cluster, wire_workload, wire_plan.async_config);

  engine::Cluster::Config socket_cfg = bench::cluster_config(kWorkers);
  socket_cfg.transport.backend = transport::Backend::kUnixSocket;
  engine::Cluster measured_cluster(std::move(socket_cfg));
  const optim::RunResult measured_run =
      optim::AsgdSolver::run(measured_cluster, wire_workload, wire_plan.async_config);

  // Generous per-frame allowance for header + msgpack structure around the
  // payload bins; real overhead is far below this.
  constexpr std::uint64_t kFrameAllowanceBytes = 256;
  const char* kChannelNames[engine::kNumWireChannels] = {"task", "result", "model",
                                                         "control"};
  metrics::Table wire_table({"channel", "charged KB", "measured sent KB",
                             "measured recv KB", "frames", "verdict"});
  bool diverged = false;
  for (std::size_t ch = 0; ch < engine::kNumWireChannels; ++ch) {
    const auto& charged = charged_run.wire[ch];
    const auto& measured = measured_run.wire[ch];
    const std::uint64_t allowance = measured.frames * kFrameAllowanceBytes;
    std::string verdict = "ok";
    if (measured.bytes_sent > charged.bytes_sent + allowance) {
      verdict = "DIVERGED (+" +
                std::to_string(measured.bytes_sent - charged.bytes_sent) + " B)";
      diverged = true;
    } else if (charged.bytes_sent > 0 &&
               measured.bytes_sent + allowance < charged.bytes_sent) {
      // Undershoot = the lz4 delta chain compressing below the modeled size.
      verdict = "compressed " +
                metrics::Table::num(static_cast<double>(charged.bytes_sent) /
                                        static_cast<double>(std::max<std::uint64_t>(
                                            1, measured.bytes_sent)),
                                    3) +
                "x";
    }
    wire_table.add_row(
        {kChannelNames[ch],
         metrics::Table::num(static_cast<double>(charged.bytes_sent) / 1024.0, 4),
         metrics::Table::num(static_cast<double>(measured.bytes_sent) / 1024.0, 4),
         metrics::Table::num(static_cast<double>(measured.bytes_received) / 1024.0, 4),
         std::to_string(measured.frames), verdict});
  }
  std::cout << "\ncharged (in-process) vs measured (unix-socket) wire bytes, "
               "ASGD on rcv1 (err "
            << metrics::Table::num(charged_run.final_error()) << " vs "
            << metrics::Table::num(measured_run.final_error()) << "):\n";
  wire_table.print(std::cout);
  std::cout << (diverged
                    ? "WARNING: measured bytes exceed charged + framing allowance "
                      "— the cost model and the real wire disagree.\n"
                    : "shape check: measured stays within framing overhead of "
                      "charged (delta channel may undershoot via lz4).\n");
  return 0;
}
