// Microbenchmark — fused batch gradient kernels vs the per-row pipeline.
//
// Times one gradient task's body (the solvers' hot path) both ways:
//   per-row: the reference oracle (tests/reference/per_row.hpp), the RDD
//            sink chain — Bernoulli sample per element, virtual
//            Loss::derivative per row, RowRef dispatch, GradCount moved
//            through the seq op per row;
//   fused:   optim/grad_batch.hpp — one sampling pass, batch margins
//            (gemv / row-slice spmv), loss-kind-dispatched batch derivative,
//            transposed accumulate, per-thread scratch arena.
// Cases follow the paper's (dataset, solver, mini-batch rate) grid —
// epsilon/mnist8m-like dense and rcv1-like sparse at their §6.1 fractions,
// with row-scaled partitions so the per-row pipeline's per-element costs are
// not understated by toy partitions.  Every timed pair is first
// cross-checked for bit-identical results, and a 1-worker fig3-style
// SgdSolver run must bit-match the per-row reference SGD loop.  Metrics
// land in bench_results/BENCH_micro.json for tools/bench_diff.py.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>

#include "harness.hpp"
#include "optim/grad_batch.hpp"
#include "optim/solver_util.hpp"
#include "reference/per_row.hpp"

using namespace asyncml;

namespace {

engine::TaskContext task_context(engine::PartitionId partition, std::uint64_t seq,
                                 std::uint64_t seed) {
  engine::TaskContext ctx;
  ctx.worker = 0;
  ctx.partition = partition;
  ctx.seq = seq;
  // Exactly the worker's derivation (engine/worker.cpp).
  ctx.rng = support::RngStream(seed)
                .substream(static_cast<std::uint64_t>(partition) + 1)
                .substream(seq);
  return ctx;
}

bool grad_counts_bit_equal(const optim::GradCount& a, const optim::GradCount& b) {
  return a.count == b.count && a.grad.size_bytes() == b.grad.size_bytes() &&
         a.grad.is_dense() == b.grad.is_dense() &&
         linalg::bitwise_equal(a.grad.to_dense(), b.grad.to_dense());
}

struct CaseResult {
  double perrow_ns = 0.0;
  double fused_ns = 0.0;
  bool bit_identical = true;
  [[nodiscard]] double speedup() const { return perrow_ns / std::max(1.0, fused_ns); }
};

/// Times both task bodies over `iters` rounds cycling through partitions.
CaseResult run_case(const optim::Workload& workload, double fraction, int iters) {
  const linalg::GradVectorConfig grad_cfg =
      optim::SolverConfig{}.grad_config(workload.dim(), workload.dataset->density(),
                                        fraction * static_cast<double>(workload.n()) /
                                            workload.num_partitions());
  linalg::DenseVector w(workload.dim());
  // A non-trivial model so derivative values vary.
  support::RngStream wrng(99);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = wrng.uniform(-0.5, 0.5);
  // Real history-broadcast handle, as the solvers capture it: the per-row
  // path resolves value() through the model store PER ROW (the pre-fused
  // production hot path); the fused body resolves once per task.
  engine::BroadcastStore store;
  auto history = std::make_shared<store::ModelStore>(&store);
  history->publish(w, /*version=*/0);
  const core::HistoryBroadcast handle(history, /*pinned=*/0);

  const auto perrow_fn =
      optim::reference::grad_task_fn(workload, handle, grad_cfg, fraction);
  const auto fused_fn = optim::detail::make_grad_batch_fn(
      workload.dataset, workload.partitions, workload.loss, handle, grad_cfg,
      fraction);

  CaseResult out;
  const int parts = workload.num_partitions();

  // Cross-check first (not timed): every (partition, seq) pair bit-matches.
  for (int k = 0; k < parts; ++k) {
    auto ctx_a = task_context(k % parts, static_cast<std::uint64_t>(k), 42);
    auto ctx_b = task_context(k % parts, static_cast<std::uint64_t>(k), 42);
    const auto a = (*perrow_fn)(ctx_a);
    const auto b = (*fused_fn)(ctx_b);
    if (!a.is_ok() || !b.is_ok() ||
        !grad_counts_bit_equal(a.value().get<optim::GradCount>(),
                               b.value().get<optim::GradCount>())) {
      out.bit_identical = false;
    }
  }

  const auto time_fn = [&](const std::shared_ptr<const engine::TaskFn>& fn) {
    support::Stopwatch watch;
    for (int k = 0; k < iters; ++k) {
      auto ctx = task_context(k % parts, static_cast<std::uint64_t>(k), 42);
      if (!(*fn)(ctx).is_ok()) std::abort();
    }
    return watch.elapsed_ms() * 1e6 / iters;
  };
  // Alternate min-of-N repetitions so host-load drift (shared cores) hits
  // both variants symmetrically.
  out.perrow_ns = 1e18;
  out.fused_ns = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    out.perrow_ns = std::min(out.perrow_ns, time_fn(perrow_fn));
    out.fused_ns = std::min(out.fused_ns, time_fn(fused_fn));
  }
  return out;
}

/// SAGA two-pass variant (fresh + historical margins, version table).
CaseResult run_saga_case(const optim::Workload& workload, double fraction, int iters) {
  const linalg::GradVectorConfig grad_cfg =
      optim::SolverConfig{}.grad_config(workload.dim(), workload.dataset->density(),
                                        fraction * static_cast<double>(workload.n()) /
                                            workload.num_partitions());
  linalg::DenseVector w_new(workload.dim());
  linalg::DenseVector w_old(workload.dim());
  support::RngStream wrng(7);
  for (std::size_t i = 0; i < w_new.size(); ++i) {
    w_new[i] = wrng.uniform(-0.5, 0.5);
    w_old[i] = wrng.uniform(-0.5, 0.5);
  }
  // Real two-version history chain: per-row SAGA resolves the pinned model
  // AND each sample's historical model through the store per row.
  engine::BroadcastStore store;
  auto history = std::make_shared<store::ModelStore>(&store);
  history->publish(w_old, /*version=*/0);
  history->publish(w_new, /*version=*/1);
  const core::HistoryBroadcast handle(history, /*pinned=*/1);
  const auto hist_model = [handle](engine::Version v) { return handle.value_at(v); };

  const auto make_perrow = [&](std::shared_ptr<core::SampleVersionTable> table) {
    // The per-row SAGA seq op (value_at per visited row). Samples were last
    // seen at version 0, so history resolves to w_old.
    return optim::reference::saga_task_fn(workload, handle, std::move(table), grad_cfg,
                                          fraction);
  };

  const int parts = workload.num_partitions();
  CaseResult out;

  {  // cross-check on fresh tables
    auto table_a =
        std::make_shared<core::SampleVersionTable>(workload.n(), /*init=*/0);
    auto table_b =
        std::make_shared<core::SampleVersionTable>(workload.n(), /*init=*/0);
    auto perrow_fn = make_perrow(table_a);
    auto fused_fn = optim::detail::make_saga_batch_fn(
        workload.dataset, workload.partitions, workload.loss, handle, table_b,
        grad_cfg, fraction, hist_model, /*set_version=*/1);
    for (int k = 0; k < 2 * parts; ++k) {  // second lap hits the visited path
      auto ctx_a = task_context(k % parts, static_cast<std::uint64_t>(k), 4);
      auto ctx_b = task_context(k % parts, static_cast<std::uint64_t>(k), 4);
      const auto a = (*perrow_fn)(ctx_a);
      const auto b = (*fused_fn)(ctx_b);
      const auto& ga = a.value().get<optim::GradHist>();
      const auto& gb = b.value().get<optim::GradHist>();
      if (ga.count != gb.count ||
          !linalg::bitwise_equal(ga.grad.to_dense(), gb.grad.to_dense()) ||
          !linalg::bitwise_equal(ga.hist.to_dense(), gb.hist.to_dense())) {
        out.bit_identical = false;
      }
    }
  }

  auto perrow_table =
      std::make_shared<core::SampleVersionTable>(workload.n(), /*init=*/0);
  auto fused_table =
      std::make_shared<core::SampleVersionTable>(workload.n(), /*init=*/0);
  auto perrow_fn = make_perrow(perrow_table);
  auto fused_fn = optim::detail::make_saga_batch_fn(
      workload.dataset, workload.partitions, workload.loss, handle, fused_table,
      grad_cfg, fraction, hist_model, /*set_version=*/1);
  const auto time_fn = [&](const std::shared_ptr<const engine::TaskFn>& fn) {
    support::Stopwatch watch;
    for (int k = 0; k < iters; ++k) {
      auto ctx = task_context(k % parts, static_cast<std::uint64_t>(k), 4);
      if (!(*fn)(ctx).is_ok()) std::abort();
    }
    return watch.elapsed_ms() * 1e6 / iters;
  };
  out.perrow_ns = 1e18;
  out.fused_ns = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    out.perrow_ns = std::min(out.perrow_ns, time_fn(perrow_fn));
    out.fused_ns = std::min(out.fused_ns, time_fn(fused_fn));
  }
  return out;
}

/// SVRG inner-task variant (EpochVR): fresh + snapshot gradients, both
/// margin passes fully batched in the fused body.
CaseResult run_svrg_case(const optim::Workload& workload, double fraction, int iters) {
  const linalg::GradVectorConfig grad_cfg =
      optim::SolverConfig{}.grad_config(workload.dim(), workload.dataset->density(),
                                        fraction * static_cast<double>(workload.n()) /
                                            workload.num_partitions());
  linalg::DenseVector snapshot(workload.dim());
  linalg::DenseVector w(workload.dim());
  support::RngStream wrng(3);
  for (std::size_t i = 0; i < w.size(); ++i) {
    snapshot[i] = wrng.uniform(-0.5, 0.5);
    w[i] = wrng.uniform(-0.5, 0.5);
  }
  engine::BroadcastStore store;
  auto history = std::make_shared<store::ModelStore>(&store);
  history->publish(snapshot, /*version=*/0);
  history->publish(w, /*version=*/1);
  const core::HistoryBroadcast snapshot_br(history, 0);
  const core::HistoryBroadcast w_br(history, 1);

  const auto perrow_fn =
      optim::reference::svrg_task_fn(workload, w_br, snapshot_br, grad_cfg, fraction);
  const auto fused_fn = optim::detail::make_svrg_batch_fn(
      workload.dataset, workload.partitions, workload.loss, w_br, snapshot_br,
      grad_cfg, fraction);

  const int parts = workload.num_partitions();
  CaseResult out;
  for (int k = 0; k < parts; ++k) {
    auto ctx_a = task_context(k % parts, static_cast<std::uint64_t>(k), 8);
    auto ctx_b = task_context(k % parts, static_cast<std::uint64_t>(k), 8);
    const auto a = (*perrow_fn)(ctx_a);
    const auto b = (*fused_fn)(ctx_b);
    const auto& ga = a.value().get<optim::GradHist>();
    const auto& gb = b.value().get<optim::GradHist>();
    if (ga.count != gb.count ||
        !linalg::bitwise_equal(ga.grad.to_dense(), gb.grad.to_dense()) ||
        !linalg::bitwise_equal(ga.hist.to_dense(), gb.hist.to_dense())) {
      out.bit_identical = false;
    }
  }
  const auto time_fn = [&](const std::shared_ptr<const engine::TaskFn>& fn) {
    support::Stopwatch watch;
    for (int k = 0; k < iters; ++k) {
      auto ctx = task_context(k % parts, static_cast<std::uint64_t>(k), 8);
      if (!(*fn)(ctx).is_ok()) std::abort();
    }
    return watch.elapsed_ms() * 1e6 / iters;
  };
  out.perrow_ns = 1e18;
  out.fused_ns = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    out.perrow_ns = std::min(out.perrow_ns, time_fn(perrow_fn));
    out.fused_ns = std::min(out.fused_ns, time_fn(fused_fn));
  }
  return out;
}

/// fig3-style 1-worker SGD: the solver's fused trajectory must bit-match the
/// per-row reference loop (the acceptance check).
bool one_worker_trajectory_bitmatch(const optim::Workload& workload, double fraction,
                                    double step) {
  optim::SolverConfig config;
  config.updates = 12;
  config.batch_fraction = fraction;
  config.step = optim::inv_sqrt_step(step);
  config.eval_every = 12;
  config.seed = 11;

  engine::Cluster::Config cluster_cfg;
  cluster_cfg.num_workers = 1;
  cluster_cfg.cores_per_worker = 1;
  cluster_cfg.network.time_scale = 0.0;

  engine::Cluster perrow_cluster(cluster_cfg);
  const linalg::DenseVector perrow =
      optim::reference::run_sgd(perrow_cluster, workload, config);

  engine::Cluster fused_cluster(cluster_cfg);
  const optim::RunResult fused =
      optim::SgdSolver::run(fused_cluster, workload, config);
  return linalg::bitwise_equal(perrow, fused.final_w);
}

}  // namespace

int main() {
  bench::banner("Micro: fused batch gradient kernels vs per-row pipeline",
                "one-pass margins + batch derivative + transposed accumulate; "
                "target >=3x on small-fraction dense, >=2x on rcv1-like sparse");

  constexpr int kPartitions = 8;

  // Paper-parameterized geometries. Partition sizes matter: the per-row
  // pipeline pays the sink chain per partition *row*, so toy partitions
  // understate its cost — the sparse/sgd cases use row-scaled stand-ins
  // (rcv1 x8 = 4000-row partitions, still ~1/5 of the paper's).
  const auto epsilon = data::synthetic::epsilon_like(103, /*row_scale=*/2.0);
  const optim::Workload epsilon_workload = optim::Workload::create(
      std::make_shared<const data::Dataset>(epsilon.dataset), kPartitions,
      optim::make_least_squares());

  const auto mnist = data::synthetic::mnist8m_like(102, /*row_scale=*/2.0);
  const optim::Workload mnist_workload = optim::Workload::create(
      std::make_shared<const data::Dataset>(mnist.dataset), kPartitions,
      optim::make_least_squares());

  const auto rcv1 = data::synthetic::rcv1_like(101, /*row_scale=*/8.0);
  const optim::Workload rcv1_workload = optim::Workload::create(
      std::make_shared<const data::Dataset>(rcv1.dataset), kPartitions,
      optim::make_least_squares());

  metrics::Table table({"case", "per-row ns/task", "fused ns/task", "speedup",
                        "bit-identical"});
  std::vector<std::string> rows;
  std::vector<std::pair<std::string, double>> json;

  struct Spec {
    const char* name;
    const optim::Workload* workload;
    double fraction;
    int kind;  // 0 = gradient sum, 1 = SAGA two-pass, 2 = SVRG two-pass
    int iters;
  };
  // The paper's §6.1 mini-batch rates per (dataset, solver family).
  const std::vector<Spec> specs = {
      {"epsilon_sgd_b10", &epsilon_workload, 0.10, 0, 150},
      {"mnist8m_sgd_b10", &mnist_workload, 0.10, 0, 150},
      {"mnist8m_saga_b1", &mnist_workload, 0.01, 1, 700},
      {"mnist8m_svrg_b1", &mnist_workload, 0.01, 2, 700},
      {"rcv1_sgd_b5", &rcv1_workload, 0.05, 0, 400},
      {"rcv1_saga_b2", &rcv1_workload, 0.02, 1, 500},
  };

  for (const Spec& spec : specs) {
    const CaseResult r =
        spec.kind == 1 ? run_saga_case(*spec.workload, spec.fraction, spec.iters)
        : spec.kind == 2
            ? run_svrg_case(*spec.workload, spec.fraction, spec.iters)
            : run_case(*spec.workload, spec.fraction, spec.iters);
    table.add_row({spec.name, metrics::Table::num(r.perrow_ns, 5),
                   metrics::Table::num(r.fused_ns, 5),
                   metrics::Table::num(r.speedup(), 3), r.bit_identical ? "yes" : "NO"});
    std::ostringstream os;
    os << spec.name << ',' << r.perrow_ns << ',' << r.fused_ns << ',' << r.speedup()
       << ',' << (r.bit_identical ? 1 : 0);
    rows.push_back(os.str());
    const std::string prefix = std::string("micro_grad_batch.") + spec.name;
    json.emplace_back(prefix + ".perrow_ns", r.perrow_ns);
    json.emplace_back(prefix + ".fused_ns", r.fused_ns);
    json.emplace_back(prefix + ".speedup", r.speedup());
    json.emplace_back(prefix + ".bit_identical", r.bit_identical ? 1.0 : 0.0);
  }

  const bool traj_dense = one_worker_trajectory_bitmatch(epsilon_workload, 0.10, 0.5);
  const bool traj_sparse = one_worker_trajectory_bitmatch(rcv1_workload, 0.05, 0.5);
  json.emplace_back("micro_grad_batch.trajectory_bitmatch_dense", traj_dense ? 1 : 0);
  json.emplace_back("micro_grad_batch.trajectory_bitmatch_sparse", traj_sparse ? 1 : 0);

  bench::write_csv("micro_grad_batch.csv",
                   "case,perrow_ns,fused_ns,speedup,bit_identical", rows);
  bench::update_bench_json(json);

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n1-worker SGD trajectory bit-match: dense="
            << (traj_dense ? "yes" : "NO") << " sparse="
            << (traj_sparse ? "yes" : "NO")
            << "\nshape check: all rows bit-identical; fused ~3x on the "
               "small-fraction dense cases (mnist8m saga/svrg @ b=1%) and "
               ">=2x on the rcv1-like sparse cases; the b=10% dense cases "
               "are batch-kernel-bound and land ~2.3x on memory-limited "
               "hosts.\n";
  return (traj_dense && traj_sparse) ? 0 : 1;
}
