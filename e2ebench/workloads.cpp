#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "e2e.hpp"

namespace e2e {

const std::vector<WorkloadSpec>& workloads() {
  // ASGD's step is what the repository's serial grid search
  // (bench/harness.cpp) picks on its stand-in; ASGD and ASAGA apply step/P per
  // result. ASAGA's and SGD's are below the grid's pick so the runs stay well
  // above the float noise floor of these noise-free problems over the whole
  // budget. Targets: f/f(0) of a seed-1 run at about half the budget.
  static const std::vector<WorkloadSpec> table = {
      // name, solver, data, rows x, b, step, updates, target, durable, smoke
      {"asgd-rcv1", Solver::kAsgd, "rcv1", 2.0, 0.05, 128.0, 60'000, 0.0025, false,
       2'000},
      {"asaga-mnist8m", Solver::kAsaga, "mnist8m", 1.0, 0.01, 0.01, 12'000, 0.16, false,
       1'000},
      {"sgd-epsilon", Solver::kScheduledSgd, "epsilon", 2.0, 0.10, 8.0, 7'500, 0.015, false,
       200},
      {"sgd-epsilon-durable", Solver::kScheduledSgd, "epsilon", 2.0, 0.10, 8.0, 1'000, 0.18,
       true, 100},
  };
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& prefix) {
  std::string tmpl = parent + "/" + prefix + "XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(), "mkdtemp " + tmpl);
  }
  path_ = std::move(tmpl);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

namespace {

double ms_since(aml::support::TimePoint start) {
  return std::chrono::duration<double, std::milli>(aml::support::Clock::now() - start)
      .count();
}

aml::data::synthetic::Problem generate(const std::string& dataset, std::uint64_t seed,
                                       double row_scale) {
  namespace syn = aml::data::synthetic;
  if (dataset == "rcv1") return syn::rcv1_like(seed, row_scale);
  if (dataset == "mnist8m") return syn::mnist8m_like(seed, row_scale);
  if (dataset == "epsilon") return syn::epsilon_like(seed, row_scale);
  throw std::invalid_argument("unknown dataset " + dataset);
}

}  // namespace

Setup set_up(const WorkloadSpec& spec, const SetupOptions& options) {
  Setup s;
  auto start = aml::support::Clock::now();
  auto data = std::make_shared<const aml::data::Dataset>(
      generate(spec.dataset, kDataSeed, options.row_scale).dataset);
  s.generate_ms = ms_since(start);

  start = aml::support::Clock::now();
  s.workload = aml::optim::Workload::create(std::move(data), kPartitions,
                                            aml::optim::make_least_squares());
  s.workload_ms = ms_since(start);

  aml::optim::SolverConfig& c = s.config;
  c.updates = options.updates;
  c.batch_fraction = spec.batch_fraction;
  c.step = spec.solver == Solver::kAsaga ? aml::optim::constant_step(spec.step)
                                         : aml::optim::inv_sqrt_step(spec.step);
  c.async_step_scale = 1.0 / kPartitions;
  // Unfloored: with service_floor_ms = 0 alone the cost model still pads
  // every task to min_service_ms, so its two terms are zeroed as well.
  c.service_floor_ms = 0.0;
  c.cost.ms_per_mb = 0.0;
  c.cost.min_service_ms = 0.0;
  c.seed = options.seed;
  c.eval_every = std::max<std::uint64_t>(1, options.updates / kTracePoints);
  if (options.durable) {
    s.disk_dir = std::make_unique<ScratchDir>(options.scratch_parent, "rep-");
    c.store_config.disk.enabled = true;
    c.store_config.disk.dir = s.disk_dir->path() + "/store";
    c.checkpoint_every = kCheckpointEvery;
    c.checkpoint_path = s.disk_dir->path() + "/checkpoint";
  }

  aml::engine::Cluster::Config cc;
  cc.num_workers = options.workers;
  cc.cores_per_worker = kCoresPerWorker;
  cc.network.time_scale = 0.0;
  cc.delay = nullptr;
  if (options.durable) cc.transport.backend = aml::transport::Backend::kUnixSocket;
  start = aml::support::Clock::now();
  s.cluster = std::make_unique<aml::engine::Cluster>(std::move(cc));
  s.cluster_ms = ms_since(start);
  return s;
}

aml::optim::RunResult run_library(const WorkloadSpec& spec, Setup& setup) {
  switch (spec.solver) {
    case Solver::kAsgd:
      return aml::optim::AsgdSolver::run(*setup.cluster, setup.workload, setup.config);
    case Solver::kAsaga:
      return aml::optim::AsagaSolver::run(*setup.cluster, setup.workload, setup.config);
    case Solver::kScheduledSgd:
      return aml::optim::ScheduledSgdSolver::run(*setup.cluster, setup.workload,
                                                 setup.config);
  }
  throw std::logic_error("unhandled solver");
}

}  // namespace e2e
