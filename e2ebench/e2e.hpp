#pragma once

// Unfloored end-to-end benchmark of the ASYNC engine (README.md).
//
// Every workload runs the paper's solvers with all modeled time removed —
// no service floor, no cost-model minimum, no network charge, no delay
// model — so wall clock is the engine's own cost. Untimed reps call the
// library solvers; one traced rep re-drives the same update loop from the
// benchmark's own code (traced.cpp) and records a span around every call
// into a layer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "asyncml.hpp"
#include "optim/run_result.hpp"

namespace e2e {

namespace aml = asyncml;

enum class Solver { kAsgd, kAsaga, kScheduledSgd };

/// One workload: solver, dataset stand-in and pinned hyperparameters. The
/// values are fixed here rather than tuned per run, so a change to the
/// serial reference solvers cannot move the benchmark.
struct WorkloadSpec {
  const char* name;
  Solver solver;
  const char* dataset;    ///< rcv1 | mnist8m | epsilon
  double row_scale;       ///< stand-in rows: 8000 for each dataset
  double batch_fraction;  ///< b: share of each partition one task samples
  double step;            ///< initial step (ASGD/SGD decay as 1/sqrt, ASAGA constant)
  std::uint64_t updates;  ///< update budget of one rep (sync: rounds)
  /// Target objective as a share of f(0): about where seed 1 stands after
  /// half the budget.
  double target_fraction;
  /// Unix-socket transport, disk tier with fsync, a v3 checkpoint every
  /// kCheckpointEvery rounds.
  bool durable;
  std::uint64_t smoke_updates;  ///< budget of the --smoke run
};

inline constexpr int kWorkers = 2;
inline constexpr int kCoresPerWorker = 1;
inline constexpr int kPartitions = 8;
/// --smoke shrinks every dataset by this factor.
inline constexpr double kSmokeRowScale = 0.125;
/// Generator seed of the dataset stand-ins. The data stay fixed; --seed
/// drives SolverConfig::seed (mini-batch sampling, and through it the async
/// interleaving). A seed-dependent dataset moves final_error by ~13 % (rcv1)
/// and f(0) by 4x (mnist8m) between seeds, which no bound could absorb.
inline constexpr std::uint64_t kDataSeed = 1;
inline constexpr std::uint64_t kCheckpointEvery = 50;
/// Convergence-trace points per run: eval_every = updates / kTracePoints.
/// Each point costs a full objective pass after the run (~5 ms on the dense
/// stand-ins), so the count is kept at what ms_to_target needs.
inline constexpr std::uint64_t kTracePoints = 100;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// A new directory made by mkdtemp as `<parent>/<prefix>XXXXXX`, removed with
/// everything in it when this goes out of scope. Nothing else is touched.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Everything one rep needs, built by set_up(); the three timings are the
/// parts of the benchmark's setup_s.
struct Setup {
  aml::optim::Workload workload;
  aml::optim::SolverConfig config;
  std::unique_ptr<ScratchDir> disk_dir;  ///< durable workloads only
  std::unique_ptr<aml::engine::Cluster> cluster;
  double generate_ms = 0.0;
  double workload_ms = 0.0;
  double cluster_ms = 0.0;

  [[nodiscard]] double setup_s() const {
    return (generate_ms + workload_ms + cluster_ms) / 1e3;
  }
};

struct SetupOptions {
  std::uint64_t seed = 1;  ///< sampling seed (SolverConfig::seed)
  std::uint64_t updates = 0;
  double row_scale = 1.0;
  int workers = kWorkers;
  bool durable = false;
  /// Durable only: the disk tier gets a fresh ScratchDir under this one.
  std::string scratch_parent;
};

/// Generates the dataset, partitions it and starts the cluster.
[[nodiscard]] Setup set_up(const WorkloadSpec& spec, const SetupOptions& options);

/// One untimed rep through the library's public solver entry point.
[[nodiscard]] aml::optim::RunResult run_library(const WorkloadSpec& spec, Setup& setup);

// ---- traced driver (traced.cpp) --------------------------------------------

/// Driver-side layer calls the traced loop wraps in spans. Worker-side
/// spans (one per task body, "optim.task") are TaskSpans.
enum class SpanName : std::uint8_t {
  kPublish,     ///< store: AsyncContext::async_broadcast
  kTaskBuild,   ///< optim: task body + factory for the new model version
  kDispatch,    ///< scheduler: dispatch_eligible / dispatch_all
  kCollect,     ///< coordinator: collect (blocks until a result arrives)
  kStep,        ///< optim: driver arithmetic + advance_version
  kSnapshot,    ///< metrics: convergence-trace snapshot
  kGc,          ///< store: gc_history
  kGcFloor,     ///< store: SampleVersionTable::min_version, the ASAGA GC floor
  kCheckpoint,  ///< optim/disk: checkpoint through the disk tier
};
inline constexpr std::size_t kNumSpanNames = 9;

[[nodiscard]] const char* span_name(SpanName name);

struct DriverSpan {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t update;
  std::int32_t parent;  ///< index of the enclosing driver span, -1 = none
  SpanName name;
};

struct TaskSpan {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t update;  ///< driver update whose task body produced it
  std::int32_t worker;
  std::int32_t partition;
};

/// In-memory span recorder. Driver spans come from one thread; task spans
/// from the executor threads into a preallocated array (no allocation or
/// lock on the task path). Written as JSON once the run is over.
class Tracer {
 public:
  Tracer(std::size_t driver_capacity, std::size_t task_capacity);

  class Scope {
   public:
    Scope(Tracer& tracer, SpanName name, std::uint64_t update);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Wraps a task body so every execution records one TaskSpan.
  [[nodiscard]] std::shared_ptr<const aml::engine::TaskFn> wrap(
      std::shared_ptr<const aml::engine::TaskFn> fn, std::uint64_t update);

  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::size_t task_capacity() const { return tasks_.size(); }
  [[nodiscard]] const std::vector<DriverSpan>& driver() const { return driver_; }
  /// Task spans recorded so far (call once the cluster is idle).
  [[nodiscard]] std::vector<TaskSpan> tasks() const;
  [[nodiscard]] std::uint64_t tasks_dropped() const;

  /// Writes every span as JSON; task spans get the dispatch span of their
  /// update as parent.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  aml::support::TimePoint epoch_;
  std::vector<DriverSpan> driver_;
  std::int32_t open_ = -1;
  std::vector<TaskSpan> tasks_;
  std::atomic<std::size_t> task_cursor_{0};
};

/// What the traced rep returns beyond the RunResult.
struct TracedRun {
  aml::optim::RunResult result;
  std::int64_t window_start_ns = 0;  ///< traced wall window on the tracer clock
  std::int64_t window_end_ns = 0;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t dispatch_calls = 0;
  std::uint64_t staleness_sum = 0;
  std::uint64_t collected = 0;
  std::uint64_t retries = 0;
  std::uint64_t duplicates_dropped = 0;
};

/// The traced rep: the workload's update loop written against
/// core::AsyncContext, with telemetry on.
[[nodiscard]] TracedRun run_traced(const WorkloadSpec& spec, Setup& setup, Tracer& tracer);

}  // namespace e2e
