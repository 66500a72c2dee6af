#pragma once

// Span-based telemetry: the stage model and the per-task trace record.
//
// Every task carries a TaskTrace of timestamped pipeline segments
// (docs/TELEMETRY.md). Worker-side stages are charged by the executor loop
// and — for stages buried inside the task function, like model fetch and
// payload serialization — through a thread-local active-trace hook, so the
// store and grad-batch code never need a recorder handle threaded through.
// The driver-side stages (accumulate, broadcast-publish) are charged by
// AsyncContext per update.
//
// Everything here is a no-op costing one predictable branch when telemetry
// is disabled: the TLS pointer stays null and ScopedStageTimer never reads
// the clock.

#include <array>
#include <cstdint>
#include <string>

#include "support/stopwatch.hpp"

namespace asyncml::telemetry {

/// Pipeline segments of one task's life, in pipeline order. The first seven
/// are measured on the worker per task; the last two are measured on the
/// driver per update.
enum class Stage : std::uint8_t {
  kQueueWait = 0,     ///< submit -> worker thread picks the task up
  kDequeueDelay,      ///< pickup -> task function starts (incl. migration)
  kModelFetch,        ///< materializing w at the task's model version
  kCompute,           ///< task function minus fetch/serialize time
  kServicePad,        ///< padding sleep to the service floor x delay model
  kSerialize,         ///< gradient -> wire payload (+ injected serialize delay)
  kResultChannel,     ///< modeled transfer of the result to the coordinator
  kAccumulate,        ///< driver: collect return -> publish start
  kBroadcastPublish,  ///< driver: publishing the new model version
  kDiskIo,            ///< disk-tier blob I/O. An attribution *overlay*, not a
                      ///< pipeline segment: worker-side fault-ins run inside
                      ///< kModelFetch (so fetch time already contains it);
                      ///< writes run on the tier's writer thread, outside
                      ///< every traced task.
};

inline constexpr std::size_t kNumStages = 10;
inline constexpr std::size_t kWorkerStages = 7;  ///< first N stages are per-task

[[nodiscard]] inline const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kDequeueDelay: return "dequeue_delay";
    case Stage::kModelFetch: return "model_fetch";
    case Stage::kCompute: return "compute";
    case Stage::kServicePad: return "service_pad";
    case Stage::kSerialize: return "serialize";
    case Stage::kResultChannel: return "result_channel";
    case Stage::kAccumulate: return "accumulate";
    case Stage::kBroadcastPublish: return "broadcast_publish";
    case Stage::kDiskIo: return "disk_io";
  }
  return "unknown";
}

/// One task's span record: identity plus nanoseconds per worker-side stage.
/// POD on purpose — it is packed word-by-word into the lock-free TraceRing.
struct TaskTrace {
  std::int32_t worker = 0;
  std::int32_t partition = 0;
  std::uint64_t seq = 0;
  std::uint64_t model_version = 0;
  std::array<std::uint64_t, kNumStages> stage_ns{};

  void charge(Stage stage, std::uint64_t ns) {
    stage_ns[static_cast<std::size_t>(stage)] += ns;
  }

  void set(Stage stage, std::uint64_t ns) {
    stage_ns[static_cast<std::size_t>(stage)] = ns;
  }

  [[nodiscard]] std::uint64_t ns(Stage stage) const {
    return stage_ns[static_cast<std::size_t>(stage)];
  }
};

/// Per-run telemetry knobs, carried on SolverConfig. Off by default: the
/// disabled path must be bit-and-timing-identical to a build without the
/// subsystem.
struct TelemetryConfig {
  bool enabled = false;
  /// Capacity of each per-executor-thread trace ring (rounded up to a power
  /// of two). On overflow the ring overwrites the OLDEST records.
  std::size_t ring_capacity = 1024;
  /// Harvest the rings into the run-level store every N processed results.
  std::uint64_t harvest_every = 32;
  /// Whole-task span records kept by reservoir sampling across the run.
  std::size_t reservoir_capacity = 256;
  /// Seed for the sampling reservoir: same seed + same arrival order =>
  /// same retained samples.
  std::uint64_t sample_seed = 1;
  /// When non-empty, TelemetryReport::to_json is written here after the run
  /// (next to BENCH_micro.json for the bench harness).
  std::string export_path;
};

// ---- Thread-local active-trace hook -----------------------------------

/// The executor loop points this at the in-flight task's trace for the
/// duration of the task function, so deep callees (model cache, payload
/// wrap) can charge their stage without plumbing.
inline thread_local TaskTrace* t_active_trace = nullptr;

[[nodiscard]] inline TaskTrace* active_trace() { return t_active_trace; }
inline void set_active_trace(TaskTrace* trace) { t_active_trace = trace; }

inline void charge_active(Stage stage, std::uint64_t ns) {
  if (TaskTrace* trace = t_active_trace; trace != nullptr) {
    trace->charge(stage, ns);
  }
}

/// RAII stage timer against the thread-local active trace. When no trace is
/// active (telemetry off, or a thread outside the executor loop) the
/// constructor is a single null check and the clock is never read.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Stage stage)
      : trace_(t_active_trace), stage_(stage) {
    if (trace_ != nullptr) start_ = support::Clock::now();
  }

  ~ScopedStageTimer() {
    if (trace_ != nullptr) {
      trace_->charge(stage_, static_cast<std::uint64_t>(
                                 (support::Clock::now() - start_).count()));
    }
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  TaskTrace* trace_;
  Stage stage_;
  support::TimePoint start_{};
};

}  // namespace asyncml::telemetry
