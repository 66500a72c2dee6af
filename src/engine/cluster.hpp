#pragma once

// The cluster: driver-side facade owning workers, the broadcast store, the
// result channel, and instrumentation.
//
// The Cluster is deliberately mode-agnostic: it only ships tasks and exposes
// the result queue.  Synchronous (BSP) stage execution and the asynchronous
// ASYNC path are both built on top — the former via collect_n(), the latter
// via the coordinator in src/core, which pops results() on the driver thread
// whenever the solver collects.

#include <atomic>
#include <memory>
#include <vector>

#include "engine/broadcast.hpp"
#include "engine/delay_model.hpp"
#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "engine/network.hpp"
#include "engine/task.hpp"
#include "engine/worker.hpp"
#include "support/blocking_queue.hpp"
#include "telemetry/recorder.hpp"
#include "transport/transport.hpp"

namespace asyncml::engine {

class Cluster {
 public:
  struct Config {
    int num_workers = 4;
    /// Executor threads per worker; the paper's setup runs 2-core executors.
    int cores_per_worker = 2;
    NetworkModel network;
    /// Straggler behaviour; null means no delay.
    std::shared_ptr<const DelayModel> delay;
    /// Declarative failure schedule (crashes, drops, delays, joins); an empty
    /// plan costs nothing at runtime. See engine/fault.hpp.
    FaultPlan faults;
    /// Which wire the cluster runs on (docs/TRANSPORT.md). The default
    /// in-process backend reproduces the pre-seam engine bit for bit; the
    /// Unix-socket backend spawns one wire-endpoint process per worker and
    /// moves every frame for real.
    transport::TransportConfig transport;
  };

  explicit Cluster(Config config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int num_workers() const noexcept { return config_.num_workers; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Registers a broadcast value of modeled size `bytes` and returns a typed
  /// handle that task closures may capture.
  template <typename T>
  [[nodiscard]] Broadcast<T> broadcast(T value, std::size_t bytes) {
    const BroadcastId id = store_.put(Payload::wrap<T>(std::move(value), bytes));
    return Broadcast<T>(id, &store_);
  }

  [[nodiscard]] BroadcastStore& store() noexcept { return store_; }
  [[nodiscard]] ClusterMetrics& metrics() noexcept { return *metrics_; }
  [[nodiscard]] const NetworkModel& network() const noexcept { return config_.network; }

  /// Fresh unique task id.
  [[nodiscard]] TaskId next_task_id() noexcept { return next_task_id_.fetch_add(1); }

  /// Ships a task to a worker's mailbox. Returns false if shut down or if a
  /// kRejectSubmit fault fires for this (worker, task) — indistinguishable to
  /// callers, which is the point: the dispatch-abort unwind path is the same.
  bool submit(WorkerId worker, TaskSpec spec);

  /// False once a kCrashWorker fault has felled `worker` (fail-stop).
  [[nodiscard]] bool worker_alive(WorkerId worker) const {
    return workers_.at(static_cast<std::size_t>(worker))->alive();
  }

  /// The compiled fault plan, or nullptr when the plan is empty.
  [[nodiscard]] FaultState* faults() noexcept { return faults_.get(); }

  /// The transport backing this cluster (chaos tests use kill_worker to
  /// SIGKILL a socket worker's wire process for real).
  [[nodiscard]] transport::Transport& transport() noexcept { return *transport_; }

  /// The cluster-wide span recorder. Always constructed (workers hold a
  /// stable pointer) but inert until a solver arms it from
  /// SolverConfig::telemetry; disabled it costs one relaxed load per task.
  [[nodiscard]] telemetry::TelemetryRecorder& telemetry() noexcept {
    return *telemetry_;
  }

  /// Result channel: every completed task lands here exactly once.
  [[nodiscard]] support::BlockingQueue<TaskResult>& results() noexcept { return results_; }

  /// Convenience for BSP-style callers and tests: pops exactly `n` results
  /// (blocking). Only valid when no other thread is draining results().
  [[nodiscard]] std::vector<TaskResult> collect_n(std::size_t n);

  /// Direct access to a worker (cache inspection in tests).
  [[nodiscard]] Worker& worker(WorkerId id) { return *workers_.at(static_cast<std::size_t>(id)); }

  /// Stops all workers and closes the result channel. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  Config config_;
  std::unique_ptr<FaultState> faults_;
  std::unique_ptr<telemetry::TelemetryRecorder> telemetry_;
  BroadcastStore store_;
  std::unique_ptr<ClusterMetrics> metrics_;
  /// Constructed after metrics_ (channels count into it) and destroyed after
  /// workers_ (their channels point into it).
  std::unique_ptr<transport::Transport> transport_;
  support::BlockingQueue<TaskResult> results_;
  std::shared_ptr<const DelayModel> delay_owned_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<TaskId> next_task_id_{1};
  std::atomic<bool> shut_down_{false};
};

}  // namespace asyncml::engine
