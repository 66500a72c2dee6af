#pragma once

// Executor worker: dedicated threads draining a private mailbox.
//
// A Worker models one executor node: `cores` executor threads (the paper runs
// 2-core executors) share a mailbox of TaskSpecs.  For each task the thread
//   1. records wait time (time since it submitted its previous result),
//   2. runs the task function with a deterministic per-task RNG,
//   3. pads execution to the straggler-scaled service floor,
//   4. charges the result transfer to the network model and pushes the
//      TaskResult to the driver's result queue.
// Errors (injected faults, exceptions) become non-OK TaskResults; nothing
// unwinds across the thread boundary.
//
// Fault injection is declarative: Deps carries an optional FaultState
// (compiled from the cluster's FaultPlan) consulted at fixed lifecycle
// points — queue delay, crash, pre-run task failure, compute/serialize/
// network delays, result drop/duplication.  A crashed worker is fail-stop:
// `dead()` flips true, the crashing task and everything still in (or
// entering) the mailbox bounce back as synthesized kUnavailable failures —
// the simulated transport noticing the dead executor — and executor threads
// that were mid-task when the crash hit convert their result to the same
// failure at push time, so nothing useful ever leaves a dead machine.

#include <atomic>
#include <thread>
#include <vector>

#include "engine/broadcast.hpp"
#include "engine/delay_model.hpp"
#include "engine/fault.hpp"
#include "engine/metrics.hpp"
#include "engine/network.hpp"
#include "engine/task.hpp"
#include "support/blocking_queue.hpp"

namespace asyncml::telemetry {
class TelemetryRecorder;
}  // namespace asyncml::telemetry

namespace asyncml::transport {
class Channel;
}  // namespace asyncml::transport

namespace asyncml::engine {

class Worker {
 public:
  struct Deps {
    const BroadcastStore* store = nullptr;
    const NetworkModel* network = nullptr;
    const DelayModel* delay = nullptr;
    ClusterMetrics* metrics = nullptr;
    support::BlockingQueue<TaskResult>* results = nullptr;
    FaultState* faults = nullptr;  // optional, shared across the cluster
    /// Cluster-owned span recorder; checked per task via a relaxed atomic
    /// and otherwise free when telemetry is disabled.
    telemetry::TelemetryRecorder* telemetry = nullptr;
    /// This worker's transport channel (transport/transport.hpp); Cluster
    /// always installs one. Every result and broadcast fetch round-trips
    /// through it, and a dead wire fail-stops the worker exactly like a
    /// kCrashWorker fault.
    transport::Channel* channel = nullptr;
  };

  Worker(WorkerId id, int cores, Deps deps);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Enqueues a task; returns false after stop(). A dead worker still
  /// accepts tasks — they bounce back as kUnavailable failures, which is how
  /// callers that raced the crash learn about it.
  bool submit(TaskSpec spec);

  /// Closes the mailbox and joins executor threads. Idempotent.
  void stop();

  [[nodiscard]] WorkerId id() const noexcept { return id_; }
  [[nodiscard]] int cores() const noexcept { return static_cast<int>(threads_.size()); }

  /// False once a kCrashWorker fault has fired on this worker, or its
  /// transport channel has gone dead (fail-stop either way).
  [[nodiscard]] bool alive() const noexcept;

  /// The worker's broadcast cache (exposed for cache-behaviour tests).
  [[nodiscard]] BroadcastCache& cache() { return cache_; }

 private:
  void executor_loop(int core);
  /// Pushes a synthesized kUnavailable failure for `spec` (no sleeps, no
  /// payload): the transport's dead-executor notification.
  void bounce(const TaskSpec& spec);

  WorkerId id_;
  Deps deps_;
  BroadcastCache cache_;
  support::BlockingQueue<TaskSpec> mailbox_;
  std::atomic<bool> dead_{false};
  std::vector<std::jthread> threads_;
};

}  // namespace asyncml::engine
