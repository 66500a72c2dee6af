#pragma once

// Cluster-wide telemetry front end: per-executor-thread rings + harvest.
//
// The Cluster always owns one TelemetryRecorder (so worker code can hold a
// stable pointer), but it is inert until a solver arms it from
// SolverConfig::telemetry. Disabled cost is a single relaxed atomic load per
// task. Harvests — triggered every `harvest_every` processed results by the
// coordinator on the driver thread, between updates, plus a final sweep at
// run end — drain every ring into the TelemetryStore under a mutex that
// serializes consumers (the rings are single-consumer by contract).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/ring.hpp"
#include "telemetry/store.hpp"
#include "telemetry/telemetry.hpp"

namespace asyncml::telemetry {

struct TelemetryReport;

class TelemetryRecorder {
 public:
  TelemetryRecorder(std::size_t num_workers, std::size_t cores_per_worker);

  /// Arm for a run: fresh rings at the configured capacity, reset store and
  /// reservoir. Must not race in-flight tasks (solvers arm before dispatch).
  void configure(const TelemetryConfig& config);

  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Producer side: push one finished task trace into the calling executor
  /// thread's ring. Lock-free; never blocks; overwrites oldest on overflow.
  void record(std::size_t worker, std::size_t core, const TaskTrace& trace) {
    const std::size_t slot = worker * cores_per_worker_ + core;
    if (slot < rings_.size()) rings_[slot]->push(trace);
  }

  void record_staleness(std::uint64_t staleness) {
    store_.record_staleness(staleness);
  }

  void charge_driver(Stage stage, std::uint64_t ns) {
    store_.charge_driver(stage, ns);
  }

  void note_update() { store_.note_update(); }

  /// Harvest-cycle cadence hook, called by the coordinator on the driver
  /// thread per processed result: every `harvest_every`-th call drains the
  /// rings.
  void on_result_processed();

  /// Drain every ring into the store now (also the final-sweep entry point).
  void harvest();

  /// Final harvest and report build; leaves the recorder disabled.
  [[nodiscard]] std::shared_ptr<const TelemetryReport> finish();

  [[nodiscard]] const TelemetryConfig& config() const { return config_; }
  [[nodiscard]] TelemetryStore& store() { return store_; }

 private:
  std::size_t num_workers_;
  std::size_t cores_per_worker_;
  TelemetryConfig config_;
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<TraceRing>> rings_;
  TelemetryStore store_;
  std::atomic<std::uint64_t> processed_{0};
  std::mutex harvest_mutex_;  ///< serializes ring consumers
};

}  // namespace asyncml::telemetry
