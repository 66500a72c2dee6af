#pragma once

// Common result type returned by every solver run, carrying the convergence
// trace and the run-level statistics the paper reports (wall time, mean
// worker wait time, modeled wire traffic).

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/metrics.hpp"
#include "linalg/dense_vector.hpp"
#include "metrics/trace.hpp"
#include "telemetry/report.hpp"

namespace asyncml::optim {

struct RunResult {
  std::string algorithm;
  metrics::Trace trace;            ///< (time_ms, update, error) series
  linalg::DenseVector final_w;
  double wall_ms = 0.0;            ///< total timed run duration
  std::uint64_t updates = 0;       ///< model updates applied
  std::uint64_t tasks = 0;         ///< task results consumed
  double mean_wait_ms = 0.0;       ///< per-iteration worker wait (Fig 4/6, Table 3)
  double p95_wait_ms = 0.0;
  /// Real CPU time inside task functions, per completed task (ms) — the
  /// engine's actual compute cost before service-floor padding.
  double mean_task_compute_ms = 0.0;
  std::uint64_t broadcast_bytes = 0;  ///< modeled bytes fetched by workers
  std::uint64_t broadcast_base_bytes = 0;   ///< full-snapshot share of broadcast_bytes
  std::uint64_t broadcast_delta_bytes = 0;  ///< sparse-delta share of broadcast_bytes
  std::uint64_t result_bytes = 0;     ///< modeled bytes of result payloads
  std::uint64_t broadcast_fetches = 0;
  std::uint64_t broadcast_hits = 0;
  std::uint64_t migration_bytes = 0;   ///< partition data moved by steals/replicas
  std::uint64_t partitions_stolen = 0; ///< ownership transfers (work stealing)
  std::uint64_t tasks_speculated = 0;  ///< speculative replicas dispatched
  std::uint64_t duplicates_dropped = 0;  ///< replica results dropped (first-wins)

  /// Per-channel transport wire accounting (docs/TRANSPORT.md), indexed by
  /// engine::WireChannel. On the in-process backend these are the *charged*
  /// (modeled) bytes; on the socket backends they are *measured* frame bytes
  /// — same counters, so charged-vs-measured comparisons read one path.
  struct WireChannelStats {
    std::uint64_t frames = 0;
    std::uint64_t bytes_sent = 0;      ///< data-bearing request frames
    std::uint64_t bytes_received = 0;  ///< ack frames
  };
  std::array<WireChannelStats, engine::kNumWireChannels> wire{};

  /// Durable disk tier under the model store (docs/DURABILITY.md): every
  /// DiskTierMetrics counter, taken after the tier writer drained; all zero
  /// unless SolverConfig::store_config.disk.enabled.
  engine::DiskTierStats disk;

  /// Harvested span telemetry (docs/TELEMETRY.md); null unless the run was
  /// configured with SolverConfig::telemetry.enabled.
  std::shared_ptr<const telemetry::TelemetryReport> telemetry;

  [[nodiscard]] double final_error() const { return metrics::final_error(trace); }
};

}  // namespace asyncml::optim
