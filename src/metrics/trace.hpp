#pragma once

// Convergence traces: (wall time, update index, objective error) series —
// the data behind every error-vs-time figure in the paper.
//
// To keep objective evaluation out of the timed path (the paper's
// measurements exclude it too), the recorder snapshots (elapsed_ms, w) pairs
// during the run and the errors are computed afterwards by finalize().

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "linalg/dense_vector.hpp"

namespace asyncml::metrics {

struct TracePoint {
  double time_ms = 0.0;
  std::uint64_t update = 0;
  double error = 0.0;
};

using Trace = std::vector<TracePoint>;

class TraceRecorder {
 public:
  /// Snapshot every `every` updates (update 0 is always recorded).
  explicit TraceRecorder(std::uint64_t every = 10) : every_(every == 0 ? 1 : every) {}

  /// Pre-sizes snapshot storage for a run of `max_updates` updates so the
  /// timed path never touches the allocator while the stopwatch runs
  /// (snapshot growth moves, so reallocation was amortized-cheap — the
  /// reservation removes the allocator spikes, not an asymptotic cost). The
  /// +2 covers update 0 and the final unconditional snapshot. Measured cost
  /// of a sampled snapshot: docs/BENCHMARKS.md ("Convergence-trace snapshot
  /// cost").
  void reserve_for(std::uint64_t max_updates) {
    snapshots_.reserve(static_cast<std::size_t>(max_updates / every_ + 2));
  }

  /// Called from the server loop after update `update` at `elapsed_ms`.
  /// Copies `w` only on sampled updates.
  void maybe_snapshot(std::uint64_t update, double elapsed_ms,
                      const linalg::DenseVector& w) {
    if (update % every_ != 0) return;
    snapshots_.push_back(Snapshot{elapsed_ms, update, w});
  }

  /// Unconditional snapshot (used for the final model).
  void snapshot(std::uint64_t update, double elapsed_ms, const linalg::DenseVector& w) {
    snapshots_.push_back(Snapshot{elapsed_ms, update, w});
  }

  /// Evaluates `objective` on every snapshot; error = objective(w) − `baseline`.
  [[nodiscard]] Trace finalize(
      const std::function<double(const linalg::DenseVector&)>& objective,
      double baseline = 0.0) const;

 private:
  struct Snapshot {
    double time_ms;
    std::uint64_t update;
    linalg::DenseVector w;
  };
  std::uint64_t every_;
  std::vector<Snapshot> snapshots_;
};

/// First time at which the trace error drops to <= target; nullopt if never.
[[nodiscard]] std::optional<double> time_to_target(const Trace& trace, double target);

/// Final (smallest-time-last) error of a trace; +inf for an empty trace.
[[nodiscard]] double final_error(const Trace& trace);

/// speedup = time_to_target(baseline) / time_to_target(contender) at the
/// tightest error both traces reach; nullopt when either never converges.
[[nodiscard]] std::optional<double> speedup_at_common_target(const Trace& baseline,
                                                             const Trace& contender);

}  // namespace asyncml::metrics
