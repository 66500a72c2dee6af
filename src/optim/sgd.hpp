#pragma once

// Synchronous mini-batch SGD — the paper's Algorithm 1 in ASYNC. Each
// iteration publishes w through ASYNCbroadcast (workers ride the delta
// chain), dispatches one task per partition through the ASYNCscheduler and
// collects every result before the step. One straggler stalls every
// iteration, which is exactly the behaviour Figures 3, 4 and 7 quantify.
//
// Results are combined in partition order, so the trajectory is
// bit-identical across placements: work stealing and speculative
// replication (SolverConfig::steal_mode / speculation_factor;
// docs/SCHEDULING.md) move the wall clock, never the iterates. With both
// knobs off (the default) this is the classic fixed-placement barrier-wait
// SGD of Figure 4.

#include "engine/cluster.hpp"
#include "optim/run_result.hpp"
#include "optim/solver_config.hpp"
#include "optim/workload.hpp"

namespace asyncml::optim {

class SgdSolver {
 public:
  [[nodiscard]] static RunResult run(engine::Cluster& cluster, const Workload& workload,
                                     const SolverConfig& config);
};

/// The end-to-end benchmark's workloads (e2ebench/workloads.cpp) still name
/// the solver so; the alias goes with the benchmark's traced solver copies.
using ScheduledSgdSolver = SgdSolver;

}  // namespace asyncml::optim
