#pragma once

// MLlib-style synchronous SGD — the baseline of the paper's Figure 2.
//
// Matches MLlib's GradientDescent on plain Spark: a fresh broadcast of w per
// iteration, mini-batch sampling, a blocking treeAggregate reduction
// (log-depth combine stages on workers) on the engine's BSP path, and the
// 1/√t step decay. The paper shows SGD in ASYNC (SgdSolver) matches this
// implementation; our Figure-2 bench reproduces that parity check.

#include "engine/cluster.hpp"
#include "optim/run_result.hpp"
#include "optim/solver_config.hpp"
#include "optim/workload.hpp"

namespace asyncml::optim {

class MllibSgdSolver {
 public:
  /// Note: callers should pass an inv_sqrt_step schedule to match MLlib's
  /// decay (the solver does not override config.step).
  [[nodiscard]] static RunResult run(engine::Cluster& cluster, const Workload& workload,
                                     const SolverConfig& config);
};

}  // namespace asyncml::optim
