#pragma once

// Serial mini-batch SGD and SAGA (no cluster): the figure benches' step
// tuning runs them (bench/harness.cpp, tune_step).

#include "data/dataset.hpp"
#include "linalg/dense_vector.hpp"
#include "optim/loss.hpp"
#include "optim/step_size.hpp"
#include "support/rng.hpp"

namespace asyncml::optim {

/// Mini-batch SGD on one thread: per iteration samples each row with
/// probability `batch_fraction` and applies the averaged gradient.
[[nodiscard]] linalg::DenseVector serial_sgd(const data::Dataset& dataset,
                                             const Loss& loss, std::uint64_t iterations,
                                             double batch_fraction,
                                             const StepSchedule& step,
                                             std::uint64_t seed);

/// Textbook SAGA with a stored gradient table (mean-form updates), mini-batch
/// variant. Converges linearly on smooth strongly convex problems.
[[nodiscard]] linalg::DenseVector serial_saga(const data::Dataset& dataset,
                                              const Loss& loss, std::uint64_t iterations,
                                              double batch_fraction, double step,
                                              std::uint64_t seed);

}  // namespace asyncml::optim
