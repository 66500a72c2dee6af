#pragma once

// Monotonic timing helpers. All engine timing uses steady_clock; wall-clock
// results in experiments are reported in milliseconds as in the paper.

#include <chrono>
#include <cstdint>

namespace asyncml::support {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Nanos = std::chrono::nanoseconds;

/// A started stopwatch measuring elapsed time since construction or reset().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] Nanos elapsed() const { return Clock::now() - start_; }

  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(elapsed()).count();
  }

  [[nodiscard]] TimePoint start() const { return start_; }

 private:
  TimePoint start_;
};

/// Converts a duration to fractional milliseconds.
template <typename Rep, typename Period>
[[nodiscard]] double to_ms(std::chrono::duration<Rep, Period> d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace asyncml::support
