#pragma once

// Experiment output: fixed-width console tables, the human-readable summary
// of the paper-vs-measured comparison each bench binary prints next to the
// CSV data behind its figure.

#include <iosfwd>
#include <string>
#include <vector>

namespace asyncml::metrics {

/// Simple fixed-width table for console summaries.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& out) const;

  /// Formats a double with `precision` significant digits.
  [[nodiscard]] static std::string num(double v, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace asyncml::metrics
