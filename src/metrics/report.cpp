#include "metrics/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace asyncml::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "  ";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    out << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += std::string(widths[c] + 2, '-');
  out << "  " << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace asyncml::metrics
