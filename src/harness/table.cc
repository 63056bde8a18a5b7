#include "harness/table.h"

#include <algorithm>
#include <cstdio>

namespace hybridmr::harness {

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "  ";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      os << cell << std::string(widths[c] - cell.size() + 2, ' ');
    }
    os << "\n";
  };
  print_row(headers_);
  std::size_t total = 2;
  for (auto w : widths) total += w + 2;
  os << "  " << std::string(total - 2, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

void banner(const std::string& title, std::ostream& os) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace hybridmr::harness
