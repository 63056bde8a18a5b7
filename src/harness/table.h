// Plain-text table printer for the benchmark harnesses: each bench binary
// regenerates one of the paper's figures as rows of (series, value).
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace hybridmr::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os = std::cout) const;

  /// Formats a double with `precision` decimals.
  static std::string num(double v, int precision = 1);
  /// Formats a ratio as a percentage string ("12.3%").
  static std::string pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a figure banner: "=== Figure 1(a): ... ===".
void banner(const std::string& title, std::ostream& os = std::cout);

}  // namespace hybridmr::harness
