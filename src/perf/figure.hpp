// Uniform output harness for the figure-reproduction benches.
//
// Every figure benchmark (`lbebench --suite figures`) prints:
//   1. a "# Figure N — title" banner with the paper's claim,
//   2. the figure's data as CSV rows (x, series, value) for re-plotting,
//   3. shape assertions ("[PASS]/[FAIL] ...") checking the paper's claims,
// and lbebench exits 1 if any assertion failed — so `lbebench --suite
// figures` (or `--filter fig5` for one figure) doubles as a reproduction
// check.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/csv.hpp"

namespace lbe::perf {

class Figure {
 public:
  /// `id` like "Fig. 6", `title` the paper caption digest, `claim` the
  /// sentence being reproduced. Prints the banner and CSV header.
  Figure(std::string id, std::string title, std::string claim,
         std::vector<std::string> columns);

  /// Emits one CSV data row.
  void row(const std::vector<std::string>& fields) { csv_->row(fields); }

  /// Records one shape assertion; prints immediately.
  void check(const std::string& what, bool ok);

  /// Prints a free-form note ('#'-prefixed, not part of the CSV).
  void note(const std::string& text);

  /// Prints the summary; returns the process exit code (0 = all PASS).
  int finish();

  bool all_passed() const { return failures_ == 0; }
  int checks() const { return checks_; }
  int failures() const { return failures_; }

 private:
  std::string id_;
  std::optional<CsvWriter> csv_;
  int checks_ = 0;
  int failures_ = 0;
};

}  // namespace lbe::perf
