// One benchmark run: generate a workload's inputs, prepare, then search or
// serve, check the answers, and report the metrics.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace lbe::benchmark {

struct RunOptions {
  Workload workload;
  std::uint64_t seed = 1;
  /// Length of the measured window (timed searches, or the daemon's
  /// fixed-rate steps).
  double seconds = 12.0;
  /// Traced run: one prepare and one search with spans, off-path probes,
  /// per-layer metrics, trace.json and layers.json.
  bool trace = false;
  /// The run's own directory; emptied first. Inputs, bundles and reports
  /// are removed at the end unless `keep_files`.
  std::string out_dir;
  bool keep_files = false;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool traced = false;
  MetricValues values;

  /// The result line: exactly "correct", "attempted", "failed" and
  /// "metrics" (end-to-end metrics untraced, per-layer metrics traced).
  perf::Json line() const;
};

/// Runs one workload. Throws lbe::Error when an operation fails outright;
/// failed checks come back as correct = false.
RunResult run_workload(const RunOptions& options);

}  // namespace lbe::benchmark
