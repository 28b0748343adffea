// `lbe_benchmark compare SET_A SET_B`: the parent-versus-change verdict for
// every (workload, end-to-end metric), by the rules of a gain claim: a side
// wins only when it is better in at least 9 of 10 paired runs and the
// medians differ by more than the parent's own interquartile range; a
// change regresses when its median is worse than the parent's by more than
// the metric's bound; a parent spread wider than the bound leaves the
// metric unresolved unless every run of the change beats every run of the
// parent.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"

namespace lbe::benchmark {

/// One end-to-end metric as BENCHMARK.json declares it.
struct MetricRule {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;  ///< allowed worsening, as a share of the parent median
};

/// BENCHMARK.json, as far as `compare` and the self-test need it.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricRule> end_to_end;
  std::vector<MetricRule> per_layer;  ///< bound unused
};

/// Parses BENCHMARK.json; throws IoError on a malformed file.
BenchmarkSpec load_spec(const std::string& path);

enum class Verdict { kImproved, kUnchanged, kRegressed, kUnresolved };

const char* verdict_name(Verdict verdict);

struct Comparison {
  Quartiles parent;
  Quartiles change;
  std::size_t pairs = 0;
  std::size_t parent_wins = 0;
  std::size_t change_wins = 0;
  /// (change - parent) / parent median, signed so that > 0 is worse.
  double worsening = 0.0;
  Verdict verdict = Verdict::kUnchanged;
};

/// Compares samples paired by index (parent[i] and change[i] ran with the
/// same seed). Both need at least one sample.
Comparison compare_samples(const std::vector<double>& parent,
                           const std::vector<double>& change,
                           const MetricRule& rule);

/// Prints the verdict table for two directories of run results (each
/// result.json found below them) and returns the exit code: 1 when any
/// metric regressed or the change failed a larger share of its operations,
/// else 0.
int compare_sets(const std::string& parent_dir, const std::string& change_dir,
                 const BenchmarkSpec& spec);

}  // namespace lbe::benchmark
