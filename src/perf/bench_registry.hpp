// Registry-driven benchmark harness (the `lbebench` core).
//
// Every benchmark — the paper-figure reproductions, the design ablations,
// the micro-kernels and the CI smoke set — registers once under a suite
// name and runs through the same driver, which times it, collects its
// named metrics and shape-check tally, and emits one schema-versioned
// BENCH_<suite>.json (see bench_report.hpp) next to the human-readable
// CSV/figure output the benchmark prints itself.
//
// Registration is explicit (register_all_benches) rather than via static
// initializers: the suites live in a static library, where unreferenced
// archive members — and their registration objects — would silently never
// be linked.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "perf/bench_report.hpp"
#include "synth/workload.hpp"

namespace lbe::perf {

class Figure;

/// Handed to each benchmark body: repeat policy, the suite-wide workload
/// cache (so multi-benchmark suites pay synthesis once), and the
/// BenchResult the body fills with metrics.
class BenchContext {
 public:
  explicit BenchContext(int repeat) : repeat_(repeat) {}

  int repeat() const noexcept { return repeat_; }

  /// Cached synthetic workload (shared across the suite run).
  const synth::Workload& workload(std::uint64_t entries,
                                  std::uint32_t queries);

  /// Runs `hot` repeat() times, recording each duration as one wall
  /// sample, and returns the summary. The result's wall stats are set to
  /// the LAST measured section (most benchmarks have exactly one).
  SampleStats time_hot(const std::function<void()>& hot);

  /// Folds a Figure's shape-check tally into the result.
  void absorb_checks(const Figure& figure);

  BenchResult result;

 private:
  struct CacheEntry {
    std::uint64_t entries;
    std::uint32_t queries;
    synth::Workload workload;
  };

  int repeat_;
  // Deque: push_back never invalidates references already handed out, so
  // a benchmark may hold several workloads at once.
  std::deque<CacheEntry> cache_;
};

using BenchFn = std::function<void(BenchContext&)>;

struct BenchmarkDef {
  std::string name;
  std::string suite;
  std::string description;
  BenchFn fn;
};

class BenchRegistry {
 public:
  static BenchRegistry& instance();

  void add(BenchmarkDef def);
  const std::vector<BenchmarkDef>& all() const noexcept { return benches_; }

  /// Registered suite names, in registration order, deduplicated.
  std::vector<std::string> suites() const;

 private:
  std::vector<BenchmarkDef> benches_;
};

/// Registers every built-in suite exactly once (idempotent).
void register_all_benches();

// Per-suite registration hooks (one per bench_suites_*.cpp).
void register_figure_benches(BenchRegistry& registry);
void register_ablation_benches(BenchRegistry& registry);
void register_micro_benches(BenchRegistry& registry);
void register_smoke_benches(BenchRegistry& registry);
void register_index_io_benches(BenchRegistry& registry);
void register_serve_benches(BenchRegistry& registry);
void register_mpi_backend_benches(BenchRegistry& registry);
void register_open_benches(BenchRegistry& registry);
void register_schedule_benches(BenchRegistry& registry);

struct BenchRunOptions {
  std::string suite = "smoke";
  std::string filter;        ///< substring match on benchmark name
  int repeat = 1;
  std::string out_dir = "."; ///< BENCH_<suite>.json lands here
  bool write_json = true;
  std::string baseline_path; ///< gate against this BENCH json when set
  double max_regress = 0.25; ///< median queries/sec regression tolerance
  /// Additional lower-is-better metrics to gate (e.g. latency percentiles
  /// of the serve suite); a benchmark regresses when such a metric grows
  /// beyond baseline / (1 - lower_max_regress).
  std::vector<std::string> gate_lower;
  double lower_max_regress = 0.5;
};

/// Runs one suite; returns the process exit code: 0 = all benchmarks'
/// shape checks passed and no baseline regression, 1 = check failures,
/// 2 = baseline regression (check failures take precedence).
int run_suite(const BenchRunOptions& options);

}  // namespace lbe::perf
