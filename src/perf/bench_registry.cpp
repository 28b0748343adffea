#include "perf/bench_registry.hpp"

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "perf/figure.hpp"

namespace lbe::perf {

const synth::Workload& BenchContext::workload(std::uint64_t entries,
                                              std::uint32_t queries) {
  for (const CacheEntry& entry : cache_) {
    if (entry.entries == entries && entry.queries == queries) {
      return entry.workload;
    }
  }
  Stopwatch timer;
  cache_.push_back(CacheEntry{
      entries, queries, synth::make_paper_workload(entries, queries)});
  std::fprintf(stderr, "# workload %llu entries / %u queries: %.2fs\n",
               static_cast<unsigned long long>(entries), queries,
               timer.seconds());
  return cache_.back().workload;
}

SampleStats BenchContext::time_hot(const std::function<void()>& hot) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeat_));
  for (int rep = 0; rep < repeat_; ++rep) {
    Stopwatch timer;
    hot();
    samples.push_back(timer.seconds());
  }
  result.wall_samples = samples;
  result.wall_seconds = summarize(std::move(samples));
  return result.wall_seconds;
}

void BenchContext::absorb_checks(const Figure& figure) {
  result.checks_total += figure.checks();
  result.checks_failed += figure.failures();
}

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry registry;
  return registry;
}

void BenchRegistry::add(BenchmarkDef def) {
  LBE_CHECK(!def.name.empty() && !def.suite.empty(),
            "benchmark needs a name and a suite");
  for (const BenchmarkDef& existing : benches_) {
    LBE_CHECK(existing.name != def.name,
              "duplicate benchmark name: " + def.name);
  }
  benches_.push_back(std::move(def));
}

std::vector<std::string> BenchRegistry::suites() const {
  std::vector<std::string> names;
  for (const BenchmarkDef& bench : benches_) {
    bool known = false;
    for (const std::string& name : names) known = known || name == bench.suite;
    if (!known) names.push_back(bench.suite);
  }
  return names;
}

void register_all_benches() {
  static const bool registered = [] {
    BenchRegistry& registry = BenchRegistry::instance();
    register_smoke_benches(registry);
    register_micro_benches(registry);
    register_index_io_benches(registry);
    register_serve_benches(registry);
    register_mpi_backend_benches(registry);
    register_open_benches(registry);
    register_schedule_benches(registry);
    register_figure_benches(registry);
    register_ablation_benches(registry);
    return true;
  }();
  (void)registered;
}

namespace {

/// Runs one benchmark definition, timing the whole body as a fallback
/// sample when the body did not call time_hot itself (figure suites).
BenchResult run_one(const BenchmarkDef& bench, BenchContext& ctx) {
  std::printf("# ==== %s (%s) ====\n", bench.name.c_str(),
              bench.suite.c_str());
  ctx.result = BenchResult{};
  ctx.result.name = bench.name;
  Stopwatch total;
  bench.fn(ctx);
  const double total_seconds = total.seconds();
  if (ctx.result.wall_samples.empty()) {
    ctx.result.wall_samples = {total_seconds};
    ctx.result.wall_seconds = summarize(ctx.result.wall_samples);
  }
  ctx.result.add_metric("total_seconds", total_seconds);
  return ctx.result;
}

}  // namespace

int run_suite(const BenchRunOptions& options) {
  LBE_CHECK(options.repeat >= 1, "--repeat must be >= 1");
  register_all_benches();

  BenchContext ctx(options.repeat);
  BenchReport report;
  report.suite = options.suite;
  report.repeat = options.repeat;
  report.provenance = current_provenance();

  int ran = 0;
  int checks_failed = 0;
  for (const BenchmarkDef& bench : BenchRegistry::instance().all()) {
    if (bench.suite != options.suite) continue;
    if (!options.filter.empty() &&
        bench.name.find(options.filter) == std::string::npos) {
      continue;
    }
    report.benchmarks.push_back(run_one(bench, ctx));
    checks_failed += report.benchmarks.back().checks_failed;
    ++ran;
  }
  if (ran == 0) {
    std::fprintf(stderr, "lbebench: no benchmark matches suite '%s'%s%s\n",
                 options.suite.c_str(),
                 options.filter.empty() ? "" : " filter ",
                 options.filter.c_str());
    return 1;
  }
  report.peak_rss_bytes = peak_rss_bytes();

  if (options.write_json) {
    std::filesystem::create_directories(options.out_dir);
    const std::string path =
        options.out_dir + "/BENCH_" + options.suite + ".json";
    save_report_file(path, report);
    std::printf("# wrote %s (%d benchmarks, repeat=%d)\n", path.c_str(), ran,
                options.repeat);
  }

  int regressions = 0;
  if (!options.baseline_path.empty()) {
    const BenchReport baseline = load_report_file(options.baseline_path);
    const auto print_findings = [&](const std::vector<RegressionFinding>&
                                        findings,
                                    double max_regress,
                                    bool lower_is_better) {
      for (const RegressionFinding& finding : findings) {
        if (finding.current == 0.0 && finding.ratio == 0.0) {
          std::fprintf(stderr,
                       "REGRESSION %s: %s missing from the current report "
                       "(baseline %.1f) — refresh the baseline if this "
                       "benchmark was renamed or removed\n",
                       finding.benchmark.c_str(), finding.metric.c_str(),
                       finding.baseline);
          continue;
        }
        std::fprintf(stderr,
                     "REGRESSION %s: %s %.1f -> %.1f (%.0f%% of baseline; "
                     "%s is %.0f%%)\n",
                     finding.benchmark.c_str(), finding.metric.c_str(),
                     finding.baseline, finding.current, 100.0 * finding.ratio,
                     lower_is_better ? "ceiling" : "floor",
                     lower_is_better ? 100.0 / (1.0 - max_regress)
                                     : 100.0 * (1.0 - max_regress));
      }
    };
    // A filtered run is deliberately partial: gate only what actually ran.
    // Full-suite runs (CI) also flag baseline benchmarks that vanished.
    const auto findings =
        find_regressions(baseline, report, options.max_regress,
                         "queries_per_sec", options.filter.empty());
    print_findings(findings, options.max_regress, false);
    regressions = static_cast<int>(findings.size());
    if (findings.empty()) {
      std::printf("# baseline gate: no %s regression beyond %.0f%% vs %s\n",
                  "queries_per_sec", 100.0 * options.max_regress,
                  options.baseline_path.c_str());
    }
    // Lower-is-better metrics (latency percentiles) gate with their own,
    // looser tolerance: tail latency is noisier than median throughput.
    for (const std::string& metric : options.gate_lower) {
      const auto lower_findings = find_regressions(
          baseline, report, options.lower_max_regress, metric,
          options.filter.empty(), /*lower_is_better=*/true);
      print_findings(lower_findings, options.lower_max_regress, true);
      regressions += static_cast<int>(lower_findings.size());
      if (lower_findings.empty()) {
        std::printf(
            "# baseline gate: no %s growth beyond %.0f%% of baseline vs %s\n",
            metric.c_str(), 100.0 / (1.0 - options.lower_max_regress),
            options.baseline_path.c_str());
      }
    }
  }

  if (checks_failed > 0) {
    std::fprintf(stderr, "lbebench: %d shape check(s) failed\n",
                 checks_failed);
    return 1;
  }
  return regressions > 0 ? 2 : 0;
}

}  // namespace lbe::perf
