#include "selftest.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "compare.hpp"
#include "perf/bench_json.hpp"
#include "proc.hpp"
#include "run.hpp"

namespace lbe::benchmark {

namespace fs = std::filesystem;

namespace {

using NamedUnits = std::set<std::pair<std::string, std::string>>;

NamedUnits named_units(const std::vector<MetricRule>& rules) {
  NamedUnits out;
  for (const auto& rule : rules) out.emplace(rule.name, rule.unit);
  return out;
}

NamedUnits named_units(const perf::Json& metrics) {
  NamedUnits out;
  for (const auto& [name, metric] : metrics.members()) {
    out.emplace(name, metric.at("unit").as_string());
  }
  return out;
}

/// Share of the traced wall time the top-level spans cover.
double top_level_coverage(const fs::path& run_dir) {
  const perf::Json trace =
      perf::Json::parse(read_file((run_dir / "trace.json").string()));
  const perf::Json layers =
      perf::Json::parse(read_file((run_dir / "layers.json").string()));
  double covered_us = 0.0;
  for (const auto& event : trace.at("traceEvents").items()) {
    if (event.at("args").at("parent").as_number() < 0) {
      covered_us += event.at("dur").as_number();
    }
  }
  return covered_us / 1e6 / layers.at("wall_s").as_number();
}

struct Checker {
  int failures = 0;
  void operator()(const std::string& what, bool ok) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures;
  }
};

/// The compare rules on samples whose verdicts are known by construction.
void check_compare_rules(Checker& check) {
  const std::vector<double> tight = {100, 101, 99,  100, 102,
                                     98,  100, 101, 99,  100};
  const std::vector<double> noisy = {60, 140, 80, 120, 100,
                                     70, 130, 90, 110, 100};
  const auto scaled = [](std::vector<double> values, double factor) {
    for (double& value : values) value *= factor;
    return values;
  };
  const MetricRule lower{"latency_ms", "ms", true, 0.10};
  const MetricRule higher{"spectra_per_s", "spectra/s", false, 0.10};
  const struct {
    const char* what;
    std::vector<double> parent;
    std::vector<double> change;
    MetricRule rule;
    Verdict expected;
  } cases[] = {
      {"identical runs are unchanged", tight, tight, lower,
       Verdict::kUnchanged},
      {"20% faster in every pair is improved", tight, scaled(tight, 0.8), lower,
       Verdict::kImproved},
      {"30% slower beyond the 10% bound is regressed", tight,
       scaled(tight, 1.3), lower, Verdict::kRegressed},
      {"5% slower within the bound is unchanged", tight, scaled(tight, 1.05),
       lower, Verdict::kUnchanged},
      {"a parent spread wider than the bound is unresolved", noisy,
       scaled(noisy, 1.3), lower, Verdict::kUnresolved},
      {"every run better despite a wide spread is not unresolved", noisy,
       scaled(noisy, 0.5), lower, Verdict::kImproved},
      {"higher-is-better: 20% more throughput is improved", tight,
       scaled(tight, 1.2), higher, Verdict::kImproved},
      {"higher-is-better: 30% less throughput is regressed", tight,
       scaled(tight, 0.7), higher, Verdict::kRegressed},
  };
  for (const auto& c : cases) {
    const Verdict got = compare_samples(c.parent, c.change, c.rule).verdict;
    check(std::string("compare: ") + c.what + " (got " + verdict_name(got) +
              ")",
          got == c.expected);
  }
  // A win needs 9 of 10 pairs: 8 better pairs and 2 worse are not enough.
  std::vector<double> mixed = scaled(tight, 0.8);
  mixed[0] = 150;
  mixed[1] = 150;
  check("compare: 8 of 10 pairs is not a win",
        compare_samples(tight, mixed, lower).verdict != Verdict::kImproved);
}

}  // namespace

int selftest(const std::string& scale, const std::string& spec_path,
             const std::string& out_dir) {
  const BenchmarkSpec spec = load_spec(spec_path);
  const fs::path out = fs::absolute(out_dir);
  fs::create_directories(out);
  Checker check;

  std::vector<std::string> names;
  for (const Workload& workload : workloads(scale)) {
    names.push_back(workload.name);
  }
  check("workloads match BENCHMARK.json", names == spec.workloads);

  for (const Workload& workload : workloads(scale)) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.seed = 1;
      options.seconds = 1.0;
      options.trace = trace;
      options.out_dir =
          (out / (workload.name + (trace ? "-trace" : ""))).string();
      options.keep_files = !trace;
      const RunResult result = run_workload(options);
      const std::string label = workload.name + (trace ? " traced" : "");
      check(label + ": correct, no failed operation",
            result.correct && result.failed == 0 && result.attempted > 0);
      const NamedUnits emitted = named_units(result.line().at("metrics"));
      check(label + ": metric names and units match BENCHMARK.json",
            emitted == named_units(trace ? spec.per_layer : spec.end_to_end));
      if (trace) {
        const double coverage = top_level_coverage(options.out_dir);
        char what[128];
        std::snprintf(what, sizeof what,
                      "%s: top-level spans cover %.2f%% of the wall time",
                      label.c_str(), 100.0 * coverage);
        check(what, coverage >= 0.98);
      }
    }
  }

  // The in-process path must not drift from the CLI: same inputs through
  // `lbectl prepare` + `lbectl search` give the same psms.tsv bytes.
  const Workload workload = workloads(scale).front();
  const fs::path run_dir = out / workload.name;
  const fs::path cli = out / "cli";
  fs::remove_all(cli);
  fs::create_directories(cli / "tmp");
  ::setenv("TMPDIR", (cli / "tmp").c_str(), 1);
  auto prepare = lbectl_args(workload, "prepare");
  prepare.insert(prepare.end(),
                 {"--db", (run_dir / "inputs/proteome.fasta").string(), "--out",
                  (cli / "prep").string()});
  auto search = lbectl_args(workload, "search");
  search.insert(search.end(),
                {"--plan", (cli / "prep/plan.lbe").string(), "--index",
                 (cli / "prep").string(), "--queries",
                 (run_dir / "inputs/spectra.ms2").string(), "--out",
                 (cli / "search").string()});
  const bool cli_ok =
      run_command(LBE_BENCHMARK_LBECTL, prepare,
                  (cli / "prepare.log").string()) == 0 &&
      run_command(LBE_BENCHMARK_LBECTL, search,
                  (cli / "search.log").string()) == 0;
  check("lbectl prepare + search ran", cli_ok);
  const std::string expected =
      read_file((run_dir / "search/psms.tsv").string());
  check("in-process psms.tsv is byte-identical to lbectl's",
        cli_ok && !expected.empty() &&
            read_file((cli / "search/psms.tsv").string()) == expected);

  check_compare_rules(check);

  std::printf("selftest: %d failure(s)\n", check.failures);
  return check.failures == 0 ? 0 : 1;
}

}  // namespace lbe::benchmark
