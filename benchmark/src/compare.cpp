#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/error.hpp"
#include "perf/bench_json.hpp"
#include "proc.hpp"

namespace lbe::benchmark {

namespace fs = std::filesystem;

namespace {

perf::Json parse_file(const std::string& path) {
  return perf::Json::parse(read_file(path));
}

MetricRule metric_rule(const perf::Json& entry, bool with_bound) {
  MetricRule rule;
  rule.name = entry.at("name").as_string();
  rule.unit = entry.at("unit").as_string();
  const std::string& better = entry.at("better").as_string();
  if (better != "lower" && better != "higher") {
    throw IoError("metric " + rule.name + ": better must be lower|higher");
  }
  rule.lower_is_better = better == "lower";
  if (with_bound) rule.bound = entry.at("bound").as_number();
  return rule;
}

/// One set's untraced results: workload -> seed -> metric -> value, plus
/// the operation counts per workload.
struct ResultSet {
  std::map<std::string, std::map<std::uint64_t, std::map<std::string, double>>>
      runs;
  std::map<std::string, std::pair<double, double>> ops;  ///< failed, attempted
};

ResultSet load_results(const std::string& dir) {
  ResultSet set;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().filename() != "result.json") {
      continue;
    }
    const perf::Json doc = parse_file(entry.path().string());
    if (doc.at("trace").as_bool()) continue;
    const std::string& workload = doc.at("workload").as_string();
    const auto seed = static_cast<std::uint64_t>(doc.at("seed").as_number());
    auto& values = set.runs[workload][seed];
    for (const auto& [name, metric] : doc.at("metrics").members()) {
      values[name] = metric.at("value").as_number();
    }
    auto& [failed, attempted] = set.ops[workload];
    failed += doc.at("failed").as_number();
    attempted += doc.at("attempted").as_number();
  }
  if (set.runs.empty()) throw IoError("no untraced result.json under " + dir);
  return set;
}

}  // namespace

BenchmarkSpec load_spec(const std::string& path) {
  const perf::Json doc = parse_file(path);
  BenchmarkSpec spec;
  for (const auto& workload : doc.at("workloads").items()) {
    spec.workloads.push_back(workload.at("name").as_string());
  }
  for (const auto& entry : doc.at("end_to_end").items()) {
    spec.end_to_end.push_back(metric_rule(entry, true));
  }
  for (const auto& entry : doc.at("per_layer").items()) {
    spec.per_layer.push_back(metric_rule(entry, false));
  }
  return spec;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kImproved:
      return "improved";
    case Verdict::kUnchanged:
      return "unchanged";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Comparison compare_samples(const std::vector<double>& parent,
                           const std::vector<double>& change,
                           const MetricRule& rule) {
  Comparison c;
  c.parent = quartiles(parent);
  c.change = quartiles(change);
  const auto better = [&](double x, double y) {
    return rule.lower_is_better ? x < y : x > y;
  };
  c.pairs = std::min(parent.size(), change.size());
  for (std::size_t i = 0; i < c.pairs; ++i) {
    if (better(change[i], parent[i])) ++c.change_wins;
    if (better(parent[i], change[i])) ++c.parent_wins;
  }
  const double base = std::max(std::abs(c.parent.median), 1e-300);
  const double delta = c.change.median - c.parent.median;
  c.worsening = (rule.lower_is_better ? delta : -delta) / base;
  const double iqr = c.parent.q3 - c.parent.q1;

  const bool change_won = c.pairs > 0 && 10 * c.change_wins >= 9 * c.pairs;
  const auto [worst_change, best_parent] =
      rule.lower_is_better
          ? std::pair(*std::max_element(change.begin(), change.end()),
                      *std::min_element(parent.begin(), parent.end()))
          : std::pair(*std::min_element(change.begin(), change.end()),
                      *std::max_element(parent.begin(), parent.end()));
  const bool change_beats_every_run = better(worst_change, best_parent);

  if (change_won && std::abs(delta) > iqr && c.worsening < 0.0) {
    c.verdict = Verdict::kImproved;
  } else if (iqr / base > rule.bound && !change_beats_every_run) {
    c.verdict = Verdict::kUnresolved;
  } else if (c.worsening > rule.bound) {
    c.verdict = Verdict::kRegressed;
  } else {
    c.verdict = Verdict::kUnchanged;
  }
  return c;
}

int compare_sets(const std::string& parent_dir, const std::string& change_dir,
                 const BenchmarkSpec& spec) {
  const ResultSet parent = load_results(parent_dir);
  const ResultSet change = load_results(change_dir);
  int exit_code = 0;
  std::printf("%-13s %-16s %29s %29s %9s %8s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]",
              "wins p/c", "change", "verdict");
  for (const std::string& workload : spec.workloads) {
    const auto a = parent.runs.find(workload);
    const auto b = change.runs.find(workload);
    if (a == parent.runs.end() || b == change.runs.end()) continue;
    for (const MetricRule& rule : spec.end_to_end) {
      std::vector<double> xs;
      std::vector<double> ys;
      for (const auto& [seed, values] : a->second) {
        const auto other = b->second.find(seed);
        if (other == b->second.end()) continue;
        const auto x = values.find(rule.name);
        const auto y = other->second.find(rule.name);
        if (x == values.end() || y == other->second.end()) continue;
        xs.push_back(x->second);
        ys.push_back(y->second);
      }
      if (xs.empty()) {
        std::printf("%-13s %-16s no paired runs (same seed on both sides)\n",
                    workload.c_str(), rule.name.c_str());
        continue;
      }
      const Comparison c = compare_samples(xs, ys, rule);
      char left[64];
      char right[64];
      char wins[32];
      std::snprintf(left, sizeof left, "%.4g [%.4g, %.4g]", c.parent.median,
                    c.parent.q1, c.parent.q3);
      std::snprintf(right, sizeof right, "%.4g [%.4g, %.4g]", c.change.median,
                    c.change.q1, c.change.q3);
      std::snprintf(wins, sizeof wins, "%zu/%zu", c.parent_wins, c.change_wins);
      std::printf("%-13s %-16s %29s %29s %9s %+7.1f%%  %s\n", workload.c_str(),
                  rule.name.c_str(), left, right, wins, 100.0 * c.worsening,
                  verdict_name(c.verdict));
      if (c.verdict == Verdict::kRegressed) exit_code = 1;
    }
    const auto& [parent_failed, parent_attempted] = parent.ops.at(workload);
    const auto& [change_failed, change_attempted] = change.ops.at(workload);
    const double parent_rate = parent_failed / std::max(1.0, parent_attempted);
    const double change_rate = change_failed / std::max(1.0, change_attempted);
    std::printf("%-13s %-16s %29.4g %29.4g %9s %8s  %s\n", workload.c_str(),
                "error_rate", parent_rate, change_rate, "", "",
                change_rate > parent_rate ? "regressed" : "unchanged");
    if (change_rate > parent_rate) exit_code = 1;
  }
  return exit_code;
}

}  // namespace lbe::benchmark
