// lbe_benchmark — the cross-layer benchmark driver. See benchmark/README.md.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "app/rank_programs.hpp"
#include "common/error.hpp"
#include "compare.hpp"
#include "index/posting_codec.hpp"
#include "run.hpp"
#include "selftest.hpp"
#include "simmpi/process.hpp"

namespace {

using namespace lbe;
using namespace lbe::benchmark;

constexpr const char* kUsage =
    R"(lbe_benchmark — prepare -> search and serve, end to end

Usage:
  lbe_benchmark run (--workload NAME | --all) [--seed N] [--seconds S]
                    [--trace [0|1]] [--scale full|tiny] [--out DIR]
  lbe_benchmark compare SET_A SET_B [--spec BENCHMARK.json]
  lbe_benchmark selftest [--scale tiny] --spec BENCHMARK.json [--out DIR]

run       one run per workload into DIR/<workload>[-trace] (default DIR
          .bench_run); the last stdout line is the result JSON
compare   verdicts for every (workload, end-to-end metric) between two
          directories of run results (parent SET_A, change SET_B); exits 1
          on a regression or a higher error rate
selftest  the ctest acceptance check
)";

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    // --all and --trace are flags; --trace may also take an explicit 0|1.
    std::string value = "1";
    if (key != "all" && key != "trace") {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      value = argv[++i];
    } else if (key == "trace" && i + 1 < argc &&
               (std::string_view(argv[i + 1]) == "0" ||
                std::string_view(argv[i + 1]) == "1")) {
      value = argv[++i];
    }
    args.flags[key] = std::move(value);
  }
  return args;
}

double positive_number(const std::string& text, const char* what) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(value > 0.0)) {
    throw ConfigError(std::string(what) +
                      " must be a positive number: " + text);
  }
  return value;
}

int run_workloads(const Args& args) {
  const std::string scale = args.get("scale", "full");
  std::vector<Workload> selected;
  if (args.flags.count("all") != 0) {
    selected = workloads(scale);
  } else if (args.flags.count("workload") != 0) {
    selected.push_back(find_workload(scale, args.get("workload", "")));
  } else {
    throw ConfigError("run needs --workload NAME or --all");
  }
  const std::string seed_text = args.get("seed", "1");
  if (seed_text.empty() ||
      seed_text.find_first_not_of("0123456789") != std::string::npos) {
    throw ConfigError("--seed must be a non-negative integer: " + seed_text);
  }
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1") throw ConfigError("--trace takes 0 or 1");

  bool all_correct = true;
  for (const Workload& workload : selected) {
    RunOptions options;
    options.workload = workload;
    options.seed = std::stoull(seed_text);
    options.seconds = positive_number(args.get("seconds", "12"), "--seconds");
    options.trace = trace == "1";
    options.out_dir = args.get("out", ".bench_run") + "/" + workload.name +
                      (options.trace ? "-trace" : "");
    const RunResult result = run_workload(options);
    std::printf("%s\n", result.line().dump().c_str());
    std::fflush(stdout);
    all_correct = all_correct && result.correct && result.failed == 0;
  }
  return all_correct ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "help";
  const Args args = parse(argc, argv);
  // Same decode-kernel selection `lbectl` makes for its default --simd auto.
  index::codec::set_simd_level(index::codec::SimdLevel::kAuto);
  if (command == "run") return run_workloads(args);
  if (command == "compare") {
    if (args.positional.size() != 2) {
      throw ConfigError("compare needs two result directories");
    }
    return compare_sets(args.positional[0], args.positional[1],
                        load_spec(args.get("spec", "BENCHMARK.json")));
  }
  if (command == "selftest") {
    return selftest(args.get("scale", "tiny"),
                    args.get("spec", "BENCHMARK.json"),
                    args.get("out", ".bench_run/selftest"));
  }
  if (command == "help" || command == "--help" || command == "-h") {
    std::printf("%s", kUsage);
    return 0;
  }
  throw ConfigError("unknown command: " + command +
                    " (expected run|compare|selftest)");
}

}  // namespace

int main(int argc, char** argv) {
  // The process backend re-execs this binary once per worker rank; a worker
  // must enter its rank program before anything else runs, or it would run
  // the benchmark again.
  if (lbe::mpi::is_rank_worker(argc, argv)) {
    lbe::app::register_rank_programs();
    return lbe::mpi::rank_worker_main(argc, argv);
  }
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lbe_benchmark: %s\n", error.what());
    return 2;
  }
}
