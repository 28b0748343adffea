// Scheduling driver — runs the "schedule" suite (static vs stealing makespan
// on the heterogeneous and balanced fixtures). The
// benchmark bodies live in src/perf/bench_suites_schedule.cpp; `lbebench
// --suite schedule` runs the same set and additionally writes
// BENCH_schedule.json and gates against the checked-in baseline.
#include "common/logging.hpp"
#include "perf/bench_registry.hpp"

int main() {
  lbe::log::set_level(lbe::log::Level::kWarn);
  lbe::perf::BenchRunOptions options;
  options.suite = "schedule";
  options.repeat = 1;
  options.write_json = false;
  return lbe::perf::run_suite(options);
}
