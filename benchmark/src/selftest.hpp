// `lbe_benchmark selftest`: the benchmark's own acceptance check (ctest).
#pragma once

#include <string>

namespace lbe::benchmark {

/// Runs every workload at `scale` (untraced and traced) under `out_dir` and
/// checks: every run is correct; the metric names and units emitted match
/// `spec_path` (BENCHMARK.json) exactly; traced top-level spans cover >= 98%
/// of the traced wall time; the in-process prepare/search writes the same
/// psms.tsv bytes as `lbectl prepare` + `lbectl search`; and the `compare`
/// verdict rules hold on hand-built samples. Returns the exit code.
int selftest(const std::string& scale, const std::string& spec_path,
             const std::string& out_dir);

}  // namespace lbe::benchmark
