// The metric catalog: every name and unit a run prints. BENCHMARK.json
// lists the same names and units; the self-test fails when they drift.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perf/bench_json.hpp"

namespace lbe::benchmark {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs: what a user of `lbectl` sees.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"setup_rss_mb", "MiB"},
      {"ready_s", "s"},
      {"spectra_per_s", "spectra/s"},
      {"latency_ms", "ms"},
      {"tail_latency_ms", "ms"},
      {"search_rss_mb", "MiB"},
      {"recall", "fraction"},
  };
  return specs;
}

/// Printed by traced runs: one layer each, named "<layer>.<what>".
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"digest.s", "s"},
      {"digest.peptides", "count"},
      {"core.plan_s", "s"},
      {"core.rank_store_s", "s"},
      {"core.entries", "count"},
      {"core.li_entries_pct", "%"},
      {"index.build_s", "s"},
      {"index.save_s", "s"},
      {"index.selfcheck_s", "s"},
      {"index.bundle_mb", "MiB"},
      {"index.bytes_per_posting", "B"},
      {"index.load_s", "s"},
      {"index.postings_touched", "count"},
      {"index.blocks_walked", "count"},
      {"index.blocks_pruned", "count"},
      {"index.block_prune_ratio", "fraction"},
      {"search.engine_us", "us"},
      {"search.preprocess_us", "us"},
      {"search.candidates_per_spectrum", "count"},
      {"search.pipeline_s", "s"},
      {"search.fdr_s", "s"},
      {"search.rank_query_s.max", "s"},
      {"search.rank_query_s.mean", "s"},
      {"search.li_time_pct", "%"},
      {"search.li_work_pct", "%"},
      {"search.overhead_s", "s"},
      {"search.parallel_efficiency", "fraction"},
      {"simmpi.messages", "count"},
      {"simmpi.bytes", "B"},
      {"simmpi.bytes_per_spectrum", "B"},
      {"simmpi.rank_build_s.max", "s"},
      {"simmpi.worker_rss_mb.max", "MiB"},
      {"io.ms2_read_s", "s"},
      {"io.ms2_mb", "MiB"},
      {"app.plan_reload_s", "s"},
      {"app.reports_s", "s"},
      {"app.psms_mb", "MiB"},
      {"app.master_rss_mb", "MiB"},
      {"serve.load_context_s", "s"},
      {"serve.ready_s", "s"},
      {"serve.service_ms.p50", "ms"},
      {"serve.service_ms.p99", "ms"},
      {"serve.protocol_us", "us"},
      {"serve.p50_ms.light", "ms"},
      {"serve.p99_ms.light", "ms"},
      {"serve.p50_ms.heavy", "ms"},
      {"serve.p99_ms.heavy", "ms"},
      {"serve.wire_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.rejected", "count"},
      {"serve.generator_late_ms.p99", "ms"},
      {"serve.achieved_sps.light", "spectra/s"},
      {"serve.achieved_sps.heavy", "spectra/s"},
      {"serve.saturated_sps", "spectra/s"},
      {"trace.setup_unaccounted_pct", "%"},
      {"trace.search_unaccounted_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

/// Values a run measured, by metric name.
using MetricValues = std::map<std::string, double>;

/// {"<name>": {"value": v, "unit": u}, ...} in catalog order; throws
/// InvariantError when a cataloged metric was not measured.
perf::Json metrics_json(const std::vector<MetricSpec>& specs,
                        const MetricValues& values);

}  // namespace lbe::benchmark
