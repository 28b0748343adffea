// Suite "open" — the open-window PTM search workload and its block-max
// pruning ablation. Half the queries carry an unannounced 12-120 Da mass
// shift (synth/spectra.hpp), the bins are coarse (r = 1.0 Da) so postings
// pile deep enough that one bin spans several 128-posting codec blocks,
// and the precursor window sweeps narrow -> wide -> fully open. The
// ablation times the identical wide-window search with pruning on vs off,
// asserts byte-identical PSMs, and gates both the speedup (>= 1.3x) and a
// nonzero pruned-block ratio; perf-smoke additionally gates the pruned
// run's queries/sec against bench/baseline/BENCH_open.json.
#include <cmath>
#include <string>
#include <vector>

#include "perf/bench_common.hpp"
#include "perf/bench_registry.hpp"
#include "search/query_engine.hpp"

namespace lbe::perf {

namespace {

constexpr std::uint64_t kOpenEntries = 60000;
constexpr std::uint32_t kOpenQueries = 32;
constexpr double kWideWindow = 100.0;  ///< Da; covers every planted shift

// The open workload is not the paper workload (coarse bins, PTM-shifted
// queries), so it bypasses the BenchContext cache and is built once here.
const synth::Workload& open_workload() {
  static const synth::Workload workload = [] {
    synth::WorkloadParams params;
    params.target_entries = kOpenEntries;
    params.num_queries = kOpenQueries;
    params.seed = 2019;
    params.spectra.ptm_shift_fraction = 0.5;
    params.variants.max_mod_residues = 5;
    params.variants.max_variants_per_peptide = 64;
    return synth::make_workload(params);
  }();
  return workload;
}

// §V-A engine settings at open-search resolution: r = 1.0 Da keeps bins
// dense (many codec blocks per bin), which is the regime block-max
// pruning targets. Rescoring is off so the measurement isolates the
// filtration walk that pruning accelerates.
search::DistributedParams open_params(std::size_t max_chunk_entries) {
  search::DistributedParams params = bench::paper_params();
  params.index.resolution = 1.0;
  params.search.rescore_depth = 0;
  params.chunking.max_chunk_entries = max_chunk_entries;
  return params;
}

struct OpenFixture {
  const core::LbePlan plan;
  const index::ChunkedIndex index;

  explicit OpenFixture(const synth::Workload& workload,
                       const search::DistributedParams& params)
      : plan(workload.base_peptides, workload.mods, workload.variant_params,
             [] {
               core::LbeParams lbe;
               lbe.partition.ranks = 1;
               lbe.partition.policy = core::Policy::kCyclic;
               return lbe;
             }()),
        index(plan.build_global_store(), plan.mods(), params.index,
              params.chunking) {}
};

// Sweep fixture: several chunks per index, so the sweep exercises chunk
// routing (a narrow window visits only the chunks its mass range meets).
const OpenFixture& sweep_fixture() {
  static const OpenFixture fixture(open_workload(), open_params(16384));
  return fixture;
}

// Ablation fixture: one chunk, the paper's §V-A configuration. Per-chunk
// mass routing is itself a pruner, so the single-chunk index isolates what
// the per-block bounds buy on their own.
const OpenFixture& ablation_fixture() {
  static const OpenFixture fixture(open_workload(), open_params(0));
  return fixture;
}

struct EngineRun {
  std::vector<search::QueryResult> results;
  index::QueryWork work;
};

EngineRun run_engine(const search::QueryEngine& engine,
                     const synth::Workload& workload,
                     index::QueryArena& arena) {
  EngineRun run;
  run.results.reserve(workload.queries.size());
  for (std::size_t q = 0; q < workload.queries.size(); ++q) {
    run.results.push_back(engine.search(
        workload.queries[q], static_cast<std::uint32_t>(q), run.work, arena));
  }
  return run;
}

bool identical_psms(const std::vector<search::QueryResult>& a,
                    const std::vector<search::QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].top.size() != b[q].top.size()) return false;
    if (a[q].candidates != b[q].candidates) return false;
    for (std::size_t k = 0; k < a[q].top.size(); ++k) {
      if (a[q].top[k].peptide != b[q].top[k].peptide ||
          a[q].top[k].shared_peaks != b[q].top[k].shared_peaks ||
          a[q].top[k].score != b[q].top[k].score) {
        return false;
      }
    }
  }
  return true;
}

double pruned_ratio(std::uint64_t pruned, std::uint64_t walked) {
  const std::uint64_t total = pruned + walked;
  return total == 0 ? 0.0 : static_cast<double>(pruned) /
                                static_cast<double>(total);
}

// Window sweep: the same PTM workload searched narrow (misses every
// shifted spectrum), wide (recovers them), and fully open (the paper's ΔM
// = ∞ mode, where mass bounds exclude nothing and no block is pruned).
void open_window_sweep(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("open: window sweep",
             "open-window PTM search: qps and pruning vs window width",
             "wider windows cost more; block-max pruning recovers most of it",
             {"window_da", "queries_per_sec", "blocks_pruned_ratio",
              "spans_pruned_ratio"});

  const auto& workload = open_workload();
  const auto& fixture = sweep_fixture();
  const auto base = open_params(16384);

  struct Point {
    const char* label;
    double window;
  };
  const std::vector<Point> points = {
      {"5", 5.0},
      {"100", kWideWindow},
      {"inf", std::numeric_limits<double>::infinity()},
  };

  index::QueryArena arena;
  double narrow_qps = 0.0;
  double open_qps = 0.0;
  for (const auto& point : points) {
    search::DistributedParams params = base;
    params.search.filter.precursor_tolerance = point.window;
    const search::QueryEngine engine(fixture.index, fixture.plan.mods(),
                                     params.search);

    EngineRun last;
    const SampleStats stats = ctx.time_hot(
        [&] { last = run_engine(engine, workload, arena); });
    const double qps = workload.queries.size() / stats.median;
    const double blocks_ratio =
        pruned_ratio(last.work.blocks_pruned, last.work.blocks_walked);
    const double spans_ratio =
        pruned_ratio(last.work.spans_pruned, last.work.spans_walked);
    fig.row({point.label, bench::fmt(qps), bench::fmt(blocks_ratio),
             bench::fmt(spans_ratio)});
    ctx.result.add_metric(std::string("qps_window_") + point.label, qps);
    ctx.result.add_metric(
        std::string("blocks_pruned_ratio_window_") + point.label,
        blocks_ratio);
    if (point.window == 5.0) narrow_qps = qps;
    if (std::isinf(point.window)) open_qps = qps;
    if (point.window == kWideWindow) {
      fig.check("wide window prunes blocks", last.work.blocks_pruned > 0);
    }
  }
  fig.check("narrow window is faster than fully open",
            narrow_qps > open_qps);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("queries_per_sec", narrow_qps);
}

// The headline ablation: identical wide-window searches with block-max
// pruning on vs off. PSMs must match exactly; the pruned run must be at
// least 1.3x faster and must skip a meaningful share of blocks.
void open_pruning_ablation(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("open: pruning ablation",
             "wide-window (±100 Da) search, block-max pruning on vs off",
             "pruning speeds the walk >= 1.3x without changing any PSM",
             {"variant", "queries_per_sec", "blocks_pruned_ratio"});

  const auto& workload = open_workload();
  const auto& fixture = ablation_fixture();

  search::DistributedParams pruned_params = open_params(0);
  pruned_params.search.filter.precursor_tolerance = kWideWindow;
  pruned_params.search.filter.prune_blocks = true;
  search::DistributedParams plain_params = pruned_params;
  plain_params.search.filter.prune_blocks = false;

  const search::QueryEngine pruned_engine(fixture.index, fixture.plan.mods(),
                                          pruned_params.search);
  const search::QueryEngine plain_engine(fixture.index, fixture.plan.mods(),
                                         plain_params.search);

  index::QueryArena arena;
  EngineRun pruned_run;
  const SampleStats pruned_stats = ctx.time_hot(
      [&] { pruned_run = run_engine(pruned_engine, workload, arena); });
  EngineRun plain_run;
  const SampleStats plain_stats = ctx.time_hot(
      [&] { plain_run = run_engine(plain_engine, workload, arena); });

  const double pruned_qps = workload.queries.size() / pruned_stats.median;
  const double plain_qps = workload.queries.size() / plain_stats.median;
  const double speedup = pruned_qps / plain_qps;
  const double blocks_ratio = pruned_ratio(pruned_run.work.blocks_pruned,
                                           pruned_run.work.blocks_walked);
  const double spans_ratio = pruned_ratio(pruned_run.work.spans_pruned,
                                          pruned_run.work.spans_walked);

  fig.row({"pruned", bench::fmt(pruned_qps), bench::fmt(blocks_ratio)});
  fig.row({"unpruned", bench::fmt(plain_qps), bench::fmt(0.0)});
  fig.check("pruning changes no PSM",
            identical_psms(pruned_run.results, plain_run.results));
  fig.check("pruning speeds the wide-window walk >= 1.3x", speedup >= 1.3);
  fig.check("pruned run skips >= 20% of blocks", blocks_ratio >= 0.2);
  fig.check("unpruned run prunes nothing",
            plain_run.work.blocks_pruned == 0 &&
                plain_run.work.spans_pruned == 0);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("queries_per_sec", pruned_qps);
  ctx.result.add_metric("unpruned_queries_per_sec", plain_qps);
  ctx.result.add_metric("pruning_speedup", speedup);
  ctx.result.add_metric("blocks_pruned_ratio", blocks_ratio);
  ctx.result.add_metric("spans_pruned_ratio", spans_ratio);
}

}  // namespace

void register_open_benches(BenchRegistry& registry) {
  registry.add(BenchmarkDef{"open_window_sweep", "open",
                            "open-window qps/pruning vs window width",
                            open_window_sweep});
  registry.add(BenchmarkDef{"open_pruning_ablation", "open",
                            "wide-window pruning on/off ablation",
                            open_pruning_ablation});
}

}  // namespace lbe::perf
