// Suite "figures" — the paper-figure reproductions (Figs. 5-11, §V-A
// stats), registered on the lbebench harness. Each benchmark prints its
// figure CSV + shape checks (see perf/figure.hpp) and additionally reports
// its headline quantities as machine-readable metrics in
// BENCH_figures.json.
#include <iostream>
#include <map>

#include "common/strings.hpp"
#include "perf/bench_common.hpp"
#include "perf/bench_registry.hpp"
#include "search/load_model.hpp"

namespace lbe::perf {

namespace {

// Fig. 5 — Memory footprint: distributed SLM index vs the shared-memory
// implementation, for increasing index size. Paper claim: ~6.4% overhead,
// varying inversely with the partition size per MPI process.
void fig5_memory_footprint(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 5", "Memory footprint of distributed vs shared-memory SLM index",
      "distributed ~= shared + small overhead; overhead shrinks as the "
      "per-rank partition grows",
      {"index_entries", "series", "bytes", "bytes_per_entry"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 16;  // memory bench: queries irrelevant

  std::vector<double> overhead_percent;
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);

    // Shared-memory baseline: one global index in one address space.
    core::LbeParams lbe;
    lbe.partition.ranks = bench::kPaperRanks;
    lbe.partition.policy = core::Policy::kCyclic;
    const core::LbePlan plan(workload.base_peptides, workload.mods,
                             workload.variant_params, lbe);
    const auto shared =
        search::run_shared_baseline(plan, workload.queries, params);

    // Distributed: 16 partial indexes plus the master's mapping table.
    const auto run = bench::run_distributed(workload, core::Policy::kCyclic,
                                            bench::kPaperRanks, params,
                                            /*measured_time=*/false);
    std::uint64_t distributed = run.report.mapping_bytes;
    for (const auto bytes : run.report.index_bytes) distributed += bytes;

    const double n = static_cast<double>(plan.num_variants());
    fig.row({bench::fmt(plan.num_variants()), "shared",
             bench::fmt(shared.index_bytes),
             bench::fmt(static_cast<double>(shared.index_bytes) / n)});
    fig.row({bench::fmt(plan.num_variants()), "distributed",
             bench::fmt(distributed),
             bench::fmt(static_cast<double>(distributed) / n)});

    const double overhead =
        100.0 * (static_cast<double>(distributed) -
                 static_cast<double>(shared.index_bytes)) /
        static_cast<double>(shared.index_bytes);
    overhead_percent.push_back(overhead);
    fig.note("entries=" + std::to_string(plan.num_variants()) +
             " shared=" + str::human_bytes(shared.index_bytes) +
             " distributed=" + str::human_bytes(distributed) +
             " overhead=" + bench::fmt(overhead) + "%");
  }

  for (std::size_t i = 0; i < overhead_percent.size(); ++i) {
    fig.check("distributed costs more than shared (per-rank fixed parts), "
              "size " + std::to_string(bench::index_sizes()[i]),
              overhead_percent[i] > 0.0);
  }
  fig.check(
      "overhead shrinks as partitions grow (paper: inverse relation)",
      overhead_percent.back() < overhead_percent.front());
  fig.check("overhead at the largest size is modest (< 60%)",
            overhead_percent.back() < 60.0);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("overhead_pct_largest", overhead_percent.back());
  ctx.result.add_metric("overhead_pct_smallest", overhead_percent.front());
}

// Fig. 6 — Normalized load imbalance (Eq. 1) for 16 MPI processes with
// increasing index size, per distribution policy. Paper claim: LI <= 20%
// for Cyclic/Random vs ~120% for Chunk.
void fig6_load_imbalance(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 6", "Load imbalance vs index size, 16 ranks",
      "LI <= 20% for cyclic/random vs ~120% for chunk partitioning",
      {"index_entries", "policy", "li_work_pct", "li_time_pct"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;

  const std::vector<core::Policy> policies = {
      core::Policy::kChunk, core::Policy::kCyclic, core::Policy::kRandom};

  std::map<core::Policy, std::vector<double>> li_work;
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);
    for (const core::Policy policy : policies) {
      const auto run = bench::run_distributed(workload, policy,
                                              bench::kPaperRanks, params);
      const double work_li =
          load_stats_from_work(run.report.work).imbalance;
      const double time_li =
          load_imbalance(run.report.query_phase_seconds());
      li_work[policy].push_back(work_li);
      fig.row({bench::fmt(entries), core::policy_name(policy),
               bench::fmt(100.0 * work_li), bench::fmt(100.0 * time_li)});
    }
  }

  // Per-size bounds carry slack at the smallest size: a 16th of 30k entries
  // is under 2k peptides per rank, a regime the paper (18M+) never touches.
  for (std::size_t i = 0; i < bench::index_sizes().size(); ++i) {
    const std::string size = std::to_string(bench::index_sizes()[i]);
    const double balanced_cap = i == 0 ? 0.30 : 0.25;
    fig.check("cyclic LI small at " + size,
              li_work[core::Policy::kCyclic][i] <= balanced_cap);
    fig.check("random LI small at " + size,
              li_work[core::Policy::kRandom][i] <= balanced_cap);
    fig.check("chunk LI at least 3x cyclic LI at " + size,
              li_work[core::Policy::kChunk][i] >=
                  3.0 * li_work[core::Policy::kCyclic][i]);
    fig.check("chunk LI exceeds 40% at " + size,
              li_work[core::Policy::kChunk][i] > 0.40);
  }
  fig.check("mean cyclic LI <= 20% (the paper's headline bound)",
            bench::mean(li_work[core::Policy::kCyclic]) <= 0.20);
  fig.check("mean random LI <= 20% (the paper's headline bound)",
            bench::mean(li_work[core::Policy::kRandom]) <= 0.20);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("mean_cyclic_li",
                        bench::mean(li_work[core::Policy::kCyclic]));
  ctx.result.add_metric("mean_random_li",
                        bench::mean(li_work[core::Policy::kRandom]));
  ctx.result.add_metric("mean_chunk_li",
                        bench::mean(li_work[core::Policy::kChunk]));
}

// Fig. 7 — Query time vs number of MPI processes (cyclic partitioning),
// one series per index size. Paper claim: query time falls roughly as 1/p.
void fig7_query_time(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 7", "Query time vs MPI processes (cyclic policy)",
      "query time decreases ~1/p with more CPUs at every index size",
      {"ranks", "index_entries", "query_seconds"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;

  std::map<std::uint64_t, std::vector<double>> series;  // size -> t(p)
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);
    for (const int ranks : bench::rank_sweep()) {
      const auto run = bench::run_distributed_repeated(
          workload, core::Policy::kCyclic, ranks, params);
      series[entries].push_back(run.query_wall_min);
      fig.row({bench::fmt(ranks), bench::fmt(entries),
               bench::fmt(run.query_wall_min)});
    }
  }

  const auto& sweep = bench::rank_sweep();
  const std::size_t i16 = static_cast<std::size_t>(
      std::find(sweep.begin(), sweep.end(), 16) - sweep.begin());
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& times = series[entries];
    // p = 2 -> 16 is an 8x resource increase; demand at least 2.5x less
    // wall time (ideal 8x) to absorb single-core timing noise.
    fig.check("query time at p=16 well below p=2, size " +
                  std::to_string(entries),
              times[i16] < times[0] / 2.5);
  }
  for (std::size_t i = 0; i + 1 < bench::index_sizes().size(); ++i) {
    fig.check("bigger index costs more at p=16 (" +
                  std::to_string(bench::index_sizes()[i]) + " vs " +
                  std::to_string(bench::index_sizes()[i + 1]) + ")",
              series[bench::index_sizes()[i]][i16] <
                  series[bench::index_sizes()[i + 1]][i16] * 1.15);
  }
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("query_seconds_p16_largest",
                        series[bench::index_sizes().back()][i16]);
}

// Fig. 8 — Query-time speedup vs number of MPI processes (cyclic policy).
// Paper claim: near-linear scaling; base case 2 CPUs (smallest) / 4 CPUs.
void fig8_query_speedup(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 8", "Query speedup vs MPI processes (cyclic policy)",
      "near-linear query speedup; base case 2 CPUs (smallest index) / 4 CPUs",
      {"ranks", "index_entries", "speedup", "efficiency"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;
  const auto& sweep = bench::rank_sweep();

  std::map<std::uint64_t, std::map<int, double>> speedups;
  for (std::size_t s = 0; s < bench::index_sizes().size(); ++s) {
    const std::uint64_t entries = bench::index_sizes()[s];
    const auto& workload = ctx.workload(entries, kQueries);
    // Paper convention: base = 2 CPUs for the smallest index, 4 otherwise.
    const int base_ranks = s == 0 ? 2 : 4;

    std::map<int, double> wall;
    for (const int ranks : sweep) {
      const auto run = bench::run_distributed_repeated(
          workload, core::Policy::kCyclic, ranks, params);
      wall[ranks] = run.query_wall_min;
    }
    for (const int ranks : sweep) {
      const double speedup =
          speedup_vs_base(wall[base_ranks], base_ranks, wall[ranks]);
      speedups[entries][ranks] = speedup;
      fig.row({bench::fmt(ranks), bench::fmt(entries), bench::fmt(speedup),
               bench::fmt(efficiency(speedup, ranks))});
    }
  }

  // Fixed per-rank work (every rank preprocesses every query — §III-E)
  // erodes efficiency at our scaled-down sizes; the paper's 18M+ indexes
  // sit deep in the work-dominated regime. Demand near-linear efficiency
  // where the parallel fraction is large and a floor elsewhere.
  for (std::size_t s = 0; s < bench::index_sizes().size(); ++s) {
    const std::uint64_t entries = bench::index_sizes()[s];
    fig.check("speedup grows from p=4 to p=16, size " +
                  std::to_string(entries),
              speedups[entries][16] > speedups[entries][4]);
    const bool large = s + 2 >= bench::index_sizes().size();
    const double floor = large ? 0.5 : 0.3;
    fig.check("efficiency at p=16 >= " + std::to_string(floor) + ", size " +
                  std::to_string(entries),
              efficiency(speedups[entries][16], 16) >= floor);
  }
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric(
      "efficiency_p16_largest",
      efficiency(speedups[bench::index_sizes().back()][16], 16));
}

// Fig. 9 — Total execution time vs number of MPI processes (cyclic
// policy). Paper claim: total time falls with CPUs but flattens.
void fig9_execution_time(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 9", "Total execution time vs MPI processes (cyclic policy)",
      "execution time decreases with CPUs but flattens (serial fraction)",
      {"ranks", "index_entries", "execution_seconds", "prep_seconds"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;
  const auto& sweep = bench::rank_sweep();

  std::map<std::uint64_t, std::vector<double>> series;
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);
    for (const int ranks : sweep) {
      const auto run = bench::run_distributed_repeated(
          workload, core::Policy::kCyclic, ranks, params);
      series[entries].push_back(run.makespan_min);
      fig.row({bench::fmt(ranks), bench::fmt(entries),
               bench::fmt(run.makespan_min), bench::fmt(run.prep_seconds)});
    }
  }

  const std::size_t i2 = 0;
  const std::size_t i16 = static_cast<std::size_t>(
      std::find(sweep.begin(), sweep.end(), 16) - sweep.begin());
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& times = series[entries];
    fig.check("total time falls from p=2 to p=16, size " +
                  std::to_string(entries),
              times[i16] < times[i2]);
  }
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("makespan_p16_largest",
                        series[bench::index_sizes().back()][i16]);
}

// Fig. 10 — Total-execution speedup vs number of MPI processes.
// Paper claim: Amdahl-bounded; scalability improves as the index grows.
void fig10_execution_speedup(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 10", "Execution speedup vs MPI processes (cyclic policy)",
      "speedup saturates (Amdahl); scalability improves with index size",
      {"ranks", "index_entries", "speedup", "efficiency"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;
  const auto& sweep = bench::rank_sweep();

  std::map<std::uint64_t, std::map<int, double>> speedups;
  for (std::size_t s = 0; s < bench::index_sizes().size(); ++s) {
    const std::uint64_t entries = bench::index_sizes()[s];
    const auto& workload = ctx.workload(entries, kQueries);
    const int base_ranks = s == 0 ? 2 : 4;  // paper's Fig. 8/10 convention

    std::map<int, double> wall;
    for (const int ranks : sweep) {
      const auto run = bench::run_distributed_repeated(
          workload, core::Policy::kCyclic, ranks, params);
      wall[ranks] = run.makespan_min;
    }
    for (const int ranks : sweep) {
      const double speedup =
          speedup_vs_base(wall[base_ranks], base_ranks, wall[ranks]);
      speedups[entries][ranks] = speedup;
      fig.row({bench::fmt(ranks), bench::fmt(entries), bench::fmt(speedup),
               bench::fmt(efficiency(speedup, ranks))});
    }
  }

  for (const std::uint64_t entries : bench::index_sizes()) {
    fig.check("speedup still improves 4 -> 16 CPUs, size " +
                  std::to_string(entries),
              speedups[entries][16] > speedups[entries][4]);
    fig.check("speedup is sub-linear at p=16 (Amdahl), size " +
                  std::to_string(entries),
              speedups[entries][16] < 16.0);
  }
  // Query time grows with index size while the serial prep grows slower, so
  // the parallel fraction — and with it the speedup at p=16 — increases.
  fig.check("largest index scales better than smallest at p=16",
            speedups[bench::index_sizes().back()][16] >
                speedups[bench::index_sizes().front()][16]);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("speedup_p16_largest",
                        speedups[bench::index_sizes().back()][16]);
}

// Fig. 11 — CPU-time speedup of LBE partitioning (Cyclic / Random) over
// conventional Chunk partitioning. Paper claim: ~8.6x / ~7.5x on average.
void fig11_policy_speedup(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "Fig. 11", "Wasted-CPU-time speedup of LBE policies over chunk, p=16",
      "order-of-magnitude speedup by load balance (paper avg: cyclic ~8.6x, "
      "random ~7.5x)",
      {"index_entries", "policy", "twst_chunk_over_twst_policy"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 96;

  std::map<core::Policy, std::vector<double>> ratios;
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);

    std::map<core::Policy, LoadStats> stats;
    for (const core::Policy policy :
         {core::Policy::kChunk, core::Policy::kCyclic,
          core::Policy::kRandom}) {
      const auto run = bench::run_distributed(workload, policy,
                                              bench::kPaperRanks, params);
      stats[policy] = load_stats_from_work(run.report.work);
    }
    for (const core::Policy policy :
         {core::Policy::kCyclic, core::Policy::kRandom}) {
      // Twst = N * ΔTmax; N identical, so the ratio reduces to ΔTmax ratio.
      const double ratio = stats[core::Policy::kChunk].wasted_cpu /
                           std::max(stats[policy].wasted_cpu, 1e-12);
      ratios[policy].push_back(ratio);
      fig.row({bench::fmt(entries), core::policy_name(policy),
               bench::fmt(ratio)});
    }
  }

  for (std::size_t i = 0; i < bench::index_sizes().size(); ++i) {
    const std::string size = std::to_string(bench::index_sizes()[i]);
    fig.check("cyclic beats chunk by > 3x at " + size,
              ratios[core::Policy::kCyclic][i] > 3.0);
    fig.check("random beats chunk by > 3x at " + size,
              ratios[core::Policy::kRandom][i] > 3.0);
  }
  const double mean_cyclic = bench::mean(ratios[core::Policy::kCyclic]);
  const double mean_random = bench::mean(ratios[core::Policy::kRandom]);
  fig.note("mean cyclic speedup: " + bench::fmt(mean_cyclic) +
           "x (paper: ~8.6x)");
  fig.note("mean random speedup: " + bench::fmt(mean_random) +
           "x (paper: ~7.5x)");
  fig.check("mean cyclic speedup is order-of-magnitude (>= 5x)",
            mean_cyclic >= 5.0);
  fig.check("mean random speedup is order-of-magnitude (>= 5x)",
            mean_random >= 5.0);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("mean_cyclic_speedup", mean_cyclic);
  ctx.result.add_metric("mean_random_speedup", mean_random);
}

// §V-A search statistics — candidate PSM volume under open-search
// settings. The density (cPSMs per query per million entries) is the
// scale-free quantity our synthetic analogue reproduces.
void stats_cpsm(BenchContext& ctx) {
  using namespace lbe;
  Figure fig(
      "§V-A stats", "Candidate PSM volume under open-search settings",
      "open search yields tens of thousands of cPSMs per query at paper "
      "scale; density per million entries is scale-free",
      {"index_entries", "queries", "total_cpsms", "cpsms_per_query",
       "cpsms_per_query_per_Mentry"});

  const auto params = bench::paper_params();
  constexpr std::uint32_t kQueries = 128;

  std::vector<double> densities;
  for (const std::uint64_t entries : bench::index_sizes()) {
    const auto& workload = ctx.workload(entries, kQueries);
    const auto run = bench::run_distributed(workload, core::Policy::kCyclic,
                                            bench::kPaperRanks, params,
                                            /*measured_time=*/false);
    std::uint64_t cpsms = 0;
    for (const auto& work : run.report.work) cpsms += work.candidates;
    const double per_query =
        static_cast<double>(cpsms) / static_cast<double>(kQueries);
    const double density =
        per_query / (static_cast<double>(entries) / 1e6);
    densities.push_back(density);
    fig.row({bench::fmt(entries), bench::fmt(std::uint64_t{kQueries}),
             bench::fmt(cpsms), bench::fmt(per_query),
             bench::fmt(density)});
  }

  fig.note("paper: 73,723 cPSMs/query at 49.45M entries = 1,491 "
           "cPSMs/query/Mentry");
  // Small synthetic databases are denser in near-duplicate peptides than
  // the human proteome, so density falls toward the paper's value as the
  // index grows; check the trend plus the largest point.
  for (std::size_t i = 1; i < densities.size(); ++i) {
    fig.check("cPSM density falls toward paper scale (" +
                  std::to_string(bench::index_sizes()[i - 1]) + " -> " +
                  std::to_string(bench::index_sizes()[i]) + ")",
              densities[i] < densities[i - 1]);
  }
  fig.check("largest-size density within 1 order of magnitude of the paper",
            densities.back() > 149.0 && densities.back() < 14910.0);
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("cpsm_density_largest", densities.back());
}

}  // namespace

void register_figure_benches(BenchRegistry& registry) {
  const auto add = [&registry](const char* name, const char* description,
                               BenchFn fn) {
    registry.add(BenchmarkDef{name, "figures", description, std::move(fn)});
  };
  add("fig5_memory_footprint", "distributed vs shared index memory",
      fig5_memory_footprint);
  add("fig6_load_imbalance", "Eq. 1 LI per policy vs index size",
      fig6_load_imbalance);
  add("fig7_query_time", "query time vs MPI processes", fig7_query_time);
  add("fig8_query_speedup", "query speedup vs MPI processes",
      fig8_query_speedup);
  add("fig9_execution_time", "total execution time vs MPI processes",
      fig9_execution_time);
  add("fig10_execution_speedup", "total-execution speedup vs MPI processes",
      fig10_execution_speedup);
  add("fig11_policy_speedup", "wasted-CPU speedup of LBE over chunk",
      fig11_policy_speedup);
  add("stats_cpsm", "cPSM volume under open search", stats_cpsm);
}

}  // namespace lbe::perf
