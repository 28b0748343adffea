// Suite "index_io" — the warm-start economics of the on-disk index format
// (index/serialize.hpp). The paper's pipeline is "partition once, search
// many": this suite measures what that buys — bundle save and load wall
// time against a cold per-rank rebuild — and asserts, per run, that a
// search over the loaded indexes is identical to one over freshly built
// ones. CI runs it in the test matrix (ctest `lbebench_index_io`) so the
// equivalence check executes under every compiler/build-type combination.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/timer.hpp"
#include "index/serialize.hpp"
#include "perf/bench_common.hpp"
#include "perf/bench_registry.hpp"
#include "search/distributed.hpp"

namespace lbe::perf {

namespace {

constexpr std::uint64_t kEntries = 20000;
constexpr std::uint32_t kQueries = 32;
constexpr int kRanks = 8;

bool same_results(const std::vector<search::GlobalQueryResult>& a,
                  const std::vector<search::GlobalQueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].top.size() != b[q].top.size()) return false;
    for (std::size_t k = 0; k < a[q].top.size(); ++k) {
      const auto& x = a[q].top[k];
      const auto& y = b[q].top[k];
      if (x.peptide != y.peptide || x.shared_peaks != y.shared_peaks ||
          x.score != y.score) {
        return false;
      }
    }
  }
  return true;
}

search::DistributedReport run_once(
    const core::LbePlan& plan, const synth::Workload& workload,
    const search::DistributedParams& base,
    const std::vector<std::unique_ptr<index::ChunkedIndex>>* preloaded) {
  search::DistributedParams params = base;
  params.preloaded = preloaded;
  mpi::ClusterOptions options;
  options.ranks = kRanks;
  options.engine = mpi::Engine::kVirtual;
  mpi::Cluster cluster(options);
  return search::run_distributed_search(cluster, plan, workload.queries,
                                        params);
}

void index_io_warm_start(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("index_io: warm start",
             "bundle save/load wall time vs cold per-rank index build",
             "loading prepared indexes beats rebuilding them and changes "
             "nothing about the results",
             {"metric", "value"});

  const auto& workload = ctx.workload(kEntries, kQueries);
  const auto params = bench::paper_params();

  core::LbeParams lbe;
  lbe.partition.ranks = kRanks;
  lbe.partition.policy = core::Policy::kCyclic;
  const core::LbePlan plan(workload.base_peptides, workload.mods,
                           workload.variant_params, lbe);

  // Cold build: every rank's partial index from scratch (the per-search
  // cost `--index` removes from the critical path).
  index::IndexBundle bundle;
  bundle.lbe = lbe;
  bundle.index_params = params.index;
  bundle.chunking = params.chunking;
  bundle.mapping = plan.mapping();
  Stopwatch build_timer;
  for (int rank = 0; rank < kRanks; ++rank) {
    bundle.per_rank.push_back(std::make_unique<index::ChunkedIndex>(
        plan.build_rank_store(rank), plan.mods(), bundle.index_params,
        bundle.chunking));
  }
  const double build_seconds = build_timer.seconds();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "lbe_bench_index_io")
          .string();
  const SampleStats save_stats = ctx.time_hot([&] {
    index::save_index_bundle(dir, bundle);
  });

  // A full load: map every rank file, then materialize (CRC-check,
  // validate, bind) every chunk — prepare's self-check, and the most a
  // warm start can ever pay for its indexes.
  index::IndexBundle loaded;
  const SampleStats load_stats = ctx.time_hot([&] {
    loaded = index::load_index_bundle(dir, workload.mods);
    for (const auto& rank : loaded.per_rank) rank->materialize_all();
  });

  std::uint64_t bundle_bytes =
      std::filesystem::file_size(index::bundle_manifest_path(dir));
  for (int rank = 0; rank < kRanks; ++rank) {
    bundle_bytes += std::filesystem::file_size(
        index::bundle_rank_path(dir, rank));
  }

  // Compression economics of the v4 packed posting format: stream + block
  // directory bytes per posting, vs the 4 bytes a raw u32 posting costs.
  // CI gates bytes_per_posting lower-is-better against the checked-in
  // baseline so a codec regression (or an accidental raw fallback) fails
  // the perf-smoke job.
  std::uint64_t packed_bytes = 0;
  std::uint64_t num_postings = 0;
  for (const auto& rank : loaded.per_rank) {
    packed_bytes += rank->packed_posting_bytes();
    num_postings += rank->num_postings();
  }
  const double bytes_per_posting =
      static_cast<double>(packed_bytes) /
      static_cast<double>(std::max<std::uint64_t>(num_postings, 1));
  fig.check("packed postings beat raw u32 (<= 0.6x of 4 bytes)",
            bytes_per_posting <= 0.6 * 4.0);

  // Loaded-vs-rebuilt equivalence: the whole distributed search, not just
  // one query — any drift in the serialized arrays shows up here.
  const auto cold = run_once(plan, workload, params, nullptr);
  const auto warm = run_once(plan, workload, params, &loaded.per_rank);
  fig.check("warm-start results identical to cold rebuild",
            same_results(cold.results, warm.results));
  fig.check("loaded bundle matches the mapping table",
            loaded.mapping == plan.mapping());

  std::filesystem::remove_all(dir);

  const double warm_speedup = build_seconds / load_stats.median;
  fig.row({"build_seconds", bench::fmt(build_seconds)});
  fig.row({"save_seconds", bench::fmt(save_stats.median)});
  fig.row({"load_seconds", bench::fmt(load_stats.median)});
  fig.row({"bundle_mib",
           bench::fmt(static_cast<double>(bundle_bytes) / (1024.0 * 1024.0))});
  fig.row({"bytes_per_posting", bench::fmt(bytes_per_posting)});
  fig.note("warm start loads " + bench::fmt(warm_speedup) +
           "x faster than rebuilding; packed postings at " +
           bench::fmt(bytes_per_posting) + " B/posting vs 4 B raw");
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("build_seconds", build_seconds);
  ctx.result.add_metric("save_seconds", save_stats.median);
  ctx.result.add_metric("load_seconds", load_stats.median);
  ctx.result.add_metric("bundle_bytes", static_cast<double>(bundle_bytes));
  ctx.result.add_metric("bundle_bytes_total",
                        static_cast<double>(bundle_bytes));
  ctx.result.add_metric("bytes_per_posting", bytes_per_posting);
  ctx.result.add_metric("warm_speedup_vs_build", warm_speedup);
}

/// Current (not peak) resident set, so the mapped load can be measured
/// within one process: peak RSS is a monotone high-water mark the cold
/// build already raised.
std::uint64_t current_rss_bytes() {
#ifdef __linux__
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

std::uint64_t bundle_index_heap_bytes(const index::IndexBundle& bundle) {
  std::uint64_t total = 0;
  for (const auto& rank : bundle.per_rank) total += rank->memory_bytes();
  return total;
}

// The mmap warm start (format v3): load_index_bundle validates only
// metadata and binds arrays in place, materializing chunks on first query
// touch. A narrow precursor window therefore reaches its first query
// having read a fraction of the bundle — measured here as time-to-first-
// query, chunks touched and resident index heap, with the in-memory built
// bundle as the reference for both results and heap.
void index_io_mmap_warm_start(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("index_io: mmap warm start",
             "mapped lazy-chunk load vs the built bundle, narrow-window "
             "search",
             "a mapped warm start answers a narrow-window query after "
             "touching a few chunks, holding less heap than the built "
             "bundle, with identical results",
             {"metric", "value"});

  const auto& workload = ctx.workload(kEntries, kQueries);
  auto params = bench::paper_params();
  // Lazy loading pays off per chunk; carve each rank into many.
  params.chunking.max_chunk_entries = 512;

  core::LbeParams lbe;
  lbe.partition.ranks = kRanks;
  lbe.partition.policy = core::Policy::kCyclic;
  const core::LbePlan plan(workload.base_peptides, workload.mods,
                           workload.variant_params, lbe);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "lbe_bench_index_io_mmap")
          .string();
  index::IndexBundle built;
  built.lbe = lbe;
  built.index_params = params.index;
  built.chunking = params.chunking;
  built.mapping = plan.mapping();
  for (int rank = 0; rank < kRanks; ++rank) {
    built.per_rank.push_back(std::make_unique<index::ChunkedIndex>(
        plan.build_rank_store(rank), plan.mods(), built.index_params,
        built.chunking));
  }
  index::save_index_bundle(dir, built);

  // One narrow-window query: the "partition once, search many" consumer a
  // prepared bundle exists for. ±1.5 Da touches a handful of chunks.
  index::QueryParams narrow = params.search.filter;
  narrow.precursor_tolerance = 1.5;
  narrow.shared_peak_min = 1;
  const chem::Spectrum& probe = workload.queries.front();
  const auto first_query = [&](const index::IndexBundle& bundle) {
    std::vector<index::Candidate> candidates;
    index::QueryWork work;
    for (const auto& rank : bundle.per_rank) {
      rank->query(probe, narrow, candidates, work);
    }
    return candidates;
  };

  // Timed as load + first answered query = "first-query readiness".
  const std::uint64_t rss_before_mapped = current_rss_bytes();
  index::IndexBundle mapped;
  Stopwatch mapped_timer;
  mapped = index::load_index_bundle(dir, workload.mods);
  const auto mapped_candidates = first_query(mapped);
  const double mapped_ready_seconds = mapped_timer.seconds();
  const std::uint64_t rss_after_mapped = current_rss_bytes();

  std::size_t chunks_total = 0;
  std::size_t chunks_loaded = 0;
  for (const auto& rank : mapped.per_rank) {
    chunks_total += rank->num_chunks();
    chunks_loaded += rank->num_chunks_loaded();
  }
  fig.check("narrow window materializes only intersecting chunks",
            chunks_loaded > 0 && chunks_loaded < chunks_total);

  const auto built_candidates = first_query(built);
  bool same = mapped_candidates.size() == built_candidates.size();
  for (std::size_t i = 0; same && i < mapped_candidates.size(); ++i) {
    same = mapped_candidates[i].peptide == built_candidates[i].peptide &&
           mapped_candidates[i].shared_peaks ==
               built_candidates[i].shared_peaks;
  }
  fig.check("mapped narrow-window candidates identical to the built bundle",
            same);
  const std::uint64_t mapped_heap = bundle_index_heap_bytes(mapped);
  const std::uint64_t built_heap = bundle_index_heap_bytes(built);
  fig.check("mapped index resident heap below the built bundle",
            mapped_heap < built_heap);
  // Wall-clock readiness is reported as a metric, not gated: this suite
  // runs in every CI cell (incl. ASan on shared runners), where a
  // scheduler hiccup could skew a timing the deterministic chunks-loaded
  // and heap checks above already pin down structurally.

  // Full equivalence under the real engine: an open search over the mapped
  // bundle (which materializes every remaining chunk) must match a cold
  // rebuild exactly.
  const auto cold = run_once(plan, workload, params, nullptr);
  const auto warm = run_once(plan, workload, params, &mapped.per_rank);
  fig.check("open search over mapped bundle identical to cold rebuild",
            same_results(cold.results, warm.results));
  std::size_t chunks_loaded_after_open = 0;
  for (const auto& rank : mapped.per_rank) {
    chunks_loaded_after_open += rank->num_chunks_loaded();
  }
  fig.check("open search materialized every chunk",
            chunks_loaded_after_open == chunks_total);

  std::filesystem::remove_all(dir);

  const std::uint64_t rss_delta = rss_after_mapped > rss_before_mapped
                                      ? rss_after_mapped - rss_before_mapped
                                      : 0;
  const auto total_u64 = static_cast<std::uint64_t>(chunks_total);
  const auto loaded_u64 = static_cast<std::uint64_t>(chunks_loaded);
  fig.row({"mmap_ready_seconds", bench::fmt(mapped_ready_seconds)});
  fig.row({"chunks_total", bench::fmt(total_u64)});
  fig.row({"chunks_loaded_narrow", bench::fmt(loaded_u64)});
  fig.row({"mmap_index_heap_bytes", bench::fmt(mapped_heap)});
  fig.row({"built_index_heap_bytes", bench::fmt(built_heap)});
  fig.note("mmap first query answered after touching " +
           bench::fmt(loaded_u64) + "/" + bench::fmt(total_u64) +
           " chunks");
  fig.finish();
  ctx.absorb_checks(fig);
  ctx.result.add_metric("mmap_ready_seconds", mapped_ready_seconds);
  ctx.result.add_metric("chunks_total",
                        static_cast<double>(chunks_total));
  ctx.result.add_metric("chunks_loaded_narrow",
                        static_cast<double>(chunks_loaded));
  ctx.result.add_metric("mmap_index_heap_bytes",
                        static_cast<double>(mapped_heap));
  ctx.result.add_metric("built_index_heap_bytes",
                        static_cast<double>(built_heap));
  ctx.result.add_metric("mmap_load_rss_delta_bytes",
                        static_cast<double>(rss_delta));
}

}  // namespace

void register_index_io_benches(BenchRegistry& registry) {
  registry.add(BenchmarkDef{"index_io_warm_start", "index_io",
                            "bundle save/load + loaded-vs-rebuilt "
                            "equivalence",
                            index_io_warm_start});
  registry.add(BenchmarkDef{"index_io_mmap_warm_start", "index_io",
                            "mmap lazy warm start vs the built bundle: "
                            "first-query readiness, resident memory, "
                            "equivalence",
                            index_io_mmap_warm_start});
}

}  // namespace lbe::perf
