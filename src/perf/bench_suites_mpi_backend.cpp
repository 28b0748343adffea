// Suite "mpi_backend" — the pluggable rank transports head to head over one
// prepared bundle: virtual (token-serialized simulation), threads (real
// concurrent threads) and process (one forked OS worker per rank over
// Unix-domain sockets, every rank mmap'ing its slice of the same read-only
// bundle files). Measures wall time per backend, the bytes and messages
// that actually crossed the wire, and — at two rank counts — the aggregate
// resident index footprint, which the LBE partitioning plus shared mappings
// keep sublinear in rank count (a replicated design would be linear). The
// result-equivalence checks make this suite a second, perf-facing guard on
// what cmake/lbectl_equivalence_matrix.sh asserts at the CLI.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "app/rank_programs.hpp"
#include "common/timer.hpp"
#include "index/posting_codec.hpp"
#include "index/serialize.hpp"
#include "perf/bench_common.hpp"
#include "perf/bench_registry.hpp"
#include "search/distributed.hpp"
#include "search/wire.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/process.hpp"

namespace lbe::perf {

namespace {

constexpr std::uint64_t kEntries = 20000;
constexpr std::uint32_t kQueries = 32;
constexpr int kRanks = 4;

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

/// Stages the per-rank index files the process workers mmap (the same
/// files the master maps below — one page cache entry per rank slice).
void stage_bundle(const core::LbePlan& plan,
                  const search::DistributedParams& params,
                  const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (int rank = 0; rank < plan.ranks(); ++rank) {
    const index::ChunkedIndex partial(plan.build_rank_store(rank),
                                      plan.mods(), params.index,
                                      params.chunking);
    partial.save_file(index::bundle_rank_path(dir, rank));
  }
}

std::vector<std::unique_ptr<index::ChunkedIndex>> map_bundle(
    const std::string& dir, int ranks, const chem::ModificationSet& mods,
    const index::IndexParams& index_params) {
  std::vector<std::unique_ptr<index::ChunkedIndex>> mapped;
  for (int rank = 0; rank < ranks; ++rank) {
    mapped.push_back(index::ChunkedIndex::map_file(
        index::bundle_rank_path(dir, rank), mods, index_params));
  }
  return mapped;
}

struct BackendRun {
  search::DistributedReport report;
  std::vector<mpi::RankReport> comm;
  double seconds = 0.0;
};

BackendRun run_in_process(mpi::Engine engine, const core::LbePlan& plan,
                          const std::vector<chem::Spectrum>& queries,
                          const search::DistributedParams& params) {
  mpi::ClusterOptions options;
  options.ranks = plan.ranks();
  options.engine = engine;
  mpi::Cluster cluster(options);
  BackendRun run;
  Stopwatch timer;
  run.report = search::run_distributed_search(cluster, plan, queries, params);
  run.seconds = timer.seconds();
  run.comm = cluster.reports();
  return run;
}

BackendRun run_process_backend(const core::LbePlan& plan,
                               const std::vector<chem::Spectrum>& queries,
                               const search::DistributedParams& params,
                               const std::string& bundle_dir) {
  search::wire::SearchSetup setup;
  setup.bundle_dir = bundle_dir;
  // Pin the resolved (never "auto") level so worker kernels match ours.
  setup.simd_level =
      index::codec::simd_level_name(index::codec::resolved_simd_level());
  setup.mods = plan.mods();
  setup.index_params = params.index;
  setup.search = params.search;
  setup.result_batch = params.result_batch;
  setup.threads_per_rank = params.threads_per_rank;
  setup.queries = queries;

  mpi::ProcessTransportOptions options;
  options.ranks = plan.ranks();
  options.program = app::kSearchRankProgram;
  options.setup = search::wire::encode_search_setup(setup);
  mpi::ProcessTransport transport(std::move(options));
  BackendRun run;
  Stopwatch timer;
  run.report =
      search::run_distributed_search(transport, plan, queries, params);
  run.seconds = timer.seconds();
  run.comm = transport.reports();
  return run;
}

std::uint64_t sum_messages(const std::vector<mpi::RankReport>& comm) {
  std::uint64_t total = 0;
  for (const auto& rank : comm) total += rank.messages_sent;
  return total;
}

std::uint64_t sum_bytes(const std::vector<mpi::RankReport>& comm) {
  std::uint64_t total = 0;
  for (const auto& rank : comm) total += rank.bytes_sent;
  return total;
}

/// Aggregate peak RSS over the *worker* processes (ranks >= 1). Rank 0 is
/// this bench process, whose high-water mark reflects every prior
/// benchmark, not this run.
std::uint64_t sum_worker_rss(const std::vector<mpi::RankReport>& comm) {
  std::uint64_t total = 0;
  for (std::size_t rank = 1; rank < comm.size(); ++rank) {
    total += comm[rank].peak_rss_bytes;
  }
  return total;
}

core::LbePlan make_plan(const synth::Workload& workload, int ranks) {
  core::LbeParams lbe;
  lbe.partition.ranks = ranks;
  lbe.partition.policy = core::Policy::kCyclic;
  return core::LbePlan(workload.base_peptides, workload.mods,
                       workload.variant_params, lbe);
}

// Virtual vs threads vs process over one warm bundle: identical results,
// real wire traffic, per-backend wall time. queries_per_sec (the CI-gated
// throughput metric) is the process backend's — the one this suite exists
// to watch.
void mpi_backend_transports(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("mpi_backend: transports",
             "virtual vs threads vs process over one shared mmap'd bundle",
             "every transport reproduces the same results; the process "
             "backend ships real bytes over real sockets",
             {"backend", "seconds", "messages", "wire_bytes"});

  const auto& workload = ctx.workload(kEntries, kQueries);
  auto params = bench::paper_params();
  const core::LbePlan plan = make_plan(workload, kRanks);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "lbe_bench_mpi_backend")
          .string();
  stage_bundle(plan, params, dir);
  const auto mapped = map_bundle(dir, kRanks, plan.mods(), params.index);
  params.preloaded = &mapped;

  const BackendRun virt =
      run_in_process(mpi::Engine::kVirtual, plan, workload.queries, params);
  const BackendRun threads =
      run_in_process(mpi::Engine::kThreads, plan, workload.queries, params);
  const BackendRun process =
      run_process_backend(plan, workload.queries, params, dir);

  fig.check("threads results identical to virtual",
            same_results(virt.report.results, threads.report.results));
  fig.check("process results identical to virtual",
            same_results(virt.report.results, process.report.results));

  const std::uint64_t wire_messages = sum_messages(process.comm);
  const std::uint64_t wire_bytes = sum_bytes(process.comm);
  fig.check("process backend shipped real messages", wire_messages > 0);
  fig.check("process backend shipped real bytes", wire_bytes > 0);
  bool workers_report_rss = process.comm.size() == kRanks;
  for (std::size_t rank = 1; rank < process.comm.size(); ++rank) {
    workers_report_rss =
        workers_report_rss && process.comm[rank].peak_rss_bytes > 0;
  }
  fig.check("every worker process reported its peak RSS",
            workers_report_rss);

  std::filesystem::remove_all(dir);

  fig.row({"virtual", bench::fmt(virt.seconds),
           bench::fmt(sum_messages(virt.comm)),
           bench::fmt(sum_bytes(virt.comm))});
  fig.row({"threads", bench::fmt(threads.seconds),
           bench::fmt(sum_messages(threads.comm)),
           bench::fmt(sum_bytes(threads.comm))});
  fig.row({"process", bench::fmt(process.seconds),
           bench::fmt(wire_messages), bench::fmt(wire_bytes)});
  fig.note("process backend: " + bench::fmt(wire_messages) +
           " messages / " + bench::fmt(wire_bytes) +
           " B over the sockets in " + bench::fmt(process.seconds) + "s (" +
           bench::fmt(process.seconds / std::max(virt.seconds, 1e-9)) +
           "x the virtual engine's wall time)");
  fig.finish();
  ctx.absorb_checks(fig);

  ctx.result.add_metric("queries_per_sec",
                        kQueries / std::max(process.seconds, 1e-9));
  ctx.result.add_metric("virtual_seconds", virt.seconds);
  ctx.result.add_metric("threads_seconds", threads.seconds);
  ctx.result.add_metric("process_seconds", process.seconds);
  ctx.result.add_metric("wire_messages", static_cast<double>(wire_messages));
  ctx.result.add_metric("wire_bytes", static_cast<double>(wire_bytes));
  ctx.result.add_metric("worker_peak_rss_bytes",
                        static_cast<double>(sum_worker_rss(process.comm)));
}

constexpr std::uint64_t kScaleEntries = 48000;
constexpr std::uint32_t kScaleQueries = 12;

struct ScalePoint {
  int ranks = 0;
  int workers = 0;                   ///< forked processes (ranks - 1)
  std::uint64_t bundle_bytes = 0;    ///< sum of per-rank mapped file bytes
  std::uint64_t max_rank_bytes = 0;  ///< largest single rank's file
  std::uint64_t worker_rss = 0;      ///< aggregate worker-process peak RSS
  double seconds = 0.0;
};

// The shared-mapping economics the process backend exists for: the bundle
// is partitioned, every rank maps only its slice read-only, so the fleet's
// total index bytes (the files those resident pages are backed by) stay
// ~flat as ranks are added — sublinear in rank count, where a
// replicate-the-index design would be linear — and each extra worker costs
// less resident memory than the last because its slice shrank.
void mpi_backend_rss_scaling(BenchContext& ctx) {
  using namespace lbe;
  Figure fig("mpi_backend: rss scaling",
             "process backend at 2 vs 4 ranks over partitioned mmap'd "
             "bundles",
             "aggregate resident index bytes stay sublinear in rank count",
             {"ranks", "bundle_bytes", "max_rank_bytes", "worker_rss_bytes",
              "seconds"});

  const auto& workload = ctx.workload(kScaleEntries, kScaleQueries);
  const auto base = bench::paper_params();

  const std::string root =
      (std::filesystem::temp_directory_path() / "lbe_bench_mpi_rss")
          .string();
  std::vector<ScalePoint> points;
  for (const int ranks : {2, 4}) {
    const core::LbePlan plan = make_plan(workload, ranks);
    const std::string dir = root + "/r" + std::to_string(ranks);
    stage_bundle(plan, base, dir);
    const auto mapped = map_bundle(dir, ranks, plan.mods(), base.index);
    auto params = base;
    params.preloaded = &mapped;

    ScalePoint point;
    point.ranks = ranks;
    point.workers = ranks - 1;
    for (int rank = 0; rank < ranks; ++rank) {
      const std::uint64_t bytes =
          std::filesystem::file_size(index::bundle_rank_path(dir, rank));
      point.bundle_bytes += bytes;
      point.max_rank_bytes = std::max(point.max_rank_bytes, bytes);
    }

    const BackendRun run =
        run_process_backend(plan, workload.queries, params, dir);
    point.worker_rss = sum_worker_rss(run.comm);
    point.seconds = run.seconds;
    points.push_back(point);

    fig.row({bench::fmt(ranks), bench::fmt(point.bundle_bytes),
             bench::fmt(point.max_rank_bytes), bench::fmt(point.worker_rss),
             bench::fmt(point.seconds)});
  }
  std::filesystem::remove_all(root);

  const ScalePoint& two = points[0];
  const ScalePoint& four = points[1];
  // Linear-in-ranks would double the aggregate; partitioning keeps it ~1x.
  fig.check("aggregate resident index bytes sublinear in rank count",
            four.bundle_bytes < 1.5 * static_cast<double>(two.bundle_bytes));
  fig.check("per-rank index slice shrinks as ranks are added",
            four.max_rank_bytes < two.max_rank_bytes);
  // Real process memory: each additional worker must cost less than the
  // fleet's first one did, because it maps a smaller read-only slice.
  const double per_worker_rss_2 =
      static_cast<double>(two.worker_rss) / std::max(two.workers, 1);
  const double per_worker_rss_4 =
      static_cast<double>(four.worker_rss) / std::max(four.workers, 1);
  fig.check("per-worker peak RSS falls as the bundle spreads thinner",
            per_worker_rss_4 < per_worker_rss_2);

  const double bundle_growth = static_cast<double>(four.bundle_bytes) /
                               static_cast<double>(std::max<std::uint64_t>(
                                   two.bundle_bytes, 1));
  fig.note("2 -> 4 ranks grows the aggregate mapped index " +
           bench::fmt(bundle_growth) + "x (linear would be 2x); per-worker "
           "peak RSS " +
           bench::fmt(per_worker_rss_2) + " -> " +
           bench::fmt(per_worker_rss_4) + " B");
  fig.finish();
  ctx.absorb_checks(fig);

  ctx.result.add_metric("bundle_bytes_ranks2",
                        static_cast<double>(two.bundle_bytes));
  ctx.result.add_metric("bundle_bytes_ranks4",
                        static_cast<double>(four.bundle_bytes));
  ctx.result.add_metric("bundle_growth_2_to_4", bundle_growth);
  ctx.result.add_metric("worker_rss_ranks2",
                        static_cast<double>(two.worker_rss));
  ctx.result.add_metric("worker_rss_ranks4",
                        static_cast<double>(four.worker_rss));
  ctx.result.add_metric("per_worker_rss_ranks2", per_worker_rss_2);
  ctx.result.add_metric("per_worker_rss_ranks4", per_worker_rss_4);
  ctx.result.add_metric("seconds_ranks2", two.seconds);
  ctx.result.add_metric("seconds_ranks4", four.seconds);
}

}  // namespace

void register_mpi_backend_benches(BenchRegistry& registry) {
  registry.add(BenchmarkDef{"mpi_backend_transports", "mpi_backend",
                            "virtual vs threads vs process: wall time, "
                            "wire traffic, result equivalence",
                            mpi_backend_transports});
  registry.add(BenchmarkDef{"mpi_backend_rss_scaling", "mpi_backend",
                            "process backend at 2 vs 4 ranks: aggregate "
                            "resident index bytes stay sublinear",
                            mpi_backend_rss_scaling});
}

}  // namespace lbe::perf
