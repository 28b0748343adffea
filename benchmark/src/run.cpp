#include "run.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "app/pipeline.hpp"
#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "index/serialize.hpp"
#include "io/ms2.hpp"
#include "perf/metrics.hpp"
#include "search/fdr.hpp"
#include "search/preprocess.hpp"
#include "search/query_engine.hpp"
#include "search/report.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "load.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace lbe::benchmark {

namespace fs = std::filesystem;

namespace {

// Set-up and daemon start-up are repeated at least kMinRepeats times and
// until kRepeatSeconds have passed (small databases prepare in ~0.2 s), at
// most kMaxRepeats times; the metric is the median.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 15;
constexpr double kRepeatSeconds = 2.0;
constexpr int kMinSearchRepeats = 3;  // timed searches, even past --seconds
constexpr std::size_t kBaselineSpectra = 256;
constexpr std::size_t kProbeSpectra = 500;
constexpr std::size_t kServiceProbeSpectra = 300;
constexpr std::size_t kProtocolProbeRounds = 2000;
constexpr std::size_t kSaturationWindow = 8;
constexpr const char* kServeWorkers = "2";
// Deep enough that a host stall of ~0.5 s at the heavy rate queues rather
// than rejects: a rejection is a failed operation.
constexpr const char* kQueueDepth = "1024";
// The serve tail is the light rate's p95, not its p99: on a shared 4-vCPU
// host the p99 is set by host stalls and moves 1.2-8 ms between identical
// runs, while the p95 stays within ~10%.
constexpr double kTailPercentile = 0.95;
constexpr const char* kSocket = "serve.sock";
// Shares of --seconds spent at the light rate, at the heavy rate, and
// saturated.
constexpr double kLightShare = 0.45;
constexpr double kHeavyShare = 0.30;
constexpr double kSaturationShare = 0.25;

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<std::string> with(std::vector<std::string> args,
                              std::initializer_list<std::string> extra) {
  args.insert(args.end(), extra);
  return args;
}

/// Restores the working directory a run changed into.
class WorkingDirectory {
 public:
  explicit WorkingDirectory(const std::string& dir)
      : previous_(fs::current_path()) {
    fs::current_path(dir);
  }
  ~WorkingDirectory() {
    std::error_code ignored;
    fs::current_path(previous_, ignored);
  }
  WorkingDirectory(const WorkingDirectory&) = delete;
  WorkingDirectory& operator=(const WorkingDirectory&) = delete;

 private:
  fs::path previous_;
};

/// Every operation and every check counts as attempted; a failed check
/// also makes the run incorrect.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void ops(std::uint64_t count, std::uint64_t failures = 0) {
    attempted += count;
    failed += failures;
  }
  void check(const std::string& what, bool ok) {
    ops(1, ok ? 0 : 1);
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

struct PrepareStats {
  double wall_s = 0.0;
  std::size_t peptides = 0;
  std::uint64_t entries = 0;
  std::vector<double> rank_entries;
  std::uint64_t postings = 0;
  std::uint64_t packed_bytes = 0;
};

/// `lbectl prepare`, step for step (app/commands.cpp run_prepare): plan
/// file, manifest, then each rank's index built and saved in turn, then the
/// eager reload self-check.
PrepareStats prepare(const app::AppOptions& opts, Tracer& tracer) {
  PrepareStats stats;
  Stopwatch wall;
  const auto phase = tracer.span("phase.prepare");
  app::DatabaseBundle db;
  {
    const auto span = tracer.span("digest.build_database");
    db = app::build_database(opts);
  }
  app::PlanBundle plan;
  {
    const auto span = tracer.span("core.build_plan");
    plan = app::build_plan(db, opts);
  }
  fs::create_directories(opts.out_dir);
  {
    const auto span = tracer.span("app.save_plan");
    app::save_plan_file(opts.out_dir + "/plan.lbe", db, plan.plan->params());
  }
  const std::string index_dir =
      opts.index_out_dir.empty() ? opts.out_dir : opts.index_out_dir;
  {
    const auto span = tracer.span("index.save_manifest");
    index::IndexBundle manifest;
    manifest.lbe = plan.plan->params();
    manifest.index_params = opts.search.index;
    manifest.chunking = opts.search.chunking;
    manifest.mapping = plan.plan->mapping();
    manifest.database_crc = app::database_fingerprint(db);
    index::save_index_manifest(index_dir, manifest);
  }
  for (int rank = 0; rank < plan.plan->ranks(); ++rank) {
    index::PeptideStore store;
    {
      const auto span = tracer.span("core.rank_store");
      store = plan.plan->build_rank_store(rank);
    }
    std::unique_ptr<index::ChunkedIndex> partial;
    {
      const auto span = tracer.span("index.build");
      partial = std::make_unique<index::ChunkedIndex>(
          std::move(store), plan.plan->mods(), opts.search.index,
          opts.search.chunking);
    }
    {
      const auto span = tracer.span("index.save");
      partial->save_file(index::bundle_rank_path(index_dir, rank));
    }
    if (tracer.enabled()) {
      stats.rank_entries.push_back(
          static_cast<double>(partial->num_peptides()));
      stats.postings += partial->num_postings();
      stats.packed_bytes += partial->packed_posting_bytes();
    }
  }
  {
    const auto span = tracer.span("index.selfcheck");
    app::AppOptions self_check = opts;
    self_check.index_mmap = false;
    const auto reloaded =
        app::try_load_warm_indexes(index_dir, plan, db, self_check);
    LBE_CHECK(reloaded != nullptr, "index bundle failed its reload self-check");
  }
  stats.peptides = db.peptides.size();
  stats.entries = plan.plan->num_variants();
  stats.wall_s = wall.seconds();
  return stats;
}

/// What one search leaves behind. Lives on the heap and never moves: the
/// plan and the warm indexes borrow `db.mods` by address.
struct SearchRun {
  app::AppOptions opts;
  app::DatabaseBundle db;
  app::PlanBundle plan;
  std::unique_ptr<index::IndexBundle> warm;
  app::QueryBundle queries;
  app::SearchOutcome outcome;
  double ready_s = 0.0;  ///< until the bundle is mapped and validated
  double wall_s = 0.0;

  SearchRun() = default;
  SearchRun(const SearchRun&) = delete;
  SearchRun& operator=(const SearchRun&) = delete;
};

/// `lbectl search --plan --index --queries`, step for step (app/commands.cpp
/// run_search): reload the plan, map the prepared bundle, read the MS2,
/// search, write the reports.
std::unique_ptr<SearchRun> search(const app::AppOptions& opts, Tracer& tracer) {
  auto run = std::make_unique<SearchRun>();
  run->opts = opts;
  Stopwatch wall;
  const auto phase = tracer.span("phase.search");
  {
    const auto span = tracer.span("app.load_plan");
    run->db = app::build_database(opts);
  }
  {
    const auto span = tracer.span("core.build_plan");
    run->plan = app::build_plan(run->db, opts);
  }
  {
    const auto span = tracer.span("index.load");
    run->warm =
        app::try_load_warm_indexes(opts.index_dir, run->plan, run->db, opts);
  }
  LBE_CHECK(run->warm != nullptr, "the prepared bundle was rejected");
  run->ready_s = wall.seconds();
  {
    const auto span = tracer.span("io.read_ms2");
    run->queries.spectra = io::read_ms2_file(opts.ms2_path).spectra;
    run->queries.origin = opts.ms2_path;
  }
  {
    const auto span = tracer.span("search.pipeline");
    run->outcome = app::run_search_pipeline(run->plan, run->queries, opts,
                                            run->warm.get());
  }
  {
    const auto span = tracer.span("app.write_reports");
    app::write_reports(opts.out_dir, run->plan, run->outcome);
  }
  run->wall_s = wall.seconds();
  return run;
}

/// Share of spectra whose rank-1 PSM has the generating base sequence.
double recall(const SearchRun& run, const std::vector<std::string>& truth) {
  std::size_t hits = 0;
  for (const auto& result : run.outcome.report.results) {
    if (result.top.empty() || result.query_id >= truth.size()) continue;
    const auto location = run.plan.plan->locate_variant(result.top[0].peptide);
    if (run.plan.plan->base_sequence(location.base_id) ==
        truth[result.query_id]) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

/// Queries among the first kBaselineSpectra whose PSMs differ from the
/// shared-memory baseline engine.
std::size_t baseline_mismatches(const SearchRun& run) {
  const auto n = static_cast<std::ptrdiff_t>(
      std::min(kBaselineSpectra, run.queries.spectra.size()));
  app::QueryBundle head;
  head.spectra.assign(run.queries.spectra.begin(),
                      run.queries.spectra.begin() + n);
  app::SearchOutcome prefix;
  prefix.report.results.assign(run.outcome.report.results.begin(),
                               run.outcome.report.results.begin() + n);
  return app::compare_with_baseline(run.plan, head, run.opts, prefix);
}

/// Peak RSS of each rank worker process of one search. Rank 0 is this
/// process, whose peak is read from VmHWM instead.
std::vector<double> worker_rss_mb(const SearchRun& run) {
  std::vector<double> out;
  for (std::size_t rank = 1; rank < run.outcome.comm.size(); ++rank) {
    out.push_back(
        mib(static_cast<double>(run.outcome.comm[rank].peak_rss_bytes)));
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

/// "a b c" with three decimals: the samples behind a median, for stderr.
std::string join(const std::vector<double>& values) {
  std::string out;
  char buffer[32];
  for (const double value : values) {
    std::snprintf(buffer, sizeof buffer, out.empty() ? "%.3f" : " %.3f", value);
    out += buffer;
  }
  return out;
}

struct ServePhase {
  std::vector<double> ready_s;
  StepResult light;
  StepResult heavy;
  StepResult saturated;
  double daemon_rss_mb = 0.0;
};

std::size_t step_requests(double rate, double share, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(rate * share * seconds)));
}

/// True while a repeated phase should run once more (see kMinRepeats).
bool repeat_again(int done, const Stopwatch& elapsed) {
  return done < kMinRepeats ||
         (done < kMaxRepeats && elapsed.seconds() < kRepeatSeconds);
}

/// Starts `lbectl serve` on the prepared bundle (ready_s each time; once
/// when traced, else until repeat_again says stop), then offers the light
/// rate, the heavy rate, and a saturating closed loop over one connection,
/// and stops the daemon.
ServePhase serve_phase(const Workload& workload,
                       const std::vector<chem::Spectrum>& spectra,
                       double seconds, bool traced, Tracer& tracer,
                       Ledger& ledger) {
  const auto args =
      with(lbectl_args(workload, "serve"),
           {"--plan", "prep0/plan.lbe", "--index", "prep0", "--socket",
            kSocket, "--workers", kServeWorkers, "--queue_depth", kQueueDepth});
  ServePhase phase;
  std::unique_ptr<Daemon> daemon;
  const Stopwatch starting;
  for (int start = 0; traced ? start < 1 : repeat_again(start, starting);
       ++start) {
    if (daemon != nullptr) {
      const auto span = tracer.span("serve.stop");
      ledger.check("lbectl serve exits on the shutdown frame", daemon->stop());
    }
    const auto span = tracer.span("serve.start");
    daemon = std::make_unique<Daemon>(LBE_BENCHMARK_LBECTL, args, kSocket,
                                      "serve.log");
    phase.ready_s.push_back(daemon->wait_ready(spectra[0], 120.0));
    ledger.ops(1);
  }

  serve::ServeClient client(kSocket);
  client.connect();
  {
    const auto span = tracer.span("serve.warmup");
    saturate(client, spectra, 2, 0.5);
  }
  const std::size_t light =
      step_requests(workload.light_rate, kLightShare, seconds);
  const std::size_t heavy =
      step_requests(workload.heavy_rate, kHeavyShare, seconds);
  {
    const auto span = tracer.span("serve.light");
    phase.light = open_loop(client, spectra, 0, light, workload.light_rate);
  }
  {
    const auto span = tracer.span("serve.heavy");
    phase.heavy = open_loop(client, spectra, light, heavy, workload.heavy_rate);
  }
  {
    const auto span = tracer.span("serve.saturate");
    phase.saturated = saturate(client, spectra, kSaturationWindow,
                               kSaturationShare * seconds);
  }
  phase.daemon_rss_mb = daemon->peak_rss_mb();
  client.close();
  {
    const auto span = tracer.span("serve.stop");
    ledger.check("lbectl serve exits on the shutdown frame", daemon->stop());
  }
  for (const StepResult* step :
       {&phase.light, &phase.heavy, &phase.saturated}) {
    ledger.ops(step->sent, step->rejected);
  }
  for (const StepResult* step : {&phase.light, &phase.heavy}) {
    std::fprintf(stderr,
                 "%s: %.0f/s offered, %zu requests: p50 %.3f p90 %.3f p95 %.3f "
                 "p99 %.3f ms, %zu rejected\n",
                 workload.name.c_str(), step->offered_sps, step->sent,
                 percentile(step->latency_ms, 0.50),
                 percentile(step->latency_ms, 0.90),
                 percentile(step->latency_ms, 0.95),
                 percentile(step->latency_ms, 0.99), step->rejected);
  }
  std::fprintf(stderr, "%s: ready %s s, saturated %.0f spectra/s\n",
               workload.name.c_str(), join(phase.ready_s).c_str(),
               phase.saturated.achieved_sps);
  return phase;
}

/// Checks the daemon's answers: all answered, recall at or above the floor,
/// and its rows for the first kBaselineSpectra spectra byte-identical to a
/// one-shot search of the same spectra. Returns the recall.
double check_serve_answers(const ServePhase& phase,
                           const std::vector<chem::Spectrum>& spectra,
                           const Inputs& inputs, const app::AppOptions& opts,
                           const Workload& workload, Ledger& ledger) {
  std::size_t answered = 0;
  std::size_t hits = 0;
  for (const StepResult* step : {&phase.light, &phase.heavy}) {
    for (const auto& response : step->responses) {
      if (response.queries == 0) continue;
      ++answered;
      for (const auto& row : response.rows) {
        const std::string& truth =
            inputs.truth[row.query_id % inputs.truth.size()];
        if (row.psm_rank == 1 && row.base_sequence == truth) ++hits;
      }
    }
  }
  const double recall = answered == 0 ? 0.0
                                      : static_cast<double>(hits) /
                                            static_cast<double>(answered);
  ledger.check("every daemon request was answered",
               phase.light.answered == phase.light.sent &&
                   phase.heavy.answered == phase.heavy.sent &&
                   phase.saturated.rejected == 0);
  ledger.check("daemon recall >= floor", recall >= workload.recall_floor);

  const std::size_t n = std::min(
      {kBaselineSpectra, phase.light.responses.size(), spectra.size()});
  std::vector<search::ResolvedPsm> rows;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& response = phase.light.responses[i];
    rows.insert(rows.end(), response.rows.begin(), response.rows.end());
  }
  std::ostringstream daemon_tsv;
  search::write_psm_rows(daemon_tsv, rows);

  io::Ms2File head;
  head.spectra.assign(spectra.begin(),
                      spectra.begin() + static_cast<std::ptrdiff_t>(n));
  io::write_ms2_file("head.ms2", head);
  app::AppOptions oneshot = opts;
  oneshot.ms2_path = "head.ms2";
  oneshot.out_dir = "oneshot";
  Tracer inert(false);
  search(oneshot, inert);
  ledger.check("daemon rows are byte-identical to a one-shot search",
               daemon_tsv.str() == read_file("oneshot/psms.tsv"));
  return recall;
}

/// The off-path probes a traced run adds: single-thread engine and
/// preprocessing, FDR, the serve frame codec, and the daemon's in-process
/// context load and batch search.
void run_probes(const SearchRun& run, const app::AppOptions& serve_opts,
                Tracer& tracer, MetricValues& m) {
  const auto phase = tracer.span("phase.probes");
  const auto& spectra = run.queries.spectra;
  const std::size_t n = std::min(kProbeSpectra, spectra.size());
  {
    const auto span = tracer.span("probe.engine");
    index::QueryWork work;
    std::vector<std::unique_ptr<search::QueryEngine>> engines;
    for (const auto& partial : run.warm->per_rank) {
      engines.push_back(std::make_unique<search::QueryEngine>(
          *partial, run.plan.plan->mods(), run.opts.search.search));
      // The first query into a mapped chunk validates and binds it; keep
      // that out of the per-spectrum time.
      engines.back()->search(spectra[0], 0, work);
    }
    Stopwatch timer;
    for (const auto& engine : engines) {
      for (std::size_t q = 0; q < n; ++q) {
        engine->search(spectra[q], static_cast<std::uint32_t>(q), work);
      }
    }
    m["search.engine_us"] = timer.seconds() * 1e6 / static_cast<double>(n);
  }
  {
    const auto span = tracer.span("probe.preprocess");
    Stopwatch timer;
    std::size_t peaks = 0;
    for (std::size_t q = 0; q < n; ++q) {
      peaks += search::preprocess(spectra[q], run.opts.search.search.preprocess)
                   .size();
    }
    LBE_CHECK(peaks > 0, "preprocessing kept no peaks");
    m["search.preprocess_us"] = timer.seconds() * 1e6 / static_cast<double>(n);
  }
  {
    const auto span = tracer.span("probe.fdr");
    Stopwatch timer;
    const auto qvalues = search::compute_qvalues(run.outcome.fdr_inputs);
    m["search.fdr_s"] = timer.seconds();
    LBE_CHECK(qvalues.size() == run.outcome.fdr_inputs.size(),
              "one q-value per PSM");
  }
  std::shared_ptr<serve::ServingContext> context;
  {
    const auto span = tracer.span("probe.load_context");
    Stopwatch timer;
    context = serve::load_serving_context(serve_opts);
    m["serve.load_context_s"] = timer.seconds();
  }
  serve::SearchResponse sample;
  {
    const auto span = tracer.span("probe.service");
    const serve::SearchService service(context);
    std::vector<double> ms;
    for (std::size_t q = 0; q < std::min(kServiceProbeSpectra, spectra.size());
         ++q) {
      Stopwatch timer;
      sample =
          service.search_batch({spectra[q]}, static_cast<std::uint32_t>(q));
      ms.push_back(timer.millis());
    }
    m["serve.service_ms.p50"] = percentile(ms, 0.50);
    m["serve.service_ms.p99"] = percentile(ms, 0.99);
  }
  {
    const auto span = tracer.span("probe.protocol");
    serve::SearchRequest request;
    request.spectra.push_back(spectra[0]);
    Stopwatch timer;
    std::size_t rows = 0;
    for (std::size_t round = 0; round < kProtocolProbeRounds; ++round) {
      const auto decoded_request =
          serve::decode_search_request(serve::encode_search_request(request));
      const auto decoded_response =
          serve::decode_search_response(serve::encode_search_response(sample));
      rows += decoded_request.spectra.size() + decoded_response.rows.size();
    }
    LBE_CHECK(rows > 0, "protocol probe decoded nothing");
    m["serve.protocol_us"] =
        timer.seconds() * 1e6 / static_cast<double>(kProtocolProbeRounds);
  }
}

/// Seconds one enabled span costs to record (open + close).
double span_cost_seconds() {
  constexpr int kSpans = 20000;
  Tracer calibration(true);
  Stopwatch timer;
  for (int i = 0; i < kSpans; ++i) {
    const auto span = calibration.span("trace.calibrate");
  }
  return timer.seconds() / kSpans;
}

/// Per-layer metrics read off the traced prepare and search.
void layer_metrics(const Tracer& tracer, const PrepareStats& prep,
                   const SearchRun& run, const std::string& prep_dir,
                   MetricValues& m) {
  const std::size_t prepare = tracer.index_of("phase.prepare");
  const std::size_t searched = tracer.index_of("phase.search");
  const auto under = [&](std::size_t parent, const char* name) {
    return tracer.total_under(parent, name);
  };

  m["digest.s"] = under(prepare, "digest.build_database");
  m["digest.peptides"] = static_cast<double>(prep.peptides);
  m["core.plan_s"] = under(prepare, "core.build_plan");
  m["core.rank_store_s"] = under(prepare, "core.rank_store");
  m["core.entries"] = static_cast<double>(prep.entries);
  m["core.li_entries_pct"] = 100.0 * perf::load_imbalance(prep.rank_entries);
  m["index.build_s"] = under(prepare, "index.build");
  m["index.save_s"] =
      under(prepare, "index.save") + under(prepare, "index.save_manifest");
  m["index.selfcheck_s"] = under(prepare, "index.selfcheck");
  m["index.bundle_mb"] = mib(static_cast<double>(tree_bytes(prep_dir)));
  m["index.bytes_per_posting"] = static_cast<double>(prep.packed_bytes) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, prep.postings));
  m["index.load_s"] = under(searched, "index.load");

  const auto& report = run.outcome.report;
  index::QueryWork work;
  for (const auto& rank_work : report.work) work += rank_work;
  const double spectra = static_cast<double>(run.queries.spectra.size());
  m["index.postings_touched"] = static_cast<double>(work.postings_touched);
  m["index.blocks_walked"] = static_cast<double>(work.blocks_walked);
  m["index.blocks_pruned"] = static_cast<double>(work.blocks_pruned);
  const double blocks =
      static_cast<double>(work.blocks_walked + work.blocks_pruned);
  m["index.block_prune_ratio"] =
      blocks == 0.0 ? 0.0 : static_cast<double>(work.blocks_pruned) / blocks;

  m["search.candidates_per_spectrum"] =
      static_cast<double>(work.candidates) / spectra;
  m["search.pipeline_s"] = under(searched, "search.pipeline");
  const std::vector<double> query_s = report.query_phase_seconds();
  const double query_max = *std::max_element(query_s.begin(), query_s.end());
  double query_sum = 0.0;
  for (const double seconds : query_s) query_sum += seconds;
  m["search.rank_query_s.max"] = query_max;
  m["search.rank_query_s.mean"] =
      query_sum / static_cast<double>(query_s.size());
  m["search.li_time_pct"] = 100.0 * run.outcome.time_stats.imbalance;
  m["search.li_work_pct"] = 100.0 * run.outcome.work_stats.imbalance;
  m["search.overhead_s"] = m["search.pipeline_s"] - query_max;
  m["search.parallel_efficiency"] =
      m["search.engine_us"] * spectra / 1e6 /
      (static_cast<double>(query_s.size()) * query_max);

  double messages = 0.0;
  double bytes = 0.0;
  for (const auto& comm : run.outcome.comm) {
    messages += static_cast<double>(comm.messages_sent);
    bytes += static_cast<double>(comm.bytes_sent);
  }
  const std::vector<double> workers = worker_rss_mb(run);
  double build_max = 0.0;
  for (const auto& times : report.times) {
    build_max = std::max(build_max, times.build_seconds());
  }
  m["simmpi.messages"] = messages;
  m["simmpi.bytes"] = bytes;
  m["simmpi.bytes_per_spectrum"] = bytes / spectra;
  m["simmpi.rank_build_s.max"] = build_max;
  m["simmpi.worker_rss_mb.max"] =
      workers.empty() ? 0.0 : *std::max_element(workers.begin(), workers.end());

  m["io.ms2_read_s"] = under(searched, "io.read_ms2");
  m["io.ms2_mb"] = mib(static_cast<double>(fs::file_size(run.opts.ms2_path)));
  m["app.plan_reload_s"] =
      under(searched, "app.load_plan") + under(searched, "core.build_plan");
  m["app.reports_s"] = under(searched, "app.write_reports");
  m["app.psms_mb"] =
      mib(static_cast<double>(fs::file_size(run.opts.out_dir + "/psms.tsv")));
}

void serve_metrics(const ServePhase& phase, MetricValues& m) {
  m["serve.ready_s"] = median(phase.ready_s);
  m["serve.p50_ms.light"] = percentile(phase.light.latency_ms, 0.50);
  m["serve.p99_ms.light"] = percentile(phase.light.latency_ms, 0.99);
  m["serve.p50_ms.heavy"] = percentile(phase.heavy.latency_ms, 0.50);
  m["serve.p99_ms.heavy"] = percentile(phase.heavy.latency_ms, 0.99);
  m["serve.wire_ms.p50"] = m["serve.p50_ms.light"] - m["serve.service_ms.p50"];
  m["serve.queue_wait_ms.p99"] =
      m["serve.p99_ms.heavy"] - m["serve.service_ms.p99"];
  m["serve.rejected"] = static_cast<double>(
      phase.light.rejected + phase.heavy.rejected + phase.saturated.rejected);
  std::vector<double> late = phase.light.late_ms;
  late.insert(late.end(), phase.heavy.late_ms.begin(),
              phase.heavy.late_ms.end());
  m["serve.generator_late_ms.p99"] = percentile(late, 0.99);
  m["serve.achieved_sps.light"] = phase.light.achieved_sps;
  m["serve.achieved_sps.heavy"] = phase.heavy.achieved_sps;
  m["serve.saturated_sps"] = phase.saturated.achieved_sps;
}

/// Span self time as a share of the span, for a phase's unaccounted time.
double unaccounted_pct(const Tracer& tracer, const char* name) {
  const std::size_t i = tracer.index_of(name);
  return 100.0 * tracer.self_seconds(i) / tracer.records()[i].seconds();
}

}  // namespace

perf::Json metrics_json(const std::vector<MetricSpec>& specs,
                        const MetricValues& values) {
  perf::Json out = perf::Json::object();
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      throw InvariantError(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(it->second)) {
      throw InvariantError(std::string("metric is not finite: ") + spec.name);
    }
    perf::Json metric = perf::Json::object();
    metric.set("value", it->second);
    metric.set("unit", spec.unit);
    out.set(spec.name, std::move(metric));
  }
  return out;
}

perf::Json RunResult::line() const {
  perf::Json out = perf::Json::object();
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics",
          metrics_json(traced ? per_layer_metrics() : end_to_end_metrics(),
                       values));
  return out;
}

RunResult run_workload(const RunOptions& options) {
  const Workload& workload = options.workload;
  // Only a directory an earlier run created (and marked) is emptied.
  const fs::path marker = fs::path(options.out_dir) / ".lbe_benchmark_run";
  if (fs::exists(options.out_dir) && !fs::is_empty(options.out_dir) &&
      !fs::exists(marker)) {
    throw ConfigError("refusing to empty " + options.out_dir +
                      ": not a benchmark run directory");
  }
  fs::remove_all(options.out_dir);
  fs::create_directories(options.out_dir + "/tmp");
  std::ofstream(marker.string()) << "lbe_benchmark run directory\n";
  const WorkingDirectory cwd(options.out_dir);
  // The process backend's rendezvous sockets; relative, so the socket path
  // stays short wherever the checkout lives.
  ::setenv("TMPDIR", "tmp", 1);

  Tracer tracer(options.trace);
  Tracer inert(false);
  Ledger ledger;
  RunResult result;
  result.traced = options.trace;
  MetricValues& m = result.values;

  // The spectra are generated after set-up, so the seed-dependent truth
  // table is not part of the process's memory while set-up is measured.
  Inputs inputs;
  {
    const auto span = tracer.span("phase.inputs");
    inputs = generate_database(workload, "inputs");
  }

  // Set-up: fresh prepares; the first bundle serves every search.
  std::vector<double> setup_s;
  std::vector<double> setup_rss;
  PrepareStats prep;
  const Stopwatch preparing;
  for (int k = 0; options.trace ? k < 1 : repeat_again(k, preparing); ++k) {
    const std::string dir = "prep" + std::to_string(k);
    const app::AppOptions opts =
        options_from_args(with(lbectl_args(workload, "prepare"),
                               {"--db", inputs.fasta_path, "--out", dir}));
    const double baseline_mb = reset_peak_rss();
    PrepareStats stats = prepare(opts, k == 0 ? tracer : inert);
    setup_rss.push_back(peak_rss_mb() - baseline_mb);
    setup_s.push_back(stats.wall_s);
    ledger.ops(1);
    if (k == 0) {
      prep = std::move(stats);
    } else {
      fs::remove_all(dir);
    }
  }
  {
    const auto span = tracer.span("phase.inputs");
    generate_spectra(workload, options.seed, "inputs", inputs);
  }
  m["setup_s"] = median(setup_s);
  m["setup_rss_mb"] = median(setup_rss);
  std::fprintf(stderr, "%s: prepare %s s, %s MiB\n", workload.name.c_str(),
               join(setup_s).c_str(), join(setup_rss).c_str());

  const app::AppOptions search_opts = options_from_args(
      with(lbectl_args(workload, "search"),
           {"--plan", "prep0/plan.lbe", "--index", "prep0", "--queries",
            inputs.ms2_path, "--out", "search"}));
  const app::AppOptions serve_opts = options_from_args(
      with(lbectl_args(workload, "serve"),
           {"--plan", "prep0/plan.lbe", "--index", "prep0", "--socket", kSocket,
            "--workers", kServeWorkers, "--queue_depth", kQueueDepth}));

  const bool one_shot = !workload.serve || options.trace;
  const bool daemon = workload.serve || options.trace;
  std::unique_ptr<SearchRun> run;
  if (one_shot) {
    // The warm-up search is untimed: the first search after a prepare runs
    // 1.3-2.4x slower while worker processes fault in their mappings.
    {
      const auto span = tracer.span("phase.warmup");
      run = search(search_opts, inert);
    }
    ledger.ops(1);
    const std::uint32_t crc = bin::crc32(read_file("search/psms.tsv"));
    bool same_crc = true;
    std::vector<double> wall_s;
    std::vector<double> ready_s;
    std::vector<double> master_mb;
    std::vector<double> total_mb;
    Stopwatch window;
    const auto more = [&] {
      if (options.trace) return wall_s.empty();
      return window.seconds() < options.seconds ||
             static_cast<int>(wall_s.size()) < kMinSearchRepeats;
    };
    while (more()) {
      run.reset();
      const double baseline_mb = reset_peak_rss();
      run = search(search_opts, tracer);
      ledger.ops(1);
      wall_s.push_back(run->wall_s);
      ready_s.push_back(run->ready_s);
      master_mb.push_back(peak_rss_mb() - baseline_mb);
      total_mb.push_back(master_mb.back() + sum(worker_rss_mb(*run)));
      same_crc = same_crc && bin::crc32(read_file("search/psms.tsv")) == crc;
    }
    const Quartiles wall = quartiles(wall_s);
    m["ready_s"] = median(ready_s);
    m["spectra_per_s"] =
        static_cast<double>(run->queries.spectra.size()) / wall.median;
    m["latency_ms"] = wall.median * 1e3;
    m["tail_latency_ms"] = wall.q3 * 1e3;
    m["search_rss_mb"] = median(total_mb);
    m["app.master_rss_mb"] = median(master_mb);
    std::fprintf(stderr, "%s: search %s s, %s MiB\n", workload.name.c_str(),
                 join(wall_s).c_str(), join(total_mb).c_str());

    const auto span = tracer.span("phase.checks");
    m["recall"] = recall(*run, inputs.truth);
    ledger.check("psms.tsv CRC-32 identical across every search", same_crc);
    ledger.check("first spectra match the shared-memory baseline",
                 baseline_mismatches(*run) == 0);
    ledger.check("recall >= floor", m["recall"] >= workload.recall_floor);
  }

  if (options.trace) run_probes(*run, serve_opts, tracer, m);

  if (daemon) {
    const auto span = tracer.span("phase.serve");
    const std::vector<chem::Spectrum> spectra =
        io::read_ms2_file(inputs.ms2_path).spectra;
    const ServePhase phase = serve_phase(workload, spectra, options.seconds,
                                         options.trace, tracer, ledger);
    const double serve_recall = check_serve_answers(
        phase, spectra, inputs, search_opts, workload, ledger);
    if (workload.serve) {
      m["ready_s"] = median(phase.ready_s);
      m["spectra_per_s"] = phase.saturated.achieved_sps;
      m["latency_ms"] = percentile(phase.light.latency_ms, 0.50);
      m["tail_latency_ms"] =
          percentile(phase.light.latency_ms, kTailPercentile);
      m["search_rss_mb"] = phase.daemon_rss_mb;
      m["recall"] = serve_recall;
    }
    if (options.trace) serve_metrics(phase, m);
  }

  if (options.trace) {
    layer_metrics(tracer, prep, *run, "prep0", m);
    const double wall = tracer.now();
    m["trace.setup_unaccounted_pct"] = unaccounted_pct(tracer, "phase.prepare");
    m["trace.search_unaccounted_pct"] = unaccounted_pct(tracer, "phase.search");
    m["trace.overhead_pct"] =
        100.0 * span_cost_seconds() *
        static_cast<double>(tracer.records().size()) / wall;
    tracer.write_chrome_trace("trace.json");
    perf::Json layers = perf::Json::object();
    layers.set("workload", workload.name);
    layers.set("seed", static_cast<std::uint64_t>(options.seed));
    layers.set("wall_s", wall);
    layers.set("metrics", metrics_json(per_layer_metrics(), m));
    layers.set("trace", tracer.summary());
    std::ofstream("layers.json") << layers.dump(1) << "\n";
  }

  result.correct = ledger.correct;
  result.attempted = ledger.attempted;
  result.failed = ledger.failed;

  perf::Json saved = result.line();
  saved.set("workload", workload.name);
  saved.set("seed", static_cast<std::uint64_t>(options.seed));
  saved.set("trace", options.trace);
  std::ofstream("result.json") << saved.dump(1) << "\n";

  if (!options.keep_files) {
    run.reset();
    for (const char* bulky :
         {"inputs", "prep0", "search", "oneshot", "head.ms2", "tmp"}) {
      fs::remove_all(bulky);
    }
  }
  return result;
}

}  // namespace lbe::benchmark
