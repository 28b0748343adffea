#include "app/commands.hpp"

#include <csignal>
#include <cstdio>
#include <filesystem>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/partition.hpp"
#include "digest/variants.hpp"
#include "index/posting_codec.hpp"
#include "index/serialize.hpp"
#include "perf/metrics.hpp"
#include "search/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace lbe::app {

namespace {

// Signal flags for the serve loop; sigaction handlers may only touch
// lock-free atomics of this kind.
volatile std::sig_atomic_t g_serve_stop = 0;
volatile std::sig_atomic_t g_serve_reload = 0;

void on_serve_stop(int) { g_serve_stop = 1; }
void on_serve_reload(int) { g_serve_reload = 1; }

void print_database_summary(const DatabaseBundle& db) {
  std::size_t decoys = 0;
  for (const bool flag : db.is_decoy) decoys += flag ? 1 : 0;
  std::printf("database: %zu peptides (%zu targets, %zu decoys), "
              "%zu duplicates dropped, %zu decoy collisions dropped\n",
              db.peptides.size(), db.peptides.size() - decoys, decoys,
              db.duplicates_dropped, db.decoy_collisions_dropped);
}

void print_plan_summary(const PlanBundle& plan) {
  const auto& p = *plan.plan;
  std::printf("plan: %zu bases in %zu groups -> %llu index entries over %d "
              "ranks (%s), prep %.1f ms\n",
              p.num_bases(), p.grouping().num_groups(),
              static_cast<unsigned long long>(p.num_variants()), p.ranks(),
              core::policy_name(p.params().partition.policy),
              plan.prep_seconds * 1e3);
}

}  // namespace

int run_prepare(const AppOptions& opts) {
  const DatabaseBundle db = build_database(opts);
  print_database_summary(db);

  const PlanBundle plan = build_plan(db, opts);
  print_plan_summary(plan);

  std::filesystem::create_directories(opts.out_dir);
  const std::string plan_path = opts.out_dir + "/plan.lbe";
  save_plan_file(plan_path, db, plan.plan->params());
  std::printf("wrote %s (%ju bytes)\n", plan_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(plan_path)));

  // The warm-start bundle: the paper's disk-resident per-rank chunk
  // artifacts plus the manifest `search --index` validates against. Ranks
  // stream one at a time (build, save, drop) so prepare's peak memory
  // stays one partial index, not the whole fleet.
  const std::string index_dir =
      opts.index_out_dir.empty() ? opts.out_dir : opts.index_out_dir;
  const int ranks = plan.plan->ranks();
  {
    index::IndexBundle manifest;
    manifest.lbe = plan.plan->params();
    manifest.index_params = opts.search.index;
    manifest.chunking = opts.search.chunking;
    manifest.mapping = plan.plan->mapping();
    manifest.database_crc = database_fingerprint(db);
    index::save_index_manifest(index_dir, manifest);
  }
  std::uint64_t total_bytes = 0;
  for (int rank = 0; rank < ranks; ++rank) {
    const index::ChunkedIndex partial(plan.plan->build_rank_store(rank),
                                      plan.plan->mods(), opts.search.index,
                                      opts.search.chunking);
    partial.save_file(index::bundle_rank_path(index_dir, rank));
    total_bytes += partial.memory_bytes();
    std::printf("wrote %s: %zu entries, %llu postings\n",
                index::bundle_rank_path(index_dir, rank).c_str(),
                partial.num_peptides(),
                static_cast<unsigned long long>(partial.num_postings()));
  }

  // Round-trip the whole bundle as a self-check: an index set that cannot
  // be read back — or that fails its own manifest validation — is worse
  // than none. Materialize every chunk so each payload is actually re-read
  // and CRC-verified (a lazy mapped check would stop at metadata).
  AppOptions self_check = opts;
  self_check.index_mmap = false;
  const auto reloaded = try_load_warm_indexes(index_dir, plan, db,
                                              self_check);
  LBE_CHECK(reloaded != nullptr, "index bundle failed its reload self-check");
  std::printf("prepared %d rank indexes + %s (%.1f MiB in-memory total)\n",
              ranks, index::bundle_manifest_path(index_dir).c_str(),
              static_cast<double>(total_bytes) / (1024.0 * 1024.0));
  return 0;
}

int run_search(const AppOptions& opts) {
  const PipelineInputs inputs = prepare_inputs(opts);
  print_database_summary(inputs.database);
  std::printf("queries: %zu spectra from %s\n", inputs.queries.spectra.size(),
              inputs.queries.origin.c_str());

  const PlanBundle plan = build_plan(inputs.database, opts);
  print_plan_summary(plan);

  // Warm start: adopt prepared per-rank indexes when they still match the
  // plan; try_load_warm_indexes warns and returns null on any mismatch.
  std::unique_ptr<index::IndexBundle> warm;
  if (!opts.index_dir.empty()) {
    warm = try_load_warm_indexes(opts.index_dir, plan, inputs.database, opts);
    if (warm != nullptr) {
      std::printf("warm start: loaded %d rank indexes from %s "
                  "(mmap, lazy chunks)\n",
                  warm->ranks(), opts.index_dir.c_str());
    }
  }

  const SearchOutcome outcome =
      run_search_pipeline(plan, inputs.queries, opts, warm.get());

  std::printf("search: %zu/%zu queries matched, %zu target PSMs at q <= %g\n",
              outcome.queries_with_results,
              outcome.report.results.size(), outcome.accepted,
              opts.fdr_threshold);
  std::printf("query-phase load imbalance (Eq. 1): %.1f%% by time, "
              "%.1f%% by work units\n",
              100.0 * outcome.time_stats.imbalance,
              100.0 * outcome.work_stats.imbalance);
  std::printf("makespan %.1f ms (threads/rank=%u, batch=%u)\n",
              outcome.report.makespan * 1e3, opts.threads, opts.batch);
  if (opts.search.schedule.schedule != core::Schedule::kLbeStatic) {
    std::uint64_t stolen = 0;
    for (const auto count : outcome.report.batches_stolen) stolen += count;
    std::printf("schedule %s: %llu batches stolen\n",
                core::schedule_name(opts.search.schedule.schedule),
                static_cast<unsigned long long>(stolen));
  }

  if (opts.write_report) {
    write_reports(opts.out_dir, plan, outcome);
    std::printf("reports: %s/psms.tsv, %s/fdr.csv, %s/metrics.csv\n",
                opts.out_dir.c_str(), opts.out_dir.c_str(),
                opts.out_dir.c_str());
  }

  if (opts.verify_baseline) {
    const std::size_t mismatches =
        compare_with_baseline(plan, inputs.queries, opts, outcome);
    if (mismatches != 0) {
      std::printf("VERIFY FAILED: %zu queries differ from the shared-memory "
                  "baseline\n",
                  mismatches);
      return 1;
    }
    std::printf("verify: distributed results identical to the shared-memory "
                "baseline\n");
  }
  return 0;
}

int run_stats(const AppOptions& opts) {
  const DatabaseBundle db = build_database(opts);
  print_database_summary(db);

  const PlanBundle plan = build_plan(db, opts);
  print_plan_summary(plan);
  const auto& mapping = plan.plan->mapping();

  std::printf("\n%5s %12s %10s\n", "rank", "entries", "share");
  std::vector<double> entries_per_rank;
  for (int rank = 0; rank < plan.plan->ranks(); ++rank) {
    const auto count = static_cast<double>(mapping.rank_count(rank));
    entries_per_rank.push_back(count);
    std::printf("%5d %12.0f %9.2f%%\n", rank, count,
                100.0 * count /
                    static_cast<double>(plan.plan->num_variants()));
  }
  const auto stats = perf::load_stats(entries_per_rank);
  std::printf("\nentry-count load imbalance (Eq. 1): %.2f%% "
              "(avg %.0f, max %.0f)\n",
              100.0 * stats.imbalance, stats.t_avg, stats.t_max);
  std::printf("mapping table: %llu bytes\n",
              static_cast<unsigned long long>(mapping.memory_bytes()));

  // Policy comparison over the same clustered database: reuse the grouping,
  // re-partition per policy, and weigh each base by its variant count.
  const auto& grouping = plan.plan->grouping();
  std::vector<std::uint64_t> variant_counts;
  variant_counts.reserve(grouping.sequences.size());
  for (const auto& sequence : grouping.sequences) {
    variant_counts.push_back(
        digest::count_variants(sequence, db.mods, db.variants));
  }
  std::printf("\n%10s %28s\n", "policy", "entry LI at these ranks");
  for (const core::Policy policy :
       {core::Policy::kChunk, core::Policy::kCyclic, core::Policy::kRandom}) {
    core::PartitionParams params = opts.lbe.partition;
    params.policy = policy;
    params.weights.clear();
    const auto partition = core::partition(grouping.group_sizes, params);
    std::vector<double> load(partition.per_rank.size(), 0.0);
    for (std::size_t rank = 0; rank < partition.per_rank.size(); ++rank) {
      for (const auto base : partition.per_rank[rank]) {
        load[rank] += static_cast<double>(variant_counts[base]);
      }
    }
    std::printf("%10s %27.2f%%\n", core::policy_name(policy),
                100.0 * perf::load_imbalance(load));
  }
  return 0;
}

int run_serve(const AppOptions& opts) {
  if (opts.socket_path.empty()) {
    throw ConfigError("serve requires --socket PATH");
  }
  auto context = serve::load_serving_context(opts);
  print_database_summary(context->db);
  print_plan_summary(context->plan);
  std::printf("serve: %d rank indexes resident%s\n", context->warm->ranks(),
              opts.index_dir.empty()
                  ? " (built in memory; use --index for a prepared bundle)"
                  : " (mmap, lazy chunks)");

  serve::ServerConfig config;
  config.socket_path = opts.socket_path;
  config.queue_depth = opts.queue_depth;
  config.workers = opts.serve_workers;
  config.threads_per_batch = opts.threads;
  serve::Server server(config, context);
  context.reset();  // the server's snapshot is now the only generation owner

  struct sigaction stop_action {};
  stop_action.sa_handler = on_serve_stop;
  sigemptyset(&stop_action.sa_mask);
  struct sigaction reload_action {};
  reload_action.sa_handler = on_serve_reload;
  sigemptyset(&reload_action.sa_mask);
  g_serve_stop = 0;
  g_serve_reload = 0;
  sigaction(SIGINT, &stop_action, nullptr);
  sigaction(SIGTERM, &stop_action, nullptr);
  sigaction(SIGHUP, &reload_action, nullptr);

  server.start();
  std::printf("serve: listening on %s (queue %u, workers %u, threads %u)\n",
              opts.socket_path.c_str(), config.queue_depth, config.workers,
              config.threads_per_batch);
  std::fflush(stdout);

  while (g_serve_stop == 0 && !server.shutdown_requested()) {
    if (g_serve_reload != 0) {
      g_serve_reload = 0;
      // Re-prepare off to the side, validate, then swap atomically;
      // in-flight batches drain on the generation they snapshotted. A
      // failed reload keeps the current index serving.
      try {
        server.hot_swap(serve::load_serving_context(opts));
        std::printf("serve: hot swap complete (%llu reloads)\n",
                    static_cast<unsigned long long>(server.stats().reloads));
      } catch (const Error& error) {
        std::fprintf(stderr,
                     "serve: reload failed, keeping current index: %s\n",
                     error.what());
      }
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.stop();
  std::printf("serve: shutdown complete\n");
  std::fflush(stdout);
  return 0;
}

int run_query(const AppOptions& opts) {
  if (opts.socket_path.empty()) {
    throw ConfigError("query requires --socket PATH");
  }
  // Build the query set exactly as one-shot `search` would (same plan/
  // synthetic-generation path), so daemon psms.tsv is comparable.
  const PipelineInputs inputs = prepare_inputs(opts);
  const std::vector<chem::Spectrum>& spectra = inputs.queries.spectra;
  std::printf("queries: %zu spectra from %s\n", spectra.size(),
              inputs.queries.origin.c_str());

  serve::ServeClient client(opts.socket_path);
  if (!client.connect_wait(/*timeout_seconds=*/30.0)) {
    throw IoError("no daemon answered on " + opts.socket_path +
                  " within 30 s");
  }
  const serve::PongInfo info = client.ping();
  std::printf("query: connected to daemon on %s (%u ranks, top_k %u)\n",
              opts.socket_path.c_str(), info.ranks, info.top_k);

  // The PR 6 footgun, made loud: `query` builds its query set from *this*
  // invocation's plan/config, but the PSMs come from whatever database the
  // daemon has resident. If the fingerprints disagree, the psms.tsv below
  // will NOT match a one-shot `search --plan` of the client's plan — warn
  // on every such run instead of letting the mismatch pass silently.
  const std::uint32_t local_crc = database_fingerprint(inputs.database);
  if (info.database_crc != local_crc) {
    log::warn("database mismatch: the daemon on ", opts.socket_path,
              " serves database crc32 ", info.database_crc,
              " but this invocation's plan/config has crc32 ", local_crc,
              " — its psms.tsv will not match a one-shot `lbectl search` of "
              "this plan. Point --plan/--config at the files the daemon was "
              "started with (or restart the daemon).");
  }

  std::vector<search::ResolvedPsm> rows;
  std::vector<double> batch_ms;
  std::uint64_t candidates = 0;
  const std::size_t batch = opts.batch;
  for (std::size_t lo = 0; lo < spectra.size(); lo += batch) {
    const std::size_t hi = std::min(spectra.size(), lo + batch);
    serve::SearchRequest request;
    request.start_id = static_cast<std::uint32_t>(lo);
    request.spectra.assign(spectra.begin() + lo, spectra.begin() + hi);
    for (;;) {
      const auto sent = std::chrono::steady_clock::now();
      serve::ServeClient::Outcome outcome = client.search(request);
      if (outcome.status == serve::Status::kQueueFull) {
        // Admission control pushed back; yield briefly and retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (outcome.status != serve::Status::kOk) {
        throw IoError(std::string("daemon rejected batch: ") +
                      serve::status_name(outcome.status) + ": " +
                      outcome.error);
      }
      batch_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - sent)
              .count());
      candidates += outcome.response.candidates;
      rows.insert(rows.end(), outcome.response.rows.begin(),
                  outcome.response.rows.end());
      break;
    }
  }

  std::filesystem::create_directories(opts.out_dir);
  const std::string report_path = opts.out_dir + "/psms.tsv";
  search::write_psm_rows_file(report_path, rows);

  std::sort(batch_ms.begin(), batch_ms.end());
  const auto percentile = [&](double p) {
    if (batch_ms.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        p * static_cast<double>(batch_ms.size() - 1) + 0.5);
    return batch_ms[i];
  };
  std::printf("query: %zu queries in %zu batches, %llu candidates; "
              "batch latency p50 %.2f ms, p99 %.2f ms\n",
              spectra.size(), batch_ms.size(),
              static_cast<unsigned long long>(candidates), percentile(0.5),
              percentile(0.99));
  std::printf("report: %s (%zu rows)\n", report_path.c_str(), rows.size());

  if (opts.send_shutdown) {
    client.shutdown_server();
    std::printf("query: daemon shutdown requested\n");
  }
  return 0;
}

int dispatch(const CliInvocation& cli) {
  if (cli.subcommand == "help") {
    std::printf("%s", usage());
    return 0;
  }
  const AppOptions opts = options_from_config(cli.config);
  {
    namespace codec = index::codec;
    codec::SimdLevel level = codec::SimdLevel::kAuto;
    codec::parse_simd_level(opts.simd, level);  // validated at parse
    codec::set_simd_level(level);
    if (level != codec::SimdLevel::kAuto &&
        codec::resolved_simd_level() != level) {
      log::warn("simd level '", opts.simd,
                "' is not supported by this CPU; using '",
                codec::simd_level_name(codec::resolved_simd_level()), "'");
    }
  }
  if (cli.subcommand == "prepare") return run_prepare(opts);
  if (cli.subcommand == "search") return run_search(opts);
  if (cli.subcommand == "stats") return run_stats(opts);
  if (cli.subcommand == "serve") return run_serve(opts);
  if (cli.subcommand == "query") return run_query(opts);
  throw ConfigError("unknown subcommand: " + cli.subcommand +
                    " (expected prepare|search|stats|serve|query)");
}

}  // namespace lbe::app
