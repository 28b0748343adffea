#include "app/pipeline.hpp"

#include <filesystem>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "common/binary_io.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "digest/decoy.hpp"
#include "digest/dedup.hpp"
#include "digest/digestor.hpp"
#include "digest/enzyme.hpp"
#include "app/rank_programs.hpp"
#include "index/posting_codec.hpp"
#include "io/fasta.hpp"
#include "io/ms2.hpp"
#include "search/load_model.hpp"
#include "search/report.hpp"
#include "search/wire.hpp"
#include "simmpi/process.hpp"
#include "synth/spectra.hpp"
#include "synth/workload.hpp"

namespace lbe::app {

namespace {

constexpr std::uint64_t kPlanMagic = 0x4C4245504C414E31ull;  // "LBEPLAN1"
constexpr std::uint32_t kPlanVersion = 1;

chem::ModificationSet mods_from_spec(const std::string& spec) {
  if (spec == "paper") return chem::ModificationSet::paper_default();
  return chem::ModificationSet::parse(spec);
}

/// Appends decoy peptides derived per target peptide (pseudo-reverse keeps
/// tryptic mass/length statistics). Decoys colliding with a target sequence
/// or another decoy are dropped — a collision would make the entry ambiguous
/// for FDR.
void append_peptide_decoys(DatabaseBundle& db, const AppOptions& opts) {
  const digest::Enzyme& enzyme = digest::enzyme_by_name(opts.enzyme_name);
  std::unordered_set<std::string> seen(db.peptides.begin(), db.peptides.end());
  const std::size_t num_targets = db.peptides.size();
  for (std::size_t i = 0; i < num_targets; ++i) {
    std::string decoy = digest::decoy_sequence(
        db.peptides[i], opts.decoy_method, enzyme, opts.seed + i);
    if (!seen.insert(decoy).second) {
      ++db.decoy_collisions_dropped;
      continue;
    }
    db.peptides.push_back(std::move(decoy));
    db.is_decoy.push_back(true);
  }
}

DatabaseBundle database_from_workload(const synth::Workload& workload,
                                      const AppOptions& opts) {
  DatabaseBundle db;
  db.peptides = workload.base_peptides;
  db.is_decoy.assign(db.peptides.size(), false);
  db.mods = workload.mods;
  db.mods_spec = "paper";
  db.variants = workload.variant_params;
  if (opts.add_decoys) append_peptide_decoys(db, opts);
  return db;
}

DatabaseBundle database_from_fasta(const AppOptions& opts) {
  DatabaseBundle db;
  db.mods = mods_from_spec(opts.mods_spec);
  db.mods_spec = opts.mods_spec;
  db.variants = opts.variants;

  const auto targets = io::read_fasta_file(opts.fasta_path);
  const digest::Enzyme& enzyme = digest::enzyme_by_name(opts.enzyme_name);
  db.num_target_proteins = targets.size();

  std::vector<std::string> target_seqs;
  for (const auto& peptide :
       digest::digest_database(targets, enzyme, opts.digestion)) {
    target_seqs.push_back(peptide.sequence);
  }
  db.duplicates_dropped = digest::deduplicate(target_seqs);

  db.peptides = std::move(target_seqs);
  db.is_decoy.assign(db.peptides.size(), false);

  if (opts.add_decoys) {
    const auto decoys =
        digest::make_decoys(targets, opts.decoy_method, enzyme, opts.seed);
    db.num_decoy_proteins = decoys.size();
    std::vector<std::string> decoy_seqs;
    for (const auto& peptide :
         digest::digest_database(decoys, enzyme, opts.digestion)) {
      decoy_seqs.push_back(peptide.sequence);
    }
    db.duplicates_dropped += digest::deduplicate(decoy_seqs);
    std::unordered_set<std::string> seen(db.peptides.begin(),
                                         db.peptides.end());
    for (auto& decoy : decoy_seqs) {
      if (!seen.insert(decoy).second) {
        ++db.decoy_collisions_dropped;
        continue;
      }
      db.peptides.push_back(std::move(decoy));
      db.is_decoy.push_back(true);
    }
  }
  return db;
}

synth::Workload synthetic_workload(const AppOptions& opts) {
  return synth::make_paper_workload(opts.target_entries, opts.num_queries,
                                    opts.seed, opts.ptm_fraction);
}

QueryBundle queries_from_database(const DatabaseBundle& db,
                                  const AppOptions& opts) {
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < db.peptides.size(); ++i) {
    if (!db.is_decoy[i]) targets.push_back(db.peptides[i]);
  }
  LBE_CHECK(!targets.empty(), "no target peptides to draw queries from");
  synth::SpectraParams params;
  params.num_spectra = opts.num_queries;
  params.seed = opts.seed;
  params.fragments = opts.search.index.fragments;
  params.ptm_shift_fraction = opts.ptm_fraction;
  QueryBundle queries;
  queries.spectra = synth::generate_spectra(targets, db.mods, params).spectra;
  queries.origin = "<synthetic>";
  return queries;
}

}  // namespace

DatabaseBundle build_database(const AppOptions& opts) {
  if (!opts.plan_path.empty()) return load_plan_file(opts.plan_path);
  if (!opts.fasta_path.empty()) return database_from_fasta(opts);
  return database_from_workload(synthetic_workload(opts), opts);
}

PipelineInputs prepare_inputs(const AppOptions& opts) {
  PipelineInputs inputs;
  const bool synthetic_db = opts.plan_path.empty() && opts.fasta_path.empty();
  if (synthetic_db) {
    // One workload generation feeds both the database and (absent an MS2
    // file) the query set, so truth-linked spectra stay aligned.
    const synth::Workload workload = synthetic_workload(opts);
    inputs.database = database_from_workload(workload, opts);
    if (opts.ms2_path.empty()) {
      inputs.queries.spectra = workload.queries;
      inputs.queries.origin = "<synthetic>";
    }
  } else {
    inputs.database = build_database(opts);
  }
  if (!opts.ms2_path.empty()) {
    inputs.queries.spectra = io::read_ms2_file(opts.ms2_path).spectra;
    inputs.queries.origin = opts.ms2_path;
  } else if (!synthetic_db) {
    inputs.queries = queries_from_database(inputs.database, opts);
  }
  LBE_CHECK(!inputs.queries.spectra.empty(), "query set is empty");
  return inputs;
}

core::LbeParams effective_lbe_params(const DatabaseBundle& db,
                                     const AppOptions& opts) {
  if (!db.stored_lbe) return opts.lbe;
  core::LbeParams merged = *db.stored_lbe;
  const Config& source = opts.source;
  if (source.contains("policy")) {
    merged.partition.policy = opts.lbe.partition.policy;
  }
  if (source.contains("ranks")) {
    merged.partition.ranks = opts.lbe.partition.ranks;
  }
  if (source.contains("partition_seed")) {
    merged.partition.seed = opts.lbe.partition.seed;
  }
  if (source.contains("criterion")) {
    merged.grouping.criterion = opts.lbe.grouping.criterion;
  }
  if (source.contains("d")) merged.grouping.d = opts.lbe.grouping.d;
  if (source.contains("d_prime")) {
    merged.grouping.d_prime = opts.lbe.grouping.d_prime;
  }
  if (source.contains("gsize")) merged.grouping.gsize = opts.lbe.grouping.gsize;
  merged.grouping.validate();
  merged.partition.validate();
  return merged;
}

PlanBundle build_plan(const DatabaseBundle& db, const AppOptions& opts) {
  PlanBundle bundle;
  Stopwatch prep;
  bundle.plan = std::make_unique<core::LbePlan>(
      db.peptides, db.mods, db.variants, effective_lbe_params(db, opts));
  bundle.prep_seconds = prep.seconds();

  // The plan's clustered order permutes the input; carry the decoy flags
  // along so FDR can label clustered base ids directly.
  const auto& permutation = bundle.plan->grouping().permutation;
  bundle.decoy_bases.resize(permutation.size());
  for (std::size_t i = 0; i < permutation.size(); ++i) {
    bundle.decoy_bases[i] = db.is_decoy[permutation[i]];
  }
  return bundle;
}

void save_plan(std::ostream& out, const DatabaseBundle& db,
               const core::LbeParams& lbe) {
  bin::write_pod(out, kPlanMagic);
  bin::write_pod(out, kPlanVersion);
  bin::write_pod(out, static_cast<std::uint8_t>(lbe.grouping.criterion));
  bin::write_pod(out, lbe.grouping.d);
  bin::write_pod(out, lbe.grouping.d_prime);
  bin::write_pod(out, lbe.grouping.gsize);
  bin::write_pod(out, static_cast<std::uint8_t>(lbe.partition.policy));
  bin::write_pod(out, static_cast<std::int32_t>(lbe.partition.ranks));
  bin::write_pod(out, lbe.partition.seed);
  bin::write_pod(out,
                 static_cast<std::uint8_t>(lbe.partition.rotate_groups));
  bin::write_string(out, db.mods_spec);
  bin::write_pod(out, db.variants.max_mod_residues);
  bin::write_pod(out, db.variants.max_variants_per_peptide);
  bin::write_pod(out,
                 static_cast<std::uint8_t>(db.variants.include_unmodified));
  bin::write_pod(out, static_cast<std::uint64_t>(db.num_target_proteins));
  bin::write_pod(out, static_cast<std::uint64_t>(db.num_decoy_proteins));
  bin::write_pod(out, static_cast<std::uint64_t>(db.peptides.size()));
  for (const auto& peptide : db.peptides) bin::write_string(out, peptide);
  std::vector<std::uint8_t> decoy_bytes(db.is_decoy.begin(),
                                        db.is_decoy.end());
  bin::write_vector(out, decoy_bytes);
}

void save_plan_file(const std::string& path, const DatabaseBundle& db,
                    const core::LbeParams& lbe) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write plan file: " + path);
  save_plan(out, db, lbe);
}

DatabaseBundle load_plan(std::istream& in) {
  if (bin::read_pod<std::uint64_t>(in) != kPlanMagic) {
    throw IoError("not an lbectl plan file (bad magic)");
  }
  const auto version = bin::read_pod<std::uint32_t>(in);
  if (version != kPlanVersion) {
    throw IoError("unsupported plan file version");
  }
  DatabaseBundle db;
  core::LbeParams lbe;
  const auto criterion = bin::read_pod<std::uint8_t>(in);
  if (criterion != 1 && criterion != 2) {
    throw IoError("plan file corrupt: bad grouping criterion");
  }
  lbe.grouping.criterion = static_cast<core::GroupingCriterion>(criterion);
  lbe.grouping.d = bin::read_pod<std::uint32_t>(in);
  lbe.grouping.d_prime = bin::read_pod<double>(in);
  lbe.grouping.gsize = bin::read_pod<std::uint32_t>(in);
  const auto policy = bin::read_pod<std::uint8_t>(in);
  if (policy > static_cast<std::uint8_t>(core::Policy::kWeighted)) {
    throw IoError("plan file corrupt: bad partition policy");
  }
  lbe.partition.policy = static_cast<core::Policy>(policy);
  lbe.partition.ranks = bin::read_pod<std::int32_t>(in);
  lbe.partition.seed = bin::read_pod<std::uint64_t>(in);
  lbe.partition.rotate_groups = bin::read_pod<std::uint8_t>(in) != 0;
  db.stored_lbe = lbe;
  db.mods_spec = bin::read_string(in);
  db.mods = mods_from_spec(db.mods_spec);
  db.variants.max_mod_residues = bin::read_pod<std::uint32_t>(in);
  db.variants.max_variants_per_peptide = bin::read_pod<std::uint64_t>(in);
  db.variants.include_unmodified = bin::read_pod<std::uint8_t>(in) != 0;
  db.num_target_proteins =
      static_cast<std::size_t>(bin::read_pod<std::uint64_t>(in));
  db.num_decoy_proteins =
      static_cast<std::size_t>(bin::read_pod<std::uint64_t>(in));
  const auto count = bin::read_pod<std::uint64_t>(in);
  if (count > bin::kMaxElements) {
    throw IoError("plan file corrupt: implausible peptide count");
  }
  db.peptides.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    db.peptides.push_back(bin::read_string(in));
  }
  const auto decoy_bytes = bin::read_vector<std::uint8_t>(in);
  if (decoy_bytes.size() != db.peptides.size()) {
    throw IoError("plan file corrupt: decoy flags do not match peptides");
  }
  db.is_decoy.assign(decoy_bytes.begin(), decoy_bytes.end());
  return db;
}

DatabaseBundle load_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open plan file: " + path);
  return load_plan(in);
}

std::uint32_t database_fingerprint(const DatabaseBundle& db) {
  std::uint32_t crc = 0;
  const auto mix = [&crc](const void* data, std::size_t size) {
    crc = bin::crc32(data, size, crc);
  };
  for (const auto& peptide : db.peptides) {
    mix(peptide.data(), peptide.size());
    const char separator = '\n';
    mix(&separator, 1);
  }
  for (const bool flag : db.is_decoy) {
    const char byte = flag ? 1 : 0;
    mix(&byte, 1);
  }
  mix(db.mods_spec.data(), db.mods_spec.size());
  mix(&db.variants.max_mod_residues, sizeof(db.variants.max_mod_residues));
  mix(&db.variants.max_variants_per_peptide,
      sizeof(db.variants.max_variants_per_peptide));
  const char unmodified = db.variants.include_unmodified ? 1 : 0;
  mix(&unmodified, 1);
  return crc;
}

index::IndexBundle build_index_bundle(const PlanBundle& plan,
                                      const DatabaseBundle& db,
                                      const AppOptions& opts) {
  index::IndexBundle bundle;
  bundle.lbe = plan.plan->params();
  bundle.index_params = opts.search.index;
  bundle.chunking = opts.search.chunking;
  bundle.mapping = plan.plan->mapping();
  bundle.database_crc = database_fingerprint(db);
  const int ranks = plan.plan->ranks();
  bundle.per_rank.reserve(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    bundle.per_rank.push_back(std::make_unique<index::ChunkedIndex>(
        plan.plan->build_rank_store(rank), plan.plan->mods(),
        bundle.index_params, bundle.chunking));
  }
  return bundle;
}

std::unique_ptr<index::IndexBundle> try_load_warm_indexes(
    const std::string& dir, const PlanBundle& plan, const DatabaseBundle& db,
    const AppOptions& opts) {
  std::unique_ptr<index::IndexBundle> bundle;
  try {
    bundle = std::make_unique<index::IndexBundle>(
        index::load_index_bundle(dir, db.mods));
    if (!opts.index_mmap) {
      for (const auto& rank : bundle->per_rank) rank->materialize_all();
    }
  } catch (const index::serialize::FormatVersionError& e) {
    // A bundle from an older (or newer) format is stale, not corrupt:
    // warn and rebuild, exactly like a plan-parameter mismatch below.
    // Every other IoError still propagates — a bundle the user explicitly
    // pointed at must not be silently ignored when its bytes are bad.
    log::warn(e.what());
    log::warn("index bundle in ", dir,
              " uses an unsupported on-disk format version; rebuilding "
              "per-rank indexes from the plan (re-run `lbectl prepare` to "
              "refresh it)");
    return nullptr;
  }

  const auto reject = [&](const char* what) {
    log::warn("index bundle in ", dir, " was built under a different ", what,
              "; rebuilding per-rank indexes from the plan");
    return std::unique_ptr<index::IndexBundle>();
  };
  if (!index::serialize::same_lbe_params(bundle->lbe, plan.plan->params())) {
    return reject("LBE plan (grouping/partitioning parameters)");
  }
  if (!index::serialize::same_index_params(bundle->index_params,
                                           opts.search.index)) {
    return reject("IndexParams (resolution/fragment settings)");
  }
  if (bundle->chunking.max_chunk_entries !=
      opts.search.chunking.max_chunk_entries) {
    return reject("chunking configuration");
  }
  if (bundle->ranks() != plan.plan->ranks() ||
      !(bundle->mapping == plan.plan->mapping())) {
    return reject("rank assignment (mapping table)");
  }
  if (bundle->database_crc != database_fingerprint(db)) {
    return reject("database (peptides/decoys/mods changed since prepare)");
  }
  return bundle;
}

namespace {

/// Stages a cold-start bundle for the process backend: worker processes
/// need on-disk rank files to mmap, so when no warm bundle was given the
/// search writes one under out_dir first. Rank files are built and saved
/// one at a time (prepare's streaming idiom), so staging's peak memory is
/// one partial index; the saved arrays are the built ones, so results are
/// identical to an in-memory cold build.
std::string stage_process_bundle(const core::LbePlan& plan,
                                 const AppOptions& opts) {
  const std::string dir = opts.out_dir + "/rank-bundle";
  std::filesystem::create_directories(dir);
  for (int rank = 0; rank < plan.ranks(); ++rank) {
    const index::ChunkedIndex partial(plan.build_rank_store(rank),
                                      plan.mods(), opts.search.index,
                                      opts.search.chunking);
    partial.save_file(index::bundle_rank_path(dir, rank));
  }
  return dir;
}

}  // namespace

SearchOutcome run_search_pipeline(const PlanBundle& plan,
                                  const QueryBundle& queries,
                                  const AppOptions& opts,
                                  const index::IndexBundle* warm) {
  search::DistributedParams params = opts.search;
  params.prep_seconds = plan.prep_seconds;

  const core::LbePlan* lbe = plan.plan.get();
  if (warm != nullptr) params.preloaded = &warm->per_rank;

  std::unique_ptr<mpi::Transport> transport;
  // Keeps the process backend's mapped staging indexes alive through the
  // search — params.preloaded points into it.
  std::vector<std::unique_ptr<index::ChunkedIndex>> staged;

  if (opts.backend == "process") {
    // Every rank — forked workers and the master alike — mmaps its rank
    // file from one shared read-only bundle, so co-located ranks keep a
    // single page-cache copy of the index between them: the warm bundle
    // the user pointed at, or a freshly staged one on a cold start.
    std::string bundle_dir;
    if (warm != nullptr && !opts.index_dir.empty()) {
      bundle_dir = opts.index_dir;
    } else {
      bundle_dir = stage_process_bundle(*lbe, opts);
      staged.reserve(static_cast<std::size_t>(lbe->ranks()));
      for (int rank = 0; rank < lbe->ranks(); ++rank) {
        staged.push_back(index::ChunkedIndex::map_file(
            index::bundle_rank_path(bundle_dir, rank), lbe->mods(),
            opts.search.index));
      }
      params.preloaded = &staged;
    }

    search::wire::SearchSetup setup;
    setup.bundle_dir = bundle_dir;
    // Ship the *resolved* level, never "auto": all ranks must take the
    // same decode kernels even if dispatch defaults ever diverge.
    setup.simd_level =
        index::codec::simd_level_name(index::codec::resolved_simd_level());
    setup.mods = lbe->mods();
    setup.index_params = opts.search.index;
    setup.search = opts.search.search;
    setup.result_batch = opts.search.result_batch;
    setup.threads_per_rank = opts.search.threads_per_rank;
    setup.schedule = opts.search.schedule;
    setup.queries = queries.spectra;

    mpi::ProcessTransportOptions process_options;
    process_options.ranks = lbe->ranks();
    process_options.program = kSearchRankProgram;
    process_options.setup = search::wire::encode_search_setup(setup);
    transport =
        std::make_unique<mpi::ProcessTransport>(std::move(process_options));
  } else {
    mpi::ClusterOptions cluster_options;
    cluster_options.ranks = lbe->ranks();
    cluster_options.engine = opts.backend == "threads"
                                 ? mpi::Engine::kThreads
                                 : mpi::Engine::kVirtual;
    transport = std::make_unique<mpi::Cluster>(cluster_options);
  }

  SearchOutcome outcome;
  outcome.report = search::run_distributed_search(*transport, *lbe,
                                                  queries.spectra, params);
  outcome.comm = transport->reports();

  for (const auto& result : outcome.report.results) {
    if (result.top.empty()) continue;
    ++outcome.queries_with_results;
    const auto location = lbe->locate_variant(result.top[0].peptide);
    outcome.fdr_inputs.push_back(search::FdrInput{
        result.top[0].score, plan.decoy_bases[location.base_id]});
  }
  outcome.qvalues = search::compute_qvalues(outcome.fdr_inputs);
  outcome.accepted = search::accepted_at(outcome.fdr_inputs, outcome.qvalues,
                                         opts.fdr_threshold);

  outcome.time_stats =
      perf::load_stats(outcome.report.query_phase_seconds());
  outcome.work_stats = perf::load_stats_from_work(outcome.report.work);
  return outcome;
}

void write_reports(const std::string& out_dir, const PlanBundle& plan,
                   const SearchOutcome& outcome) {
  std::filesystem::create_directories(out_dir);

  search::write_psm_report_file(out_dir + "/psms.tsv", *plan.plan,
                                outcome.report.results, plan.decoy_bases);

  {
    std::ofstream out(out_dir + "/fdr.csv");
    if (!out) throw IoError("cannot write " + out_dir + "/fdr.csv");
    CsvWriter csv(out, {"query_id", "score", "is_decoy", "qvalue"});
    std::size_t row = 0;
    for (const auto& result : outcome.report.results) {
      if (result.top.empty()) continue;
      csv.row({CsvWriter::field(static_cast<std::uint64_t>(result.query_id)),
               CsvWriter::field(
                   static_cast<double>(outcome.fdr_inputs[row].score)),
               outcome.fdr_inputs[row].is_decoy ? "1" : "0",
               CsvWriter::field(outcome.qvalues[row])});
      ++row;
    }
  }

  {
    std::ofstream out(out_dir + "/metrics.csv");
    if (!out) throw IoError("cannot write " + out_dir + "/metrics.csv");
    // comm_* are the transport's measured per-rank totals (messages and
    // payload bytes actually sent), reported next to the Eq. 1 predicted
    // loads; peak_rss_bytes is per worker process (0 on in-process
    // backends, where ranks share one address space).
    // spans_*/blocks_pruned/candidates_scored expose block-max pruning per
    // rank (index/query_work.hpp); work_units deliberately excludes them.
    // fragment_bins counts the precursor-first window path's checks
    // (weighted by kWindowBinCost in work_units). index_bytes is the
    // partial index's owned heap; mapped_bytes the rank file a warm rank
    // maps instead (0 when built), appended last so column positions hold.
    // The scheduling columns: batches_executed/stolen per *executing* rank,
    // and — when the schedule consumed cost predictions — the summed
    // predicted cost plus the relative-error summary of the Eq. 1 model per
    // *index* rank (|predicted - observed| / observed over that rank's
    // partial index; all 0 under lbe_static, where no model is built).
    CsvWriter csv(out, {"rank", "entries", "index_bytes", "build_seconds",
                        "query_seconds", "work_units", "spans_walked",
                        "spans_pruned", "blocks_pruned", "candidates_scored",
                        "comm_messages", "comm_bytes", "peak_rss_bytes",
                        "batches_executed", "batches_stolen",
                        "predicted_cost", "pred_rel_err_mean",
                        "pred_rel_err_p95", "fragment_bins",
                        "mapped_bytes"});
    const auto& report = outcome.report;

    // Per-index-rank fit of predicted vs observed (filtration units —
    // walked postings plus weighted window-path bins — are what the model
    // predicts; see search/load_model.hpp).
    const std::size_t ranks = report.times.size();
    std::vector<std::vector<double>> predicted(ranks);
    std::vector<std::vector<double>> observed(ranks);
    for (const auto& record : report.query_costs) {
      const auto slot = static_cast<std::size_t>(record.index_rank);
      predicted[slot].push_back(record.predicted);
      observed[slot].push_back(record.work.filtration_units());
    }

    for (std::size_t rank = 0; rank < ranks; ++rank) {
      const mpi::RankReport comm = rank < outcome.comm.size()
                                       ? outcome.comm[rank]
                                       : mpi::RankReport{};
      const search::CostModelFit fit =
          search::fit_cost_model(predicted[rank], observed[rank]);
      double predicted_total = 0.0;
      for (const double value : predicted[rank]) predicted_total += value;
      csv.row({CsvWriter::field(static_cast<std::uint64_t>(rank)),
               CsvWriter::field(report.index_entries[rank]),
               CsvWriter::field(report.index_bytes[rank]),
               CsvWriter::field(report.times[rank].build_seconds()),
               CsvWriter::field(report.times[rank].query_seconds()),
               CsvWriter::field(report.work[rank].cost_units()),
               CsvWriter::field(report.work[rank].spans_walked),
               CsvWriter::field(report.work[rank].spans_pruned),
               CsvWriter::field(report.work[rank].blocks_pruned),
               CsvWriter::field(report.work[rank].candidates_scored),
               CsvWriter::field(comm.messages_sent),
               CsvWriter::field(comm.bytes_sent),
               CsvWriter::field(comm.peak_rss_bytes),
               CsvWriter::field(report.batches_executed[rank]),
               CsvWriter::field(report.batches_stolen[rank]),
               CsvWriter::field(predicted_total),
               CsvWriter::field(fit.samples == 0 ? 0.0 : fit.mean_rel_error),
               CsvWriter::field(fit.samples == 0 ? 0.0 : fit.p95_rel_error),
               CsvWriter::field(report.work[rank].fragment_bins),
               CsvWriter::field(report.mapped_bytes[rank])});
    }
  }

  // Per-query predicted vs observed cost, one row per (index rank, query) —
  // only written when the schedule actually built the cost model.
  if (!outcome.report.query_costs.empty()) {
    std::ofstream out(out_dir + "/query_costs.csv");
    if (!out) throw IoError("cannot write " + out_dir + "/query_costs.csv");
    CsvWriter csv(out, {"index_rank", "query_id", "executed_by",
                        "predicted_cost", "observed_postings",
                        "observed_work_units"});
    for (const auto& record : outcome.report.query_costs) {
      csv.row({CsvWriter::field(static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(record.index_rank))),
               CsvWriter::field(static_cast<std::uint64_t>(record.query_id)),
               CsvWriter::field(static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(record.executed_by))),
               CsvWriter::field(record.predicted),
               CsvWriter::field(record.work.postings_touched),
               CsvWriter::field(record.work.cost_units())});
    }
  }
}

std::size_t compare_with_baseline(const PlanBundle& plan,
                                  const QueryBundle& queries,
                                  const AppOptions& opts,
                                  const SearchOutcome& outcome) {
  search::DistributedParams params = opts.search;
  const auto baseline =
      search::run_shared_baseline(*plan.plan, queries.spectra, params);
  LBE_CHECK(baseline.results.size() == outcome.report.results.size(),
            "baseline result count mismatch");
  std::size_t mismatches = 0;
  for (std::size_t q = 0; q < baseline.results.size(); ++q) {
    const auto& distributed = outcome.report.results[q].top;
    const auto& shared = baseline.results[q].top;
    bool equal = distributed.size() == shared.size();
    for (std::size_t k = 0; equal && k < distributed.size(); ++k) {
      equal = distributed[k].peptide == shared[k].peptide &&
              distributed[k].score == shared[k].score;
    }
    if (!equal) {
      ++mismatches;
      log::warn("baseline mismatch on query ", q);
    }
  }
  return mismatches;
}

}  // namespace lbe::app
