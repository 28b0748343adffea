// lbectl pipeline layer — the glue between the library modules and the CLI.
//
// Mirrors the paper's end-to-end flow as composable steps:
//
//   FASTA / synth::proteome ──digest+decoy+dedup──▶ DatabaseBundle
//   DatabaseBundle ──LbePlan (group + partition)──▶ PlanBundle
//   MS2 / synth::spectra ───────────────────────────▶ QueryBundle
//   (Plan, Queries) ──simmpi distributed search──▶ SearchOutcome
//                      └─ target-decoy FDR, Eq. 1 load metrics, reports
//
// Every step is callable from tests (the integration suite drives the same
// functions the binary does), and `prepare` can serialize a DatabaseBundle
// so repeated searches skip digestion.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/options.hpp"
#include "chem/modification.hpp"
#include "chem/spectrum.hpp"
#include "core/lbe_layer.hpp"
#include "index/serialize.hpp"
#include "perf/metrics.hpp"
#include "search/distributed.hpp"
#include "search/fdr.hpp"
#include "simmpi/transport.hpp"

namespace lbe::app {

/// The deduplicated target+decoy peptide database ready for planning.
/// Peptides are in input order (targets first, then surviving decoys);
/// `is_decoy` is parallel to `peptides`.
struct DatabaseBundle {
  std::vector<std::string> peptides;
  std::vector<bool> is_decoy;
  chem::ModificationSet mods;
  std::string mods_spec = "paper";  ///< re-parseable provenance
  digest::VariantParams variants;
  std::size_t num_target_proteins = 0;
  std::size_t num_decoy_proteins = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t decoy_collisions_dropped = 0;
  /// LbeParams a prepared plan was built with (set by load_plan). A search
  /// from `--plan` reuses these unless the invocation overrides a key.
  std::optional<core::LbeParams> stored_lbe;
};

/// The query spectra and where they came from.
struct QueryBundle {
  std::vector<chem::Spectrum> spectra;
  std::string origin;  ///< file path or "<synthetic>"
};

/// Everything `search`/`stats` need about one workload.
struct PipelineInputs {
  DatabaseBundle database;
  QueryBundle queries;
};

/// Builds the database (plan file > FASTA > synthetic proteome, in that
/// precedence) and the query set (MS2 file > synthetic spectra).
PipelineInputs prepare_inputs(const AppOptions& opts);

/// Database only — `prepare` and `stats` skip query generation.
DatabaseBundle build_database(const AppOptions& opts);

/// An LbePlan plus the clustered-order decoy flags FDR needs.
struct PlanBundle {
  std::unique_ptr<core::LbePlan> plan;
  std::vector<bool> decoy_bases;  ///< clustered base id -> is decoy
  double prep_seconds = 0.0;      ///< measured LbePlan construction time
};

PlanBundle build_plan(const DatabaseBundle& db, const AppOptions& opts);

/// The LbeParams build_plan will actually use: a plan file's stored params
/// where present, with any key the invocation names explicitly (policy,
/// ranks, partition_seed, criterion, d, d_prime, gsize) overriding it.
core::LbeParams effective_lbe_params(const DatabaseBundle& db,
                                     const AppOptions& opts);

/// Serialized database format (`lbectl prepare` / `--plan`): a versioned
/// binary file holding peptides, decoy flags, modification spec, variant
/// limits and the LbeParams used at prepare time, written with
/// common/binary_io.
void save_plan(std::ostream& out, const DatabaseBundle& db,
               const core::LbeParams& lbe);
void save_plan_file(const std::string& path, const DatabaseBundle& db,
                    const core::LbeParams& lbe);
DatabaseBundle load_plan(std::istream& in);
DatabaseBundle load_plan_file(const std::string& path);

/// One end-to-end distributed search plus its derived statistics.
struct SearchOutcome {
  search::DistributedReport report;
  /// Per-rank transport accounting (messages/bytes actually sent, peak RSS
  /// for real worker processes) — what metrics.csv's comm_* columns report
  /// next to the Eq. 1 predicted loads. Same on every backend: the SPMD
  /// program is identical, only the transport underneath changes.
  std::vector<mpi::RankReport> comm;
  /// Best PSM per answered query, in query order (input to FDR).
  std::vector<search::FdrInput> fdr_inputs;
  std::vector<double> qvalues;        ///< parallel to fdr_inputs
  std::size_t accepted = 0;           ///< targets at q <= opts.fdr_threshold
  std::size_t queries_with_results = 0;
  perf::LoadStats time_stats;  ///< Eq. 1 over query-phase seconds
  perf::LoadStats work_stats;  ///< Eq. 1 over deterministic work units
};

/// Builds the full warm-start artifact for `prepare --index_out`: every
/// rank's partial index plus the plan/index parameters, mapping table and
/// database fingerprint they were carved under (see index/serialize.hpp).
/// `db` must be the database `plan` was built from.
index::IndexBundle build_index_bundle(const PlanBundle& plan,
                                      const DatabaseBundle& db,
                                      const AppOptions& opts);

/// CRC-32 fingerprint of a database's content (peptides, decoy flags,
/// modification spec, variant limits) — stored in the bundle manifest so a
/// bundle built from an edited database is rejected even when every
/// parameter and the mapping table still match.
std::uint32_t database_fingerprint(const DatabaseBundle& db);

/// Maps `dir`'s bundle and validates it against the plan this search is
/// about to run (LBE params, index/chunking params, mapping table, rank
/// count); with `opts.index_mmap` false it also materializes — CRC-checks
/// and validates — every chunk of every rank before returning. Returns
/// nullptr — after logging a warning — when anything mismatches, or when
/// the bundle is a stale on-disk format version (e.g. v3 files under a v4
/// build), so the caller falls back to a cold rebuild. Corrupt or
/// truncated files still throw IoError: a bundle the user explicitly
/// pointed at must not be silently ignored. The returned bundle borrows
/// `db.mods`, so `db` must outlive it.
std::unique_ptr<index::IndexBundle> try_load_warm_indexes(
    const std::string& dir, const PlanBundle& plan, const DatabaseBundle& db,
    const AppOptions& opts);

/// `warm` (optional) supplies preloaded per-rank indexes from
/// try_load_warm_indexes; results are identical to a cold build.
SearchOutcome run_search_pipeline(const PlanBundle& plan,
                                  const QueryBundle& queries,
                                  const AppOptions& opts,
                                  const index::IndexBundle* warm = nullptr);

/// Writes psms.tsv, fdr.csv and metrics.csv under `out_dir` (created if
/// missing).
void write_reports(const std::string& out_dir, const PlanBundle& plan,
                   const SearchOutcome& outcome);

/// Re-runs the shared-memory baseline engine and counts queries whose
/// merged PSM list differs from the distributed result (0 = exact match).
std::size_t compare_with_baseline(const PlanBundle& plan,
                                  const QueryBundle& queries,
                                  const AppOptions& opts,
                                  const SearchOutcome& outcome);

}  // namespace lbe::app
