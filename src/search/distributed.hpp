// Distributed querying — §III-E / Fig. 4 of the paper.
//
// Every rank builds a partial index over its LBE-assigned peptides, all
// ranks search the full query set against their partial index, and the
// per-query top-k PSMs travel to the MPI master as *virtual (local) ids*.
// The master maps them back to global ids with the O(1) mapping table and
// merges the per-rank lists into the final report.
//
// Phase structure and what each figure reads from it:
//
//   [prep]  serial master work: grouping + partitioning (charged to rank 0;
//           everyone else waits at a barrier)           — Fig. 9/10 Amdahl
//   [build] per-rank index construction                 — Fig. 5 memory
//   [query] per-rank filtration + rescoring             — Fig. 6 LI, Fig. 7/8
//   [merge] result gather + mapping at master           — Figs. 9/10
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/lbe_layer.hpp"
#include "core/scheduling.hpp"
#include "index/chunked_index.hpp"
#include "search/query_engine.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/transport.hpp"

namespace lbe::search {

struct DistributedParams {
  SearchParams search;
  index::IndexParams index;
  index::ChunkingParams chunking;
  /// Queries per result message to the master (comm-granularity ablation).
  std::uint32_t result_batch = 256;
  /// Seconds of serial master prep to charge rank 0 (measured by caller,
  /// e.g. the LbePlan construction time). Models the Amdahl serial term.
  double prep_seconds = 0.0;
  /// Hybrid MPI+threads mode (§VIII future work): threads per rank fanning
  /// the whole per-query pipeline — preprocessing, filtration, scoring —
  /// over per-thread arenas within each rank's query loop. 1 = off.
  /// Results are identical either way; only timing changes.
  std::uint32_t threads_per_rank = 1;
  /// Warm start (index/serialize.hpp bundles): when non-null, rank m adopts
  /// (*preloaded)[m] in the build phase instead of constructing its partial
  /// index — the paper's "partition once, search many" amortization. Must
  /// hold exactly plan.ranks() entries built from the same plan and params
  /// (the app layer validates and falls back to a cold build otherwise);
  /// the pointees must outlive the search. Results are identical to a cold
  /// build: the serialized transformed arrays are the built ones.
  const std::vector<std::unique_ptr<index::ChunkedIndex>>* preloaded = nullptr;
  /// Scheduling policy (core/scheduling.hpp). Both schedules speak one
  /// protocol: every rank runs its own batch queue, then asks the master for
  /// more. Under kLbeStatic the master answers `done` at once — the paper's
  /// fixed owner-computes placement; under kStealing it grants batches from
  /// the most-loaded rank's unstarted tail.
  core::ScheduleParams schedule;
};

/// A PSM with master-side (global) peptide identity.
struct GlobalPsm {
  GlobalPeptideId peptide = kInvalidPeptideId;
  std::uint32_t shared_peaks = 0;
  float score = 0.0f;
  RankId source_rank = -1;
};

struct GlobalQueryResult {
  std::uint32_t query_id = 0;
  std::vector<GlobalPsm> top;  ///< merged across ranks, best-first
};

/// The master's merge order: score desc, shared desc, global id asc. Global
/// variant ids are unique across ranks, so this is a strict total order and
/// any merge that sorts with it is deterministic.
bool global_psm_better(const GlobalPsm& a, const GlobalPsm& b);

/// The one merge, shared by the distributed master and the serving daemon.
/// Appends rank `index_rank`'s local top list to `slot`, mapping each local
/// (virtual) id to its global id with the O(1) mapping-table lookup.
/// `source_rank` is the index rank — placement, not executor — so the merged
/// stream does not depend on who searched the batch.
void merge_rank_top(const index::MappingTable& mapping, RankId index_rank,
                    const std::vector<Psm>& top, GlobalQueryResult& slot);

/// Sorts every merged list with global_psm_better and truncates it to
/// `top_k`: independent of execution and arrival order.
void finish_merge(std::vector<GlobalQueryResult>& merged, std::size_t top_k);

/// Per-rank virtual-time phase boundaries (seconds on that rank's clock).
struct PhaseTimes {
  double start = 0.0;         ///< after the prep barrier
  double build_done = 0.0;    ///< partial index constructed
  double query_start = 0.0;   ///< after the post-build barrier
  double query_done = 0.0;    ///< all queries filtered + scored
  double finish = 0.0;        ///< results sent / merge complete

  double build_seconds() const { return build_done - start; }
  double query_seconds() const { return query_done - query_start; }
};

/// One query's predicted vs observed cost against one rank's partial index.
/// Collected master-side (from result-batch payloads) whenever the schedule
/// consumes predictions; sorted by (index_rank, query_id) so the record
/// stream is executor- and arrival-order-independent.
struct QueryCostRecord {
  std::uint32_t query_id = 0;
  RankId index_rank = -1;   ///< whose partial index the query ran against
  RankId executed_by = -1;  ///< who searched it (differs when stolen)
  double predicted = 0.0;   ///< Eq. 1 cost-model prediction
  index::QueryWork work;    ///< observed counters for this query alone
};

struct DistributedReport {
  std::vector<PhaseTimes> times;           ///< per rank
  std::vector<index::QueryWork> work;      ///< per rank, deterministic
  std::vector<std::uint64_t> index_bytes;  ///< per rank partial index heap
  /// Per rank size of the mapped rank file behind the partial index (0 for
  /// a built one) — where a warm rank's arrays live instead of the heap.
  std::vector<std::uint64_t> mapped_bytes;
  std::vector<std::uint64_t> index_entries;  ///< per rank peptide entries
  std::uint64_t mapping_bytes = 0;         ///< master-side mapping table
  std::vector<GlobalQueryResult> results;  ///< final, at master
  double makespan = 0.0;                   ///< max rank finish time
  /// Per-rank result batches searched / stolen (batches_stolen is all zero
  /// under lbe_static, where no rank executes foreign work).
  std::vector<std::uint64_t> batches_executed;
  std::vector<std::uint64_t> batches_stolen;
  /// Predicted-vs-observed per query; empty under lbe_static (the cost
  /// model is never built there, keeping mapped indexes lazy).
  std::vector<QueryCostRecord> query_costs;

  /// Query-phase compute times, the series Fig. 6's LI is computed from.
  std::vector<double> query_phase_seconds() const;
};

/// Runs the full protocol on any rank transport (which must have
/// plan.ranks() ranks): the simulated engines run every rank in-process; a
/// ProcessTransport runs only rank 0 here while its worker processes run
/// the matching registered rank program (app/rank_programs.hpp), which
/// drives run_search_worker_rank below — the same protocol, so results are
/// byte-identical across backends. `queries` plays the role of the MS2 file
/// on shared storage: every rank reads it directly. Results are
/// deterministic given deterministic clocks.
DistributedReport run_distributed_search(
    mpi::Transport& transport, const core::LbePlan& plan,
    const std::vector<chem::Spectrum>& queries,
    const DistributedParams& params);

/// The subset of DistributedParams a worker rank needs.
struct WorkerSearchConfig {
  SearchParams search;
  std::uint32_t result_batch = 256;
  std::uint32_t threads_per_rank = 1;
  /// Build the per-index QueryCostModel and ship per-query predictions in
  /// result batches. Off under lbe_static: building the model materializes
  /// mapped index chunks, defeating lazy warm starts.
  bool cost_model = false;
};

/// A worker rank's partial index: `view` is always valid; `owned` keeps a
/// freshly built (or freshly mapped) index alive and is null when the view
/// borrows a caller-owned (preloaded) index.
struct RankIndex {
  std::unique_ptr<index::ChunkedIndex> owned;
  const index::ChunkedIndex* view = nullptr;
};

/// Produces rank `rank`'s partial index; called between the prep barrier
/// and the build barrier so its cost lands in the build phase.
using RankIndexSource = std::function<RankIndex(int rank)>;

/// The worker half of the distributed protocol: prep barrier, acquire the
/// partial index, build barrier, search every query shipping result batches
/// to rank 0, then ship this rank's phase/work stats. Called by the
/// in-process engines (from inside run_distributed_search's rank function)
/// and by worker processes (via the registered rank program) — one body, so
/// the SPMD program cannot drift between backends.
void run_search_worker_rank(mpi::Comm& comm,
                            const std::vector<chem::Spectrum>& queries,
                            const chem::ModificationSet& mods,
                            const WorkerSearchConfig& config,
                            const RankIndexSource& index_source);

/// Shared-memory baseline: the same engine over the global index, single
/// address space. Returns merged-format results for equivalence checks.
struct SharedBaselineReport {
  std::vector<GlobalQueryResult> results;
  index::QueryWork work;
  std::uint64_t index_bytes = 0;
  double build_seconds = 0.0;
  double query_seconds = 0.0;
};
SharedBaselineReport run_shared_baseline(
    const core::LbePlan& plan, const std::vector<chem::Spectrum>& queries,
    const DistributedParams& params);

}  // namespace lbe::search
