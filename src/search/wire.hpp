// Wire codecs for search jobs crossing a process boundary.
//
// Two consumers frame these payloads: the serving daemon (serve/protocol.hpp
// ships spectra inside "LBES" search requests) and the multi-process rank
// transport (simmpi/process.hpp ships a whole SearchSetup to every worker
// and gets RankStats back). Keeping the codecs here — not duplicated per
// consumer — is what guarantees a spectrum serialized by the daemon and one
// serialized for a rank worker are the same bytes.
//
// All decoders are defensive: a malformed payload throws CommError (via
// ByteReader underrun checks plus explicit shape checks), never UB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chem/modification.hpp"
#include "chem/spectrum.hpp"
#include "index/slm_index.hpp"
#include "search/distributed.hpp"
#include "simmpi/bytes.hpp"

namespace lbe::search::wire {

/// Serializes one spectrum: scan id, precursor, title, parallel peak arrays.
void write_spectrum(mpi::ByteWriter& writer, const chem::Spectrum& spectrum);

/// Rebuilds a spectrum *without* finalize(): a finalized source spectrum
/// arrives already sorted and merged, and re-merging could fuse peaks that
/// only became 1e-6-close after the first merge — desyncing the receiver
/// from the sender's one-shot results. Unsorted (hand-crafted) input is
/// still safe: preprocessing sorts and drops non-finite peaks defensively.
chem::Spectrum read_spectrum(mpi::ByteReader& reader);

void write_modifications(mpi::ByteWriter& writer,
                         const chem::ModificationSet& mods);
/// Rebuilds the set via add() in serialized order, so ModIds — which index
/// entries encode — survive the hop.
chem::ModificationSet read_modifications(mpi::ByteReader& reader);

void write_index_params(mpi::ByteWriter& writer,
                        const index::IndexParams& params);
index::IndexParams read_index_params(mpi::ByteReader& reader);

/// Per-query observed work counters, field-by-field in declaration order.
/// Result batches carry one per query so the scheduling layer can refit the
/// Eq. 1 cost model against what actually ran.
void write_query_work(mpi::ByteWriter& writer, const index::QueryWork& work);
index::QueryWork read_query_work(mpi::ByteReader& reader);

void write_search_params(mpi::ByteWriter& writer, const SearchParams& params);
SearchParams read_search_params(mpi::ByteReader& reader);

/// Everything a worker rank needs to reproduce the master's search exactly:
/// where the shared bundle lives, the SIMD decode level to pin (so all
/// ranks take the same kernels), the full parameter set, and the query
/// spectra (standing in for the MS2 file on shared storage).
struct SearchSetup {
  std::string bundle_dir;
  std::string simd_level;  ///< "" = leave the worker's default dispatch
  chem::ModificationSet mods;
  index::IndexParams index_params;
  SearchParams search;
  std::uint32_t result_batch = 256;
  std::uint32_t threads_per_rank = 1;
  /// Scheduling policy the master runs; workers derive from it whether to
  /// build the per-index cost model.
  core::ScheduleParams schedule;
  std::vector<chem::Spectrum> queries;
};

mpi::Bytes encode_search_setup(const SearchSetup& setup);
SearchSetup decode_search_setup(const mpi::Bytes& payload);

/// Worker -> master (kStealRequestTag): "my queue is empty, give me work".
/// Carries the requester's progress so the master's ledger never depends on
/// message-arrival heuristics.
struct StealRequest {
  std::uint64_t batches_executed = 0;
};

mpi::Bytes encode_steal_request(const StealRequest& request);
StealRequest decode_steal_request(const mpi::Bytes& payload);

/// Master -> worker (kStealGrantTag): either one claimed batch — queries
/// [query_lo, query_hi) searched against rank `index_rank`'s partial index —
/// or `done`, releasing the worker to its stats send.
struct StealGrant {
  bool done = false;
  std::int32_t index_rank = -1;
  std::uint64_t query_lo = 0;
  std::uint64_t query_hi = 0;
};

mpi::Bytes encode_steal_grant(const StealGrant& grant);
StealGrant decode_steal_grant(const mpi::Bytes& payload);

/// Master -> victim (kStealTailTag): "batches >= new_tail of your own queue
/// have been granted to a thief — stop before them". The victim applies the
/// cut monotonically (min with what it already saw). Arrival may race the
/// victim past the cut; the master deduplicates result cells, so a lost
/// race costs one duplicated batch, never a wrong result.
struct StealTailCut {
  std::uint64_t new_tail = 0;
};

mpi::Bytes encode_steal_tail_cut(const StealTailCut& cut);
StealTailCut decode_steal_tail_cut(const mpi::Bytes& payload);

/// Per-rank phase/work accounting shipped to the master at the end of a
/// distributed search (kStatsTag), on every backend, so metrics and reports
/// are backend-independent.
struct RankStats {
  PhaseTimes times;
  index::QueryWork work;
  std::uint64_t index_bytes = 0;   ///< owned heap of the partial index
  std::uint64_t mapped_bytes = 0;  ///< its rank file's mapping (0 if built)
  std::uint64_t index_entries = 0;
  std::uint64_t batches_executed = 0;  ///< result batches this rank searched
  std::uint64_t batches_stolen = 0;    ///< of those, claimed from other ranks
};

mpi::Bytes encode_rank_stats(const RankStats& stats);
RankStats decode_rank_stats(const mpi::Bytes& payload);

}  // namespace lbe::search::wire
