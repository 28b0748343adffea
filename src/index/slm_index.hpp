// SLM-style shared-peak fragment-ion index.
//
// Build: every stored peptide is fragmented (b/y ions), each fragment m/z is
// quantized (see Binning), and a CSR structure maps bin -> postings (local
// peptide ids). Peptides are fed to the build in (precursor mass, id)
// order, so within a bin the postings already follow that order — the
// secondary sort the paper's Fig. 1 describes, which makes
// precursor-window scans over a bin contiguous. The index keeps that
// order (`ids_by_mass`, persisted since format v6). The build bit-packs
// the postings (index/posting_codec.hpp) before it returns, so a built
// index holds the same arrays a mapped rank file binds, and every span
// walk decodes its postings the same way.
//
// Query: the query's peak tolerance windows are swept into coalesced bin
// spans (each span = a run of consecutive bins covered by the same peaks).
// Two filtration paths then produce the same candidates:
//  - the span walk (`query`) walks every span's contiguous postings slice
//    once, bumping the epoch-stamped per-peptide scorecard by the span's
//    peak multiplicity; peptides reaching the shared-peak threshold become
//    candidate PSMs (cPSMs), and a finite precursor window filters them at
//    emit time;
//  - the precursor-first window path (`query_window`, finite windows only)
//    binary-searches the mass order for the precursor window, regenerates
//    each in-window peptide's fragment bins and merges them against the
//    spans — the classic OMSSA order. It adds the same span intensities in
//    the same ascending-bin order the walk does, so its candidates are
//    bit-identical to the walk's for any intensities.
// `plan_filtration` is the chooser: per query (and, in ChunkedIndex, per
// chunk) it compares the walk's span postings against the window path's
// estimated fragment bins weighted by kWindowBinCost, from exact counts
// (span postings from the bin offsets, in-window peptides from the binary
// search). An open window (ΔM = ∞) always walks. All mutable query state
// lives in a caller-owned QueryArena, so one index serves any number of
// threads concurrently.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "chem/spectrum.hpp"
#include "index/binning.hpp"
#include "index/peptide_store.hpp"
#include "index/posting_codec.hpp"
#include "index/query_arena.hpp"
#include "index/query_work.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::bin {
class MmapFile;
class ByteReader;
}  // namespace lbe::bin

namespace lbe::index {

struct IndexParams {
  double resolution = 0.01;     ///< Da per bin (paper: r = 0.01)
  /// Indexed m/z ceiling. 2000 Th covers the observable fragment range of
  /// typical ion-trap/Orbitrap MS2 scans; higher ceilings only grow the
  /// per-partition fixed cost (the bin-offset array).
  Mz max_fragment_mz = 2000.0;
  theospec::FragmentParams fragments;  ///< which ion series to index

  Binning binning() const { return Binning(resolution, max_fragment_mz); }
};

struct QueryParams {
  double fragment_tolerance = 0.05;   ///< ±Da around each query peak (ΔF)
  std::uint32_t shared_peak_min = 4;  ///< cPSM threshold (Shpeak)
  /// Precursor window ±Da; infinity = open search (paper: ΔM = ∞).
  double precursor_tolerance = std::numeric_limits<double>::infinity();
  /// Block-max pruning (format v5 bound metadata): under a finite
  /// precursor window, skip 128-posting blocks whose mass bounds lie
  /// wholly outside it. Exact: psms.tsv is byte-identical either way,
  /// because skipped postings belong only to peptides the emit-time
  /// precursor filter would drop, and the walk order of surviving
  /// postings is unchanged. A no-op for an open window.
  bool prune_blocks = true;

  bool open_search() const {
    return !(precursor_tolerance <
             std::numeric_limits<double>::infinity());
  }
};

/// Per-128-posting-block bound metadata (format v5), aligned 1:1 with the
/// v4 codec's block directory. `mass_lo`/`mass_hi` bound the precursor
/// masses of the block's peptides (conservatively rounded outward to
/// float); the mass-pruning walk tests them. `max_frags` bounds the number
/// of postings any single peptide of the block has in this index; it is
/// validated on load but no walk reads it.
struct BlockBound {
  float mass_lo = 0.0f;
  float mass_hi = 0.0f;
  std::uint32_t max_frags = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(BlockBound) == 16, "BlockBound is an on-disk format");

/// One candidate produced by filtration. Matched query-peak intensity is
/// accumulated during the scorecard pass (as MSFragger/SLM do), so ranking
/// candidates costs O(1) each — no fragment regeneration — and total query
/// work stays conserved when the index is partitioned over ranks.
struct Candidate {
  LocalPeptideId peptide;
  std::uint32_t shared_peaks;
  float matched_intensity;
};

/// The chooser's inputs and verdict for one query against one index.
struct FiltrationPlan {
  /// Positions [window_begin, window_end) of ids_by_mass() whose mass may
  /// lie in the precursor window (a superset, widened by a few ulps; the
  /// exact predicate runs per peptide). Empty for an open window.
  std::uint32_t window_begin = 0;
  std::uint32_t window_end = 0;
  /// Estimated fragment bins the window path would check: in-window
  /// peptides times the index's mean in-range fragments per peptide.
  double window_bins = 0.0;
  /// Postings the span walk would walk: sum of the spans' bin slices.
  std::uint64_t span_postings = 0;
  /// True when the window path is the cheaper one (never for open search).
  bool use_window = false;

  /// The chosen path's cost in filtration units (QueryWork::
  /// filtration_units terms), the Eq. 1 prediction for this index.
  double cost() const {
    return use_window ? kWindowBinCost * window_bins
                      : static_cast<double>(span_postings);
  }
};

class SlmIndex {
 public:
  /// Builds over all entries of `store` (which must outlive the index).
  SlmIndex(const PeptideStore& store, const chem::ModificationSet& mods,
           const IndexParams& params);

  /// Builds over a subset of store ids (used by ChunkedIndex); postings keep
  /// store-wide local ids so results stay comparable across chunks.
  SlmIndex(const PeptideStore& store, const chem::ModificationSet& mods,
           const IndexParams& params,
           std::span<const LocalPeptideId> subset);

  // The hot arrays are spans that bind either to the owned vectors (built)
  // or to a mapped rank file. Moves are safe — a moved std::vector keeps
  // its heap buffer, so the spans stay valid — but a copy would leave the
  // new spans pointing into the source, so copying is disallowed (the
  // index is shared by reference everywhere it matters).
  SlmIndex(const SlmIndex&) = delete;
  SlmIndex& operator=(const SlmIndex&) = delete;
  SlmIndex(SlmIndex&&) noexcept = default;
  SlmIndex& operator=(SlmIndex&&) noexcept = default;

  const PeptideStore& store() const noexcept { return *store_; }
  const IndexParams& params() const noexcept { return params_; }
  std::size_t num_peptides() const noexcept { return store_->size(); }
  std::uint64_t num_postings() const noexcept { return posting_count_; }

  /// Packed-stream footprint of the postings (block directory included) —
  /// the numerator of the index_io suite's bytes_per_posting metric.
  std::uint64_t packed_posting_bytes() const noexcept {
    return packed_.size() + blocks_.size() * sizeof(codec::BlockMeta);
  }

  /// Shared-peak filtration of one query spectrum. Appends candidates with
  /// shared_peaks >= params.shared_peak_min (and, unless open search, with
  /// precursor mass within tolerance of the query's). Thread-safe: all
  /// mutable state lives in `arena` (one per thread).
  void query(const chem::Spectrum& spectrum, const QueryParams& params,
             std::vector<Candidate>& out, QueryWork& work,
             QueryArena& arena) const;

  /// Convenience overload using an internal arena. NOT thread-safe; the
  /// hot paths (QueryEngine, benches) pass an explicit arena instead.
  void query(const chem::Spectrum& spectrum, const QueryParams& params,
             std::vector<Candidate>& out, QueryWork& work) const;

  /// Precursor-first filtration of one query (finite precursor window
  /// only): emits exactly the candidates `query` emits — same peptides,
  /// shared-peak counts and bit-identical matched intensities — in mass
  /// order instead of threshold-crossing order. Thread-safe like `query`.
  void query_window(const chem::Spectrum& spectrum, const QueryParams& params,
                    std::vector<Candidate>& out, QueryWork& work,
                    QueryArena& arena) const;

  /// The chooser: locates the precursor window in the mass order and
  /// weighs the window path against the span walk over `spans` (the
  /// query's coalesced spans, e.g. arena.spans after a span build).
  FiltrationPlan plan_filtration(Mass query_mass, double precursor_tolerance,
                                 std::span<const BinSpan> spans) const;

  /// The ids this index was built over, ascending by (precursor mass, id).
  std::span<const LocalPeptideId> ids_by_mass() const noexcept {
    return order_;
  }

  /// The pre-batching filtration walk (one pass per peak per bin), kept as
  /// the equivalence oracle for the batched path and as the baseline the
  /// micro_kernels filtration speedup is measured against. Candidate order
  /// may differ from `query` (threshold-crossing order is walk-dependent).
  /// The (peptide, shared_peaks) multisets are always identical;
  /// matched_intensity is bit-identical whenever the accumulated values
  /// are exact in float (e.g. integer intensities, as the equivalence
  /// tests pin) and may differ in the last ulp otherwise — the two walks
  /// associate the same float sums differently.
  void query_reference(const chem::Spectrum& spectrum,
                       const QueryParams& params, std::vector<Candidate>& out,
                       QueryWork& work, QueryArena& arena) const;

  /// Exact heap bytes: offsets, block directory, packed postings, block
  /// bounds and mass order (+ the lazily-grown internal arena, when the
  /// convenience overload has been used).
  std::uint64_t memory_bytes() const noexcept;

  /// Postings-per-bin histogram feeding the load-prediction model.
  std::vector<std::uint32_t> bin_occupancy() const;

  /// Per-block bound metadata (one record per 128-posting block, v5).
  /// Non-empty for built and mapped indexes alike.
  std::span<const BlockBound> block_bounds() const noexcept {
    return bounds_;
  }

 private:
  // ChunkedIndex drives query_impl directly so one span build serves every
  // chunk (chunks share IndexParams, hence binning; spans depend only on
  // the spectrum, the tolerance and the binning), and it owns the on-disk
  // form: each chunk is one arrays payload inside a rank file.
  friend class ChunkedIndex;

  SlmIndex(const PeptideStore& store, const chem::ModificationSet& mods,
           const IndexParams& params, std::nullptr_t /*load tag*/);

  /// Points the spans at the owned storage vectors.
  void bind_owned() noexcept;

  // Raw transformed-array payload (format v6, no framing): what
  // ChunkedIndex writes per chunk and records, with its CRC, in the chunk
  // directory. Layout, starting 8-aligned:
  //   [bin_offset_count u64][posting_count u64]
  //   [block_count u64][packed_byte_count u64]
  //   bin_offsets u32[],             zero-padded to 8
  //   blocks      codec::BlockMeta[] (16 B each, inherently 8-aligned)
  //   packed posting stream bytes,   zero-padded to 8
  //   bounds      BlockBound[block_count] (16 B each, v5)
  //   [order_count u64]
  //   order       LocalPeptideId[order_count], zero-padded to 8 (v6)
  // Size and CRC are computable without materializing the payload, so the
  // chunk directory — which precedes the payloads — can be written first.
  std::uint64_t arrays_payload_size() const;
  std::uint32_t arrays_payload_crc() const;
  void write_arrays_payload(std::ostream& out) const;

  /// Postings [begin, end) as a contiguous u32 slice: the covering packed
  /// blocks decoded into arena.decoded (slice pointer adjusted to
  /// `begin`). The slice is valid until the next call with the same arena.
  const std::uint32_t* posting_slice(std::uint32_t begin, std::uint32_t end,
                                     QueryArena& arena) const;

  /// Parses one arrays payload from `payload` (positioned at its start,
  /// 8-aligned phase) inside the mapping `keepalive` owns, validates its
  /// structure and binds the spans in place (zero copy).
  /// Throws IoError on corrupt input.
  static SlmIndex parse_arrays_payload(
      bin::ByteReader& payload, const PeptideStore& store,
      const chem::ModificationSet& mods, const IndexParams& params,
      std::shared_ptr<const bin::MmapFile> keepalive);

  /// `query` with span reuse: when `rebuild_spans` is false the walk runs
  /// over arena.spans as-is (they must stem from this spectrum/params and
  /// an identically-binned index).
  void query_impl(const chem::Spectrum& spectrum, const QueryParams& params,
                  std::vector<Candidate>& out, QueryWork& work,
                  QueryArena& arena, bool rebuild_spans) const;

  /// Fills bounds_storage_ from the freshly built raw postings (one pass
  /// over them plus a per-peptide fragment-count tally).
  void compute_block_bounds(std::span<const LocalPeptideId> postings);

  /// Peak windows -> coalesced spans, in arena scratch.
  void build_spans(const chem::Spectrum& spectrum, const QueryParams& params,
                   QueryWork& work, QueryArena& arena) const;

  /// The window path over a planned mass-order range, matching against
  /// arena.spans as they stand.
  void window_impl(const chem::Spectrum& spectrum, const QueryParams& params,
                   const FiltrationPlan& plan, std::vector<Candidate>& out,
                   QueryWork& work, QueryArena& arena) const;

  /// In-range fragment bins of `id`, ascending, into `bins` — the one
  /// fragmenter both build passes and the window path use.
  void fragment_bins(LocalPeptideId id, theospec::FragmentScratch& scratch,
                     std::vector<MzBin>& bins) const;

  void emit_candidates(const chem::Spectrum& spectrum,
                       const QueryParams& params, std::vector<Candidate>& out,
                       QueryWork& work, QueryArena& arena) const;

  const PeptideStore* store_;
  const chem::ModificationSet* mods_;
  IndexParams params_;
  Binning binning_;

  // 32-bit offsets mirror the paper's §III-D observation that plain int
  // indexing caps one partition at ~2 billion ions; a partition that would
  // overflow must be split (ChunkedIndex / more ranks). Checked at build.
  // The spans are the access path; they bind to the storage vectors below
  // (cold path) or straight into a mapped rank file (warm path).
  std::span<const std::uint32_t> bin_offsets_;  ///< size num_bins+1
  std::vector<std::uint32_t> bin_offsets_storage_;
  std::shared_ptr<const bin::MmapFile> keepalive_;

  // Bit-packed posting blocks (format v4, index/posting_codec.hpp): the
  // only posting source. The build encodes them; a warm start binds them
  // in the mapping. The span walk decodes through posting_slice, and
  // posting_count_ carries the total.
  std::span<const codec::BlockMeta> blocks_;
  std::span<const std::byte> packed_;
  std::vector<codec::BlockMeta> blocks_storage_;
  std::vector<std::byte> packed_storage_;

  // Per-block bound metadata (v5). Computed at build; a mapped chunk
  // validates the on-disk records and binds the span in place.
  std::span<const BlockBound> bounds_;
  std::vector<BlockBound> bounds_storage_;
  // The built-over ids in (mass, id) order (v6); mapped loads bind in place.
  std::span<const LocalPeptideId> order_;
  std::vector<LocalPeptideId> order_storage_;
  std::uint64_t posting_count_ = 0;

  // Backs the no-arena convenience overload only (mutable: query is
  // logically const). Untouched by the arena-passing hot paths.
  mutable QueryArena internal_arena_;
};

}  // namespace lbe::index
