// Internal index partitioning — the shared-memory chunking scheme of Fig. 1.
//
// Peptides are sorted by precursor mass and split into chunks of bounded
// size; each chunk owns an SlmIndex over its id range. A narrow-window
// search touches only the chunks whose mass range intersects the query's
// precursor window; an open search (ΔM = ∞) processes every chunk, which is
// the regime the paper's distributed experiments run in.
//
// This is also the paper's §IV escape hatch for the "2 billion ions" limit:
// no chunk's posting array outgrows practical array indexing.
//
// A rank file has one reader: `map_file` mmaps it, validates only the
// metadata (params, store columns, chunk directory) and *lazily*
// materializes a chunk — CRC check, structural validation and in-place
// span binding, no copy — the first time a query window intersects it. A
// narrow-window search over a mapped index therefore reaches its first
// query without reading most of the file, and peak RSS scales with the
// chunks actually visited. `materialize_all` front-loads that work when a
// caller must know every byte is sound before it goes on (prepare's
// self-check). Materialization is thread-safe (the engine fans queries
// over one index from many threads).
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/slm_index.hpp"

namespace lbe::bin {
class MmapFile;
class ByteReader;
}  // namespace lbe::bin

namespace lbe::index {

struct ChunkingParams {
  /// Max peptide entries per chunk; 0 = single chunk (paper §V-A disables
  /// internal partitioning in the distributed experiments).
  std::size_t max_chunk_entries = 0;
};

class ChunkedIndex {
 public:
  /// Takes ownership of `store`. `mods` must outlive the index.
  ChunkedIndex(PeptideStore store, const chem::ModificationSet& mods,
               const IndexParams& index_params,
               const ChunkingParams& chunking);

  // Chunk indexes hold pointers into `store_`, so the object must not move.
  ChunkedIndex(const ChunkedIndex&) = delete;
  ChunkedIndex& operator=(const ChunkedIndex&) = delete;

  const PeptideStore& store() const noexcept { return store_; }
  std::size_t num_chunks() const noexcept { return chunks_.size(); }
  std::size_t num_peptides() const noexcept { return store_.size(); }
  /// Forces materialization of every chunk on a mapped index.
  std::uint64_t num_postings() const;

  /// True when backed by a mapped file with lazily materialized chunks.
  bool mapped() const noexcept { return mapping_ != nullptr; }

  /// Size of the rank file behind a mapped index (0 for a built one): the
  /// page-cache footprint its arrays live in, which memory_bytes excludes.
  std::uint64_t mapped_bytes() const noexcept;

  /// Chunks whose arrays are validated and bound (always num_chunks() when
  /// built).
  std::size_t num_chunks_loaded() const noexcept;

  /// Materializes every chunk of a mapped index now — CRC, structural
  /// validation and binding of every payload byte — instead of on first
  /// query touch, then releases the file's pages from the resident set
  /// (they fault back in from the page cache on touch), so a verified
  /// index costs no more memory than a lazily mapped one. IoError on the
  /// first corrupt chunk. A no-op when built.
  void materialize_all() const;

  /// Mass range [lo, hi] covered by chunk `c`.
  std::pair<Mass, Mass> chunk_mass_range(std::size_t c) const;

  /// Number of chunks a query with this precursor window would touch.
  std::size_t chunks_for_window(Mass query_mass, double tolerance) const;

  /// Runs shared-peak filtration, routing to intersecting chunks only;
  /// each routed chunk takes the span walk or the precursor-first window
  /// path, whichever its FiltrationPlan finds cheaper (never the window
  /// path for an open window). Thread-safe: all mutable query state lives
  /// in `arena` (one per thread). Chunks own disjoint peptide-id subsets, so one arena serves
  /// every chunk — each chunk's query opens a fresh scorecard epoch and
  /// emits its candidates before the next chunk runs. On a mapped index
  /// the first query into a chunk validates and binds it (IoError on
  /// corruption — never a silently wrong result).
  void query(const chem::Spectrum& spectrum, const QueryParams& params,
             std::vector<Candidate>& out, QueryWork& work,
             QueryArena& arena) const;

  /// Convenience overload using an internal arena. NOT thread-safe.
  void query(const chem::Spectrum& spectrum, const QueryParams& params,
             std::vector<Candidate>& out, QueryWork& work) const;

  /// Filtration cost of one query whose coalesced bin spans are `spans`:
  /// summed over the chunks the precursor window routes to, the cost of
  /// the path `query` picks for that chunk (FiltrationPlan::cost). The
  /// Eq. 1 load model's per-query prediction. Materializes routed chunks
  /// on a mapped index.
  double filtration_cost(std::span<const BinSpan> spans, Mass query_mass,
                         double tolerance) const;

  /// Heap bytes of every *resident* chunk index plus the peptide store. A
  /// built chunk owns its packed arrays; a mapped chunk's live in the page
  /// cache (see mapped_bytes), so it costs no array heap.
  std::uint64_t memory_bytes() const noexcept;

  /// Packed-stream footprint of every chunk's postings, block directories
  /// included (the numerator of the index_io suite's bytes_per_posting
  /// metric). Forces materialization on a mapped index.
  std::uint64_t packed_posting_bytes() const;

  /// Postings per m/z bin summed over chunks (chunks share one binning).
  /// Feeds the load-prediction model (search/load_model.hpp). 64-bit:
  /// per-chunk counts are u32 by construction, but a large multi-chunk
  /// database can overflow 32 bits once summed. Forces materialization.
  std::vector<std::uint64_t> bin_occupancy() const;

  /// bin_occupancy() prefix-summed (size bins+1), cached after the first
  /// call — the cost model's O(1)-per-span lookup table. Under work
  /// stealing a thief building a cost model against a victim's shared
  /// index reuses the owner's build-phase computation instead of
  /// re-walking every chunk mid-query-phase. Thread-safe; forces
  /// materialization on a mapped index (on the first call only).
  const std::vector<std::uint64_t>& occupancy_prefix() const;

  const IndexParams& index_params() const noexcept { return index_params_; }

  /// On-disk format (the paper's §II-B disk-resident chunks): store columns
  /// plus a chunk directory (mass range, file extent, CRC per chunk)
  /// followed by the chunks' raw aligned array payloads, all in the
  /// versioned container of index/serialize.hpp. `map_file` revives the
  /// index out of an mmap without re-fragmenting anything. The caller must
  /// supply the same ModificationSet and IndexParams used at build;
  /// corrupt or mismatched metadata raises IoError at map time, corruption
  /// inside a chunk payload at first touch (or materialize_all).
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  static std::unique_ptr<ChunkedIndex> map_file(
      const std::string& path, const chem::ModificationSet& mods,
      const IndexParams& index_params);

 private:
  struct Chunk {
    /// Owned arrays; null for a mapped chunk not yet materialized (then
    /// guarded by materialize_mutex_ / published through live_).
    mutable std::unique_ptr<SlmIndex> index;
    Mass mass_lo = 0.0;
    Mass mass_hi = 0.0;
    // File extent of the chunk's arrays payload (mapped indexes only),
    // recorded from the chunk directory validated at map time.
    std::uint64_t extent_offset = 0;
    std::uint64_t extent_size = 0;
    std::uint32_t extent_crc = 0;
  };

  /// map_file's constructor: adopts the store without building chunks.
  ChunkedIndex(PeptideStore store, const chem::ModificationSet& mods,
               const IndexParams& index_params, std::nullptr_t);

  /// True when a query at `query_mass` with this precursor window must
  /// visit chunk `c` (always, for an open window).
  bool routed(std::size_t c, Mass query_mass, double tolerance) const;

  /// Marks every chunk resident (cold build).
  void publish_all_chunks() noexcept;

  /// Resident chunk accessor; materializes a mapped chunk on first touch
  /// (lock-free fast path, single mutex for the rare slow path).
  const SlmIndex& chunk_index(std::size_t c) const;
  const SlmIndex& materialize_chunk(std::size_t c) const;

  PeptideStore store_;
  const chem::ModificationSet* mods_;
  IndexParams index_params_;
  std::vector<Chunk> chunks_;
  /// Parallel to chunks_: the published (validated, bound) index of each
  /// chunk, or null while a mapped chunk is still cold.
  mutable std::vector<std::atomic<const SlmIndex*>> live_;
  mutable std::mutex materialize_mutex_;
  mutable std::once_flag occupancy_once_;
  mutable std::vector<std::uint64_t> occupancy_prefix_;
  std::shared_ptr<const bin::MmapFile> mapping_;
  // Backs the no-arena convenience overload only (shared across chunks so
  // a chunked index pays for one scorecard, not one per chunk).
  mutable QueryArena internal_arena_;
};

}  // namespace lbe::index
