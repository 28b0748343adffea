// Per-thread filtration arena.
//
// All mutable per-query state of shared-peak filtration lives here rather
// than inside the index: the epoch-stamped scorecard over store-wide local
// peptide ids, the threshold-crossing list, the coalesced bin-span scratch
// of the batched query walk, and the engine's candidate buffer. Hoisting it
// out of SlmIndex makes `query` genuinely const — one index can serve any
// number of threads as long as each thread brings its own arena — and keeps
// the per-query allocation count at zero once the arena is warm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/binning.hpp"
#include "index/peptide_store.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::index {

struct Candidate;

/// One maximal run of consecutive bins covered by the same set of query
/// peaks. `multiplicity` peaks cover every bin in [lo, hi); their summed
/// intensity is `intensity`. Because bins in a span are consecutive, their
/// postings are one contiguous slice of the CSR array — the batched query
/// walks that slice once instead of once per covering peak.
struct BinSpan {
  MzBin lo = 0;
  MzBin hi = 0;  ///< exclusive
  std::uint32_t multiplicity = 0;
  float intensity = 0.0f;
};

class QueryArena {
 public:
  /// Interleaved scorecard slot: one cache touch per posting instead of
  /// three parallel arrays (the pre-refactor layout, which the reference
  /// walk below retains for honest before/after comparison). An entry is
  /// live only when its stamp matches the arena epoch, so nothing is
  /// cleared between queries.
  struct Slot {
    std::uint32_t stamp = 0;
    std::uint32_t count = 0;
    float intensity = 0.0f;
    std::uint32_t pad = 0;  ///< 16-byte stride: shift, not imul, to index
  };

  /// Resizes the scorecard for a store of `num_peptides` entries (ids are
  /// store-wide, so one arena serves every chunk of a ChunkedIndex) and
  /// starts a new epoch. Called by the index at the top of each query.
  void begin_query(std::size_t num_peptides) {
    if (slots_.size() != num_peptides) {
      slots_.assign(num_peptides, Slot{});
      ref_stamp_.clear();
      ref_count_.clear();
      ref_intensity_.clear();
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // 32-bit wrap: restamp and continue
      for (Slot& slot : slots_) slot.stamp = 0;
      std::fill(ref_stamp_.begin(), ref_stamp_.end(), 0);
      epoch_ = 1;
    }
    reached.clear();
  }

  /// Lazily sizes the pre-refactor three-array scorecard (query_reference
  /// only). Call after begin_query.
  void ensure_reference() {
    if (ref_stamp_.size() != slots_.size()) {
      ref_stamp_.assign(slots_.size(), 0);
      ref_count_.assign(slots_.size(), 0);
      ref_intensity_.assign(slots_.size(), 0.0f);
    }
  }

  std::uint32_t epoch() const noexcept { return epoch_; }

  Slot& slot(LocalPeptideId pep) { return slots_[pep]; }
  Slot* slots_data() noexcept { return slots_.data(); }

  // Pre-refactor scorecard accessors (reference walk only).
  bool ref_stamped(LocalPeptideId pep) const {
    return ref_stamp_[pep] == epoch_;
  }
  void ref_stamp(LocalPeptideId pep) {
    ref_stamp_[pep] = epoch_;
    ref_count_[pep] = 0;
    ref_intensity_[pep] = 0.0f;
  }
  std::uint16_t& ref_count(LocalPeptideId pep) { return ref_count_[pep]; }
  float& ref_intensity(LocalPeptideId pep) { return ref_intensity_[pep]; }

  /// Heap bytes currently held (scorecards + scratch capacities).
  std::uint64_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           ref_stamp_.capacity() * sizeof(std::uint32_t) +
           ref_count_.capacity() * sizeof(std::uint16_t) +
           ref_intensity_.capacity() * sizeof(float) +
           reached.capacity() * sizeof(LocalPeptideId) +
           spans.capacity() * sizeof(BinSpan) +
           windows.capacity() * sizeof(Window) +
           decoded.capacity() * sizeof(std::uint32_t) +
           (fragments.prefix.capacity() + fragments.mzs.capacity() +
            fragments.merge.capacity()) * sizeof(double) +
           fragment_bins.capacity() * sizeof(MzBin);
  }

  /// Peptides that crossed the shared-peak threshold this query.
  std::vector<LocalPeptideId> reached;

  /// Batched-walk scratch: per-peak tolerance windows and the coalesced
  /// spans they sweep into. Rebuilt per query, capacity retained. Windows
  /// are naturally sorted (spectra are m/z-sorted and the tolerance width
  /// is constant), so the sweep is a linear two-pointer merge — no sort.
  struct Window {
    MzBin open = 0;   ///< first covered bin
    MzBin close = 0;  ///< one past the last covered bin
    float intensity = 0.0f;
  };
  std::vector<Window> windows;
  std::vector<BinSpan> spans;

  /// Span-decode scratch: the covering packed posting blocks of one span,
  /// unpacked (index/posting_codec.hpp). Sized in whole 128-value blocks;
  /// grows to the largest span seen and stays allocated, so steady-state
  /// decode allocates nothing.
  std::vector<std::uint32_t> decoded;

  /// Window-path scratch: one in-window peptide's fragments and their
  /// in-range bins, ascending (SlmIndex::fragment_bins).
  theospec::FragmentScratch fragments;
  std::vector<MzBin> fragment_bins;

  /// Candidate buffer reused by QueryEngine between queries.
  std::vector<Candidate> candidates;

 private:
  std::vector<Slot> slots_;
  // Pre-refactor layout: three parallel arrays, lazily allocated the first
  // time query_reference runs (tests and the micro speedup gate).
  std::vector<std::uint32_t> ref_stamp_;
  std::vector<std::uint16_t> ref_count_;
  std::vector<float> ref_intensity_;
  std::uint32_t epoch_ = 0;
};

}  // namespace lbe::index
