#include "index/slm_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ostream>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/mmap_file.hpp"
#include "index/serialize.hpp"

namespace lbe::index {

SlmIndex::SlmIndex(const PeptideStore& store,
                   const chem::ModificationSet& mods,
                   const IndexParams& params)
    : SlmIndex(store, mods, params, std::span<const LocalPeptideId>{}) {}

SlmIndex::SlmIndex(const PeptideStore& store,
                   const chem::ModificationSet& mods,
                   const IndexParams& params,
                   std::span<const LocalPeptideId> subset)
    : store_(&store), mods_(&mods), params_(params),
      binning_(params.binning()) {
  // The id list in (mass, id) order: empty subset means "all". ChunkedIndex
  // passes slices of ids_by_mass(), which are already in order.
  const auto mass_order = [&store](LocalPeptideId a, LocalPeptideId b) {
    const Mass ma = store.mass(a);
    const Mass mb = store.mass(b);
    if (ma != mb) return ma < mb;
    return a < b;
  };
  if (subset.empty()) {
    order_storage_ = store.ids_by_mass();
  } else {
    order_storage_.assign(subset.begin(), subset.end());
    for (const LocalPeptideId id : order_storage_) {
      LBE_CHECK(id < store.size(), "subset id out of range");
    }
    if (!std::is_sorted(order_storage_.begin(), order_storage_.end(),
                        mass_order)) {
      std::sort(order_storage_.begin(), order_storage_.end(), mass_order);
    }
    LBE_CHECK(std::adjacent_find(order_storage_.begin(),
                                 order_storage_.end()) == order_storage_.end(),
              "duplicate subset id");
  }

  // Pass 1: count postings per bin. (bin, id) pairs are never materialized;
  // two passes over the fragment generator trade CPU for peak memory, which
  // is the SLM-Transform design point (the paper's §V-B temporary-footprint
  // discussion is about engines that do materialize).
  const MzBin num_bins = binning_.num_bins();
  std::vector<std::uint64_t> counts(num_bins, 0);
  theospec::FragmentScratch scratch;
  std::vector<MzBin> bins;
  for (const LocalPeptideId id : order_storage_) {
    fragment_bins(id, scratch, bins);
    for (const MzBin bin : bins) ++counts[bin];
  }

  std::uint64_t running = 0;
  for (MzBin b = 0; b < num_bins; ++b) running += counts[b];
  LBE_CHECK(running < 0xFFFFFFFFull,
            "partition exceeds the 32-bit ion-index limit (paper §III-D): "
            "split the data over more ranks or enable chunking");

  bin_offsets_storage_.assign(num_bins + 1, 0);
  std::uint32_t offset = 0;
  for (MzBin b = 0; b < num_bins; ++b) {
    bin_offsets_storage_[b] = offset;
    offset += static_cast<std::uint32_t>(counts[b]);
  }
  bin_offsets_storage_[num_bins] = offset;

  // Pass 2: fill postings via per-bin write cursors. Ids arrive in (mass,
  // id) order, so every bin fills in the Fig. 1 secondary order directly.
  // The raw array lives only until the bounds and the packed blocks are
  // derived from it.
  std::vector<LocalPeptideId> postings(offset, 0);
  std::vector<std::uint32_t> cursor(bin_offsets_storage_.begin(),
                                    bin_offsets_storage_.end() - 1);
  for (const LocalPeptideId id : order_storage_) {
    fragment_bins(id, scratch, bins);
    for (const MzBin bin : bins) postings[cursor[bin]++] = id;
  }
  compute_block_bounds(postings);
  codec::encode(postings, blocks_storage_, packed_storage_);
  posting_count_ = postings.size();
  bind_owned();
}

void SlmIndex::fragment_bins(LocalPeptideId id,
                             theospec::FragmentScratch& scratch,
                             std::vector<MzBin>& bins) const {
  const PeptideView view = store_->view(id);
  theospec::fragment_mzs(view.sequence,
                         std::span(view.sites, view.site_count), *mods_,
                         params_.fragments, scratch);
  bins.clear();
  for (const Mz mz : scratch.mzs) {
    if (binning_.in_range(mz)) bins.push_back(binning_.bin(mz));
  }
}

void SlmIndex::bind_owned() noexcept {
  bin_offsets_ = bin_offsets_storage_;
  blocks_ = blocks_storage_;
  packed_ = packed_storage_;
  bounds_ = bounds_storage_;
  order_ = order_storage_;
}

void SlmIndex::compute_block_bounds(
    std::span<const LocalPeptideId> postings) {
  const std::size_t n = postings.size();
  bounds_storage_.assign((n + codec::kBlockValues - 1) / codec::kBlockValues,
                         BlockBound{});
  if (n == 0) return;
  // Per-peptide posting count in THIS index: the cap on how many scorecard
  // touches one peptide can receive in a single walk, since spans are
  // disjoint bin ranges and each posting lies in at most one of them.
  std::vector<std::uint32_t> nfrags(store_->size(), 0);
  for (const LocalPeptideId id : postings) ++nfrags[id];
  for (std::size_t b = 0; b < bounds_storage_.size(); ++b) {
    const std::size_t begin = b * codec::kBlockValues;
    const std::size_t end = std::min(n, begin + codec::kBlockValues);
    Mass lo = store_->mass(postings[begin]);
    Mass hi = lo;
    std::uint32_t frags = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const LocalPeptideId id = postings[i];
      const Mass mass = store_->mass(id);
      lo = std::min(lo, mass);
      hi = std::max(hi, mass);
      frags = std::max(frags, nfrags[id]);
    }
    BlockBound& bound = bounds_storage_[b];
    // Round outward so the float bounds cover the double masses.
    bound.mass_lo = static_cast<float>(lo);
    if (static_cast<double>(bound.mass_lo) > lo) {
      bound.mass_lo = std::nextafter(
          bound.mass_lo, -std::numeric_limits<float>::infinity());
    }
    bound.mass_hi = static_cast<float>(hi);
    if (static_cast<double>(bound.mass_hi) < hi) {
      bound.mass_hi = std::nextafter(
          bound.mass_hi, std::numeric_limits<float>::infinity());
    }
    bound.max_frags = frags;
  }
}

void SlmIndex::build_spans(const chem::Spectrum& spectrum,
                           const QueryParams& params, QueryWork& work,
                           QueryArena& arena) const {
  const MzBin tol_bins = binning_.tolerance_bins(params.fragment_tolerance);
  const MzBin last_bin = binning_.num_bins() - 1;

  // Per-peak tolerance windows. The close bin may be last_bin + 1 ==
  // num_bins, which is a valid sentinel index into bin_offsets_. Finalized
  // spectra arrive m/z-sorted and the window width is constant (modulo
  // edge clamping, which preserves order), so both the open and the close
  // sequences are already non-decreasing; an unfinalized caller is
  // detected below and pays one sort instead of getting wrong counts.
  arena.windows.clear();
  bool sorted = true;
  MzBin prev_open = 0;
  MzBin prev_close = 0;
  for (std::size_t peak = 0; peak < spectrum.size(); ++peak) {
    const Mz mz = spectrum.mz(peak);
    if (!binning_.in_range(mz)) continue;
    ++work.peaks_processed;
    const MzBin center = binning_.bin(mz);
    const MzBin lo = center > tol_bins ? center - tol_bins : 0;
    const MzBin hi = std::min<MzBin>(center + tol_bins, last_bin);
    // The sweep needs BOTH boundary sequences non-decreasing; opens alone
    // are not enough when several out-of-order peaks clamp their open to
    // bin 0 but keep distinct closes.
    sorted = sorted && lo >= prev_open && hi + 1 >= prev_close;
    prev_open = lo;
    prev_close = hi + 1;
    arena.windows.push_back(
        QueryArena::Window{lo, hi + 1, spectrum.intensity(peak)});
  }
  arena.spans.clear();
  if (arena.windows.empty()) return;
  if (!sorted) {
    // (open, close) order restores both sequences: for distinct opens the
    // closes follow (both monotone in the center bin; clamps preserve
    // order), and ties — e.g. several opens clamped to 0 — are broken by
    // close directly.
    std::sort(arena.windows.begin(), arena.windows.end(),
              [](const QueryArena::Window& a, const QueryArena::Window& b) {
                if (a.open != b.open) return a.open < b.open;
                return a.close < b.close;
              });
  }

  // Linear two-pointer sweep: merge the sorted open/close boundaries into
  // maximal runs of constant coverage. Intensity runs in double so a
  // peak's open/close contributions cancel exactly for any value that is
  // exact in float (e.g. integer-valued intensities).
  const std::size_t n = arena.windows.size();
  std::size_t oi = 0;  // next window to open
  std::size_t ci = 0;  // next window to close
  std::uint32_t multiplicity = 0;
  double intensity = 0.0;
  MzBin prev = arena.windows.front().open;
  while (ci < n) {
    const MzBin next_open =
        oi < n ? arena.windows[oi].open : std::numeric_limits<MzBin>::max();
    const MzBin next_close = arena.windows[ci].close;
    const MzBin boundary = std::min(next_open, next_close);
    if (multiplicity > 0 && boundary > prev) {
      arena.spans.push_back(BinSpan{prev, boundary, multiplicity,
                                    static_cast<float>(intensity)});
    }
    prev = boundary;
    while (oi < n && arena.windows[oi].open == boundary) {
      ++multiplicity;
      intensity += static_cast<double>(arena.windows[oi].intensity);
      ++oi;
    }
    while (ci < n && arena.windows[ci].close == boundary) {
      --multiplicity;
      intensity -= static_cast<double>(arena.windows[ci].intensity);
      ++ci;
    }
  }
}

void SlmIndex::emit_candidates(const chem::Spectrum& spectrum,
                               const QueryParams& params,
                               std::vector<Candidate>& out, QueryWork& work,
                               QueryArena& arena) const {
  const bool filter_precursor =
      params.precursor_tolerance < std::numeric_limits<double>::infinity();
  const Mass query_mass = spectrum.precursor.neutral_mass;
  for (const LocalPeptideId pep : arena.reached) {
    if (filter_precursor) {
      if (std::abs(store_->mass(pep) - query_mass) >
          params.precursor_tolerance) {
        continue;
      }
    }
    const QueryArena::Slot& slot = arena.slot(pep);
    out.push_back(Candidate{pep, slot.count, slot.intensity});
    ++work.candidates;
  }
}

void SlmIndex::query(const chem::Spectrum& spectrum,
                     const QueryParams& params, std::vector<Candidate>& out,
                     QueryWork& work, QueryArena& arena) const {
  query_impl(spectrum, params, out, work, arena, /*rebuild_spans=*/true);
}

void SlmIndex::query_impl(const chem::Spectrum& spectrum,
                          const QueryParams& params,
                          std::vector<Candidate>& out, QueryWork& work,
                          QueryArena& arena, bool rebuild_spans) const {
  arena.begin_query(store_->size());
  if (rebuild_spans) build_spans(spectrum, params, work, arena);

  const std::uint32_t threshold = std::max<std::uint32_t>(
      1, params.shared_peak_min);
  const std::uint32_t epoch = arena.epoch();
  QueryArena::Slot* __restrict slots = arena.slots_data();

  // Block-max pruning (v5 bounds), exact w.r.t. psms.tsv: a mass-disjoint
  // block holds only peptides the emit-time precursor filter drops, so no
  // surviving peptide loses a touch, and surviving postings are walked in
  // the identical order, so accumulation is bit-identical.
  const bool mass_prune =
      params.prune_blocks && !bounds_.empty() && !params.open_search();
  const Mass query_mass = spectrum.precursor.neutral_mass;
  const double window_lo = query_mass - params.precursor_tolerance;
  const double window_hi = query_mass + params.precursor_tolerance;

  for (const BinSpan& span : arena.spans) {
    const std::uint32_t begin = bin_offsets_[span.lo];
    const std::uint32_t end = bin_offsets_[span.hi];
    // Account as the per-peak walk would: a bin covered by k peaks counts
    // k visits and k× its postings, keeping cost_units() comparable —
    // but hoisted out of the posting loop instead of bumped per touch.
    work.bins_visited +=
        static_cast<std::uint64_t>(span.multiplicity) * (span.hi - span.lo);
    if (begin == end) continue;

    // Walks one contiguous slice of the span. Raw restrict pointers:
    // posting loads (from the slice's blocks decoded into arena scratch —
    // the scratch stays L1-hot, so the scorecard's cache misses still
    // dominate) cannot alias scorecard stores, so the compiler keeps loop
    // state in registers across slot writes.
    const auto walk = [&](std::uint32_t slice_begin,
                          std::uint32_t slice_end) {
      work.postings_touched += static_cast<std::uint64_t>(span.multiplicity) *
                               (slice_end - slice_begin);
      const std::uint32_t* __restrict postings =
          posting_slice(slice_begin, slice_end, arena);
      const std::uint32_t count = slice_end - slice_begin;
      if (span.multiplicity == 1) {
        // Non-overlapping windows (the common case at ΔF = 0.05 /
        // r = 0.01): identical per-posting arithmetic to the reference
        // walk, but one contiguous slice instead of a loop per bin and one
        // interleaved scorecard slot instead of three parallel arrays.
        for (std::uint32_t i = 0; i < count; ++i) {
          const LocalPeptideId pep = postings[i];
          QueryArena::Slot& slot = slots[pep];
          if (slot.stamp != epoch) {
            slot.stamp = epoch;
            slot.count = 0;
            slot.intensity = 0.0f;
          }
          slot.intensity += span.intensity;
          if (++slot.count == threshold) arena.reached.push_back(pep);
        }
        return;
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        const LocalPeptideId pep = postings[i];
        QueryArena::Slot& slot = slots[pep];
        if (slot.stamp != epoch) {
          slot.stamp = epoch;
          slot.count = 0;
          slot.intensity = 0.0f;
        }
        slot.intensity += span.intensity;
        const std::uint32_t before = slot.count;
        slot.count = before + span.multiplicity;
        if (before < threshold && slot.count >= threshold) {
          arena.reached.push_back(pep);
        }
      }
    };

    const std::uint32_t first_block = begin / codec::kBlockValues;
    const std::uint32_t last_block = (end - 1) / codec::kBlockValues;
    if (!mass_prune) {
      work.blocks_walked += last_block - first_block + 1;
      ++work.spans_walked;
      walk(begin, end);
      continue;
    }

    // Pruned walk: test each covering block's bound and walk maximal runs
    // of surviving blocks, so the decode granularity stays as coarse as
    // the unpruned path allows and survivors keep their walk order.
    std::uint32_t run_begin = begin;
    bool walked_any = false;
    for (std::uint32_t b = first_block; b <= last_block; ++b) {
      const auto seg_begin = static_cast<std::uint32_t>(std::max<std::uint64_t>(
          begin, std::uint64_t{b} * codec::kBlockValues));
      const auto seg_end = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          end, (std::uint64_t{b} + 1) * codec::kBlockValues));
      const BlockBound& bound = bounds_[b];
      // Every peptide in a mass-disjoint block fails the emit-time
      // precursor filter.
      if (static_cast<double>(bound.mass_hi) < window_lo ||
          static_cast<double>(bound.mass_lo) > window_hi) {
        ++work.blocks_pruned;
        if (run_begin < seg_begin) {
          walk(run_begin, seg_begin);
          walked_any = true;
        }
        run_begin = seg_end;
        continue;
      }
      ++work.blocks_walked;
    }
    if (run_begin < end) {
      walk(run_begin, end);
      walked_any = true;
    }
    if (walked_any) {
      ++work.spans_walked;
    } else {
      ++work.spans_pruned;
    }
  }
  emit_candidates(spectrum, params, out, work, arena);
}

void SlmIndex::query(const chem::Spectrum& spectrum,
                     const QueryParams& params, std::vector<Candidate>& out,
                     QueryWork& work) const {
  query(spectrum, params, out, work, internal_arena_);
}

FiltrationPlan SlmIndex::plan_filtration(Mass query_mass,
                                         double precursor_tolerance,
                                         std::span<const BinSpan> spans) const {
  FiltrationPlan plan;
  for (const BinSpan& span : spans) {
    plan.span_postings += bin_offsets_[span.hi] - bin_offsets_[span.lo];
  }
  if (!(precursor_tolerance < std::numeric_limits<double>::infinity()) ||
      order_.empty()) {
    return plan;
  }
  // Widen the bounds by a few ulps so rounding in `q ± tol` can only grow
  // the range; the window path applies the exact emit predicate
  // |mass - q| <= tol to every peptide in it.
  const double slack = (std::abs(query_mass) + precursor_tolerance) * 4.0 *
                       std::numeric_limits<double>::epsilon();
  const double lo = query_mass - precursor_tolerance - slack;
  const double hi = query_mass + precursor_tolerance + slack;
  const auto first = std::lower_bound(
      order_.begin(), order_.end(), lo,
      [this](LocalPeptideId id, double mass) { return store_->mass(id) < mass; });
  const auto last = std::upper_bound(
      first, order_.end(), hi,
      [this](double mass, LocalPeptideId id) { return mass < store_->mass(id); });
  plan.window_begin = static_cast<std::uint32_t>(first - order_.begin());
  plan.window_end = static_cast<std::uint32_t>(last - order_.begin());
  plan.window_bins = static_cast<double>(plan.window_end - plan.window_begin) *
                     static_cast<double>(posting_count_) /
                     static_cast<double>(order_.size());
  plan.use_window = kWindowBinCost * plan.window_bins <
                    static_cast<double>(plan.span_postings);
  return plan;
}

void SlmIndex::query_window(const chem::Spectrum& spectrum,
                            const QueryParams& params,
                            std::vector<Candidate>& out, QueryWork& work,
                            QueryArena& arena) const {
  LBE_CHECK(!params.open_search(), "the window path needs a finite window");
  build_spans(spectrum, params, work, arena);
  const FiltrationPlan plan = plan_filtration(
      spectrum.precursor.neutral_mass, params.precursor_tolerance, arena.spans);
  window_impl(spectrum, params, plan, out, work, arena);
}

void SlmIndex::window_impl(const chem::Spectrum& spectrum,
                           const QueryParams& params,
                           const FiltrationPlan& plan,
                           std::vector<Candidate>& out, QueryWork& work,
                           QueryArena& arena) const {
  const std::uint32_t threshold = std::max<std::uint32_t>(
      1, params.shared_peak_min);
  const Mass query_mass = spectrum.precursor.neutral_mass;
  const std::span<const BinSpan> spans = arena.spans;
  if (spans.empty()) return;
  // In-window ids are contiguous in the mass order but scattered over the
  // store's columns, so their reads are prefetched a few peptides ahead.
  constexpr std::uint32_t kAhead = 4;
  for (std::uint32_t i = plan.window_begin; i < plan.window_end; ++i) {
    if (i + 2 * kAhead < plan.window_end) {
      store_->prefetch_columns(order_[i + 2 * kAhead]);
    }
    if (i + kAhead < plan.window_end) {
      store_->prefetch_residues(order_[i + kAhead]);
    }
    const LocalPeptideId pep = order_[i];
    // The walk's emit-time precursor filter, verbatim.
    if (std::abs(store_->mass(pep) - query_mass) >
        params.precursor_tolerance) {
      continue;
    }
    fragment_bins(pep, arena.fragments, arena.fragment_bins);
    work.fragment_bins += arena.fragment_bins.size();
    // Two-pointer merge of the ascending bins against the ascending,
    // disjoint spans. Each bin inside a span is one posting the walk would
    // touch, and the walk visits a peptide's postings in ascending bin
    // order — so the float sum below adds the same terms in the same order.
    std::uint32_t count = 0;
    float intensity = 0.0f;
    std::size_t s = 0;
    for (const MzBin bin : arena.fragment_bins) {
      while (spans[s].hi <= bin) {
        if (++s == spans.size()) break;
      }
      if (s == spans.size()) break;
      if (bin >= spans[s].lo) {
        count += spans[s].multiplicity;
        intensity += spans[s].intensity;
      }
    }
    if (count >= threshold) {
      out.push_back(Candidate{pep, count, intensity});
      ++work.candidates;
    }
  }
}

void SlmIndex::query_reference(const chem::Spectrum& spectrum,
                               const QueryParams& params,
                               std::vector<Candidate>& out, QueryWork& work,
                               QueryArena& arena) const {
  arena.begin_query(store_->size());
  arena.ensure_reference();
  const auto threshold = static_cast<std::uint16_t>(
      std::max<std::uint32_t>(1, params.shared_peak_min));
  const MzBin tol_bins = binning_.tolerance_bins(params.fragment_tolerance);
  const MzBin last_bin = binning_.num_bins() - 1;

  // Faithful to the pre-refactor engine, including its freshly allocated
  // per-query crossing list (the arena only supplies the scorecard, which
  // the old engine kept inside the index).
  std::vector<LocalPeptideId> reached;
  for (std::size_t peak = 0; peak < spectrum.size(); ++peak) {
    const Mz mz = spectrum.mz(peak);
    if (!binning_.in_range(mz)) continue;
    ++work.peaks_processed;
    const float peak_intensity = spectrum.intensity(peak);
    const MzBin center = binning_.bin(mz);
    const MzBin lo = center > tol_bins ? center - tol_bins : 0;
    const MzBin hi = std::min<MzBin>(center + tol_bins, last_bin);
    for (MzBin b = lo; b <= hi; ++b) {
      ++work.bins_visited;
      const std::uint32_t begin = bin_offsets_[b];
      const std::uint32_t end = bin_offsets_[b + 1];
      // Per-bin decode (a packed block may be decoded once per covering
      // bin): wasteful on purpose — the reference walk optimizes for
      // being obviously faithful to the pre-batching engine, not speed.
      const std::uint32_t* postings = posting_slice(begin, end, arena);
      for (std::uint32_t i = 0; i < end - begin; ++i) {
        const LocalPeptideId pep = postings[i];
        ++work.postings_touched;
        if (!arena.ref_stamped(pep)) arena.ref_stamp(pep);
        arena.ref_intensity(pep) += peak_intensity;
        if (++arena.ref_count(pep) == threshold) reached.push_back(pep);
      }
    }
  }

  const bool filter_precursor =
      params.precursor_tolerance < std::numeric_limits<double>::infinity();
  const Mass query_mass = spectrum.precursor.neutral_mass;
  for (const LocalPeptideId pep : reached) {
    if (filter_precursor) {
      if (std::abs(store_->mass(pep) - query_mass) >
          params.precursor_tolerance) {
        continue;
      }
    }
    out.push_back(
        Candidate{pep, arena.ref_count(pep), arena.ref_intensity(pep)});
    ++work.candidates;
  }
}

std::uint64_t SlmIndex::memory_bytes() const noexcept {
  // Mapped indexes own no array heap: their bytes live in the page cache
  // and are charged to the file, not the process heap.
  return bin_offsets_storage_.capacity() * sizeof(std::uint32_t) +
         blocks_storage_.capacity() * sizeof(codec::BlockMeta) +
         bounds_storage_.capacity() * sizeof(BlockBound) +
         order_storage_.capacity() * sizeof(LocalPeptideId) +
         packed_storage_.capacity() + internal_arena_.memory_bytes();
}

const std::uint32_t* SlmIndex::posting_slice(std::uint32_t begin,
                                             std::uint32_t end,
                                             QueryArena& arena) const {
  if (begin == end) return arena.decoded.data();
  const std::size_t block_first = begin / codec::kBlockValues;
  const std::size_t block_count = (end - 1) / codec::kBlockValues -
                                  block_first + 1;
  const std::size_t needed = block_count * codec::kBlockValues;
  if (arena.decoded.size() < needed) arena.decoded.resize(needed);
  codec::decode_range(blocks_, packed_, posting_count_, begin, end,
                      arena.decoded.data());
  return arena.decoded.data() + (begin - block_first * codec::kBlockValues);
}

SlmIndex::SlmIndex(const PeptideStore& store,
                   const chem::ModificationSet& mods,
                   const IndexParams& params, std::nullptr_t)
    : store_(&store), mods_(&mods), params_(params),
      binning_(params.binning()) {}

namespace {

constexpr std::uint64_t padded8(std::uint64_t n) { return (n + 7) & ~7ull; }

}  // namespace

std::uint64_t SlmIndex::arrays_payload_size() const {
  return 32 + padded8(bin_offsets_.size() * sizeof(std::uint32_t)) +
         padded8(blocks_.size() * sizeof(codec::BlockMeta)) +
         padded8(packed_.size()) +
         padded8(bounds_.size() * sizeof(BlockBound)) + 8 +
         padded8(order_.size() * sizeof(LocalPeptideId));
}

std::uint32_t SlmIndex::arrays_payload_crc() const {
  LBE_CHECK(bounds_.size() == blocks_.size(),
            "block bounds out of step with the block directory");
  const std::uint64_t counts[4] = {bin_offsets_.size(), posting_count_,
                                   blocks_.size(), packed_.size()};
  std::uint64_t cursor = 0;
  std::uint32_t crc = 0;
  bin::crc32_padded(counts, sizeof(counts), cursor, crc);
  bin::crc32_padded(bin_offsets_.data(),
                    bin_offsets_.size() * sizeof(std::uint32_t), cursor, crc);
  bin::crc32_padded(blocks_.data(),
                    blocks_.size() * sizeof(codec::BlockMeta), cursor, crc);
  bin::crc32_padded(packed_.data(), packed_.size(), cursor, crc);
  bin::crc32_padded(bounds_.data(),
                    bounds_.size() * sizeof(BlockBound), cursor, crc);
  const std::uint64_t order_count = order_.size();
  bin::crc32_padded(&order_count, sizeof(order_count), cursor, crc);
  bin::crc32_padded(order_.data(), order_.size() * sizeof(LocalPeptideId),
                    cursor, crc);
  return crc;
}

void SlmIndex::write_arrays_payload(std::ostream& out) const {
  LBE_CHECK(bounds_.size() == blocks_.size(),
            "block bounds out of step with the block directory");
  std::uint64_t cursor = 0;
  bin::write_pod(out, static_cast<std::uint64_t>(bin_offsets_.size()));
  bin::write_pod(out, posting_count_);
  bin::write_pod(out, static_cast<std::uint64_t>(blocks_.size()));
  bin::write_pod(out, static_cast<std::uint64_t>(packed_.size()));
  cursor += 32;
  bin::write_padded(out, bin_offsets_.data(),
                    bin_offsets_.size() * sizeof(std::uint32_t), cursor);
  bin::write_padded(out, blocks_.data(),
                    blocks_.size() * sizeof(codec::BlockMeta), cursor);
  bin::write_padded(out, packed_.data(), packed_.size(), cursor);
  bin::write_padded(out, bounds_.data(),
                    bounds_.size() * sizeof(BlockBound), cursor);
  bin::write_pod(out, static_cast<std::uint64_t>(order_.size()));
  cursor += 8;
  bin::write_padded(out, order_.data(),
                    order_.size() * sizeof(LocalPeptideId), cursor);
}

SlmIndex SlmIndex::parse_arrays_payload(
    bin::ByteReader& payload, const PeptideStore& store,
    const chem::ModificationSet& mods, const IndexParams& params,
    std::shared_ptr<const bin::MmapFile> keepalive) {
  namespace sz = serialize;
  const auto offsets_count = payload.read_pod<std::uint64_t>();
  const auto postings_count = payload.read_pod<std::uint64_t>();
  const auto block_count = payload.read_pod<std::uint64_t>();
  const auto packed_bytes = payload.read_pod<std::uint64_t>();
  sz::require(offsets_count <= bin::kMaxElements &&
                  postings_count <= bin::kMaxElements &&
                  block_count <= bin::kMaxElements &&
                  packed_bytes <= bin::kMaxSectionBytes,
              "implausible array count");
  const auto offsets_view = payload.view_array<std::uint32_t>(
      static_cast<std::size_t>(offsets_count));
  payload.align();
  const auto blocks_view = payload.view_array<codec::BlockMeta>(
      static_cast<std::size_t>(block_count));
  payload.align();
  const auto packed_view =
      payload.take(static_cast<std::size_t>(packed_bytes));
  payload.align();
  // v5: one BlockBound per directory block, trailing the packed stream.
  const auto bounds_view = payload.view_array<BlockBound>(
      static_cast<std::size_t>(block_count));
  payload.align();
  // v6: the built-over ids in (mass, id) order, for the window path.
  const auto order_count = payload.read_pod<std::uint64_t>();
  sz::require(order_count <= store.size(), "implausible mass-order count");
  const auto order_view = payload.view_array<LocalPeptideId>(
      static_cast<std::size_t>(order_count));
  payload.align();

  // Structural validation before any decode: the block directory must
  // tile the packed stream exactly and carry only legal encodings, and
  // every block bound must be a plausible (mass range, fragment cap) pair
  // — the pruning walk trusts them without further checks.
  codec::validate_blocks(blocks_view, postings_count, packed_bytes);
  for (const BlockBound& bound : bounds_view) {
    sz::require(bound.reserved == 0, "non-zero reserved block-bound field");
    sz::require(std::isfinite(bound.mass_lo) &&
                    std::isfinite(bound.mass_hi) &&
                    !(bound.mass_hi < bound.mass_lo),
                "invalid block mass bound");
    sz::require(bound.max_frags >= 1 && bound.max_frags <= postings_count,
                "implausible block fragment bound");
  }
  // The window path binary-searches the order and reads store columns by
  // its ids: every id must be in range and (mass, id) strictly increasing,
  // which also rules out duplicates.
  for (std::size_t i = 0; i < order_view.size(); ++i) {
    const LocalPeptideId id = order_view[i];
    sz::require(id < store.size(), "mass-order id out of range");
    if (i > 0) {
      const LocalPeptideId prev = order_view[i - 1];
      const Mass prev_mass = store.mass(prev);
      const Mass mass = store.mass(id);
      sz::require(prev_mass < mass || (prev_mass == mass && prev < id),
                  "mass order not strictly increasing");
    }
  }

  LBE_CHECK(keepalive != nullptr, "arrays payload without a mapping");
  SlmIndex index(store, mods, params, nullptr);
  index.bin_offsets_ = offsets_view;
  index.blocks_ = blocks_view;
  index.packed_ = packed_view;
  index.bounds_ = bounds_view;
  index.order_ = order_view;
  index.posting_count_ = postings_count;
  index.keepalive_ = std::move(keepalive);

  sz::require(index.bin_offsets_.size() ==
                  std::size_t{index.binning_.num_bins()} + 1,
              "bin count mismatch (different IndexParams?)");
  sz::require(!index.bin_offsets_.empty() &&
                  index.bin_offsets_.back() == postings_count,
              "postings size mismatch");
  for (std::size_t b = 1; b < index.bin_offsets_.size(); ++b) {
    sz::require(index.bin_offsets_[b] >= index.bin_offsets_[b - 1],
                "non-monotone bin offsets");
  }
  // Every decoded posting must be a valid store id BEFORE any query runs:
  // the scorecard indexes slots by posting with no bounds check. The
  // postings are decoded once into scratch for exactly this validation —
  // queries re-decode per span — so corruption that survives the CRC (a
  // stale-but-valid file for a different store) still fails at first
  // touch, never mid-walk.
  std::vector<std::uint32_t> scratch(static_cast<std::size_t>(block_count) *
                                     codec::kBlockValues);
  codec::decode_blocks(blocks_view, packed_view, postings_count, 0,
                       static_cast<std::size_t>(block_count), scratch.data());
  for (std::uint64_t i = 0; i < postings_count; ++i) {
    sz::require(scratch[static_cast<std::size_t>(i)] < store.size(),
                "posting out of range");
  }
  return index;
}

std::vector<std::uint32_t> SlmIndex::bin_occupancy() const {
  std::vector<std::uint32_t> occupancy(binning_.num_bins());
  for (MzBin b = 0; b < occupancy.size(); ++b) {
    occupancy[b] =
        static_cast<std::uint32_t>(bin_offsets_[b + 1] - bin_offsets_[b]);
  }
  return occupancy;
}

}  // namespace lbe::index
