// Deterministic filtration work counters — the machine-independent load
// measure used alongside wall time by the perf layer. Kept in its own tiny
// header so perf/metrics.hpp can consume per-rank work without dragging in
// the whole index/theospec header tree.
#pragma once

#include <cstdint>

namespace lbe::index {

/// Cost of one fragment bin checked by the precursor-first window path, in
/// units of one posting walked by the span walk. It weighs the two
/// filtration paths against each other: the per-chunk chooser
/// (SlmIndex::plan_filtration), cost_units() and the Eq. 1 load model all
/// use it. Calibrated on the lbebench `open` sweep (see CHANGES.md).
inline constexpr double kWindowBinCost = 6.0;

/// Counters accumulate across queries; the batched span walk accounts
/// identically to a per-peak walk (a bin covered by k peaks still counts k
/// visits and k× its postings), so values are comparable across engines.
struct QueryWork {
  std::uint64_t peaks_processed = 0;
  std::uint64_t bins_visited = 0;
  std::uint64_t postings_touched = 0;
  std::uint64_t candidates = 0;
  // Block-max pruning observability: spans/blocks the batched walk visited
  // vs skipped via v5 bounds, and candidates the engine actually ranked.
  // Pure telemetry — cost_units() deliberately excludes them so the Eq. 1
  // load model keeps its meaning across pruning on/off.
  std::uint64_t spans_walked = 0;
  std::uint64_t spans_pruned = 0;
  std::uint64_t blocks_walked = 0;
  std::uint64_t blocks_pruned = 0;
  std::uint64_t candidates_scored = 0;
  /// Fragment bins the precursor-first window path generated and matched
  /// against the query's spans (in-window peptides only).
  std::uint64_t fragment_bins = 0;

  QueryWork& operator+=(const QueryWork& other) {
    peaks_processed += other.peaks_processed;
    bins_visited += other.bins_visited;
    postings_touched += other.postings_touched;
    candidates += other.candidates;
    spans_walked += other.spans_walked;
    spans_pruned += other.spans_pruned;
    blocks_walked += other.blocks_walked;
    blocks_pruned += other.blocks_pruned;
    candidates_scored += other.candidates_scored;
    fragment_bins += other.fragment_bins;
    return *this;
  }

  bool operator==(const QueryWork&) const = default;

  /// The filtration traffic the Eq. 1 load model predicts: postings the
  /// span walk touched plus the window path's weighted fragment bins.
  double filtration_units() const {
    return static_cast<double>(postings_touched) +
           kWindowBinCost * static_cast<double>(fragment_bins);
  }

  /// Scalar cost proxy: dominated by filtration traffic, like the real
  /// engine.
  double cost_units() const {
    return filtration_units() + 0.25 * static_cast<double>(bins_visited) +
           8.0 * static_cast<double>(candidates);
  }
};

}  // namespace lbe::index
