// Query-load prediction — the paper's future-work "load-predicting model".
//
// The query phase's dominant cost is filtration traffic: the engine merges
// the query peaks' fragment-tolerance windows into coalesced bin spans and
// either walks every posting of each span exactly once
// (SlmIndex::build_spans), or — for a finite precursor window, where it is
// cheaper — checks the in-window peptides' fragment bins against the spans
// (the precursor-first window path). Both quantities are computable from
// the index's bin offsets, its mass order and the query alone — no
// scorecard pass needed — so a master can estimate per-rank query cost
// before any query runs, and (with the Weighted policy) size partitions to
// heterogeneous rank speeds. The model performs the same window merge:
// summing per-peak windows independently would double-count overlap bins
// and overestimate dense spectra, and it applies the engine's per-chunk
// path chooser, so it predicts the path that actually runs.
//
// The prediction is exact for the postings the engine walks, estimates
// the window path's fragment bins from the chunk's mean fragments per
// peptide, and is a lower-order approximation of total cost (it ignores
// the per-candidate term), so its correlation with measured work is high
// but deliberately not 1.0.
//
// QueryCostModel is the per-index form the scheduling layer uses: build the
// occupancy prefix sums once, then predict per query — the per-query
// predicted-vs-observed records metrics.csv reports come from it. NOTE:
// constructing one against a mapped (lazy) index materializes every chunk
// (ChunkedIndex::bin_occupancy), so the runtime only builds it when a
// schedule actually consumes predictions.
#pragma once

#include <cstdint>
#include <vector>

#include "chem/spectrum.hpp"
#include "index/chunked_index.hpp"
#include "search/preprocess.hpp"

namespace lbe::search {

class QueryCostModel {
 public:
  /// Borrows `index`'s cached occupancy prefix (ChunkedIndex computes it
  /// once, typically during the build phase); the index must outlive the
  /// model. Borrowing instead of snapshotting is what makes a thief's
  /// foreign-index cost model O(1) to construct mid-query-phase.
  QueryCostModel(const index::ChunkedIndex& index,
                 const index::QueryParams& filter,
                 const PreprocessParams& preprocess);

  /// Predicted filtration traffic for one *raw* query spectrum
  /// (preprocessing applied internally, same as the engine), in
  /// QueryWork::filtration_units: span postings for an open window; for a
  /// finite one, per routed chunk the cost of the path the chunk's
  /// chooser picks (ChunkedIndex::filtration_cost).
  double predict(const chem::Spectrum& raw) const;

 private:
  index::Binning binning_;
  const index::ChunkedIndex* index_ = nullptr;
  /// The index's occupancy prefix sums, size bins+1 (not owned).
  const std::vector<std::uint64_t>* prefix_ = nullptr;
  double precursor_tolerance_ = 0.0;
  index::MzBin tol_bins_ = 0;
  PreprocessParams preprocess_;
};

/// Predicted postings traffic for searching `queries` against `index`
/// (preprocessing applied, tolerance window from `filter`).
double predict_query_cost(const index::ChunkedIndex& index,
                          const std::vector<chem::Spectrum>& queries,
                          const index::QueryParams& filter,
                          const PreprocessParams& preprocess);

/// Pearson correlation between predicted and measured per-rank loads.
/// Returns 0 when either vector is degenerate (zero variance).
double prediction_correlation(const std::vector<double>& predicted,
                              const std::vector<double>& measured);

/// Least-squares refit of the Eq. 1 cost model against observation:
/// observed ≈ slope * predicted + intercept, plus the relative-error
/// summary metrics.csv reports (|predicted - observed| / observed over
/// samples with observed > 0).
struct CostModelFit {
  double slope = 1.0;
  double intercept = 0.0;
  double mean_rel_error = 0.0;
  double p95_rel_error = 0.0;
  std::size_t samples = 0;
};

CostModelFit fit_cost_model(const std::vector<double>& predicted,
                            const std::vector<double>& observed);

}  // namespace lbe::search
