#include "search/load_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace lbe::search {

QueryCostModel::QueryCostModel(const index::ChunkedIndex& index,
                               const index::QueryParams& filter,
                               const PreprocessParams& preprocess)
    : binning_(index.index_params().binning()),
      index_(&index),
      // Prefix sums let each coalesced bin span be summed in O(1); the
      // index caches them so construction is O(1) after the first model.
      prefix_(&index.occupancy_prefix()),
      precursor_tolerance_(filter.precursor_tolerance),
      preprocess_(preprocess) {
  tol_bins_ = binning_.tolerance_bins(filter.fragment_tolerance);
}

double QueryCostModel::predict(const chem::Spectrum& raw) const {
  const chem::Spectrum query = preprocess(raw, preprocess_);
  const index::MzBin last_bin = binning_.num_bins() - 1;
  const std::vector<std::uint64_t>& prefix = *prefix_;

  // The engine coalesces overlapping peak windows into spans and walks
  // each posting slice once (SlmIndex::build_spans), so the model must
  // merge too: summing per-peak windows independently double-counts every
  // bin covered by several peaks and systematically overestimates dense
  // spectra, skewing LBE placement. Same two-pointer merge over sorted
  // half-open [lo, hi) windows.
  std::vector<std::pair<index::MzBin, index::MzBin>> windows;
  for (const Mz mz : query.mzs()) {
    if (!binning_.in_range(mz)) continue;
    const index::MzBin center = binning_.bin(mz);
    const index::MzBin lo = center > tol_bins_ ? center - tol_bins_ : 0;
    // Guard the `center + tol_bins` sum against MzBin wraparound (a huge
    // tolerance must clamp to the last bin, not wrap to a tiny one).
    const index::MzBin hi =
        tol_bins_ >= last_bin - center ? last_bin : center + tol_bins_;
    windows.emplace_back(lo, hi + 1);
  }
  // Preprocessed spectra emit peaks m/z-sorted, so the windows arrive
  // sorted by `lo` already; the sort is a no-op guard for callers that
  // hand in unfinalized spectra.
  if (!std::is_sorted(windows.begin(), windows.end())) {
    std::sort(windows.begin(), windows.end());
  }
  const bool open =
      !(precursor_tolerance_ < std::numeric_limits<double>::infinity());
  double predicted = 0.0;
  std::vector<index::BinSpan> spans;
  const auto flush = [&](index::MzBin lo, index::MzBin hi) {
    if (open) {
      predicted += static_cast<double>(prefix[hi] - prefix[lo]);
    } else if (lo < hi) {
      spans.push_back(index::BinSpan{lo, hi, 1, 0.0f});
    }
  };
  index::MzBin span_lo = 0;
  index::MzBin span_hi = 0;  // exclusive; empty when span_lo == span_hi
  for (const auto& [lo, hi] : windows) {
    if (lo > span_hi) {  // disjoint: flush the current merged span
      flush(span_lo, span_hi);
      span_lo = lo;
      span_hi = hi;
    } else {
      span_hi = std::max(span_hi, hi);
    }
  }
  flush(span_lo, span_hi);
  if (open) return predicted;
  // A finite window routes to some chunks only, and each routed chunk
  // runs the cheaper of the walk and the window path: predict exactly
  // that choice (the walk's postings over merged spans equal those over
  // the engine's constant-coverage spans, which tile the same bins).
  return index_->filtration_cost(spans, query.precursor.neutral_mass,
                                 precursor_tolerance_);
}

double predict_query_cost(const index::ChunkedIndex& index,
                          const std::vector<chem::Spectrum>& queries,
                          const index::QueryParams& filter,
                          const PreprocessParams& preprocess_params) {
  const QueryCostModel model(index, filter, preprocess_params);
  double predicted = 0.0;
  for (const auto& raw : queries) predicted += model.predict(raw);
  return predicted;
}

double prediction_correlation(const std::vector<double>& predicted,
                              const std::vector<double>& measured) {
  if (predicted.size() != measured.size() || predicted.size() < 2) return 0.0;
  const auto n = static_cast<double>(predicted.size());
  double mean_p = 0.0;
  double mean_m = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    mean_p += predicted[i];
    mean_m += measured[i];
  }
  mean_p /= n;
  mean_m /= n;
  double cov = 0.0;
  double var_p = 0.0;
  double var_m = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double dp = predicted[i] - mean_p;
    const double dm = measured[i] - mean_m;
    cov += dp * dm;
    var_p += dp * dp;
    var_m += dm * dm;
  }
  if (var_p <= 0.0 || var_m <= 0.0) return 0.0;
  return cov / std::sqrt(var_p * var_m);
}

CostModelFit fit_cost_model(const std::vector<double>& predicted,
                            const std::vector<double>& observed) {
  CostModelFit fit;
  if (predicted.size() != observed.size() || predicted.empty()) return fit;
  fit.samples = predicted.size();

  // Ordinary least squares observed = slope * predicted + intercept; a
  // degenerate predictor (zero variance) keeps the identity slope.
  const auto n = static_cast<double>(predicted.size());
  double mean_p = 0.0;
  double mean_o = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    mean_p += predicted[i];
    mean_o += observed[i];
  }
  mean_p /= n;
  mean_o /= n;
  double cov = 0.0;
  double var_p = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double dp = predicted[i] - mean_p;
    cov += dp * (observed[i] - mean_o);
    var_p += dp * dp;
  }
  if (var_p > 0.0) {
    fit.slope = cov / var_p;
    fit.intercept = mean_o - fit.slope * mean_p;
  }

  std::vector<double> rel;
  rel.reserve(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (observed[i] > 0.0) {
      rel.push_back(std::abs(predicted[i] - observed[i]) / observed[i]);
    }
  }
  if (!rel.empty()) {
    double sum = 0.0;
    for (const double e : rel) sum += e;
    fit.mean_rel_error = sum / static_cast<double>(rel.size());
    std::sort(rel.begin(), rel.end());
    const auto idx = static_cast<std::size_t>(
        0.95 * static_cast<double>(rel.size() - 1) + 0.5);
    fit.p95_rel_error = rel[std::min(idx, rel.size() - 1)];
  }
  return fit;
}

}  // namespace lbe::search
