#include "search/scoring.hpp"

#include <cmath>

namespace lbe::search {

double log_factorial(std::uint32_t n) {
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double filter_score(std::uint32_t shared_peaks, double matched_intensity) {
  return log_factorial(shared_peaks) + std::log1p(matched_intensity);
}

ScoreBreakdown score_candidate(const chem::Spectrum& query,
                               const chem::Peptide& peptide,
                               const chem::ModificationSet& mods,
                               const ScoreParams& params) {
  ScoreBreakdown result;
  const auto fragments =
      theospec::fragment_peptide(peptide, mods, params.fragments);
  if (fragments.empty() || query.empty()) return result;

  // Both lists are ascending in m/z: two-pointer sweep. A query peak can
  // match several theoretical fragments within tolerance; we credit the
  // closest one and advance, so every query peak is counted at most once.
  std::size_t f = 0;
  const double tol = params.fragment_tolerance;
  for (std::size_t q = 0; q < query.size(); ++q) {
    const Mz mz = query.mz(q);
    while (f < fragments.size() && fragments[f].mz < mz - tol) ++f;
    if (f == fragments.size()) break;
    // fragments[f].mz >= mz - tol; find the closest fragment in window.
    std::size_t best = fragments.size();
    double best_delta = tol;
    for (std::size_t k = f; k < fragments.size() && fragments[k].mz <= mz + tol;
         ++k) {
      const double delta = std::abs(fragments[k].mz - mz);
      if (delta <= best_delta) {
        best_delta = delta;
        best = k;
      }
    }
    if (best == fragments.size()) continue;
    const double intensity = static_cast<double>(query.intensity(q));
    switch (fragments[best].series) {
      case theospec::IonSeries::kB:
      case theospec::IonSeries::kA:  // a-ions credit the b ledger
        ++result.matched_b;
        result.intensity_b += intensity;
        break;
      case theospec::IonSeries::kY:
        ++result.matched_y;
        result.intensity_y += intensity;
        break;
    }
  }

  result.hyperscore = log_factorial(result.matched_b) +
                      log_factorial(result.matched_y) +
                      std::log1p(result.intensity_b) +
                      std::log1p(result.intensity_y);
  return result;
}

}  // namespace lbe::search
