// PSM scoring.
//
// Filtration (the index) counts shared peaks; the survivors are re-scored
// with an X!Tandem-style hyperscore so ranking is intensity-aware:
//
//   hyperscore = ln(Nb!) + ln(Ny!) + ln(1 + sum Ib) + ln(1 + sum Iy)
//
// where Nb/Ny are matched b-/y-ion counts and Ib/Iy the summed intensities
// of matched query peaks. Matching walks the (sorted) query peaks and the
// (sorted) theoretical fragments in one linear merge pass; each query peak
// matches at most once per series.
#pragma once

#include <cstdint>

#include "chem/modification.hpp"
#include "chem/spectrum.hpp"
#include "index/peptide_store.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::search {

struct ScoreParams {
  double fragment_tolerance = 0.05;  ///< ±Da, same as the filtration ΔF
  theospec::FragmentParams fragments;
};

struct ScoreBreakdown {
  std::uint32_t matched_b = 0;
  std::uint32_t matched_y = 0;
  double intensity_b = 0.0;
  double intensity_y = 0.0;
  double hyperscore = 0.0;

  std::uint32_t matched_total() const { return matched_b + matched_y; }
};

/// Scores `peptide` against a preprocessed query spectrum.
ScoreBreakdown score_candidate(const chem::Spectrum& query,
                               const chem::Peptide& peptide,
                               const chem::ModificationSet& mods,
                               const ScoreParams& params);

/// The O(1) filtration score, ln(shared!) + ln(1 + matched intensity):
/// monotone in shared peaks and in matched intensity, comparable across
/// ranks and partitions.
double filter_score(std::uint32_t shared_peaks, double matched_intensity);

/// ln(n!) through glibc's reentrant lgamma_r: std::lgamma is the same
/// routine but also stores the sign in the global `signgam`, a data race
/// between the threads that score concurrently.
double log_factorial(std::uint32_t n);

}  // namespace lbe::search
