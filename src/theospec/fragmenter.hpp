// Theoretical fragment-ion generation (b/y series).
//
// Collision-induced dissociation predominantly breaks the amide backbone,
// yielding N-terminal b-ions and C-terminal y-ions. For a peptide of length
// n there are n-1 b and n-1 y fragments per charge state. The SLM-style
// index stores exactly these ions; optional a-ions and neutral losses are
// provided for the open-search example but excluded from the default index
// to match SLM-Transform.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "chem/modification.hpp"
#include "chem/peptide.hpp"
#include "chem/spectrum.hpp"
#include "common/types.hpp"

namespace lbe::theospec {

enum class IonSeries : std::uint8_t { kB, kY, kA };

struct FragmentParams {
  Charge max_fragment_charge = 2;  ///< generate 1+ .. this charge
  bool a_ions = false;
  bool neutral_loss_nh3 = false;  ///< -17.027 variants of b/y
  bool neutral_loss_h2o = false;  ///< -18.011 variants of b/y
};

struct Fragment {
  Mz mz;
  IonSeries series;
  std::uint16_t ordinal;  ///< b3 -> 3, y5 -> 5
  Charge charge;
};

/// All fragments for one (possibly modified) peptide, ascending m/z.
std::vector<Fragment> fragment_peptide(const chem::Peptide& peptide,
                                       const chem::ModificationSet& mods,
                                       const FragmentParams& params);

/// Reusable buffers of `fragment_mzs`; once warm, calls allocate nothing.
struct FragmentScratch {
  std::vector<Mass> prefix;  ///< residue-delta prefix sums
  std::vector<Mz> mzs;       ///< the output: fragment m/z, ascending
  std::vector<Mz> merge;     ///< merge buffer
};

/// The allocation-free fragmenter: every fragment m/z `fragment_peptide`
/// yields for the residues `sequence` carrying the variable-modification
/// `sites` (sorted by position), written ascending into scratch.mzs with
/// the same arithmetic, so the values are bit-identical. Each ion series
/// at each charge is generated as an ascending run and the runs are
/// merged, so no per-call sort is needed. The index build and the
/// precursor-first query path both fragment through this function, which
/// is what makes the two filtration paths agree bin for bin.
void fragment_mzs(std::string_view sequence,
                  std::span<const chem::ModSite> sites,
                  const chem::ModificationSet& mods,
                  const FragmentParams& params, FragmentScratch& scratch);

/// Convenience: builds the theoretical Spectrum (unit intensities) used for
/// indexing; same fragments as `fragment_peptide`.
chem::Spectrum theoretical_spectrum(const chem::Peptide& peptide,
                                    const chem::ModificationSet& mods,
                                    const FragmentParams& params);

/// Number of fragments `fragment_peptide` yields, without materializing.
std::size_t fragment_count(std::size_t peptide_length,
                           const FragmentParams& params);

}  // namespace lbe::theospec
