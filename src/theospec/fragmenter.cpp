#include "theospec/fragmenter.hpp"

#include <algorithm>

#include "chem/mass.hpp"
#include "common/error.hpp"

namespace lbe::theospec {

namespace {

/// prefix[i] = summed residue deltas of the first i residues (residue plus
/// fixed modification, then the variable site's delta — the sums
/// Peptide::residue_delta forms). Both fragmenters derive every ion
/// mass from these sums. Returns whether every delta is positive, i.e.
/// whether each ion series is monotone in the cut position.
bool residue_prefix(std::string_view sequence,
                    std::span<const chem::ModSite> sites,
                    const chem::ModificationSet& mods,
                    std::vector<Mass>& prefix) {
  const std::size_t n = sequence.size();
  prefix.resize(n + 1);
  prefix[0] = 0.0;
  bool increasing = true;
  std::size_t site = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Mass delta = mods.fixed_residue_mass(sequence[i]);
    while (site < sites.size() && sites[site].position < i) ++site;
    if (site < sites.size() && sites[site].position == i) {
      delta += mods[sites[site].mod].delta;
    }
    increasing = increasing && delta > 0.0;
    prefix[i + 1] = prefix[i] + delta;
  }
  return increasing;
}

}  // namespace

std::vector<Fragment> fragment_peptide(const chem::Peptide& peptide,
                                       const chem::ModificationSet& mods,
                                       const FragmentParams& params) {
  LBE_CHECK(params.max_fragment_charge >= 1, "need max_fragment_charge >= 1");
  const std::size_t n = peptide.length();
  std::vector<Fragment> out;
  if (n < 2) return out;

  // Prefix sums of residue deltas give every b/y neutral mass in O(n).
  std::vector<Mass> prefix;
  residue_prefix(peptide.sequence(), peptide.sites(), mods, prefix);
  const Mass total = prefix[n];

  out.reserve(fragment_count(n, params));
  auto emit = [&](Mass neutral, IonSeries series, std::uint16_t ordinal) {
    for (Charge z = 1; z <= params.max_fragment_charge; ++z) {
      out.push_back(
          Fragment{chem::mz_from_mass(neutral, z), series, ordinal, z});
    }
    if (params.neutral_loss_nh3 && series != IonSeries::kA) {
      for (Charge z = 1; z <= params.max_fragment_charge; ++z) {
        out.push_back(Fragment{chem::mz_from_mass(neutral - chem::kAmmonia, z),
                               series, ordinal, z});
      }
    }
    if (params.neutral_loss_h2o && series != IonSeries::kA) {
      for (Charge z = 1; z <= params.max_fragment_charge; ++z) {
        out.push_back(Fragment{chem::mz_from_mass(neutral - chem::kWater, z),
                               series, ordinal, z});
      }
    }
  };

  for (std::size_t i = 1; i < n; ++i) {
    // b_i: first i residues; neutral b mass = sum(residues) (acylium form).
    const Mass b_neutral = prefix[i];
    emit(b_neutral, IonSeries::kB, static_cast<std::uint16_t>(i));
    if (params.a_ions) {
      emit(b_neutral - chem::kCarbonMonoxide, IonSeries::kA,
           static_cast<std::uint16_t>(i));
    }
    // y_{n-i}: last n-i residues plus water.
    const Mass y_neutral = total - prefix[i] + chem::kWater;
    emit(y_neutral, IonSeries::kY, static_cast<std::uint16_t>(n - i));
  }

  std::sort(out.begin(), out.end(),
            [](const Fragment& a, const Fragment& b) { return a.mz < b.mz; });
  return out;
}

void fragment_mzs(std::string_view sequence,
                  std::span<const chem::ModSite> sites,
                  const chem::ModificationSet& mods,
                  const FragmentParams& params, FragmentScratch& scratch) {
  LBE_CHECK(params.max_fragment_charge >= 1, "need max_fragment_charge >= 1");
  std::vector<Mz>& out = scratch.mzs;
  out.clear();
  const std::size_t n = sequence.size();
  if (n < 2) return;
  const bool increasing = residue_prefix(sequence, sites, mods, scratch.prefix);
  const std::vector<Mass>& prefix = scratch.prefix;
  const Mass total = prefix[n];

  // One run per (ion kind, charge): b-type masses grow with the cut i,
  // y-type masses shrink with it, so y runs are generated from the last
  // cut back to keep every run ascending. Each neutral mass is formed
  // exactly as fragment_peptide forms it.
  const std::size_t cuts = n - 1;
  const auto b_run = [&](Mass offset, Charge z) {
    for (std::size_t i = 1; i < n; ++i) {
      out.push_back(chem::mz_from_mass(prefix[i] - offset, z));
    }
  };
  const auto y_run = [&](Mass offset, Charge z) {
    for (std::size_t i = n - 1; i >= 1; --i) {
      out.push_back(
          chem::mz_from_mass(total - prefix[i] + chem::kWater - offset, z));
    }
  };
  for (Charge z = 1; z <= params.max_fragment_charge; ++z) {
    // `prefix[i] - 0.0` and `x - 0.0` are exact, so the unshifted runs
    // match fragment_peptide's unshifted masses bit for bit.
    b_run(0.0, z);
    y_run(0.0, z);
    if (params.a_ions) b_run(chem::kCarbonMonoxide, z);
    if (params.neutral_loss_nh3) {
      b_run(chem::kAmmonia, z);
      y_run(chem::kAmmonia, z);
    }
    if (params.neutral_loss_h2o) {
      b_run(chem::kWater, z);
      y_run(chem::kWater, z);
    }
  }
  if (!increasing) {
    // A non-positive residue delta (an exotic modification) breaks run
    // monotonicity; sort instead of merging.
    std::sort(out.begin(), out.end());
    return;
  }

  // Bottom-up merge of the equal-length ascending runs.
  const std::size_t size = out.size();
  std::vector<Mz>& other = scratch.merge;
  other.resize(size);
  for (std::size_t width = cuts; width < size; width *= 2) {
    for (std::size_t lo = 0; lo < size; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, size);
      const std::size_t hi = std::min(lo + 2 * width, size);
      std::merge(out.data() + lo, out.data() + mid, out.data() + mid,
                 out.data() + hi, other.data() + lo);
    }
    out.swap(other);
  }
}

chem::Spectrum theoretical_spectrum(const chem::Peptide& peptide,
                                    const chem::ModificationSet& mods,
                                    const FragmentParams& params) {
  chem::Spectrum spec;
  for (const auto& fragment : fragment_peptide(peptide, mods, params)) {
    spec.add_peak(fragment.mz, 1.0f);
  }
  spec.precursor.neutral_mass = peptide.mass(mods);
  spec.precursor.charge = 2;
  spec.precursor.mz =
      chem::mz_from_mass(spec.precursor.neutral_mass, spec.precursor.charge);
  spec.finalize();
  return spec;
}

std::size_t fragment_count(std::size_t peptide_length,
                           const FragmentParams& params) {
  if (peptide_length < 2) return 0;
  const std::size_t cuts = peptide_length - 1;
  const std::size_t z = params.max_fragment_charge;
  std::size_t per_cut = 2 * z;                       // b + y
  if (params.a_ions) per_cut += z;                   // a
  if (params.neutral_loss_nh3) per_cut += 2 * z;     // b/y - NH3
  if (params.neutral_loss_h2o) per_cut += 2 * z;     // b/y - H2O
  return cuts * per_cut;
}

}  // namespace lbe::theospec
