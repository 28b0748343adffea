// Post-translational modifications (PTMs).
//
// The paper's §V-A experiment indexes variable modifications: deamidation on
// N/Q, Gly-Gly adducts on K/C, and oxidation on M, with at most 5 modified
// residues per peptide. The registry below models variable (and optionally
// fixed) modifications with residue-site rules; `ModificationSet` is the
// engine-facing view used by the variant generator in src/digest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lbe::chem {

/// Identifier of a modification inside a ModificationSet (small, dense).
using ModId = std::uint8_t;
inline constexpr ModId kNoMod = 0xFF;

struct Modification {
  std::string name;      ///< e.g. "Oxidation"
  Mass delta;            ///< mass shift in Da (may be negative)
  std::string residues;  ///< residues it can attach to, e.g. "NQ"
  bool fixed = false;    ///< fixed mods apply to every site, always

  /// True if this modification can sit on residue `c`.
  bool applies_to(char c) const noexcept {
    return residues.find(c) != std::string::npos;
  }
};

/// An ordered, immutable collection of modifications used by one search.
class ModificationSet {
 public:
  ModificationSet();

  /// Adds a modification; throws ConfigError on duplicate name, empty
  /// residue list, or invalid residue letters. Returns its ModId.
  ModId add(Modification mod);

  std::size_t size() const noexcept { return mods_.size(); }
  const Modification& operator[](ModId id) const { return mods_.at(id); }

  /// Ids of variable modifications applicable to residue `c` (fixed mods are
  /// excluded; they are applied unconditionally by mass routines).
  std::vector<ModId> variable_mods_for(char c) const;

  /// Sum of fixed-modification deltas applicable to `c` (0 for none), in
  /// modification order. O(1): kept per residue letter as mods are added,
  /// since every fragmenter call asks it once per residue.
  Mass fixed_delta(char c) const noexcept {
    if (c < 'A' || c > 'Z') return 0.0;
    return fixed_delta_[static_cast<std::size_t>(c - 'A')];
  }

  /// residue_mass(c) + fixed_delta(c), the same sum precomputed per letter
  /// — the fragmenter's per-residue lookup. `c` must be a residue letter.
  Mass fixed_residue_mass(char c) const noexcept {
    return fixed_residue_mass_[static_cast<std::size_t>(c - 'A')];
  }

  /// Parses "name:delta:residues[:fixed]" triples separated by ';', e.g.
  ///   "Oxidation:15.994915:M;Deamidation:0.984016:NQ;GlyGly:114.042927:KC"
  static ModificationSet parse(std::string_view spec);

  /// The exact variable-modification set of the paper's evaluation (§V-A):
  /// deamidation (N,Q), Gly-Gly (K,C), oxidation (M).
  static ModificationSet paper_default();

 private:
  std::vector<Modification> mods_;
  std::array<Mass, 26> fixed_delta_{};         ///< per letter 'A'..'Z'
  std::array<Mass, 26> fixed_residue_mass_{};  ///< per letter 'A'..'Z'
};

/// One concrete modification placement on a peptide.
struct ModSite {
  std::uint16_t position;  ///< 0-based residue offset
  ModId mod;
  /// Explicit zero padding: peptide stores write ModSite arrays raw, so this
  /// byte reaches disk and the section CRC and must be deterministic. Not
  /// part of a site's identity — readers ignore it.
  std::uint8_t reserved = 0;

  friend bool operator==(const ModSite& a, const ModSite& b) {
    return a.position == b.position && a.mod == b.mod;
  }
};
static_assert(sizeof(ModSite) == 4, "ModSite is written raw: keep 4 bytes");

}  // namespace lbe::chem
