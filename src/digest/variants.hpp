// Modified-variant enumeration.
//
// Expands each base peptide into its variable-modification variants — the
// step that makes the index "grow exponentially with increase in
// post-translational modifications" (paper §I). At most one modification per
// residue, at most `max_mod_residues` modified residues per peptide (the
// paper uses 5). Enumeration order is deterministic: positions left to
// right, modification ids ascending, fewer-site variants first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chem/peptide.hpp"

namespace lbe::digest {

struct VariantParams {
  std::uint32_t max_mod_residues = 5;
  /// Safety valve against combinatorial blow-up on mod-dense peptides;
  /// 0 means unlimited. Variants beyond the cap are dropped deterministically
  /// (enumeration order), mirroring engines that truncate isoform lists.
  std::uint64_t max_variants_per_peptide = 0;
  bool include_unmodified = true;
};

/// Enumerates variants of `sequence` under `mods`.
std::vector<chem::Peptide> enumerate_variants(
    const std::string& sequence, const chem::ModificationSet& mods,
    const VariantParams& params);

/// Counts what enumerate_variants would produce, without materializing
/// (used by workload planners to predict index sizes). Respects the cap.
std::uint64_t count_variants(const std::string& sequence,
                             const chem::ModificationSet& mods,
                             const VariantParams& params);

/// The variant at position `ordinal` of enumerate_variants' order, without
/// materializing the others: walks the same enumeration and stops there.
/// Throws InvariantError when `ordinal >= count_variants(...)`.
chem::Peptide nth_variant(const std::string& sequence,
                          const chem::ModificationSet& mods,
                          const VariantParams& params, std::uint64_t ordinal);

}  // namespace lbe::digest
