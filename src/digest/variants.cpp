#include "digest/variants.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lbe::digest {

namespace {

// Shared enumeration skeleton: walks eligible sites breadth-first by number
// of placed modifications so "fewer mods first" holds, then by position and
// mod id. `emit` returns false to stop early (cap reached).
template <typename Emit>
void enumerate(const std::string& sequence, const chem::ModificationSet& mods,
               const VariantParams& params, Emit&& emit) {
  // Eligible sites with their applicable mod lists, positions ascending.
  struct Site {
    std::uint16_t position;
    std::vector<chem::ModId> mods;
  };
  std::vector<Site> sites;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    auto applicable = mods.variable_mods_for(sequence[i]);
    if (!applicable.empty()) {
      sites.push_back(Site{static_cast<std::uint16_t>(i),
                           std::move(applicable)});
    }
  }

  if (params.include_unmodified) {
    if (!emit(std::vector<chem::ModSite>{})) return;
  }
  if (params.max_mod_residues == 0 || sites.empty()) return;

  // Depth-first over site combinations with k placed mods, for k = 1..max.
  // For fixed k the DFS visits combinations in lexicographic position order,
  // and mod choices in ascending id order — fully deterministic. Recursion
  // depth <= max_k (<= 5 in practice). Returns false once emit stops.
  std::vector<chem::ModSite> current;
  const std::uint32_t max_k = std::min<std::uint32_t>(
      params.max_mod_residues, static_cast<std::uint32_t>(sites.size()));

  auto dfs = [&](auto&& self, std::size_t next_site,
                 std::uint32_t target_k) -> bool {
    if (current.size() == target_k) return emit(current);
    const std::size_t remaining = target_k - current.size();
    // Prune: not enough sites left to reach target_k.
    for (std::size_t s = next_site; s + remaining <= sites.size(); ++s) {
      for (const chem::ModId mod : sites[s].mods) {
        current.push_back(chem::ModSite{sites[s].position, mod, 0});
        const bool keep_going = self(self, s + 1, target_k);
        current.pop_back();
        if (!keep_going) return false;
      }
    }
    return true;
  };

  for (std::uint32_t k = 1; k <= max_k; ++k) {
    if (!dfs(dfs, 0, k)) return;
  }
}

}  // namespace

std::vector<chem::Peptide> enumerate_variants(
    const std::string& sequence, const chem::ModificationSet& mods,
    const VariantParams& params) {
  std::vector<chem::Peptide> out;
  std::uint64_t emitted = 0;
  enumerate(sequence, mods, params,
            [&](const std::vector<chem::ModSite>& sites) {
              out.emplace_back(sequence, sites, mods);
              ++emitted;
              return params.max_variants_per_peptide == 0 ||
                     emitted < params.max_variants_per_peptide;
            });
  return out;
}

std::uint64_t count_variants(const std::string& sequence,
                             const chem::ModificationSet& mods,
                             const VariantParams& params) {
  std::uint64_t count = 0;
  enumerate(sequence, mods, params, [&](const std::vector<chem::ModSite>&) {
    ++count;
    return params.max_variants_per_peptide == 0 ||
           count < params.max_variants_per_peptide;
  });
  return count;
}

chem::Peptide nth_variant(const std::string& sequence,
                          const chem::ModificationSet& mods,
                          const VariantParams& params, std::uint64_t ordinal) {
  // Ordinals at or past the cap are never emitted, so they fall through to
  // the range check exactly like ordinals past the uncapped count.
  std::vector<chem::ModSite> found;
  bool hit = false;
  std::uint64_t seen = 0;
  enumerate(sequence, mods, params,
            [&](const std::vector<chem::ModSite>& sites) {
              if (seen++ < ordinal) {
                return params.max_variants_per_peptide == 0 ||
                       seen < params.max_variants_per_peptide;
              }
              found = sites;
              hit = true;
              return false;
            });
  LBE_CHECK(hit, "variant ordinal out of range");
  return chem::Peptide(sequence, std::move(found), mods);
}

}  // namespace lbe::digest
