#include "core/lbe_layer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/scheduling.hpp"
#include "io/fasta.hpp"

namespace lbe::core {

LbePlan::LbePlan(std::vector<std::string> base_peptides,
                 const chem::ModificationSet& mods,
                 const digest::VariantParams& variant_params,
                 const LbeParams& params)
    : mods_(&mods), variant_params_(variant_params), params_(params) {
  grouping_ = group_peptides(std::move(base_peptides), params_.grouping);

  // Global variant enumeration: prefix sums over per-base variant counts.
  const std::size_t n = grouping_.sequences.size();
  variant_offsets_.assign(n + 1, 0);
  for (std::size_t b = 0; b < n; ++b) {
    variant_offsets_[b + 1] =
        variant_offsets_[b] +
        digest::count_variants(grouping_.sequences[b], mods, variant_params_);
  }
  total_variants_ = variant_offsets_[n];
  LBE_CHECK(total_variants_ < kInvalidPeptideId,
            "variant count exceeds 32-bit id space; shrink the database or "
            "tighten VariantParams");

  apply_partition();
}

void LbePlan::apply_partition() {
  base_plan_ = partition(grouping_.group_sizes, params_.partition);
  // The partition-invariant oracle (core/scheduling.hpp): every base placed
  // exactly once, in range, no rank starved. O(N) against a plan the whole
  // pipeline is about to trust — cheap insurance for every policy.
  check_partition(base_plan_, grouping_.sequences.size(),
                  grouping_.group_sizes.size(),
                  policy_name(params_.partition.policy));

  // Mapping table: rank m's local variant l -> global variant id. Local
  // order = rank's bases ascending, then variant ordinal — the exact order
  // build_rank_store() appends entries in.
  std::vector<std::vector<GlobalPeptideId>> per_rank(
      base_plan_.per_rank.size());
  for (std::size_t m = 0; m < base_plan_.per_rank.size(); ++m) {
    auto& flat = per_rank[m];
    for (const GlobalPeptideId base : base_plan_.per_rank[m]) {
      const std::uint64_t lo = variant_offsets_[base];
      const std::uint64_t hi = variant_offsets_[base + 1];
      for (std::uint64_t v = lo; v < hi; ++v) {
        flat.push_back(static_cast<GlobalPeptideId>(v));
      }
    }
  }
  mapping_ = index::MappingTable(per_rank);
}

LbePlan::VariantLocation LbePlan::locate_variant(
    GlobalPeptideId global_variant) const {
  LBE_CHECK(global_variant < total_variants_, "variant id out of range");
  // First base whose range end exceeds the id.
  const auto it = std::upper_bound(variant_offsets_.begin(),
                                   variant_offsets_.end(), global_variant);
  const auto base =
      static_cast<std::uint32_t>(it - variant_offsets_.begin() - 1);
  return VariantLocation{
      base,
      static_cast<std::uint32_t>(global_variant - variant_offsets_[base])};
}

chem::Peptide LbePlan::variant_peptide(GlobalPeptideId global_variant) const {
  const VariantLocation loc = locate_variant(global_variant);
  return digest::nth_variant(grouping_.sequences[loc.base_id], *mods_,
                             variant_params_, loc.ordinal);
}

index::PeptideStore LbePlan::build_rank_store(RankId rank) const {
  LBE_CHECK(rank >= 0 && static_cast<std::size_t>(rank) <
                             base_plan_.per_rank.size(),
            "rank out of range");
  index::PeptideStore store(mods_);
  const auto& bases = base_plan_.per_rank[static_cast<std::size_t>(rank)];
  store.reserve(mapping_.rank_count(rank));
  for (const GlobalPeptideId base : bases) {
    for (const auto& variant : digest::enumerate_variants(
             grouping_.sequences[base], *mods_, variant_params_)) {
      store.add(variant, *mods_);
    }
  }
  LBE_CHECK(store.size() == mapping_.rank_count(rank),
            "rank store size disagrees with mapping table");
  return store;
}

index::PeptideStore LbePlan::build_global_store() const {
  index::PeptideStore store(mods_);
  store.reserve(total_variants_);
  for (const auto& base : grouping_.sequences) {
    for (const auto& variant :
         digest::enumerate_variants(base, *mods_, variant_params_)) {
      store.add(variant, *mods_);
    }
  }
  LBE_CHECK(store.size() == total_variants_,
            "global store size disagrees with variant enumeration");
  return store;
}

void write_clustered_fasta(const std::string& path,
                           const GroupingResult& grouping) {
  std::vector<io::FastaRecord> records;
  records.reserve(grouping.sequences.size());
  std::size_t position = 0;
  for (std::size_t g = 0; g < grouping.group_sizes.size(); ++g) {
    for (std::uint32_t k = 0; k < grouping.group_sizes[g]; ++k, ++position) {
      std::string header = "g";
      header += std::to_string(g);
      header += "|p";
      header += std::to_string(position);
      records.push_back(
          io::FastaRecord{std::move(header), grouping.sequences[position]});
    }
  }
  io::write_fasta_file(path, records, 0);
}

GroupingResult read_clustered_fasta(const std::string& path) {
  GroupingResult result;
  std::uint64_t current_group = 0;
  bool first = true;
  for (auto& record : io::read_fasta_file(path)) {
    std::uint64_t group = 0;
    const auto bar = record.header.find('|');
    if (record.header.empty() || record.header[0] != 'g' ||
        bar == std::string::npos ||
        !str::parse_u64(record.header.substr(1, bar - 1), group)) {
      throw ParseError(path, 0,
                       "not a clustered database header: " + record.header);
    }
    if (first || group != current_group) {
      result.group_sizes.push_back(0);
      current_group = group;
      first = false;
    }
    ++result.group_sizes.back();
    result.sequences.push_back(std::move(record.sequence));
    result.permutation.push_back(
        static_cast<std::uint32_t>(result.sequences.size() - 1));
  }
  return result;
}

}  // namespace lbe::core
