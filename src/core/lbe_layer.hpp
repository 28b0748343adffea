// The LBE layer — §IV of the paper.
//
// Orchestrates the full partitioning pipeline on the master side:
//
//   base peptides ──group──▶ clustered database ──policy──▶ per-rank base
//   assignment ──variant enumeration──▶ per-rank index entries + the
//   master's mapping table (local variant id ◀─▶ global variant id).
//
// Variants never leave their base peptide's group ("the normal peptide
// sequences and their modified variants are considered to be part of the
// same data group", §III-C): a rank that owns a base peptide owns all of its
// modified variants. Global variant ids are defined by the deterministic
// enumeration order (clustered base order, then variant ordinal), so every
// machine can derive them independently — only ids travel on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chem/modification.hpp"
#include "core/grouping.hpp"
#include "core/partition.hpp"
#include "digest/variants.hpp"
#include "index/mapping_table.hpp"
#include "index/peptide_store.hpp"

namespace lbe::core {

struct LbeParams {
  GroupingParams grouping;
  PartitionParams partition;
};

class LbePlan {
 public:
  /// Runs grouping + partitioning + variant enumeration over base peptides.
  LbePlan(std::vector<std::string> base_peptides,
          const chem::ModificationSet& mods,
          const digest::VariantParams& variant_params,
          const LbeParams& params);

  const GroupingResult& grouping() const noexcept { return grouping_; }
  const PartitionPlan& base_partition() const noexcept { return base_plan_; }
  const index::MappingTable& mapping() const noexcept { return mapping_; }
  const LbeParams& params() const noexcept { return params_; }
  const chem::ModificationSet& mods() const noexcept { return *mods_; }
  const digest::VariantParams& variant_params() const noexcept {
    return variant_params_;
  }

  std::size_t num_bases() const noexcept {
    return grouping_.sequences.size();
  }
  std::uint64_t num_variants() const noexcept { return total_variants_; }
  int ranks() const noexcept { return params_.partition.ranks; }

  /// Clustered-order base sequence by global base id.
  const std::string& base_sequence(std::uint32_t base_id) const {
    return grouping_.sequences.at(base_id);
  }

  /// Decodes a global variant id into (base id, variant ordinal).
  struct VariantLocation {
    std::uint32_t base_id;
    std::uint32_t ordinal;  ///< position in enumerate_variants order
  };
  VariantLocation locate_variant(GlobalPeptideId global_variant) const;

  /// Materializes the peptide for a global variant id (master-side result
  /// reporting). Unranks with digest::nth_variant: the enumeration walk
  /// stops at the variant's ordinal and builds only that one peptide.
  chem::Peptide variant_peptide(GlobalPeptideId global_variant) const;

  /// Builds rank `m`'s index entries: every variant of every base assigned
  /// to it, in the local-id order the mapping table records.
  index::PeptideStore build_rank_store(RankId rank) const;

  /// Shared-memory reference: all variants, global order (used by Fig. 5's
  /// baseline and by equivalence tests).
  index::PeptideStore build_global_store() const;

 private:
  /// Partition + oracle + mapping-table build over the (already set)
  /// grouping and variant offsets.
  void apply_partition();

  const chem::ModificationSet* mods_;
  digest::VariantParams variant_params_;
  LbeParams params_;
  GroupingResult grouping_;
  PartitionPlan base_plan_;
  std::vector<std::uint64_t> variant_offsets_;  ///< size num_bases+1
  std::uint64_t total_variants_ = 0;
  index::MappingTable mapping_;
};

/// Writes the clustered database in FASTA (one record per peptide; headers
/// "g<group>|p<position>" keep group structure recoverable).
void write_clustered_fasta(const std::string& path,
                           const GroupingResult& grouping);

/// Reads a clustered FASTA back into (sequences, group_sizes).
GroupingResult read_clustered_fasta(const std::string& path);

}  // namespace lbe::core
