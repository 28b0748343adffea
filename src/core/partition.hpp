// Distribution policies — §III-D of the paper.
//
// Input: the clustered database (groups concatenated, global ids 0..N-1 in
// clustered order) plus the group sizes. Output: for each rank, the global
// ids it indexes, in local-id order. The three published policies:
//
//   Chunk  — contiguous N/p blocks, the conventional shared-memory scheme
//            (Fig. 2 shows why this imbalances a cluster: whole similarity
//            groups land on one machine).
//   Cyclic — round-robin over the clustered order, so each group's members
//            spread across ranks (the paper's best performer).
//   Random — per group: shuffle members (seeded), then chunk-split the
//            group into p parts. Parts are assigned starting from a rank
//            offset that rotates per group; without rotation the remainder
//            elements of every small group pile onto low ranks (measurable
//            as LI — the rotation ablation, `lbebench --suite ablation
//            --filter ablation_grouping`).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lbe::core {

enum class Policy : std::uint8_t {
  kChunk = 0,
  kCyclic = 1,
  kRandom = 2,
  /// Extension beyond the paper (its "load-predicting model for
  /// heterogeneous memory-distributed architectures" future work): a
  /// smooth weighted round-robin that hands rank m a share of entries
  /// proportional to weights[m] — e.g. the inverse of its slowdown factor —
  /// while still interleaving neighbours in the clustered order.
  kWeighted = 3,
};

/// Parses "chunk" | "cyclic" | "random" | "weighted" (case-insensitive).
Policy policy_from_string(std::string_view name);
const char* policy_name(Policy policy);

struct PartitionParams {
  Policy policy = Policy::kCyclic;
  int ranks = 1;
  std::uint64_t seed = 42;     ///< Random policy shuffle seed
  bool rotate_groups = true;   ///< Random policy: rotate part->rank start
  /// Weighted policy only: one positive weight per rank (relative compute
  /// speed). Must be empty for other policies.
  std::vector<double> weights;

  void validate() const;  ///< throws ConfigError
};

struct PartitionPlan {
  /// per_rank[m] = global ids assigned to rank m, in local-id order.
  std::vector<std::vector<GlobalPeptideId>> per_rank;

  std::size_t total() const {
    std::size_t sum = 0;
    for (const auto& ids : per_rank) sum += ids.size();
    return sum;
  }
};

/// Partitions N = sum(group_sizes) entries. For Chunk the group structure is
/// ignored (that is the point of the baseline); Cyclic and Random honour it.
PartitionPlan partition(const std::vector<std::uint32_t>& group_sizes,
                        const PartitionParams& params);

/// Convenience for group-free inputs (treats every entry as its own group).
PartitionPlan partition_flat(std::size_t total, const PartitionParams& params);

}  // namespace lbe::core
