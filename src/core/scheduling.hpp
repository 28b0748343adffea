// Scheduling — how a plan's static placement meets the runtime.
//
// The paper places work once, offline, from Eq. 1 predictions. Both
// schedules search that placement with one runtime protocol
// (search/distributed.cpp): every rank runs its own batch queue, then asks
// the master for more work.
//
//   lbe_static — the paper's behaviour: the master answers every request
//                with `done`, so each rank searches exactly its own queue.
//   stealing   — the master answers with a batch span cut from the
//                most-loaded rank's unstarted tail while the backlog clears
//                `steal_threshold`. Results stay byte-identical to
//                lbe_static because the merge order never depends on who
//                executed a batch.
//
// Placement must pass `assert_is_partition` — the merian-wrs-style testable
// invariant (SNIPPETS.md): each element placed exactly once, ids in range,
// and no rank left empty unless there are more ranks than groups.
// `calibration_weights` turns observed per-rank speeds into weights for
// Policy::kWeighted (the §VIII heterogeneous-cluster ablation).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/partition.hpp"

namespace lbe::core {

enum class Schedule : std::uint8_t {
  kLbeStatic = 0,
  // 1 was the retired probe-and-re-plan schedule; decoders reject it.
  kStealing = 2,
};

/// Parses "lbe_static" | "stealing" (case-insensitive).
Schedule schedule_from_string(std::string_view name);
const char* schedule_name(Schedule schedule);

struct ScheduleParams {
  Schedule schedule = Schedule::kLbeStatic;
  /// Stealing: a victim is robbed only while its unstarted tail holds at
  /// least `steal_threshold` times the mean remaining batches per rank —
  /// below that the fleet is balanced and migration would only add traffic.
  double steal_threshold = 1.2;

  void validate() const;  ///< throws ConfigError
};

/// What the runtime observed: per-rank wall seconds and deterministic work
/// units from a run. Input to calibration_weights.
struct CostFeedback {
  std::vector<double> rank_seconds;     ///< query-phase seconds per rank
  std::vector<double> rank_cost_units;  ///< QueryWork::cost_units per rank
};

/// Structured verdict of the partition-invariant oracle. `ok()` iff the
/// per-rank id lists form an exact partition of [0, total).
struct PartitionCheck {
  bool covered = true;       ///< every id placed at least once
  bool unique = true;        ///< no id placed twice
  bool in_range = true;      ///< no id >= total
  bool no_empty_rank = true; ///< only allowed when ranks > num_groups
  std::string detail;        ///< first violation, for the failure message

  bool ok() const { return covered && unique && in_range && no_empty_rank; }
};

/// The merian-wrs-style oracle every placement must pass: checks
/// that `plan` places each of the `total` ids exactly once, in range, and
/// leaves no rank empty unless ranks > num_groups (a rank with nothing to
/// do is a placement bug at sane sizes, not a valid split).
PartitionCheck assert_is_partition(const PartitionPlan& plan,
                                   std::size_t total, std::size_t num_groups);

/// Like assert_is_partition but throws ConfigError on violation — the form
/// LbePlan construction uses.
void check_partition(const PartitionPlan& plan, std::size_t total,
                     std::size_t num_groups, const char* who);

/// Calibration weight fit: rank m's relative speed = cost_units/seconds,
/// normalized to mean 1 and clamped to [0.05, 20] so one noisy probe rank
/// cannot starve (or swamp) a partition. Returns an empty vector when the
/// feedback is degenerate (mismatched sizes, a rank with no time or no
/// work) — the caller stays on the unweighted placement then.
std::vector<double> calibration_weights(const CostFeedback& feedback);

}  // namespace lbe::core
