#include "core/scheduling.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace lbe::core {

Schedule schedule_from_string(std::string_view name) {
  std::string lowered;
  for (const char c : name) {
    lowered += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lowered == "lbe_static" || lowered == "static") {
    return Schedule::kLbeStatic;
  }
  if (lowered == "stealing") return Schedule::kStealing;
  throw ConfigError("unknown schedule: " + std::string(name) +
                    " (expected lbe_static|stealing)");
}

const char* schedule_name(Schedule schedule) {
  switch (schedule) {
    case Schedule::kLbeStatic:
      return "lbe_static";
    case Schedule::kStealing:
      return "stealing";
  }
  return "?";
}

void ScheduleParams::validate() const {
  if (!(steal_threshold >= 1.0)) {
    throw ConfigError("steal_threshold must be >= 1.0 (1.0 = steal whenever "
                      "any rank is above the mean remaining load)");
  }
}

PartitionCheck assert_is_partition(const PartitionPlan& plan,
                                   std::size_t total,
                                   std::size_t num_groups) {
  PartitionCheck check;
  std::vector<std::uint8_t> seen(total, 0);
  std::size_t placed = 0;
  for (std::size_t m = 0; m < plan.per_rank.size(); ++m) {
    if (plan.per_rank[m].empty() && plan.per_rank.size() <= num_groups) {
      check.no_empty_rank = false;
      if (check.detail.empty()) {
        check.detail = "rank " + std::to_string(m) + " is empty with " +
                       std::to_string(num_groups) + " groups over " +
                       std::to_string(plan.per_rank.size()) + " ranks";
      }
    }
    for (const GlobalPeptideId id : plan.per_rank[m]) {
      if (id >= total) {
        check.in_range = false;
        if (check.detail.empty()) {
          check.detail = "rank " + std::to_string(m) + " holds id " +
                         std::to_string(id) + " >= total " +
                         std::to_string(total);
        }
        continue;
      }
      if (seen[id] != 0) {
        check.unique = false;
        if (check.detail.empty()) {
          check.detail = "id " + std::to_string(id) + " placed twice";
        }
        continue;
      }
      seen[id] = 1;
      ++placed;
    }
  }
  if (placed != total) {
    check.covered = false;
    if (check.detail.empty()) {
      check.detail = std::to_string(total - placed) + " of " +
                     std::to_string(total) + " ids never placed";
    }
  }
  return check;
}

void check_partition(const PartitionPlan& plan, std::size_t total,
                     std::size_t num_groups, const char* who) {
  const PartitionCheck check = assert_is_partition(plan, total, num_groups);
  if (!check.ok()) {
    throw ConfigError(std::string(who) +
                      ": placement is not a partition — " + check.detail);
  }
}

std::vector<double> calibration_weights(const CostFeedback& feedback) {
  const std::size_t p = feedback.rank_seconds.size();
  if (p == 0 || feedback.rank_cost_units.size() != p) return {};
  std::vector<double> speed(p, 0.0);
  double mean = 0.0;
  for (std::size_t m = 0; m < p; ++m) {
    const double seconds = feedback.rank_seconds[m];
    const double units = feedback.rank_cost_units[m];
    if (!(seconds > 0.0) || !(units > 0.0)) return {};
    speed[m] = units / seconds;
    mean += speed[m];
  }
  mean /= static_cast<double>(p);
  if (!(mean > 0.0)) return {};
  for (double& w : speed) {
    w = std::clamp(w / mean, 0.05, 20.0);
  }
  return speed;
}

}  // namespace lbe::core
