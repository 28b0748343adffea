#include "core/scheduling.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace lbe::core {
namespace {

std::vector<std::uint32_t> uniform_groups(std::size_t count,
                                          std::uint32_t size) {
  return std::vector<std::uint32_t>(count, size);
}

TEST(ScheduleParsing, RoundTrip) {
  EXPECT_EQ(schedule_from_string("lbe_static"), Schedule::kLbeStatic);
  EXPECT_EQ(schedule_from_string("static"), Schedule::kLbeStatic);
  EXPECT_EQ(schedule_from_string("STEALING"), Schedule::kStealing);
  EXPECT_THROW(schedule_from_string("dynamic"), ConfigError);
  // The probe-and-re-plan schedule is retired.
  EXPECT_THROW(schedule_from_string("calibrated"), ConfigError);
  EXPECT_STREQ(schedule_name(Schedule::kLbeStatic), "lbe_static");
  EXPECT_STREQ(schedule_name(Schedule::kStealing), "stealing");
}

TEST(ScheduleParams, Validation) {
  ScheduleParams params;
  params.validate();  // defaults are valid
  params.steal_threshold = 0.5;
  EXPECT_THROW(params.validate(), ConfigError);
  params.steal_threshold = 1.0;
  params.validate();
}

TEST(PartitionOracle, AcceptsExactPartition) {
  PartitionPlan plan;
  plan.per_rank = {{0, 2}, {1, 3}};
  const PartitionCheck check = assert_is_partition(plan, 4, 4);
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(PartitionOracle, RejectsDuplicate) {
  PartitionPlan plan;
  plan.per_rank = {{0, 1}, {1, 2, 3}};
  const PartitionCheck check = assert_is_partition(plan, 4, 4);
  EXPECT_FALSE(check.ok());
  EXPECT_FALSE(check.unique);
  EXPECT_NE(check.detail.find("placed twice"), std::string::npos);
}

TEST(PartitionOracle, RejectsMissing) {
  PartitionPlan plan;
  plan.per_rank = {{0}, {2, 3}};
  const PartitionCheck check = assert_is_partition(plan, 4, 4);
  EXPECT_FALSE(check.ok());
  EXPECT_FALSE(check.covered);
}

TEST(PartitionOracle, RejectsOutOfRange) {
  PartitionPlan plan;
  plan.per_rank = {{0, 1}, {2, 7}};
  const PartitionCheck check = assert_is_partition(plan, 4, 4);
  EXPECT_FALSE(check.ok());
  EXPECT_FALSE(check.in_range);
}

TEST(PartitionOracle, RejectsEmptyRankAtSaneSizes) {
  PartitionPlan plan;
  plan.per_rank = {{0, 1, 2, 3}, {}};
  const PartitionCheck check = assert_is_partition(plan, 4, 4);
  EXPECT_FALSE(check.ok());
  EXPECT_FALSE(check.no_empty_rank);
}

TEST(PartitionOracle, AllowsEmptyRankWithMoreRanksThanGroups) {
  PartitionPlan plan;
  plan.per_rank = {{0}, {1}, {}};
  const PartitionCheck check = assert_is_partition(plan, 2, 2);
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(PartitionOracle, ThrowingFormNamesThePolicy) {
  PartitionPlan plan;
  plan.per_rank = {{0, 0}};
  try {
    check_partition(plan, 1, 1, "test_policy");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("test_policy"), std::string::npos);
  }
}

// Calibration weights drive a Policy::kWeighted re-plan (the §VIII
// heterogeneous ablation): the placement must pass the oracle and give the
// fast ranks more entries.
TEST(CalibrationWeights, WeightedPlacementIsAnExactPartition) {
  CostFeedback observed;
  observed.rank_seconds = {1.0, 1.0, 3.0, 3.0};
  observed.rank_cost_units = {100.0, 100.0, 100.0, 100.0};
  PartitionParams params;
  params.ranks = 4;
  params.policy = Policy::kWeighted;
  params.weights = calibration_weights(observed);
  ASSERT_EQ(params.weights.size(), 4u);

  const auto group_sizes = uniform_groups(37, 3);
  const PartitionPlan plan = partition(group_sizes, params);
  EXPECT_TRUE(assert_is_partition(plan, 37 * 3, 37).ok());
  EXPECT_GT(plan.per_rank[0].size(), plan.per_rank[2].size());
}

TEST(CalibrationWeights, NormalizedToMeanOne) {
  CostFeedback feedback;
  feedback.rank_seconds = {1.0, 1.0, 3.0, 3.0};
  feedback.rank_cost_units = {90.0, 90.0, 90.0, 90.0};
  const std::vector<double> weights = calibration_weights(feedback);
  ASSERT_EQ(weights.size(), 4u);
  double mean = 0.0;
  for (const double w : weights) mean += w;
  mean /= 4.0;
  EXPECT_NEAR(mean, 1.0, 1e-9);
  // The 3x-slower ranks get a third of the fast ranks' weight.
  EXPECT_NEAR(weights[0] / weights[2], 3.0, 1e-9);
}

TEST(CalibrationWeights, DegenerateFeedbackIsEmpty) {
  EXPECT_TRUE(calibration_weights(CostFeedback{}).empty());

  CostFeedback mismatched;
  mismatched.rank_seconds = {1.0, 1.0};
  mismatched.rank_cost_units = {1.0};
  EXPECT_TRUE(calibration_weights(mismatched).empty());

  CostFeedback zero_time;
  zero_time.rank_seconds = {1.0, 0.0};
  zero_time.rank_cost_units = {1.0, 1.0};
  EXPECT_TRUE(calibration_weights(zero_time).empty());

  CostFeedback zero_work;
  zero_work.rank_seconds = {1.0, 1.0};
  zero_work.rank_cost_units = {1.0, 0.0};
  EXPECT_TRUE(calibration_weights(zero_work).empty());
}

TEST(CalibrationWeights, OutliersAreClamped) {
  CostFeedback feedback;
  feedback.rank_seconds = {1.0, 1e6};
  feedback.rank_cost_units = {100.0, 100.0};
  const std::vector<double> weights = calibration_weights(feedback);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_LE(weights[0], 20.0);
  EXPECT_GE(weights[1], 0.05);
}

}  // namespace
}  // namespace lbe::core
