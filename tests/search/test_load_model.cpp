#include "search/load_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

class LoadModelTest : public ::testing::Test {
 protected:
  LoadModelTest() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 1;
    filter_.fragment_tolerance = 0.05;
    filter_.shared_peak_min = 1;
  }

  index::ChunkedIndex make_index(const std::vector<std::string>& seqs) {
    index::PeptideStore store(&mods_);
    for (const auto& s : seqs) store.add(chem::Peptide(s), mods_);
    return index::ChunkedIndex(std::move(store), mods_, params_,
                               index::ChunkingParams{});
  }

  chem::Spectrum theo(const std::string& seq) {
    return theospec::theoretical_spectrum(chem::Peptide(seq), mods_,
                                          params_.fragments);
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  index::IndexParams params_;
  index::QueryParams filter_;
  PreprocessParams preprocess_;
};

TEST_F(LoadModelTest, PredictionEqualsMeasuredPostings) {
  const auto index =
      make_index({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK", "AAAAAAGK"});
  const std::vector<chem::Spectrum> queries = {theo("PEPTIDEK"),
                                               theo("GGGGGGK")};
  const double predicted =
      predict_query_cost(index, queries, filter_, preprocess_);

  index::QueryWork work;
  std::vector<index::Candidate> candidates;
  for (const auto& query : queries) {
    candidates.clear();
    index.query(preprocess(query, preprocess_), filter_, candidates, work);
  }
  EXPECT_DOUBLE_EQ(predicted,
                   static_cast<double>(work.postings_touched));
}

TEST_F(LoadModelTest, EmptyQueriesPredictZero) {
  const auto index = make_index({"PEPTIDEK"});
  EXPECT_DOUBLE_EQ(predict_query_cost(index, {}, filter_, preprocess_), 0.0);
}

TEST_F(LoadModelTest, BiggerPartitionPredictsMoreCost) {
  const auto small = make_index({"PEPTIDEK"});
  const auto large =
      make_index({"PEPTIDEK", "PEPTIDER", "PEPTIDEG", "PEPTIDEA"});
  const std::vector<chem::Spectrum> queries = {theo("PEPTIDEK")};
  EXPECT_LT(predict_query_cost(small, queries, filter_, preprocess_),
            predict_query_cost(large, queries, filter_, preprocess_));
}

// Regression: the model used to sum each peak's tolerance window
// independently, double-counting bins covered by several peaks, while the
// engine coalesces overlapping windows and walks each posting once. Two
// peaks landing in the same bin must predict the same cost as one.
TEST_F(LoadModelTest, OverlappingWindowsAreNotDoubleCounted) {
  const auto index =
      make_index({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK", "AAAAAAGK"});

  chem::Spectrum one;
  one.add_peak(500.0, 1.0f);
  one.precursor.neutral_mass = 1000.0;
  one.finalize();
  chem::Spectrum two = one;
  two.add_peak(500.004, 1.0f);  // same 0.01-Da bin => identical window
  two.finalize();

  const double predicted_one =
      predict_query_cost(index, {one}, filter_, preprocess_);
  const double predicted_two =
      predict_query_cost(index, {two}, filter_, preprocess_);
  EXPECT_DOUBLE_EQ(predicted_two, predicted_one);

  // The engine's multiplicity-weighted accounting still counts both peaks
  // (it mirrors the per-peak reference walk), so the old per-peak sum is
  // recoverable as work.postings_touched — and the merged prediction must
  // sit at half of it for a fully-overlapping pair.
  index::QueryWork work;
  std::vector<index::Candidate> candidates;
  index.query(preprocess(two, preprocess_), filter_, candidates, work);
  EXPECT_DOUBLE_EQ(2.0 * predicted_two,
                   static_cast<double>(work.postings_touched));
}

// Regression: `center + tol_bins` could wrap MzBin for a huge fragment
// tolerance; the window must clamp to "all bins" instead.
TEST_F(LoadModelTest, HugeToleranceClampsToWholeIndex) {
  const auto index = make_index({"PEPTIDEK", "GGGGGGK"});
  index::QueryParams wide = filter_;
  wide.fragment_tolerance = 1e12;

  chem::Spectrum q;
  q.add_peak(1000.0, 1.0f);
  q.precursor.neutral_mass = 1000.0;
  q.finalize();

  // One peak whose window covers every bin touches every posting once.
  const double predicted = predict_query_cost(index, {q}, wide, preprocess_);
  EXPECT_DOUBLE_EQ(predicted, static_cast<double>(index.num_postings()));
}

TEST_F(LoadModelTest, PerQueryModelMatchesAggregatePrediction) {
  const auto index =
      make_index({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK", "AAAAAAGK"});
  const std::vector<chem::Spectrum> queries = {theo("PEPTIDEK"),
                                               theo("GGGGGGK"),
                                               theo("AAAAAAGK")};
  const QueryCostModel model(index, filter_, preprocess_);
  double per_query_sum = 0.0;
  for (const auto& query : queries) per_query_sum += model.predict(query);
  EXPECT_DOUBLE_EQ(per_query_sum,
                   predict_query_cost(index, queries, filter_, preprocess_));
}

// The model borrows the index (its cached occupancy prefix, and for a
// finite window its chunks' bin offsets and mass orders), so building a
// second model — a thief modelling a victim's index — reuses the first
// one's prefix instead of recomputing it, and both predict alike.
TEST_F(LoadModelTest, ModelsBorrowTheIndexOccupancy) {
  const auto index = make_index({"PEPTIDEK", "GGGGGGK"});
  const auto query = theo("PEPTIDEK");
  const QueryCostModel first(index, filter_, preprocess_);
  const std::vector<std::uint64_t>* cached = &index.occupancy_prefix();
  const QueryCostModel second(index, filter_, preprocess_);
  EXPECT_EQ(&index.occupancy_prefix(), cached);
  EXPECT_DOUBLE_EQ(first.predict(query), second.predict(query));
  EXPECT_GT(first.predict(query), 0.0);
}

// Narrow-window twin of PredictionEqualsMeasuredPostings: the model routes
// the precursor window to chunks and applies each chunk's path chooser, so
// it predicts the filtration units the engine measures — walked postings
// plus weighted window-path fragment bins. Equal-length peptides give
// every entry the same in-range fragment count, so the window path's
// mean-based estimate is exact too; a shared suffix piles postings into
// the query's y-ion bins, so the window path wins in the routed chunks.
TEST_F(LoadModelTest, NarrowWindowPredictionEqualsMeasuredWork) {
  index::PeptideStore store(&mods_);
  const std::string residues = "ADEFGNPSVW";
  for (const char first : residues) {
    for (const char second : residues) {
      store.add(chem::Peptide(std::string{first, second} + "GGGGGK"), mods_);
    }
  }
  index::ChunkingParams chunking;
  chunking.max_chunk_entries = 40;
  const index::ChunkedIndex index(std::move(store), mods_, params_, chunking);
  ASSERT_EQ(index.num_chunks(), 3u);
  index::QueryParams narrow = filter_;
  narrow.precursor_tolerance = 0.05;

  const std::vector<chem::Spectrum> queries = {
      theo("ADGGGGGK"), theo("WPGGGGGK"), theo("SNGGGGGK")};
  const QueryCostModel model(index, narrow, preprocess_);
  index::QueryWork work;
  std::vector<index::Candidate> candidates;
  double predicted = 0.0;
  for (const auto& query : queries) {
    predicted += model.predict(query);
    candidates.clear();
    index.query(preprocess(query, preprocess_), narrow, candidates, work);
    EXPECT_FALSE(candidates.empty());
  }
  EXPECT_GT(work.fragment_bins, 0u);  // the window path did run
  EXPECT_DOUBLE_EQ(predicted, work.filtration_units());
  EXPECT_DOUBLE_EQ(predicted,
                   predict_query_cost(index, queries, narrow, preprocess_));
}

TEST(CostModelFit, PerfectPredictionsFitIdentity) {
  const std::vector<double> predicted = {10.0, 20.0, 40.0};
  const CostModelFit fit = fit_cost_model(predicted, predicted);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(fit.mean_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(fit.p95_rel_error, 0.0);
  EXPECT_EQ(fit.samples, 3u);
}

TEST(CostModelFit, RecoversLinearTransform) {
  // observed = 2 * predicted + 5, exactly.
  const std::vector<double> predicted = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> observed = {7.0, 9.0, 11.0, 13.0};
  const CostModelFit fit = fit_cost_model(predicted, observed);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-9);
  EXPECT_GT(fit.mean_rel_error, 0.0);  // raw predictions are off by the map
}

TEST(CostModelFit, RelativeErrorSummary) {
  // |predicted - observed| / observed: {0.5, 0.25} -> mean 0.375.
  const CostModelFit fit = fit_cost_model({5.0, 15.0}, {10.0, 12.0});
  EXPECT_EQ(fit.samples, 2u);
  EXPECT_NEAR(fit.mean_rel_error, 0.375, 1e-9);
  EXPECT_NEAR(fit.p95_rel_error, 0.5, 1e-9);
}

TEST(CostModelFit, DegenerateInputsKeepDefaults) {
  const CostModelFit empty = fit_cost_model({}, {});
  EXPECT_DOUBLE_EQ(empty.slope, 1.0);
  EXPECT_DOUBLE_EQ(empty.intercept, 0.0);
  EXPECT_EQ(empty.samples, 0u);

  const CostModelFit mismatched = fit_cost_model({1.0, 2.0}, {1.0});
  EXPECT_EQ(mismatched.samples, 0u);

  // All-zero observations: the fit runs but there is nothing to measure
  // relative error against, so the summary stays at zero.
  const CostModelFit zeros = fit_cost_model({1.0, 2.0}, {0.0, 0.0});
  EXPECT_EQ(zeros.samples, 2u);
  EXPECT_DOUBLE_EQ(zeros.mean_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(zeros.p95_rel_error, 0.0);
}

TEST(PredictionCorrelation, PerfectAndInverse) {
  EXPECT_DOUBLE_EQ(
      prediction_correlation({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}), 1.0);
  EXPECT_DOUBLE_EQ(
      prediction_correlation({1.0, 2.0, 3.0}, {30.0, 20.0, 10.0}), -1.0);
}

TEST(PredictionCorrelation, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(prediction_correlation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(prediction_correlation({1.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(prediction_correlation({1.0, 2.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(prediction_correlation({5.0, 5.0}, {1.0, 2.0}), 0.0);
}

}  // namespace
}  // namespace lbe::search
