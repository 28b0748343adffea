#include "index/slm_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "theospec/fragmenter.hpp"

namespace lbe::index {
namespace {

class SlmIndexTest : public ::testing::Test {
 protected:
  SlmIndexTest() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 3000.0;
    params_.fragments.max_fragment_charge = 1;
    query_.fragment_tolerance = 0.05;
    query_.shared_peak_min = 4;
  }

  PeptideStore make_store(const std::vector<std::string>& seqs) {
    PeptideStore store(&mods_);
    for (const auto& s : seqs) store.add(chem::Peptide(s), mods_);
    return store;
  }

  chem::Spectrum theo(const std::string& seq) {
    return theospec::theoretical_spectrum(chem::Peptide(seq), mods_,
                                          params_.fragments);
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
  QueryParams query_;
};

TEST_F(SlmIndexTest, PostingsCountMatchesFragmentCount) {
  const auto store = make_store({"PEPTIDEK", "AAAGGGK"});
  const SlmIndex index(store, mods_, params_);
  // 7 cuts * 2 + 6 cuts * 2 = 26 postings (all fragments in range).
  EXPECT_EQ(index.num_postings(), 26u);
}

TEST_F(SlmIndexTest, SelfQueryFindsOwnPeptideWithMaxSharedPeaks) {
  const auto store = make_store({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK"});
  const SlmIndex index(store, mods_, params_);
  std::vector<Candidate> candidates;
  QueryWork work;
  const chem::Spectrum spectrum = theo("MKWVTFISLLK");
  index.query(spectrum, query_, candidates, work);
  ASSERT_FALSE(candidates.empty());
  const auto best = std::max_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        return a.shared_peaks < b.shared_peaks;
      });
  EXPECT_EQ(best->peptide, 1u);
  // Every theoretical peak of the peptide must match at least one of its
  // own postings (identical m/z => identical bin).
  EXPECT_GE(best->shared_peaks, spectrum.size());
}

TEST_F(SlmIndexTest, SharedPeakThresholdFilters) {
  const auto store = make_store({"PEPTIDEK", "WWWWWHHK"});
  const SlmIndex index(store, mods_, params_);
  std::vector<Candidate> candidates;
  QueryWork work;
  // Querying PEPTIDEK's spectrum: WWWWWHHK shares essentially nothing
  // except possibly the y1 (K) ion => below threshold 4.
  index.query(theo("PEPTIDEK"), query_, candidates, work);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.peptide, 0u);
    EXPECT_GE(c.shared_peaks, query_.shared_peak_min);
  }
}

TEST_F(SlmIndexTest, ThresholdOneAdmitsWeakMatches) {
  const auto store = make_store({"PEPTIDEK", "GGGGGGK"});
  const SlmIndex index(store, mods_, params_);
  QueryParams loose = query_;
  loose.shared_peak_min = 1;
  std::vector<Candidate> candidates;
  QueryWork work;
  index.query(theo("PEPTIDEK"), loose, candidates, work);
  // Both share the y1 = K ion.
  EXPECT_EQ(candidates.size(), 2u);
}

TEST_F(SlmIndexTest, PrecursorWindowFiltersCandidates) {
  const auto store = make_store({"PEPTIDEK", "PEPTIDEKK"});
  const SlmIndex index(store, mods_, params_);
  QueryParams narrow = query_;
  narrow.shared_peak_min = 1;
  narrow.precursor_tolerance = 1.0;  // ±1 Da closed search
  auto spectrum = theo("PEPTIDEK");
  std::vector<Candidate> candidates;
  QueryWork work;
  index.query(spectrum, narrow, candidates, work);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].peptide, 0u);
}

TEST_F(SlmIndexTest, OpenSearchKeepsAllCandidates) {
  const auto store = make_store({"PEPTIDEK", "PEPTIDEKK"});
  const SlmIndex index(store, mods_, params_);
  QueryParams open = query_;
  open.shared_peak_min = 1;  // default precursor_tolerance = inf
  auto spectrum = theo("PEPTIDEK");
  std::vector<Candidate> candidates;
  QueryWork work;
  index.query(spectrum, open, candidates, work);
  EXPECT_EQ(candidates.size(), 2u);
}

TEST_F(SlmIndexTest, RepeatedQueriesIndependent) {
  const auto store = make_store({"PEPTIDEK", "MKWVTFISLLK"});
  const SlmIndex index(store, mods_, params_);
  std::vector<Candidate> first;
  std::vector<Candidate> second;
  QueryWork work;
  index.query(theo("PEPTIDEK"), query_, first, work);
  index.query(theo("PEPTIDEK"), query_, second, work);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].peptide, second[i].peptide);
    EXPECT_EQ(first[i].shared_peaks, second[i].shared_peaks);
  }
}

TEST_F(SlmIndexTest, WorkCountersPopulated) {
  const auto store = make_store({"PEPTIDEK"});
  const SlmIndex index(store, mods_, params_);
  QueryWork work;
  std::vector<Candidate> candidates;
  const chem::Spectrum spectrum = theo("PEPTIDEK");
  index.query(spectrum, query_, candidates, work);
  EXPECT_EQ(work.peaks_processed, spectrum.size());
  EXPECT_GT(work.bins_visited, work.peaks_processed);  // ±5 bins per peak
  EXPECT_GE(work.postings_touched, spectrum.size());
  EXPECT_EQ(work.candidates, candidates.size());
  EXPECT_GT(work.cost_units(), 0.0);
}

TEST_F(SlmIndexTest, SubsetIndexOnlySeesSubset) {
  const auto store = make_store({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK"});
  const std::vector<LocalPeptideId> subset = {1};
  const SlmIndex index(store, mods_, params_, subset);
  std::vector<Candidate> candidates;
  QueryWork work;
  QueryParams loose = query_;
  loose.shared_peak_min = 1;
  index.query(theo("PEPTIDEK"), loose, candidates, work);
  for (const auto& c : candidates) EXPECT_EQ(c.peptide, 1u);
  candidates.clear();
  index.query(theo("MKWVTFISLLK"), loose, candidates, work);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].peptide, 1u);  // keeps store-wide id
}

TEST_F(SlmIndexTest, SubsetWithBadIdThrows) {
  const auto store = make_store({"PEPTIDEK"});
  const std::vector<LocalPeptideId> bad = {5};
  EXPECT_THROW(SlmIndex(store, mods_, params_, bad), InvariantError);
}

TEST_F(SlmIndexTest, FragmentsAboveMaxMzDropped) {
  IndexParams tight = params_;
  tight.max_fragment_mz = 300.0;
  const auto store = make_store({"PEPTIDEK"});
  const SlmIndex full(store, mods_, params_);
  const SlmIndex cut(store, mods_, tight);
  EXPECT_LT(cut.num_postings(), full.num_postings());
  EXPECT_GT(cut.num_postings(), 0u);
}

TEST_F(SlmIndexTest, MemoryBytesTracksPostings) {
  const auto small_store = make_store({"PEPTIDEK"});
  std::vector<std::string> many;
  for (int i = 0; i < 200; ++i) many.push_back("PEPTIDEGGGSSAK");
  const auto big_store = make_store(many);
  const SlmIndex small(small_store, mods_, params_);
  const SlmIndex big(big_store, mods_, params_);
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());

  // A built index holds exactly its five arrays, with no growth slack:
  // bin offsets, the packed postings with their block directory, one
  // bound per block and the mass order.
  for (const SlmIndex* index : {&small, &big}) {
    const std::uint64_t offsets =
        (std::uint64_t{params_.binning().num_bins()} + 1) *
        sizeof(std::uint32_t);
    const std::uint64_t bounds =
        index->block_bounds().size() * sizeof(BlockBound);
    const std::uint64_t order =
        index->ids_by_mass().size() * sizeof(LocalPeptideId);
    EXPECT_EQ(index->memory_bytes(),
              offsets + index->packed_posting_bytes() + bounds + order);
  }
}

TEST_F(SlmIndexTest, BinOccupancySumsToPostings) {
  const auto store = make_store({"PEPTIDEK", "AAAGGGK"});
  const SlmIndex index(store, mods_, params_);
  const auto occupancy = index.bin_occupancy();
  std::uint64_t total = 0;
  for (const auto c : occupancy) total += c;
  EXPECT_EQ(total, index.num_postings());
}

TEST_F(SlmIndexTest, EmptySpectrumYieldsNothing) {
  const auto store = make_store({"PEPTIDEK"});
  const SlmIndex index(store, mods_, params_);
  chem::Spectrum empty;
  std::vector<Candidate> candidates;
  QueryWork work;
  index.query(empty, query_, candidates, work);
  EXPECT_TRUE(candidates.empty());
  EXPECT_EQ(work.peaks_processed, 0u);
}

}  // namespace
}  // namespace lbe::index
