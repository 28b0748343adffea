// Property tests over realistic synthetic workloads: structural invariants
// of the index and filtration results that must hold for any input.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "index/chunked_index.hpp"
#include "synth/workload.hpp"

namespace lbe::index {
namespace {

class IndexProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  IndexProperties()
      : workload_(synth::make_paper_workload(2500, 16, GetParam())) {
    params_.fragments.max_fragment_charge = 1;
  }

  PeptideStore build_store() const {
    PeptideStore store(&workload_.mods);
    for (const auto& seq : workload_.base_peptides) {
      for (const auto& variant : digest::enumerate_variants(
               seq, workload_.mods, workload_.variant_params)) {
        store.add(variant, workload_.mods);
      }
    }
    return store;
  }

  synth::Workload workload_;
  IndexParams params_;
};

TEST_P(IndexProperties, BinOccupancyAccountsForAllPostings) {
  const PeptideStore store = build_store();
  const SlmIndex index(store, workload_.mods, params_);
  const auto occupancy = index.bin_occupancy();
  std::uint64_t total = 0;
  for (const auto c : occupancy) total += c;
  EXPECT_EQ(total, index.num_postings());
  EXPECT_GT(total, 0u);
}

TEST_P(IndexProperties, CandidatesUniqueAndAboveThreshold) {
  const PeptideStore store = build_store();
  const SlmIndex index(store, workload_.mods, params_);
  QueryParams filter;
  filter.shared_peak_min = 4;
  std::vector<Candidate> candidates;
  QueryWork work;
  for (const auto& query : workload_.queries) {
    candidates.clear();
    index.query(query, filter, candidates, work);
    std::set<LocalPeptideId> seen;
    for (const auto& candidate : candidates) {
      EXPECT_TRUE(seen.insert(candidate.peptide).second)
          << "duplicate candidate";
      EXPECT_GE(candidate.shared_peaks, filter.shared_peak_min);
      EXPECT_GT(candidate.matched_intensity, 0.0f);
      EXPECT_LT(candidate.peptide, store.size());
    }
  }
}

TEST_P(IndexProperties, TighterThresholdYieldsSubset) {
  const PeptideStore store = build_store();
  const SlmIndex index(store, workload_.mods, params_);
  QueryParams loose;
  loose.shared_peak_min = 2;
  QueryParams tight;
  tight.shared_peak_min = 6;
  std::vector<Candidate> loose_out;
  std::vector<Candidate> tight_out;
  QueryWork work;
  for (const auto& query : workload_.queries) {
    loose_out.clear();
    tight_out.clear();
    index.query(query, loose, loose_out, work);
    index.query(query, tight, tight_out, work);
    std::set<LocalPeptideId> loose_ids;
    for (const auto& c : loose_out) loose_ids.insert(c.peptide);
    for (const auto& c : tight_out) {
      EXPECT_TRUE(loose_ids.count(c.peptide))
          << "tight candidate missing from loose set";
    }
    EXPECT_LE(tight_out.size(), loose_out.size());
  }
}

TEST_P(IndexProperties, ChunkedMatchesFlatOnWorkload) {
  ChunkingParams flat;
  ChunkingParams split;
  split.max_chunk_entries = 333;
  PeptideStore store_a = build_store();
  PeptideStore store_b = build_store();
  const ChunkedIndex whole(std::move(store_a), workload_.mods, params_, flat);
  const ChunkedIndex chunked(std::move(store_b), workload_.mods, params_,
                             split);
  EXPECT_EQ(whole.num_postings(), chunked.num_postings());

  QueryParams filter;
  filter.shared_peak_min = 4;
  std::vector<Candidate> a;
  std::vector<Candidate> b;
  QueryWork wa;
  QueryWork wb;
  for (const auto& query : workload_.queries) {
    a.clear();
    b.clear();
    whole.query(query, filter, a, wa);
    chunked.query(query, filter, b, wb);
    std::set<std::pair<LocalPeptideId, std::uint32_t>> sa;
    std::set<std::pair<LocalPeptideId, std::uint32_t>> sb;
    for (const auto& c : a) sa.insert({c.peptide, c.shared_peaks});
    for (const auto& c : b) sb.insert({c.peptide, c.shared_peaks});
    EXPECT_EQ(sa, sb);
  }
  EXPECT_EQ(wa.postings_touched, wb.postings_touched);
}

TEST_P(IndexProperties, SerializationPreservesEverything) {
  PeptideStore store = build_store();
  const ChunkedIndex original(std::move(store), workload_.mods, params_,
                              ChunkingParams{});
  const std::string path = ::testing::TempDir() + "/properties_" +
                           std::to_string(GetParam()) + ".idx";
  original.save_file(path);
  const auto loaded = ChunkedIndex::map_file(path, workload_.mods, params_);
  std::filesystem::remove(path);  // the mapping keeps the pages
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
  // Re-saving the mapped index reproduces the original bytes exactly.
  std::ostringstream saved;
  std::ostringstream resaved;
  original.save(saved);
  loaded->save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());
  QueryParams filter;
  filter.shared_peak_min = 4;
  std::vector<Candidate> a;
  std::vector<Candidate> b;
  QueryWork wa;
  QueryWork wb;
  for (const auto& query : workload_.queries) {
    a.clear();
    b.clear();
    original.query(query, filter, a, wa);
    loaded->query(query, filter, b, wb);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peptide, b[i].peptide);
      EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProperties,
                         ::testing::Values(11u, 222u, 3333u));

}  // namespace
}  // namespace lbe::index
