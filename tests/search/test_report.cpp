#include "search/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "digest/decoy.hpp"
#include "search/fdr.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  // NOTE: mods_/variants_ are declared before plan_ below so they are
  // initialized before the plan that references them.
  ReportTest()
      : plan_({"PEPTIDEK", "GGGGGGK", "MKWVTFISLLK"}, mods_, variants_,
              lbe_params()) {}

  static core::LbeParams lbe_params() {
    core::LbeParams lbe;
    lbe.partition.ranks = 2;
    return lbe;
  }

  /// First global variant id whose base differs from variant 0's base
  /// (variants of one base share its decoy/target identity).
  GlobalPeptideId other_base_variant() const {
    const auto base0 = plan_.locate_variant(0).base_id;
    for (GlobalPeptideId g = 1; g < plan_.num_variants(); ++g) {
      if (plan_.locate_variant(g).base_id != base0) return g;
    }
    return 0;
  }

  std::vector<GlobalQueryResult> sample_results() const {
    GlobalQueryResult r0;
    r0.query_id = 0;
    r0.top.push_back(GlobalPsm{0, 12, 21.5f, 0});
    r0.top.push_back(GlobalPsm{other_base_variant(), 5, 8.25f, 1});
    GlobalQueryResult r1;
    r1.query_id = 1;  // no PSMs
    return {r0, r1};
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  digest::VariantParams variants_;
  core::LbePlan plan_;  // keep last: references the members above
};

TEST_F(ReportTest, HeaderAndRowStructure) {
  std::ostringstream out;
  write_psm_report(out, plan_, sample_results());
  const std::string text = out.str();
  const auto lines = str::split(text, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(str::starts_with(lines[0], "query_id\tpsm_rank\tpeptide"));
  // 2 PSMs total -> 2 data rows (+ trailing empty line from final \n).
  EXPECT_EQ(lines.size(), 4u);
  const auto fields = str::split(lines[1], '\t');
  ASSERT_EQ(fields.size(), 9u);
  EXPECT_EQ(fields[0], "0");  // query id
  EXPECT_EQ(fields[1], "1");  // rank
}

TEST_F(ReportTest, PeptideColumnsAreAnnotated) {
  std::ostringstream out;
  write_psm_report(out, plan_, sample_results());
  const std::string text = out.str();
  // Global variant 0 is the first variant of the first clustered base.
  const auto expected = plan_.variant_peptide(0).annotated(mods_);
  EXPECT_NE(text.find(expected), std::string::npos);
}

TEST_F(ReportTest, DecoyFlagColumn) {
  std::vector<bool> decoy_bases(plan_.num_bases(), false);
  const auto loc = plan_.locate_variant(0);
  decoy_bases[loc.base_id] = true;
  std::ostringstream out;
  write_psm_report(out, plan_, sample_results(), decoy_bases);
  const std::string text = out.str();
  const auto lines = str::split(text, '\n');
  const auto first = str::split(lines[1], '\t');
  const auto second = str::split(lines[2], '\t');
  EXPECT_EQ(first[8], "1");
  EXPECT_EQ(second[8], "0");
}

TEST_F(ReportTest, FileWriterRoundTrip) {
  const std::string path = ::testing::TempDir() + "/lbe_report.tsv";
  write_psm_report_file(path, plan_, sample_results());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_TRUE(str::starts_with(header, "query_id"));
  EXPECT_THROW(
      write_psm_report_file("/nonexistent/dir/r.tsv", plan_, {}),
      IoError);
}

TEST_F(ReportTest, ReportFeedsFdrPipeline) {
  // Typical postprocessing: report rows -> FdrInput -> q-values.
  const auto results = sample_results();
  std::vector<bool> decoy_bases(plan_.num_bases(), false);
  decoy_bases[plan_.locate_variant(other_base_variant()).base_id] = true;
  std::vector<FdrInput> fdr_input;
  for (const auto& result : results) {
    for (const auto& psm : result.top) {
      fdr_input.push_back(FdrInput{
          psm.score,
          decoy_bases[plan_.locate_variant(psm.peptide).base_id]});
    }
  }
  const auto q = compute_qvalues(fdr_input);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q[0], 0.0);  // target above the decoy
  EXPECT_EQ(accepted_at(fdr_input, q, 0.01), 1u);
}

// resolve_psms against an oracle that re-enumerates every variant of the
// PSM's base: the unranking path must resolve each global id to the same
// peptide, mass and decoy flag, on a target+decoy plan at top_k 5.
TEST(ResolvePsms, MatchesReEnumerationOracle) {
  const chem::ModificationSet mods = chem::ModificationSet::paper_default();
  digest::VariantParams variant_params;
  variant_params.max_variants_per_peptide = 40;
  const std::vector<std::string> targets = {
      "MKWVTFISLLK", "NQMKCNQMK", "LLNMQKCR", "AMNQCKQMR", "KCKCMMNQ",
  };
  std::vector<std::string> bases = targets;
  std::set<std::string> decoys;
  for (const auto& target : targets) {
    const std::string decoy = digest::decoy_sequence(
        target, digest::DecoyMethod::kReverse, digest::trypsin(), 0);
    if (decoy != target && decoys.insert(decoy).second) bases.push_back(decoy);
  }
  core::LbeParams lbe;
  lbe.partition.ranks = 3;
  const core::LbePlan plan(bases, mods, variant_params, lbe);
  std::vector<bool> decoy_bases(plan.num_bases());
  for (std::uint32_t b = 0; b < plan.num_bases(); ++b) {
    decoy_bases[b] = decoys.count(plan.base_sequence(b)) != 0;
  }
  ASSERT_GT(plan.num_variants(), 200u);

  constexpr std::size_t kTopK = 5;
  Xoshiro256 rng(0x5EED);
  std::vector<GlobalQueryResult> results(60);
  for (std::size_t q = 0; q < results.size(); ++q) {
    results[q].query_id = static_cast<std::uint32_t>(q * 3);
    const std::size_t depth = q % 7 == 0 ? 0 : kTopK - q % 3;
    float score = 40.0f;
    for (std::size_t r = 0; r < depth; ++r) {
      score -= static_cast<float>(rng.uniform(0.0, 5.0));
      results[q].top.push_back(GlobalPsm{
          static_cast<GlobalPeptideId>(rng.below(plan.num_variants())),
          static_cast<std::uint32_t>(rng.below(30)), score,
          static_cast<RankId>(rng.below(3))});
    }
  }
  // The last variant of the last base exercises the upper edge.
  results.back().top.push_back(GlobalPsm{
      static_cast<GlobalPeptideId>(plan.num_variants() - 1), 4, -1.0f, 2});

  std::vector<ResolvedPsm> expected;
  for (const auto& result : results) {
    for (std::size_t r = 0; r < result.top.size(); ++r) {
      const auto& psm = result.top[r];
      const auto loc = plan.locate_variant(psm.peptide);
      const std::string& base = plan.base_sequence(loc.base_id);
      const auto variants =
          digest::enumerate_variants(base, mods, variant_params);
      ASSERT_LT(loc.ordinal, variants.size());
      const chem::Peptide& peptide = variants[loc.ordinal];
      ResolvedPsm row;
      row.query_id = result.query_id;
      row.psm_rank = static_cast<std::uint32_t>(r + 1);
      row.peptide = peptide.annotated(mods);
      row.base_sequence = base;
      row.neutral_mass = peptide.mass(mods);
      row.shared_peaks = psm.shared_peaks;
      row.score = psm.score;
      row.source_rank = psm.source_rank;
      row.is_decoy = decoy_bases[loc.base_id];
      expected.push_back(row);
    }
  }

  const auto rows = resolve_psms(plan, results, decoy_bases);
  ASSERT_EQ(rows.size(), expected.size());
  std::size_t decoy_rows = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].query_id, expected[i].query_id) << i;
    EXPECT_EQ(rows[i].psm_rank, expected[i].psm_rank) << i;
    EXPECT_EQ(rows[i].peptide, expected[i].peptide) << i;
    EXPECT_EQ(rows[i].base_sequence, expected[i].base_sequence) << i;
    // Same peptide, same arithmetic: the masses agree bit for bit.
    EXPECT_EQ(rows[i].neutral_mass, expected[i].neutral_mass) << i;
    EXPECT_EQ(rows[i].shared_peaks, expected[i].shared_peaks) << i;
    EXPECT_EQ(rows[i].score, expected[i].score) << i;
    EXPECT_EQ(rows[i].source_rank, expected[i].source_rank) << i;
    EXPECT_EQ(rows[i].is_decoy, expected[i].is_decoy) << i;
    decoy_rows += rows[i].is_decoy ? 1 : 0;
  }
  EXPECT_GT(decoy_rows, 0u);
  EXPECT_LT(decoy_rows, rows.size());
}

std::string row_line(const ResolvedPsm& row) {
  std::ostringstream out;
  write_psm_rows(out, {row});
  const std::string text = out.str();
  return text.substr(text.find('\n') + 1);
}

ResolvedPsm pinned_row(double mass, float score) {
  ResolvedPsm row;
  row.query_id = 7;
  row.psm_rank = 2;
  row.peptide = "PEPM(Oxidation)K";
  row.base_sequence = "PEPMK";
  row.neutral_mass = mass;
  row.shared_peaks = 11;
  row.score = score;
  row.source_rank = 3;
  row.is_decoy = true;
  return row;
}

// The psms.tsv bytes are a contract (equivalence gates cmp them), so the
// tricky cases are pinned literally: exact binary ties round to even the
// way printf does, zeros keep their sign, large values print every digit.
TEST(WritePsmRows, PinsFixedPointBytes) {
  const std::string prefix = "7\t2\tPEPM(Oxidation)K\tPEPMK\t";
  const auto line = [&](double mass, float score) {
    return row_line(pinned_row(mass, score));
  };
  EXPECT_EQ(line(0.015625, 0.03125f), prefix + "0.01562\t11\t0.0312\t3\t1\n");
  EXPECT_EQ(line(2.046875, -0.09375f),
            prefix + "2.04688\t11\t-0.0938\t3\t1\n");
  EXPECT_EQ(line(0.0, 0.0f), prefix + "0.00000\t11\t0.0000\t3\t1\n");
  EXPECT_EQ(line(-1e-7, -0.0f), prefix + "-0.00000\t11\t-0.0000\t3\t1\n");
  EXPECT_EQ(line(123456789.123456789, -12.34567f),
            prefix + "123456789.12346\t11\t-12.3457\t3\t1\n");
  EXPECT_EQ(line(1e20, 1234.56785f),
            prefix + "100000000000000000000.00000\t11\t1234.5679\t3\t1\n");
  EXPECT_EQ(line(99999.999995, 5e-05f),
            prefix + "100000.00000\t11\t0.0000\t3\t1\n");

  ResolvedPsm extremes = pinned_row(1198.58, 21.5f);
  extremes.query_id = 4294967295u;
  extremes.psm_rank = 1;
  extremes.shared_peaks = 0;
  extremes.source_rank = -1;
  extremes.is_decoy = false;
  EXPECT_EQ(row_line(extremes),
            "4294967295\t1\tPEPM(Oxidation)K\tPEPMK\t1198.58000\t0\t21.5000"
            "\t-1\t0\n");
}

// Beyond the pinned cases: random magnitudes and signs against the printf
// formatting the writer replaced.
TEST(WritePsmRows, MatchesPrintfOnRandomValues) {
  Xoshiro256 rng(42);
  std::vector<ResolvedPsm> rows;
  std::string expected =
      "query_id\tpsm_rank\tpeptide\tbase_sequence\tneutral_mass\t"
      "shared_peaks\tscore\tsource_rank\tis_decoy\n";
  char mass_text[64];
  char score_text[64];
  for (std::uint32_t i = 0; i < 20000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-6.0, 9.0));
    ResolvedPsm row = pinned_row(rng.uniform(-1.0, 1.0) * scale,
                                 static_cast<float>(rng.normal() * 30.0));
    row.query_id = i;
    row.source_rank = static_cast<RankId>(rng.below(64)) - 1;
    row.is_decoy = rng.bernoulli(0.5);
    std::snprintf(mass_text, sizeof(mass_text), "%.5f", row.neutral_mass);
    std::snprintf(score_text, sizeof(score_text), "%.4f",
                  static_cast<double>(row.score));
    expected += std::to_string(row.query_id) + "\t2\t" + row.peptide + "\t" +
                row.base_sequence + "\t" + mass_text + "\t11\t" + score_text +
                "\t" + std::to_string(row.source_rank) + "\t" +
                (row.is_decoy ? "1" : "0") + "\n";
    rows.push_back(std::move(row));
  }
  std::ostringstream out;
  write_psm_rows(out, rows);
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace lbe::search
