#include "digest/variants.hpp"

#include <gtest/gtest.h>

#include <set>

#include "chem/modification.hpp"
#include "common/error.hpp"

namespace lbe::digest {
namespace {

class VariantsTest : public ::testing::Test {
 protected:
  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  VariantParams params_;
};

TEST_F(VariantsTest, NoEligibleSitesYieldsBaseOnly) {
  const auto variants = enumerate_variants("GGAVL", mods_, params_);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_FALSE(variants[0].modified());
}

TEST_F(VariantsTest, SingleSiteTwoVariants) {
  // M: oxidation only.
  const auto variants = enumerate_variants("GMG", mods_, params_);
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_FALSE(variants[0].modified());
  EXPECT_TRUE(variants[1].modified());
  EXPECT_EQ(variants[1].annotated(mods_), "GM(Oxidation)G");
}

TEST_F(VariantsTest, CountMatchesClosedFormForIndependentSites) {
  // "NMK": N (deamid), M (ox), K (glygly) — one mod option each.
  // Variants = sum over subsets = 2^3 = 8.
  EXPECT_EQ(count_variants("NMK", mods_, params_), 8u);
  const auto variants = enumerate_variants("NMK", mods_, params_);
  EXPECT_EQ(variants.size(), 8u);
}

TEST_F(VariantsTest, MaxModResiduesCapsSubsetSize) {
  VariantParams capped = params_;
  capped.max_mod_residues = 1;
  // "NMK": base + 3 single-site variants = 4.
  EXPECT_EQ(count_variants("NMK", mods_, capped), 4u);
  capped.max_mod_residues = 2;
  // base + 3 singles + 3 pairs = 7.
  EXPECT_EQ(count_variants("NMK", mods_, capped), 7u);
}

TEST_F(VariantsTest, ZeroMaxModsMeansUnmodifiedOnly) {
  VariantParams capped = params_;
  capped.max_mod_residues = 0;
  EXPECT_EQ(count_variants("NMK", mods_, capped), 1u);
}

TEST_F(VariantsTest, ExcludeUnmodified) {
  VariantParams p = params_;
  p.include_unmodified = false;
  const auto variants = enumerate_variants("GMG", mods_, p);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_TRUE(variants[0].modified());
}

TEST_F(VariantsTest, FewerSitesFirstOrdering) {
  const auto variants = enumerate_variants("NMK", mods_, params_);
  ASSERT_EQ(variants.size(), 8u);
  EXPECT_EQ(variants[0].sites().size(), 0u);
  EXPECT_EQ(variants[1].sites().size(), 1u);
  EXPECT_EQ(variants[3].sites().size(), 1u);
  EXPECT_EQ(variants[4].sites().size(), 2u);
  EXPECT_EQ(variants[7].sites().size(), 3u);
}

TEST_F(VariantsTest, AllVariantsDistinct) {
  const auto variants = enumerate_variants("NNMMKK", mods_, params_);
  std::set<std::string> annotated;
  for (const auto& v : variants) annotated.insert(v.annotated(mods_));
  EXPECT_EQ(annotated.size(), variants.size());
}

TEST_F(VariantsTest, CapTruncatesDeterministically) {
  VariantParams capped = params_;
  capped.max_variants_per_peptide = 5;
  const auto all = enumerate_variants("NNMMKK", mods_, params_);
  const auto cut = enumerate_variants("NNMMKK", mods_, capped);
  ASSERT_EQ(cut.size(), 5u);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(cut[i].annotated(mods_), all[i].annotated(mods_));
  }
  EXPECT_EQ(count_variants("NNMMKK", mods_, capped), 5u);
}

TEST_F(VariantsTest, CountAgreesWithEnumerationOnManySequences) {
  const std::vector<std::string> sequences = {
      "GG", "NG", "NQ", "MMM", "KCKC", "NQMKC", "GGGGGG", "NNNNN",
  };
  for (const auto& seq : sequences) {
    EXPECT_EQ(count_variants(seq, mods_, params_),
              enumerate_variants(seq, mods_, params_).size())
        << seq;
  }
}

TEST_F(VariantsTest, PaperCapOfFiveModifiedResidues) {
  VariantParams paper = params_;
  paper.max_mod_residues = 5;
  // 6 eligible sites, max 5 modified: 2^6 - 1 (the all-six subset) = 63.
  EXPECT_EQ(count_variants("NNMMKC", mods_, paper), 63u);
}

// nth_variant is the unranking twin of enumerate_variants: for every
// ordinal it must build exactly the peptide the full enumeration puts
// there, and the first ordinal past the end must throw.
void expect_unranks_like_enumeration(const std::string& sequence,
                                     const chem::ModificationSet& mods,
                                     const VariantParams& params) {
  const auto all = enumerate_variants(sequence, mods, params);
  ASSERT_EQ(all.size(), count_variants(sequence, mods, params)) << sequence;
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(nth_variant(sequence, mods, params, i), all[i])
        << sequence << " ordinal " << i;
  }
  EXPECT_THROW(nth_variant(sequence, mods, params, all.size()),
               InvariantError)
      << sequence;
}

TEST_F(VariantsTest, NthVariantMatchesEnumerationAtEveryOrdinal) {
  const std::vector<std::string> sequences = {
      "GGAVL", "NMK", "NNMMKK", "NQMKCNQMKC", "MMMMMMMM", "KCNQMSTYKCNQ",
  };
  VariantParams capped = params_;
  capped.max_variants_per_peptide = 17;
  VariantParams targets_only = params_;
  targets_only.include_unmodified = false;
  VariantParams none = params_;
  none.max_mod_residues = 0;
  VariantParams single = params_;
  single.max_mod_residues = 1;
  VariantParams paper = params_;
  paper.max_mod_residues = 5;
  VariantParams capped_targets_only = targets_only;
  capped_targets_only.max_variants_per_peptide = 3;
  // Two variable mods on K, so some sites offer a choice of modification.
  chem::ModificationSet dense = chem::ModificationSet::paper_default();
  dense.add({"Methyl", 14.01565006, "KR", false});
  dense.add({"Phospho", 79.96633052, "STY", false});
  for (const chem::ModificationSet* mods : {&mods_, &dense}) {
    for (const VariantParams& params :
         {params_, capped, targets_only, none, single, paper,
          capped_targets_only}) {
      for (const auto& sequence : sequences) {
        expect_unranks_like_enumeration(sequence, *mods, params);
      }
    }
  }
}

TEST_F(VariantsTest, NthVariantRejectsOrdinalsPastTheCap) {
  VariantParams capped = params_;
  capped.max_variants_per_peptide = 5;
  // "NNMMKK" has 63 uncapped variants; the cap makes ordinal 5 the end.
  EXPECT_NO_THROW(nth_variant("NNMMKK", mods_, params_, 5));
  EXPECT_THROW(nth_variant("NNMMKK", mods_, capped, 5), InvariantError);
  // No variants at all: nothing to unrank.
  VariantParams empty = params_;
  empty.include_unmodified = false;
  EXPECT_EQ(count_variants("GGAVL", mods_, empty), 0u);
  EXPECT_THROW(nth_variant("GGAVL", mods_, empty, 0), InvariantError);
}

TEST_F(VariantsTest, MassesReflectPlacedMods) {
  const auto variants = enumerate_variants("GMG", mods_, params_);
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_NEAR(variants[1].mass(mods_) - variants[0].mass(mods_),
              15.99491462, 1e-6);
}

}  // namespace
}  // namespace lbe::digest
