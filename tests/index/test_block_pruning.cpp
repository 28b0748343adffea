// Block-max pruning (format v5 bound metadata): bound construction, round
// trips through a mapped rank file, corruption handling, and — the
// property the whole feature rests on — exact candidate equivalence
// between the pruned and unpruned walks, built and mapped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "index/chunked_index.hpp"
#include "index/posting_codec.hpp"
#include "index/slm_index.hpp"
#include "synth/workload.hpp"

namespace lbe::index {
namespace {

class BlockPruningTest : public ::testing::Test {
 protected:
  BlockPruningTest() {
    // Coarse 1.0 Da bins pile enough postings per bin that the 128-posting
    // codec blocks — the pruning granule — actually partition bins.
    params_.resolution = 1.0;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 1;
    query_.fragment_tolerance = 1.0;
    query_.shared_peak_min = 4;
    query_.prune_blocks = true;
  }

  PeptideStore make_store(const std::vector<std::string>& seqs) {
    PeptideStore store(&mods_);
    for (const auto& s : seqs) store.add(chem::Peptide(s), mods_);
    return store;
  }

  // The open-search bench workload in miniature: PTM-shifted queries over
  // a dense synthetic peptide set. Built once, shared by every test.
  static const synth::Workload& workload() {
    static const synth::Workload w = [] {
      synth::WorkloadParams p;
      p.target_entries = 4000;
      p.num_queries = 8;
      p.seed = 2019;
      p.spectra.ptm_shift_fraction = 0.5;
      p.variants.max_mod_residues = 5;
      p.variants.max_variants_per_peptide = 64;
      return synth::make_workload(p);
    }();
    return w;
  }

  PeptideStore workload_store() {
    PeptideStore store(&mods_);
    for (const auto& seq : workload().base_peptides) {
      store.add(chem::Peptide(seq), mods_);
    }
    return store;
  }

  static bool same_candidates(const std::vector<Candidate>& a,
                              const std::vector<Candidate>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].peptide != b[i].peptide ||
          a[i].shared_peaks != b[i].shared_peaks ||
          a[i].matched_intensity != b[i].matched_intensity) {
        return false;
      }
    }
    return true;
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
  QueryParams query_;
};

TEST_F(BlockPruningTest, BoundsComputedAtBuild) {
  const auto store = make_store({"PEPTIDEK"});
  const SlmIndex index(store, mods_, params_);
  const auto bounds = index.block_bounds();
  const std::uint64_t expect_blocks =
      (index.num_postings() + codec::kBlockValues - 1) / codec::kBlockValues;
  ASSERT_EQ(bounds.size(), expect_blocks);
  ASSERT_GE(bounds.size(), 1u);

  // One peptide: every block's mass range brackets its mass, and no block
  // can claim more postings for one peptide than the index holds.
  const Mass mass = store.mass(0);
  for (const BlockBound& bound : bounds) {
    EXPECT_LE(static_cast<double>(bound.mass_lo), mass);
    EXPECT_GE(static_cast<double>(bound.mass_hi), mass);
    EXPECT_GE(bound.max_frags, 1u);
    EXPECT_LE(bound.max_frags, index.num_postings());
    EXPECT_EQ(bound.reserved, 0u);
  }
  // The full index is one peptide, so some block must see its whole
  // posting share.
  std::uint32_t max_seen = 0;
  for (const BlockBound& bound : bounds) {
    max_seen = std::max(max_seen, bound.max_frags);
  }
  const std::uint64_t last_block_size =
      index.num_postings() - (bounds.size() - 1) * codec::kBlockValues;
  EXPECT_GE(max_seen, std::min<std::uint64_t>(last_block_size,
                                              codec::kBlockValues));
}

TEST_F(BlockPruningTest, BoundInvariantsOnDenseIndex) {
  const auto store = workload_store();
  const SlmIndex index(store, mods_, params_);
  ASSERT_GT(index.block_bounds().size(), 4u);
  for (const BlockBound& bound : index.block_bounds()) {
    EXPECT_TRUE(std::isfinite(bound.mass_lo));
    EXPECT_TRUE(std::isfinite(bound.mass_hi));
    EXPECT_LE(bound.mass_lo, bound.mass_hi);
    EXPECT_GE(bound.max_frags, 1u);
    EXPECT_EQ(bound.reserved, 0u);
  }
}

// The core exactness property: with a finite precursor window, the pruned
// walk must emit candidate-for-candidate (order and bits) what the
// unpruned walk emits, while actually skipping blocks.
TEST_F(BlockPruningTest, MassPruningIsExact) {
  const auto store = workload_store();
  const SlmIndex index(store, mods_, params_);

  std::uint64_t total_pruned = 0;
  for (const double window : {5.0, 100.0}) {
    QueryParams pruned = query_;
    pruned.precursor_tolerance = window;
    QueryParams plain = pruned;
    plain.prune_blocks = false;

    for (const auto& spectrum : workload().queries) {
      std::vector<Candidate> out_pruned;
      std::vector<Candidate> out_plain;
      QueryWork work_pruned;
      QueryWork work_plain;
      index.query(spectrum, pruned, out_pruned, work_pruned);
      index.query(spectrum, plain, out_plain, work_plain);
      EXPECT_TRUE(same_candidates(out_pruned, out_plain))
          << "window=" << window;
      EXPECT_EQ(work_plain.blocks_pruned, 0u);
      EXPECT_EQ(work_plain.spans_pruned, 0u);
      // Pruning only ever removes walked work.
      EXPECT_LE(work_pruned.postings_touched, work_plain.postings_touched);
      total_pruned += work_pruned.blocks_pruned;
    }
  }
  EXPECT_GT(total_pruned, 0u) << "mass pruning never fired (vacuous)";
}

// Candidate sets must also agree with the pre-batching reference walk —
// the oracle that predates both batching and pruning. Order differs by
// contract, so compare (peptide, shared_peaks) multisets.
TEST_F(BlockPruningTest, PrunedWalkMatchesReferenceOracle) {
  const auto store = workload_store();
  const SlmIndex index(store, mods_, params_);
  QueryParams pruned = query_;
  pruned.precursor_tolerance = 50.0;

  QueryArena arena;
  for (const auto& spectrum : workload().queries) {
    std::vector<Candidate> batched;
    std::vector<Candidate> reference;
    QueryWork work;
    index.query(spectrum, pruned, batched, work, arena);
    index.query_reference(spectrum, pruned, reference, work, arena);

    const auto key = [](const Candidate& c) {
      return std::pair<LocalPeptideId, std::uint32_t>{c.peptide,
                                                      c.shared_peaks};
    };
    std::vector<std::pair<LocalPeptideId, std::uint32_t>> a;
    std::vector<std::pair<LocalPeptideId, std::uint32_t>> b;
    for (const auto& c : batched) a.push_back(key(c));
    for (const auto& c : reference) b.push_back(key(c));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST_F(BlockPruningTest, SaveLoadRoundTripPreservesBounds) {
  const ChunkedIndex built(workload_store(), mods_, params_,
                           ChunkingParams{});
  const std::string path = temp_path("bpr_roundtrip.idx");
  built.save_file(path);
  const auto loaded = ChunkedIndex::map_file(path, mods_, params_);
  std::filesystem::remove(path);  // the mapping keeps the pages

  // Built and mapped indexes run the same decode walk over the same
  // packed blocks, so they agree on every candidate and every work counter
  // — open, narrow and wide.
  for (const double window :
       {std::numeric_limits<double>::infinity(), 5.0, 50.0}) {
    QueryParams pruned = query_;
    pruned.precursor_tolerance = window;
    QueryWork wb;
    QueryWork wl;
    for (const auto& spectrum : workload().queries) {
      std::vector<Candidate> out_built;
      std::vector<Candidate> out_loaded;
      built.query(spectrum, pruned, out_built, wb);
      loaded->query(spectrum, pruned, out_loaded, wl);
      EXPECT_TRUE(same_candidates(out_built, out_loaded))
          << "window=" << window;
    }
    EXPECT_EQ(wb, wl) << "window=" << window;
    EXPECT_GT(wb.postings_touched, 0u) << "window=" << window;
  }

  // And its bounds survive bit for bit: re-saving the mapped index
  // reproduces every byte of the original, bound records included.
  std::ostringstream saved;
  std::ostringstream resaved;
  built.save(saved);
  loaded->save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());
}

TEST_F(BlockPruningTest, CorruptedBoundBytesAreIoError) {
  const ChunkedIndex index(make_store({"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK"}),
                           mods_, params_, ChunkingParams{});
  std::ostringstream stream;
  index.save(stream);
  const std::string clean = stream.str();
  const auto map_all = [&](const std::string& bytes, const char* name) {
    const std::string path = temp_path(name);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto mapped = ChunkedIndex::map_file(path, mods_, params_);
    std::filesystem::remove(path);
    mapped->materialize_all();
  };
  ASSERT_NO_THROW(map_all(clean, "bpr_clean.idx"));

  // The BlockBound records sit near the tail of the single chunk's arrays
  // payload (only the 3-id mass order follows); flip one byte there.
  // Whether the chunk CRC or the bound validation catches it, the contract
  // is the same: IoError, never a silently wrong bound.
  ASSERT_GT(clean.size(), 64u);
  std::string bytes = clean;
  bytes[bytes.size() - 48] ^= 0x40;
  EXPECT_THROW(map_all(bytes, "bpr_flip.idx"), IoError);

  // Truncation inside the bounds region is IoError too.
  EXPECT_THROW(map_all(clean.substr(0, clean.size() - 24), "bpr_cut.idx"),
               IoError);
}

}  // namespace
}  // namespace lbe::index
