// Round-trip tests for the on-disk index format (the paper's disk-resident
// chunks): every component — store, SLM index, chunked index, mapping
// table, full per-rank bundle — survives save/load bit-exactly, queries
// agree, and corrupted/mismatched files (bad magic, wrong version,
// truncation, flipped bits anywhere) are rejected with IoError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/binary_io.hpp"
#include "index/serialize.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::index {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 1;
  }

  PeptideStore make_store() {
    PeptideStore store(&mods_);
    store.add(chem::Peptide("PEPTIDEK"), mods_);
    store.add(chem::Peptide("MKWVTFISLLK"), mods_);
    store.add(chem::Peptide("MGGGK", {{0, 2}}, mods_), mods_);  // modified
    store.add(chem::Peptide("GGGGGGK"), mods_);
    return store;
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
};

TEST_F(SerializeTest, StoreRoundTrip) {
  const PeptideStore original = make_store();
  std::stringstream buffer;
  original.save(buffer);
  const PeptideStore loaded = PeptideStore::load(buffer, &mods_);
  ASSERT_EQ(loaded.size(), original.size());
  for (LocalPeptideId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(loaded.materialize(id), original.materialize(id));
    EXPECT_DOUBLE_EQ(loaded.mass(id), original.mass(id));
  }
}

TEST_F(SerializeTest, EmptyStoreRoundTrip) {
  const PeptideStore empty(&mods_);
  std::stringstream buffer;
  empty.save(buffer);
  const PeptideStore loaded = PeptideStore::load(buffer, &mods_);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(SerializeTest, StoreLoadRejectsTruncation) {
  const PeptideStore original = make_store();
  std::stringstream buffer;
  original.save(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::istringstream truncated(bytes);
  EXPECT_THROW(PeptideStore::load(truncated, &mods_), IoError);
}

TEST_F(SerializeTest, ChunkedIndexRoundTripQueriesAgree) {
  ChunkingParams chunking;
  chunking.max_chunk_entries = 2;  // multiple chunks exercised
  const ChunkedIndex original(make_store(), mods_, params_, chunking);
  std::stringstream buffer;
  original.save(buffer);
  const auto loaded = ChunkedIndex::load(buffer, mods_, params_);

  EXPECT_EQ(loaded->num_chunks(), original.num_chunks());
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
  EXPECT_EQ(loaded->num_peptides(), original.num_peptides());

  QueryParams filter;
  filter.shared_peak_min = 1;
  for (const char* seq : {"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK"}) {
    const auto spectrum = theospec::theoretical_spectrum(
        chem::Peptide(seq), mods_, params_.fragments);
    std::vector<Candidate> a;
    std::vector<Candidate> b;
    QueryWork wa;
    QueryWork wb;
    original.query(spectrum, filter, a, wa);
    loaded->query(spectrum, filter, b, wb);
    ASSERT_EQ(a.size(), b.size()) << seq;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peptide, b[i].peptide);
      EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
      EXPECT_FLOAT_EQ(a[i].matched_intensity, b[i].matched_intensity);
    }
    EXPECT_EQ(wa.postings_touched, wb.postings_touched);
  }
}

TEST_F(SerializeTest, LoadRejectsBadMagic) {
  std::stringstream buffer;
  buffer << "definitely not an index";
  EXPECT_THROW(ChunkedIndex::load(buffer, mods_, params_), IoError);
}

TEST_F(SerializeTest, LoadRejectsDifferentParams) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  IndexParams other = params_;
  other.resolution = 0.02;
  EXPECT_THROW(ChunkedIndex::load(buffer, mods_, other), IoError);
}

TEST_F(SerializeTest, FileRoundTripAndMissingFile) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string path = ::testing::TempDir() + "/lbe_index.bin";
  original.save_file(path);
  const auto loaded = ChunkedIndex::load_file(path, mods_, params_);
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
  EXPECT_THROW(ChunkedIndex::load_file("/nonexistent/x.bin", mods_, params_),
               IoError);
}

TEST_F(SerializeTest, LoadedIndexMemoryAccountingSane) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  const auto loaded = ChunkedIndex::load(buffer, mods_, params_);
  // Scorecards are lazily sized, so loaded <= original is possible; both
  // must at least cover the postings.
  EXPECT_GE(loaded->memory_bytes(),
            loaded->num_postings() * sizeof(LocalPeptideId));
}

TEST_F(SerializeTest, SlmIndexRoundTrip) {
  const PeptideStore store = make_store();
  const SlmIndex original(store, mods_, params_);
  std::stringstream buffer;
  original.save(buffer);
  const SlmIndex loaded = SlmIndex::load(buffer, store, mods_, params_);
  EXPECT_EQ(loaded.num_postings(), original.num_postings());

  QueryParams filter;
  filter.shared_peak_min = 1;
  const auto spectrum = theospec::theoretical_spectrum(
      chem::Peptide("PEPTIDEK"), mods_, params_.fragments);
  std::vector<Candidate> a;
  std::vector<Candidate> b;
  QueryWork wa;
  QueryWork wb;
  original.query(spectrum, filter, a, wa);
  loaded.query(spectrum, filter, b, wb);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peptide, b[i].peptide);
    EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
  }
}

// Format v6: the arrays payload ends with the index's ids in (mass, id)
// order. Each corruption below keeps the section CRC valid (recomputed),
// so only the structural validation can catch it — and it must, before the
// window path binary-searches the order or reads store columns by its ids.
namespace {

/// Rewrites one id of the mass order of a saved SlmIndex (whose arrays
/// section is the last in the stream) and re-seals the section CRC.
std::string corrupt_mass_order(std::string bytes, std::size_t n,
                               std::size_t slot, std::uint32_t id) {
  const std::size_t order_at = bytes.size() - ((4 * n + 7) & ~std::size_t{7});
  std::memcpy(bytes.data() + order_at + 4 * slot, &id, sizeof(id));
  for (std::size_t p = 16; p < bytes.size(); p += 8) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::memcpy(&tag, bytes.data() + p - 16, sizeof(tag));
    std::memcpy(&size, bytes.data() + p - 12, sizeof(size));
    if (tag == serialize::kSecArrays && size == bytes.size() - p) {
      const std::uint32_t crc = bin::crc32(bytes.data() + p, size);
      std::memcpy(bytes.data() + p - 4, &crc, sizeof(crc));
      return bytes;
    }
  }
  ADD_FAILURE() << "arrays section not found";
  return bytes;
}

}  // namespace

TEST_F(SerializeTest, SlmIndexMassOrderRoundTripsAndIsValidated) {
  const PeptideStore store = make_store();
  const SlmIndex original(store, mods_, params_);
  std::stringstream buffer;
  original.save(buffer);
  const std::string bytes = buffer.str();
  {
    std::istringstream in(bytes);
    const SlmIndex loaded = SlmIndex::load(in, store, mods_, params_);
    ASSERT_EQ(loaded.ids_by_mass().size(), store.size());
    EXPECT_TRUE(std::equal(loaded.ids_by_mass().begin(),
                           loaded.ids_by_mass().end(),
                           original.ids_by_mass().begin()));
  }
  const auto order = original.ids_by_mass();
  const std::size_t n = order.size();
  ASSERT_GE(n, 2u);
  const std::uint32_t out_of_range = static_cast<std::uint32_t>(n) + 5;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"out-of-range id", corrupt_mass_order(bytes, n, n - 1, out_of_range)},
      {"order violation", corrupt_mass_order(bytes, n, 0, order[1])},
      {"duplicated id", corrupt_mass_order(bytes, n, 1, order[0])},
  };
  for (const auto& [what, corrupt] : cases) {
    std::istringstream in(corrupt);
    try {
      (void)SlmIndex::load(in, store, mods_, params_);
      ADD_FAILURE() << what << " loaded successfully";
    } catch (const serialize::FormatVersionError&) {
      ADD_FAILURE() << what << " misreported as a version mismatch";
    } catch (const IoError& e) {
      EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos)
          << what << " was caught by the CRC, not the order validation";
    }
  }
}

TEST_F(SerializeTest, VersionFiveFilesAreStale) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  std::string v5 = buffer.str();
  ASSERT_EQ(v5[4], 6);
  v5[4] = 5;  // version u32 follows the 4-byte magic
  std::istringstream in(v5);
  EXPECT_THROW(ChunkedIndex::load(in, mods_, params_),
               serialize::FormatVersionError);
}

TEST_F(SerializeTest, SlmIndexLoadRejectsDifferentParams) {
  const PeptideStore store = make_store();
  const SlmIndex original(store, mods_, params_);
  std::stringstream buffer;
  original.save(buffer);
  IndexParams other = params_;
  other.fragments.max_fragment_charge = 2;
  EXPECT_THROW(SlmIndex::load(buffer, store, mods_, other), IoError);
}

TEST_F(SerializeTest, MappingTableRoundTrip) {
  const MappingTable original({{0, 2, 5}, {1, 4}, {3}});
  std::stringstream buffer;
  original.save(buffer);
  const MappingTable loaded = MappingTable::load(buffer);
  EXPECT_TRUE(loaded == original);
  EXPECT_EQ(loaded.num_ranks(), 3);
  EXPECT_EQ(loaded.total_peptides(), 6u);
  for (GlobalPeptideId g = 0; g < 6; ++g) {
    EXPECT_EQ(loaded.rank_of(g), original.rank_of(g)) << g;
    EXPECT_EQ(loaded.local_of(g), original.local_of(g)) << g;
  }
  EXPECT_EQ(loaded.to_global(1, 1), 4u);
}

TEST_F(SerializeTest, LoadRejectsWrongFormatVersion) {
  // A stream claiming version 1 (the pre-checksum layout) must be refused,
  // not misparsed: the versioning policy is regenerate, never migrate.
  std::stringstream buffer;
  bin::write_pod(buffer, serialize::kMagic);
  bin::write_pod(buffer, std::uint32_t{1});
  bin::write_pod(buffer,
                 static_cast<std::uint32_t>(serialize::Kind::kChunkedIndex));
  EXPECT_THROW(ChunkedIndex::load(buffer, mods_, params_), IoError);
}

TEST_F(SerializeTest, StaleVersionAndCorruptionAreDistinctErrors) {
  // The pipeline's warm-start path treats FormatVersionError as
  // "regenerate quietly" but lets any other IoError propagate, so the two
  // must stay distinguishable: a stale version field throws the subtype, a
  // flipped payload bit throws plain IoError.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  const std::string bytes = buffer.str();

  std::string stale = bytes;
  stale[4] = 3;  // version u32 follows the 4-byte magic
  std::istringstream stale_in(stale);
  EXPECT_THROW(ChunkedIndex::load(stale_in, mods_, params_),
               serialize::FormatVersionError);

  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] =
      static_cast<char>(corrupt[bytes.size() / 2] ^ 0x20);
  std::istringstream corrupt_in(corrupt);
  try {
    ChunkedIndex::load(corrupt_in, mods_, params_);
    FAIL() << "corrupted stream loaded successfully";
  } catch (const serialize::FormatVersionError&) {
    FAIL() << "payload corruption misreported as a version mismatch";
  } catch (const IoError&) {
    // Expected: corruption is fatal, not a rebuild trigger.
  }
}

TEST_F(SerializeTest, LoadRejectsWrongComponentKind) {
  const PeptideStore store = make_store();
  std::stringstream buffer;
  store.save(buffer);
  // A valid peptide-store stream is not a chunked index.
  EXPECT_THROW(ChunkedIndex::load(buffer, mods_, params_), IoError);
}

TEST_F(SerializeTest, ChunkedLoadRejectsTrailingBytes) {
  // Both load modes must agree on validity: map_file requires the chunk
  // extents to account for the whole file, so the eager stream load must
  // reject appended garbage too.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  buffer << "garbage";
  EXPECT_THROW(ChunkedIndex::load(buffer, mods_, params_), IoError);
}

TEST_F(SerializeTest, ChunkedLoadRejectsTruncation) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - bytes.size() / 3);
  std::istringstream truncated(bytes);
  EXPECT_THROW(ChunkedIndex::load(truncated, mods_, params_), IoError);
}

TEST_F(SerializeTest, EveryFlippedBitIsDetected) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::stringstream buffer;
  original.save(buffer);
  const std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 64u);

  // Flip one bit at a spread of positions covering the header, the section
  // frames and the payloads; every single one must surface as IoError —
  // never UB, never a silently different index.
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 97) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    std::istringstream in(corrupt);
    EXPECT_THROW(ChunkedIndex::load(in, mods_, params_), IoError)
        << "flipped bit at byte " << pos << " went undetected";
  }
}

TEST_F(SerializeTest, MappingTableRejectsFlippedBit) {
  const MappingTable original({{0, 2}, {1, 3}});
  std::stringstream buffer;
  original.save(buffer);
  std::string bytes = buffer.str();
  // Flip inside the payload (past the 12-byte header and 16-byte frame).
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
  std::istringstream in(bytes);
  EXPECT_THROW(MappingTable::load(in), IoError);
}

TEST_F(SerializeTest, IndexBundleRoundTrip) {
  // Two ranks, hand-carved: rank 0 owns globals {0, 2}, rank 1 owns {1, 3}.
  IndexBundle bundle;
  bundle.lbe.partition.ranks = 2;
  bundle.index_params = params_;
  bundle.mapping = MappingTable({{0, 2}, {1, 3}});
  for (int rank = 0; rank < 2; ++rank) {
    PeptideStore store(&mods_);
    store.add(chem::Peptide(rank == 0 ? "PEPTIDEK" : "MKWVTFISLLK"), mods_);
    store.add(chem::Peptide(rank == 0 ? "GGGGGGK" : "MGGGK"), mods_);
    bundle.per_rank.push_back(std::make_unique<ChunkedIndex>(
        std::move(store), mods_, params_, ChunkingParams{}));
  }

  const std::string dir = ::testing::TempDir() + "/lbe_bundle_test";
  save_index_bundle(dir, bundle);
  const IndexBundle loaded = load_index_bundle(dir, mods_);

  EXPECT_TRUE(loaded.mapping == bundle.mapping);
  EXPECT_TRUE(serialize::same_lbe_params(loaded.lbe, bundle.lbe));
  EXPECT_TRUE(serialize::same_index_params(loaded.index_params, params_));
  ASSERT_EQ(loaded.ranks(), 2);
  for (int rank = 0; rank < 2; ++rank) {
    const auto& a = *bundle.per_rank[static_cast<std::size_t>(rank)];
    const auto& b = *loaded.per_rank[static_cast<std::size_t>(rank)];
    EXPECT_EQ(b.num_peptides(), a.num_peptides());
    EXPECT_EQ(b.num_postings(), a.num_postings());
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SerializeTest, BundleLoadRejectsMissingRankFile) {
  IndexBundle bundle;
  bundle.lbe.partition.ranks = 2;
  bundle.index_params = params_;
  bundle.mapping = MappingTable({{0, 2}, {1, 3}});
  for (int rank = 0; rank < 2; ++rank) {
    PeptideStore store(&mods_);
    store.add(chem::Peptide("PEPTIDEK"), mods_);
    store.add(chem::Peptide("GGGGGGK"), mods_);
    bundle.per_rank.push_back(std::make_unique<ChunkedIndex>(
        std::move(store), mods_, params_, ChunkingParams{}));
  }
  const std::string dir = ::testing::TempDir() + "/lbe_bundle_missing";
  save_index_bundle(dir, bundle);
  std::filesystem::remove(bundle_rank_path(dir, 1));
  EXPECT_THROW(load_index_bundle(dir, mods_), IoError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lbe::index
