// Round-trip tests for the on-disk index format (the paper's disk-resident
// chunks): every component — store, chunked index, mapping table, full
// per-rank bundle — survives save and map bit-exactly, queries agree with
// the built index, and corrupted/mismatched files (bad magic, wrong
// version, truncation, flipped bits anywhere) are rejected with IoError by
// the time every chunk has been materialized.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/mmap_file.hpp"
#include "index/serialize.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::index {
namespace {

/// Writes `bytes` to a fresh temporary file and returns its path. Every call
/// gets its own name: rewriting a file another test still maps would pull
/// pages out from under that mapping.
std::string write_scratch(const std::string& bytes) {
  static int counter = 0;
  const std::string path = ::testing::TempDir() + "/serialize_" +
                           std::to_string(counter++) + ".bin";
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string saved_bytes(const ChunkedIndex& index) {
  std::ostringstream out;
  index.save(out);
  return out.str();
}

/// Chunk directory entry offsets (format v3): 40 bytes per chunk, the
/// extent offset at +16, its size at +24 and its CRC at +32.
constexpr std::size_t kDirEntry = 40;

/// Re-seals every chunk-payload CRC and the directory section CRC of a
/// saved rank file with `chunks` chunks, so that only the structural
/// validation can catch an edit to a payload.
void reseal_chunks(std::string& bytes, std::size_t chunks) {
  for (std::size_t p = 16; p + chunks * kDirEntry <= bytes.size(); p += 8) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    std::memcpy(&tag, bytes.data() + p - 16, sizeof(tag));
    std::memcpy(&size, bytes.data() + p - 12, sizeof(size));
    std::memcpy(&crc, bytes.data() + p - 4, sizeof(crc));
    if (tag != serialize::kSecChunkDir || size != chunks * kDirEntry ||
        bin::crc32(bytes.data() + p, size) != crc) {
      continue;
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      char* entry = bytes.data() + p + c * kDirEntry;
      std::uint64_t offset = 0;
      std::uint64_t extent = 0;
      std::memcpy(&offset, entry + 16, sizeof(offset));
      std::memcpy(&extent, entry + 24, sizeof(extent));
      const std::uint32_t chunk_crc =
          bin::crc32(bytes.data() + offset, extent);
      std::memcpy(entry + 32, &chunk_crc, sizeof(chunk_crc));
    }
    const std::uint32_t dir_crc = bin::crc32(bytes.data() + p, size);
    std::memcpy(bytes.data() + p - 4, &dir_crc, sizeof(dir_crc));
    return;
  }
  ADD_FAILURE() << "chunk directory not found";
}

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

  /// Maps `bytes` as a rank file (unlinked straight away — the mapping
  /// keeps its pages).
  std::unique_ptr<ChunkedIndex> map_bytes(const std::string& bytes,
                                          const IndexParams& params) {
    const std::string path = write_scratch(bytes);
    struct Unlink {
      std::string path;
      ~Unlink() { std::filesystem::remove(path); }
    } unlink{path};
    return ChunkedIndex::map_file(path, mods_, params);
  }

  /// Maps `bytes` and materializes every chunk: all metadata and payload
  /// checks run before this returns.
  std::unique_ptr<ChunkedIndex> map_all(const std::string& bytes) {
    auto index = map_bytes(bytes, params_);
    index->materialize_all();
    return index;
  }

  /// Binds a saved peptide-store stream out of a mapping.
  PeptideStore map_store(const std::string& bytes) {
    const std::string path = write_scratch(bytes);
    const auto map = bin::MmapFile::open(path);
    std::filesystem::remove(path);
    bin::ByteReader reader(map->bytes());
    return PeptideStore::bind_mapped(reader, &mods_, map);
  }

  static std::string store_bytes(const PeptideStore& store) {
    std::ostringstream out;
    std::uint64_t cursor = 0;
    store.save(out, cursor);
    return out.str();
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
};

TEST_F(SerializeTest, StoreRoundTrip) {
  const PeptideStore original = make_store();
  const PeptideStore loaded = map_store(store_bytes(original));
  EXPECT_TRUE(loaded.mapped());
  ASSERT_EQ(loaded.size(), original.size());
  for (LocalPeptideId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(loaded.materialize(id), original.materialize(id));
    EXPECT_DOUBLE_EQ(loaded.mass(id), original.mass(id));
  }
}

TEST_F(SerializeTest, EmptyStoreRoundTrip) {
  const PeptideStore empty(&mods_);
  const PeptideStore loaded = map_store(store_bytes(empty));
  EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(SerializeTest, StoreLoadRejectsTruncation) {
  std::string bytes = store_bytes(make_store());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(map_store(bytes), IoError);
}

TEST_F(SerializeTest, ChunkedIndexRoundTripQueriesAgree) {
  ChunkingParams chunking;
  chunking.max_chunk_entries = 2;  // multiple chunks exercised
  const ChunkedIndex original(make_store(), mods_, params_, chunking);
  const auto loaded = map_bytes(saved_bytes(original), params_);

  EXPECT_EQ(loaded->num_chunks(), original.num_chunks());
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
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
}

TEST_F(SerializeTest, LoadRejectsBadMagic) {
  EXPECT_THROW(map_bytes("definitely not an index", params_), IoError);
}

TEST_F(SerializeTest, LoadRejectsDifferentParams) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  IndexParams other = params_;
  other.resolution = 0.02;
  EXPECT_THROW(map_bytes(saved_bytes(original), other), IoError);
}

TEST_F(SerializeTest, FileRoundTripAndMissingFile) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string path = ::testing::TempDir() + "/lbe_index.bin";
  original.save_file(path);
  const auto loaded = ChunkedIndex::map_file(path, mods_, params_);
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
  EXPECT_THROW(ChunkedIndex::map_file("/nonexistent/x.bin", mods_, params_),
               IoError);
}

TEST_F(SerializeTest, LoadedIndexMemoryAccountingSane) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string bytes = saved_bytes(original);
  const auto loaded = map_all(bytes);
  // A mapped index's arrays live in the mapping, not the heap: its owned
  // bytes stay below the built index's, which hold every posting, and the
  // mapping is the whole rank file.
  EXPECT_GE(original.memory_bytes(),
            original.num_postings() * sizeof(LocalPeptideId));
  EXPECT_LT(loaded->memory_bytes(), original.memory_bytes());
  EXPECT_EQ(loaded->mapped_bytes(), bytes.size());
  EXPECT_EQ(original.mapped_bytes(), 0u);
}

TEST_F(SerializeTest, SingleChunkRoundTripMatchesSlmIndex) {
  const PeptideStore store = make_store();
  const SlmIndex flat(store, mods_, params_);
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const auto loaded = map_all(saved_bytes(original));
  ASSERT_EQ(loaded->num_chunks(), 1u);
  EXPECT_EQ(loaded->num_postings(), flat.num_postings());

  QueryParams filter;
  filter.shared_peak_min = 1;
  const auto spectrum = theospec::theoretical_spectrum(
      chem::Peptide("PEPTIDEK"), mods_, params_.fragments);
  std::vector<Candidate> a;
  std::vector<Candidate> b;
  QueryWork wa;
  QueryWork wb;
  flat.query(spectrum, filter, a, wa);
  loaded->query(spectrum, filter, b, wb);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peptide, b[i].peptide);
    EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
  }
}

// Format v6: each chunk payload ends with the chunk's ids in (mass, id)
// order. Each corruption below keeps every checksum valid (re-sealed), so
// only the structural validation can catch it — and it must, before the
// window path binary-searches the order or reads store columns by its ids.
TEST_F(SerializeTest, MassOrderRoundTripsAndIsValidated) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string bytes = saved_bytes(original);
  {
    // Re-saving the mapped index reproduces every array, the mass order
    // included, byte for byte.
    const auto loaded = map_all(bytes);
    EXPECT_EQ(saved_bytes(*loaded), bytes);
  }
  const std::size_t n = original.num_peptides();
  ASSERT_GE(n, 2u);
  // The single chunk's payload ends the file: [n u64][n ids, padded to 8].
  const std::size_t order_at = bytes.size() - ((4 * n + 7) & ~std::size_t{7});
  const auto id_at = [&](std::size_t slot) {
    std::uint32_t id = 0;
    std::memcpy(&id, bytes.data() + order_at + 4 * slot, sizeof(id));
    return id;
  };
  const auto corrupt = [&](std::size_t slot, std::uint32_t id) {
    std::string out = bytes;
    std::memcpy(out.data() + order_at + 4 * slot, &id, sizeof(id));
    reseal_chunks(out, 1);
    return out;
  };
  const std::uint32_t out_of_range = static_cast<std::uint32_t>(n) + 5;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"out-of-range id", corrupt(n - 1, out_of_range)},
      {"order violation", corrupt(0, id_at(1))},
      {"duplicated id", corrupt(1, id_at(0))},
  };
  for (const auto& [what, bad] : cases) {
    try {
      (void)map_all(bad);
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
  std::string v5 = saved_bytes(original);
  ASSERT_EQ(v5[4], 6);
  v5[4] = 5;  // version u32 follows the 4-byte magic
  EXPECT_THROW(map_bytes(v5, params_), serialize::FormatVersionError);
}

TEST_F(SerializeTest, SingleChunkLoadRejectsDifferentParams) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  IndexParams other = params_;
  other.fragments.max_fragment_charge = 2;
  EXPECT_THROW(map_bytes(saved_bytes(original), other), IoError);
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
  EXPECT_THROW(map_bytes(buffer.str(), params_), IoError);
}

TEST_F(SerializeTest, StaleVersionAndCorruptionAreDistinctErrors) {
  // The pipeline's warm-start path treats FormatVersionError as
  // "regenerate quietly" but lets any other IoError propagate, so the two
  // must stay distinguishable: a stale version field throws the subtype, a
  // flipped payload bit throws plain IoError.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string bytes = saved_bytes(original);

  std::string stale = bytes;
  stale[4] = 3;  // version u32 follows the 4-byte magic
  EXPECT_THROW(map_bytes(stale, params_), serialize::FormatVersionError);

  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] =
      static_cast<char>(corrupt[bytes.size() / 2] ^ 0x20);
  try {
    (void)map_all(corrupt);
    FAIL() << "corrupted file loaded successfully";
  } catch (const serialize::FormatVersionError&) {
    FAIL() << "payload corruption misreported as a version mismatch";
  } catch (const IoError&) {
    // Expected: corruption is fatal, not a rebuild trigger.
  }
}

TEST_F(SerializeTest, LoadRejectsWrongComponentKind) {
  // A valid peptide-store stream is not a chunked index.
  EXPECT_THROW(map_bytes(store_bytes(make_store()), params_), IoError);
}

TEST_F(SerializeTest, ChunkedLoadRejectsTrailingBytes) {
  // The chunk extents must account for the whole file: appended garbage
  // is rejected at map time, before any chunk is touched.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  EXPECT_THROW(map_bytes(saved_bytes(original) + "garbage", params_),
               IoError);
}

TEST_F(SerializeTest, ChunkedLoadRejectsTruncation) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  std::string bytes = saved_bytes(original);
  bytes.resize(bytes.size() - bytes.size() / 3);
  EXPECT_THROW(map_all(bytes), IoError);
}

TEST_F(SerializeTest, EveryFlippedBitIsDetected) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string bytes = saved_bytes(original);
  ASSERT_GT(bytes.size(), 64u);

  // Flip one bit at a spread of positions covering the header, the section
  // frames and the payloads; every single one must surface as IoError by
  // the time every chunk is materialized — never UB, never a silently
  // different index.
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 97) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    EXPECT_THROW(map_all(corrupt), IoError)
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
    EXPECT_TRUE(b.mapped());
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
