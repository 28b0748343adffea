// The mmap warm-start path (format v4), the one way a rank file is read:
// mapped indexes must answer queries identically to the built index —
// decoding bit-packed posting spans per query — materialize only the
// chunks a precursor window touches, and turn EVERY corruption — flipped
// bit (including inside a packed posting extent), truncation, wrong
// version — into IoError at map time or first touch, never a silently
// different result.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "index/serialize.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::index {
namespace {

namespace fs = std::filesystem;

class MmapIndexTest : public ::testing::Test {
 protected:
  MmapIndexTest() {
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
    store.add(chem::Peptide("AAAAAAGK"), mods_);
    store.add(chem::Peptide("WWWWWWK"), mods_);
    return store;
  }

  /// The reference: the index built in memory (2 entries per chunk => 3
  /// chunks).
  std::unique_ptr<ChunkedIndex> build_chunked() {
    ChunkingParams chunking;
    chunking.max_chunk_entries = 2;
    return std::make_unique<ChunkedIndex>(make_store(), mods_, params_,
                                          chunking);
  }

  /// Saves build_chunked() to a file.
  std::string save_chunked(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    build_chunked()->save_file(path);
    return path;
  }

  chem::Spectrum theo(const std::string& seq) {
    return theospec::theoretical_spectrum(chem::Peptide(seq), mods_,
                                          params_.fragments);
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
};

TEST_F(MmapIndexTest, MappedQueriesAgreeWithBuiltIndex) {
  const std::string path = save_chunked("mmap_roundtrip.idx");
  const auto built = build_chunked();
  const auto mapped = ChunkedIndex::map_file(path, mods_, params_);

  EXPECT_TRUE(mapped->mapped());
  EXPECT_TRUE(mapped->store().mapped());
  EXPECT_FALSE(built->mapped());
  EXPECT_EQ(mapped->num_chunks(), built->num_chunks());
  EXPECT_EQ(mapped->num_peptides(), built->num_peptides());
  EXPECT_EQ(mapped->mapped_bytes(), fs::file_size(path));

  QueryParams filter;
  filter.shared_peak_min = 1;
  for (const char* seq : {"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK", "WWWWWWK"}) {
    const auto spectrum = theo(seq);
    std::vector<Candidate> a;
    std::vector<Candidate> b;
    QueryWork wa;
    QueryWork wb;
    built->query(spectrum, filter, a, wa);
    mapped->query(spectrum, filter, b, wb);
    ASSERT_EQ(a.size(), b.size()) << seq;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peptide, b[i].peptide);
      EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
      EXPECT_FLOAT_EQ(a[i].matched_intensity, b[i].matched_intensity);
    }
    EXPECT_EQ(wa.postings_touched, wb.postings_touched);
  }
  // The open queries above touched every chunk; totals must agree.
  EXPECT_EQ(mapped->num_chunks_loaded(), mapped->num_chunks());
  EXPECT_EQ(mapped->num_postings(), built->num_postings());
}

TEST_F(MmapIndexTest, MaterializeAllBindsEveryChunkUpFront) {
  const std::string path = save_chunked("mmap_materialize.idx");
  const auto mapped = ChunkedIndex::map_file(path, mods_, params_);
  ASSERT_EQ(mapped->num_chunks(), 3u);
  EXPECT_EQ(mapped->num_chunks_loaded(), 0u);
  mapped->materialize_all();
  EXPECT_EQ(mapped->num_chunks_loaded(), mapped->num_chunks());
  mapped->materialize_all();  // idempotent
  EXPECT_EQ(mapped->num_chunks_loaded(), mapped->num_chunks());
  // A built index is resident from the start: nothing to do.
  const auto built = build_chunked();
  built->materialize_all();
  EXPECT_EQ(built->num_chunks_loaded(), built->num_chunks());
}

TEST_F(MmapIndexTest, NarrowWindowMaterializesOnlyIntersectingChunks) {
  const std::string path = save_chunked("mmap_lazy.idx");
  const auto mapped = ChunkedIndex::map_file(path, mods_, params_);
  ASSERT_EQ(mapped->num_chunks(), 3u);
  EXPECT_EQ(mapped->num_chunks_loaded(), 0u);

  // A tight precursor window around one stored mass touches one chunk.
  auto spectrum = theo("PEPTIDEK");
  QueryParams narrow;
  narrow.shared_peak_min = 1;
  narrow.precursor_tolerance = 0.5;
  std::vector<Candidate> candidates;
  QueryWork work;
  mapped->query(spectrum, narrow, candidates, work);
  EXPECT_FALSE(candidates.empty());
  EXPECT_GE(mapped->num_chunks_loaded(), 1u);
  EXPECT_LT(mapped->num_chunks_loaded(), mapped->num_chunks());

  // The built index agrees on the same narrow window.
  std::vector<Candidate> oracle;
  QueryWork oracle_work;
  build_chunked()->query(spectrum, narrow, oracle, oracle_work);
  ASSERT_EQ(candidates.size(), oracle.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].peptide, oracle[i].peptide);
    EXPECT_EQ(candidates[i].shared_peaks, oracle[i].shared_peaks);
  }
}

TEST_F(MmapIndexTest, ConcurrentFirstTouchIsSafe) {
  const std::string path = save_chunked("mmap_threads.idx");
  const auto mapped = ChunkedIndex::map_file(path, mods_, params_);
  const auto spectrum = theo("GGGGGGK");
  QueryParams filter;
  filter.shared_peak_min = 1;

  std::vector<Candidate> expected;
  {
    QueryWork work;
    build_chunked()->query(spectrum, filter, expected, work);
  }

  // Many threads race the open-search first touch of every chunk.
  std::vector<std::thread> threads;
  std::vector<std::vector<Candidate>> results(8);
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      QueryArena arena;
      QueryWork work;
      mapped->query(spectrum, filter, results[t], work, arena);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_EQ(result.size(), expected.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i].peptide, expected[i].peptide);
      EXPECT_EQ(result[i].shared_peaks, expected[i].shared_peaks);
    }
  }
  EXPECT_EQ(mapped->num_chunks_loaded(), mapped->num_chunks());
}

TEST_F(MmapIndexTest, EveryFlippedBitFailsAtMapOrFirstTouch) {
  const std::string path = save_chunked("mmap_flip.idx");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 128u);

  const std::string corrupt_path = ::testing::TempDir() + "/mmap_flip_c.idx";
  QueryParams open_filter;
  open_filter.shared_peak_min = 1;
  const auto spectrum = theo("PEPTIDEK");

  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 139) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x08);
    {
      std::ofstream out(corrupt_path, std::ios::binary);
      out.write(corrupt.data(),
                static_cast<std::streamsize>(corrupt.size()));
    }
    // Map, then touch everything: any flipped bit must surface as IoError
    // by the time every chunk has been materialized (lazy chunks report at
    // first touch; metadata reports at map time).
    EXPECT_THROW(
        {
          const auto mapped =
              ChunkedIndex::map_file(corrupt_path, mods_, params_);
          std::vector<Candidate> candidates;
          QueryWork work;
          mapped->query(spectrum, open_filter, candidates, work);
          mapped->materialize_all();
        },
        IoError)
        << "flipped bit at byte " << pos << " went undetected";
  }
  fs::remove(corrupt_path);
}

TEST_F(MmapIndexTest, PackedExtentBitFlipFailsAtFirstTouch) {
  // The file's trailing bytes belong to the last chunk's payload: its v6
  // mass order, its v5 block bounds and, further back, its bit-packed
  // posting stream (or their checksummed padding). Flipping them must
  // leave the map itself clean — header, directory and store metadata are
  // untouched — and surface as IoError exactly when the lazy first touch
  // materializes (and checksums) that chunk, never as a quietly different
  // decode.
  const std::string path = save_chunked("mmap_packed_flip.idx");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const std::string corrupt_path =
      ::testing::TempDir() + "/mmap_packed_flip_c.idx";
  QueryParams open_filter;
  open_filter.shared_peak_min = 1;
  const auto spectrum = theo("PEPTIDEK");
  for (std::size_t back = 1; back <= 96; ++back) {
    std::string corrupt = bytes;
    corrupt[corrupt.size() - back] =
        static_cast<char>(corrupt[corrupt.size() - back] ^ 0x04);
    {
      std::ofstream out(corrupt_path, std::ios::binary);
      out.write(corrupt.data(),
                static_cast<std::streamsize>(corrupt.size()));
    }
    std::unique_ptr<ChunkedIndex> mapped;
    ASSERT_NO_THROW(mapped =
                        ChunkedIndex::map_file(corrupt_path, mods_, params_))
        << "metadata-only map rejected a payload flip " << back
        << " bytes from EOF";
    EXPECT_THROW(
        {
          std::vector<Candidate> candidates;
          QueryWork work;
          mapped->query(spectrum, open_filter, candidates, work);
          mapped->materialize_all();
        },
        IoError)
        << "flip " << back << " bytes from EOF went undetected";
  }
  fs::remove(corrupt_path);
}

// Format v6: a mapped chunk's mass order is validated when the chunk is
// first touched. Each corruption keeps every checksum valid (the chunk
// directory entry and the directory section are re-sealed), so only the
// structural validation can catch it.
TEST_F(MmapIndexTest, CorruptMassOrderFailsAtFirstTouch) {
  const std::string path = save_chunked("mmap_order.idx");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  // The chunk directory: three 40-byte entries behind a raw-section frame.
  constexpr std::size_t kEntry = 40;
  std::size_t dir = 0;
  for (std::size_t p = 16; p + 3 * kEntry <= bytes.size(); p += 8) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::memcpy(&tag, bytes.data() + p - 16, sizeof(tag));
    std::memcpy(&size, bytes.data() + p - 12, sizeof(size));
    if (tag == serialize::kSecChunkDir && size == 3 * kEntry) {
      dir = p;
      break;
    }
  }
  ASSERT_NE(dir, 0u);
  const std::size_t last = dir + 2 * kEntry;
  std::uint64_t extent_offset = 0;
  std::uint64_t extent_size = 0;
  std::memcpy(&extent_offset, bytes.data() + last + 16, 8);
  std::memcpy(&extent_size, bytes.data() + last + 24, 8);
  ASSERT_EQ(extent_offset + extent_size, bytes.size());
  // The last chunk holds two peptides: its payload ends [2 u64][id][id].
  std::uint32_t first = 0;
  std::uint32_t second = 0;
  std::memcpy(&first, bytes.data() + bytes.size() - 8, 4);
  std::memcpy(&second, bytes.data() + bytes.size() - 4, 4);

  const auto reseal = [&](std::uint32_t a, std::uint32_t b) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + corrupt.size() - 8, &a, 4);
    std::memcpy(corrupt.data() + corrupt.size() - 4, &b, 4);
    const std::uint32_t chunk_crc =
        bin::crc32(corrupt.data() + extent_offset, extent_size);
    std::memcpy(corrupt.data() + last + 32, &chunk_crc, 4);
    const std::uint32_t dir_crc =
        bin::crc32(corrupt.data() + dir, 3 * kEntry);
    std::memcpy(corrupt.data() + dir - 4, &dir_crc, 4);
    return corrupt;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"out-of-range id", reseal(first, 99)},
      {"order violation", reseal(second, first)},
      {"duplicated id", reseal(first, first)},
  };
  const std::string corrupt_path =
      ::testing::TempDir() + "/mmap_order_c.idx";
  QueryParams open_filter;
  open_filter.shared_peak_min = 1;
  for (const auto& [what, corrupt] : cases) {
    {
      std::ofstream out(corrupt_path, std::ios::binary);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    std::unique_ptr<ChunkedIndex> mapped;
    ASSERT_NO_THROW(mapped =
                        ChunkedIndex::map_file(corrupt_path, mods_, params_))
        << what;
    try {
      std::vector<Candidate> candidates;
      QueryWork work;
      mapped->query(theo("PEPTIDEK"), open_filter, candidates, work);
      mapped->materialize_all();
      ADD_FAILURE() << what << " went undetected";
    } catch (const IoError& e) {
      EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos)
          << what << " was caught by a CRC, not the order validation";
    }
  }
  fs::remove(corrupt_path);

  // A version-5 file is stale: regenerate, never misparse.
  std::string v5 = bytes;
  ASSERT_EQ(v5[4], 6);
  v5[4] = 5;
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(v5.data(), static_cast<std::streamsize>(v5.size()));
  }
  EXPECT_THROW(ChunkedIndex::map_file(corrupt_path, mods_, params_),
               serialize::FormatVersionError);
  fs::remove(corrupt_path);
}

TEST_F(MmapIndexTest, TruncationFailsAtMapOrFirstTouch) {
  const std::string path = save_chunked("mmap_trunc.idx");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const std::string cut_path = ::testing::TempDir() + "/mmap_trunc_c.idx";
  for (const double fraction : {0.1, 0.4, 0.7, 0.95, 0.999}) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * fraction);
    {
      std::ofstream out(cut_path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_THROW(
        {
          const auto mapped =
              ChunkedIndex::map_file(cut_path, mods_, params_);
          mapped->materialize_all();
        },
        IoError)
        << "truncation to " << keep << " bytes went undetected";
  }
  fs::remove(cut_path);
}

TEST_F(MmapIndexTest, MapRejectsWrongVersionAndParams) {
  const std::string path = save_chunked("mmap_version.idx");
  // Patch the version field (bytes 4..8 of the header) to v2.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[4] = 2;
  const std::string v2_path = ::testing::TempDir() + "/mmap_version_c.idx";
  {
    std::ofstream out(v2_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(ChunkedIndex::map_file(v2_path, mods_, params_), IoError);
  fs::remove(v2_path);

  IndexParams other = params_;
  other.resolution = 0.02;
  EXPECT_THROW(ChunkedIndex::map_file(path, mods_, other), IoError);
  EXPECT_THROW(ChunkedIndex::map_file("/nonexistent/x.idx", mods_, params_),
               IoError);
}

TEST_F(MmapIndexTest, SavingAMappedIndexRoundTrips) {
  const std::string path = save_chunked("mmap_resave.idx");
  const auto mapped = ChunkedIndex::map_file(path, mods_, params_);
  // Saving materializes (and re-validates) every chunk, and reproduces
  // the file it was mapped from byte for byte.
  const std::string resaved_path =
      ::testing::TempDir() + "/mmap_resave_2.idx";
  mapped->save_file(resaved_path);
  EXPECT_EQ(mapped->num_chunks_loaded(), mapped->num_chunks());
  const auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_EQ(read_all(resaved_path), read_all(path));
  const auto reloaded = ChunkedIndex::map_file(resaved_path, mods_, params_);
  EXPECT_EQ(reloaded->num_postings(), mapped->num_postings());
  EXPECT_EQ(reloaded->num_chunks(), mapped->num_chunks());
  fs::remove(resaved_path);
}

TEST_F(MmapIndexTest, MappedBundleLoadMatchesBuilt) {
  // Two hand-carved ranks, mapped back and compared with the built ones.
  IndexBundle bundle;
  bundle.lbe.partition.ranks = 2;
  bundle.index_params = params_;
  bundle.chunking.max_chunk_entries = 2;
  bundle.mapping = MappingTable({{0, 2, 4}, {1, 3, 5}});
  for (int rank = 0; rank < 2; ++rank) {
    PeptideStore store(&mods_);
    store.add(chem::Peptide(rank == 0 ? "PEPTIDEK" : "MKWVTFISLLK"), mods_);
    store.add(chem::Peptide(rank == 0 ? "GGGGGGK" : "MGGGK"), mods_);
    store.add(chem::Peptide(rank == 0 ? "AAAAAAGK" : "WWWWWWK"), mods_);
    bundle.per_rank.push_back(std::make_unique<ChunkedIndex>(
        std::move(store), mods_, params_, bundle.chunking));
  }
  const std::string dir = ::testing::TempDir() + "/lbe_bundle_mmap";
  save_index_bundle(dir, bundle);

  const IndexBundle mapped = load_index_bundle(dir, mods_);
  ASSERT_EQ(mapped.ranks(), bundle.ranks());
  EXPECT_TRUE(mapped.mapping == bundle.mapping);
  for (int rank = 0; rank < mapped.ranks(); ++rank) {
    const auto& m = *mapped.per_rank[static_cast<std::size_t>(rank)];
    const auto& b = *bundle.per_rank[static_cast<std::size_t>(rank)];
    EXPECT_TRUE(m.mapped());
    EXPECT_EQ(m.num_chunks_loaded(), 0u);  // payloads stay cold
    EXPECT_EQ(m.num_peptides(), b.num_peptides());
    EXPECT_EQ(m.num_postings(), b.num_postings());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lbe::index
