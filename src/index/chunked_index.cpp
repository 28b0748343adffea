#include "index/chunked_index.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"
#include "common/mmap_file.hpp"
#include "index/serialize.hpp"

namespace lbe::index {

namespace {

/// One on-disk chunk-directory entry (format v3). The directory is written
/// first and CRC-validated at map time, so routing (which chunks a precursor
/// window touches) never depends on unvalidated bytes; the payload extent
/// it points at is checked against `crc` on first touch.
struct ChunkDirEntry {
  Mass mass_lo = 0.0;
  Mass mass_hi = 0.0;
  std::uint64_t offset = 0;  ///< absolute file offset, 8-aligned
  std::uint64_t size = 0;    ///< payload bytes, multiple of 8
  std::uint32_t crc = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ChunkDirEntry) == 40);

}  // namespace

ChunkedIndex::ChunkedIndex(PeptideStore store,
                           const chem::ModificationSet& mods,
                           const IndexParams& index_params,
                           const ChunkingParams& chunking)
    : store_(std::move(store)), mods_(&mods), index_params_(index_params) {
  const std::size_t n = store_.size();
  if (n == 0) {
    publish_all_chunks();
    return;
  }

  const std::vector<LocalPeptideId> by_mass = store_.ids_by_mass();
  const std::size_t chunk_cap =
      chunking.max_chunk_entries == 0 ? n : chunking.max_chunk_entries;
  LBE_CHECK(chunk_cap > 0, "chunk capacity must be positive");

  for (std::size_t begin = 0; begin < n; begin += chunk_cap) {
    const std::size_t end = std::min(begin + chunk_cap, n);
    const std::span<const LocalPeptideId> subset(by_mass.data() + begin,
                                                 end - begin);
    Chunk chunk;
    chunk.mass_lo = store_.mass(subset.front());
    chunk.mass_hi = store_.mass(subset.back());
    chunk.index =
        std::make_unique<SlmIndex>(store_, mods, index_params, subset);
    chunks_.push_back(std::move(chunk));
  }
  publish_all_chunks();
}

void ChunkedIndex::publish_all_chunks() noexcept {
  live_ = std::vector<std::atomic<const SlmIndex*>>(chunks_.size());
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    live_[c].store(chunks_[c].index.get(), std::memory_order_release);
  }
}

const SlmIndex& ChunkedIndex::chunk_index(std::size_t c) const {
  const SlmIndex* live = live_[c].load(std::memory_order_acquire);
  if (live != nullptr) return *live;
  return materialize_chunk(c);
}

const SlmIndex& ChunkedIndex::materialize_chunk(std::size_t c) const {
  std::lock_guard<std::mutex> lock(materialize_mutex_);
  if (const SlmIndex* live = live_[c].load(std::memory_order_relaxed)) {
    return *live;  // another thread won the race
  }
  const Chunk& chunk = chunks_[c];
  LBE_CHECK(mapping_ != nullptr, "cold chunk without a mapping");
  // First touch: CRC the extent, then bind spans in place. A corrupt
  // payload throws here — the chunk stays cold and retriable, and no
  // partially-validated arrays are ever published.
  const auto payload =
      mapping_->bytes().subspan(static_cast<std::size_t>(chunk.extent_offset),
                                static_cast<std::size_t>(chunk.extent_size));
  if (bin::crc32(payload.data(), payload.size()) != chunk.extent_crc) {
    throw IoError("mapped read failed: chunk payload checksum mismatch in " +
                  mapping_->path() + " (corrupt file?)");
  }
  bin::ByteReader reader(payload);
  chunk.index = std::make_unique<SlmIndex>(SlmIndex::parse_arrays_payload(
      reader, store_, *mods_, index_params_, mapping_));
  serialize::require(reader.remaining() == 0, "chunk payload trailing bytes");
  live_[c].store(chunk.index.get(), std::memory_order_release);
  return *chunk.index;
}

void ChunkedIndex::materialize_all() const {
  for (std::size_t c = 0; c < chunks_.size(); ++c) (void)chunk_index(c);
  // Every byte has now been read once; without this the pass would leave
  // the whole file resident and become its caller's memory peak.
  if (mapping_ != nullptr) mapping_->release_resident();
}

std::uint64_t ChunkedIndex::mapped_bytes() const noexcept {
  return mapping_ != nullptr ? mapping_->size() : 0;
}

std::uint64_t ChunkedIndex::num_postings() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    total += chunk_index(c).num_postings();
  }
  return total;
}

std::uint64_t ChunkedIndex::packed_posting_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    total += chunk_index(c).packed_posting_bytes();
  }
  return total;
}

std::size_t ChunkedIndex::num_chunks_loaded() const noexcept {
  std::size_t loaded = 0;
  for (const auto& live : live_) {
    if (live.load(std::memory_order_acquire) != nullptr) ++loaded;
  }
  return loaded;
}

std::pair<Mass, Mass> ChunkedIndex::chunk_mass_range(std::size_t c) const {
  LBE_CHECK(c < chunks_.size(), "chunk id out of range");
  return {chunks_[c].mass_lo, chunks_[c].mass_hi};
}

std::size_t ChunkedIndex::chunks_for_window(Mass query_mass,
                                            double tolerance) const {
  std::size_t touched = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (routed(c, query_mass, tolerance)) ++touched;
  }
  return touched;
}

bool ChunkedIndex::routed(std::size_t c, Mass query_mass,
                          double tolerance) const {
  if (!(tolerance < std::numeric_limits<double>::infinity())) return true;
  return !(chunks_[c].mass_lo - tolerance > query_mass ||
           query_mass > chunks_[c].mass_hi + tolerance);
}

void ChunkedIndex::query(const chem::Spectrum& spectrum,
                         const QueryParams& params,
                         std::vector<Candidate>& out, QueryWork& work,
                         QueryArena& arena) const {
  const Mass query_mass = spectrum.precursor.neutral_mass;
  // Spans depend only on the spectrum, the tolerance, and the binning —
  // identical for every chunk (all share index_params_) — so the first
  // intersecting chunk builds them and the rest reuse (the per-chunk
  // epoch bump in query_impl leaves arena.spans untouched).
  bool spans_built = false;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (!routed(c, query_mass, params.precursor_tolerance)) continue;
    const SlmIndex& index = chunk_index(c);
    if (!spans_built) {
      index.build_spans(spectrum, params, work, arena);
      spans_built = true;
    }
    // The chooser, per chunk: the cheaper of the window path and the walk
    // by this chunk's exact counts. Both emit the same candidates; an open
    // window always walks.
    if (!params.open_search()) {
      const FiltrationPlan plan = index.plan_filtration(
          query_mass, params.precursor_tolerance, arena.spans);
      if (plan.use_window) {
        index.window_impl(spectrum, params, plan, out, work, arena);
        continue;
      }
    }
    index.query_impl(spectrum, params, out, work, arena,
                     /*rebuild_spans=*/false);
  }
}

double ChunkedIndex::filtration_cost(std::span<const BinSpan> spans,
                                     Mass query_mass,
                                     double tolerance) const {
  double cost = 0.0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (!routed(c, query_mass, tolerance)) continue;
    cost += chunk_index(c).plan_filtration(query_mass, tolerance, spans).cost();
  }
  return cost;
}

void ChunkedIndex::query(const chem::Spectrum& spectrum,
                         const QueryParams& params,
                         std::vector<Candidate>& out, QueryWork& work) const {
  query(spectrum, params, out, work, internal_arena_);
}

std::uint64_t ChunkedIndex::memory_bytes() const noexcept {
  std::uint64_t total = store_.memory_bytes() + internal_arena_.memory_bytes();
  for (const auto& live : live_) {
    if (const SlmIndex* index = live.load(std::memory_order_acquire)) {
      total += index->memory_bytes();
    }
  }
  return total;
}

ChunkedIndex::ChunkedIndex(PeptideStore store,
                           const chem::ModificationSet& mods,
                           const IndexParams& index_params, std::nullptr_t)
    : store_(std::move(store)), mods_(&mods), index_params_(index_params) {}

void ChunkedIndex::save(std::ostream& out) const {
  namespace sz = serialize;
  std::uint64_t cursor = 0;
  sz::write_header(out, sz::Kind::kChunkedIndex);
  cursor += sz::kHeaderBytes;
  {
    std::ostringstream payload;
    sz::write_index_params(payload, index_params_);
    bin::write_pod(payload, static_cast<std::uint64_t>(chunks_.size()));
    bin::write_raw_section(out, cursor, sz::kSecParams, payload.str());
  }
  // The store nests as a complete component stream (own header + CRC).
  store_.save(out, cursor);

  // Chunk directory first, payloads after: every payload's extent and CRC
  // is computable without materializing it, so the directory — which the
  // lazy loader needs before any payload — leads. Saving a mapped index
  // materializes every chunk (chunk_index), which also re-validates it.
  const std::uint64_t dir_bytes = chunks_.size() * sizeof(ChunkDirEntry);
  std::uint64_t payload_cursor =
      cursor + bin::raw_section_span(cursor, dir_bytes);
  std::ostringstream dir;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const SlmIndex& index = chunk_index(c);
    ChunkDirEntry entry;
    entry.mass_lo = chunks_[c].mass_lo;
    entry.mass_hi = chunks_[c].mass_hi;
    entry.offset = payload_cursor;
    entry.size = index.arrays_payload_size();
    entry.crc = index.arrays_payload_crc();
    bin::write_pod(dir, entry);
    payload_cursor += entry.size;
  }
  bin::write_raw_section(out, cursor, sz::kSecChunkDir, dir.str());
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const SlmIndex& index = chunk_index(c);
    index.write_arrays_payload(out);
    cursor += index.arrays_payload_size();
  }
  LBE_CHECK(cursor == payload_cursor, "chunk directory extent drift");
}

namespace {

/// Directory-entry validation: extents must tile the payload region
/// exactly so no byte of the file escapes a validated region.
void validate_dir_entry(const ChunkDirEntry& entry, std::uint64_t& expected,
                        std::uint64_t file_size) {
  namespace sz = serialize;
  sz::require(entry.offset == expected, "chunk extent out of order");
  sz::require(entry.offset % 8 == 0, "misaligned chunk extent");
  // A v4 arrays payload is at least its 32-byte count header.
  sz::require(entry.size % 8 == 0 && entry.size >= 32 &&
                  entry.size <= bin::kMaxSectionBytes,
              "implausible chunk extent size");
  sz::require(!(entry.mass_hi < entry.mass_lo), "inverted chunk mass range");
  sz::require(entry.reserved == 0, "non-zero reserved directory field");
  expected = entry.offset + entry.size;
  sz::require(expected <= file_size, "chunk extent past end of file");
}

}  // namespace

std::unique_ptr<ChunkedIndex> ChunkedIndex::map_file(
    const std::string& path, const chem::ModificationSet& mods,
    const IndexParams& index_params) {
  namespace sz = serialize;
  std::shared_ptr<const bin::MmapFile> map = bin::MmapFile::open(path);
  bin::ByteReader reader(map->bytes());
  sz::read_header_mapped(reader, sz::Kind::kChunkedIndex);
  std::uint64_t chunk_count = 0;
  {
    const auto params_bytes = bin::read_raw_section(reader, sz::kSecParams);
    std::istringstream payload(std::string(
        reinterpret_cast<const char*>(params_bytes.data()),
        params_bytes.size()));
    const IndexParams stored = sz::read_index_params(payload);
    if (!sz::same_index_params(stored, index_params)) {
      throw IoError("index file was built with different IndexParams");
    }
    chunk_count = bin::read_pod<std::uint64_t>(payload);
    sz::require(chunk_count <= bin::kMaxElements, "implausible chunk count");
  }

  PeptideStore store = PeptideStore::bind_mapped(reader, &mods, map);
  std::unique_ptr<ChunkedIndex> index(
      new ChunkedIndex(std::move(store), mods, index_params, nullptr));
  index->mapping_ = map;

  const auto dir_bytes = bin::read_raw_section(reader, sz::kSecChunkDir);
  sz::require(dir_bytes.size() == chunk_count * sizeof(ChunkDirEntry),
              "chunk directory size mismatch");
  bin::ByteReader dir(dir_bytes);
  std::uint64_t expected_offset = reader.offset();
  for (std::uint64_t c = 0; c < chunk_count; ++c) {
    const auto entry = dir.read_pod<ChunkDirEntry>();
    validate_dir_entry(entry, expected_offset, map->size());
    Chunk chunk;
    chunk.mass_lo = entry.mass_lo;
    chunk.mass_hi = entry.mass_hi;
    chunk.extent_offset = entry.offset;
    chunk.extent_size = entry.size;
    chunk.extent_crc = entry.crc;
    index->chunks_.push_back(std::move(chunk));
  }
  // The extents must account for the whole remainder of the file: nothing
  // may hide past the last chunk.
  sz::require(expected_offset == map->size(),
              "trailing bytes after the last chunk extent");
  index->live_ =
      std::vector<std::atomic<const SlmIndex*>>(index->chunks_.size());
  return index;
}

void ChunkedIndex::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open index file for writing: " + path);
  save(out);
  if (!out) throw IoError("index write failed: " + path);
}

std::vector<std::uint64_t> ChunkedIndex::bin_occupancy() const {
  std::vector<std::uint64_t> total(index_params_.binning().num_bins(), 0);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto occupancy = chunk_index(c).bin_occupancy();
    for (std::size_t b = 0; b < occupancy.size(); ++b) {
      total[b] += occupancy[b];
    }
  }
  return total;
}

const std::vector<std::uint64_t>& ChunkedIndex::occupancy_prefix() const {
  std::call_once(occupancy_once_, [&] {
    const auto occupancy = bin_occupancy();
    occupancy_prefix_.assign(occupancy.size() + 1, 0);
    for (std::size_t b = 0; b < occupancy.size(); ++b) {
      occupancy_prefix_[b + 1] = occupancy_prefix_[b] + occupancy[b];
    }
  });
  return occupancy_prefix_;
}

}  // namespace lbe::index
