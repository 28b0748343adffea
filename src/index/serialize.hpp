// On-disk index format — the paper's "partition once, search many" split.
//
// LBE builds the clustered, partitioned database up front so construction
// cost amortizes over query workloads (§IV); HiCOPS makes the same split
// explicit with persistent per-node partial indexes. This header defines
// the versioned, checksummed container every index component serializes
// through, plus the `IndexBundle` that captures one full per-rank index set
// together with the parameters it was built under, so `lbectl search
// --index` can warm-start instead of re-digesting and re-fragmenting.
//
// Layout (all little-endian, via common/binary_io):
//
//   file   := header section*
//   header := [magic u32 "LBEX"][format version u32][kind u32]
//   section:= [pad to 8][tag u32][payload size u64][crc32 u32][payload]
//
// Since format v3, component-file sections are 8-byte aligned at the file
// level ("raw" sections, binary_io): the 16-byte frame starts on an
// 8-byte boundary, so the payload does too, and every array inside a
// payload is padded to 8 — which is what lets a rank file be mmapped and
// its postings/offsets/columns viewed in place instead of copied
// (common/mmap_file.hpp). Mapping is the only way a rank file is read
// (ChunkedIndex::map_file), so there is one parser of its bytes. A
// chunked-index file additionally carries a chunk *directory* (mass range
// + file extent + CRC per chunk) so chunk payloads can be validated and
// materialized lazily, on first query touch. The manifest keeps the
// unaligned v2-style section framing — it is tiny and read as a stream.
//
// Every payload is CRC-32 checked on read (metadata sections at map time,
// chunk extents on first touch or ChunkedIndex::materialize_all) and
// alignment padding is verified zero; a flipped bit anywhere raises
// IoError instead of corrupting a search. Components nest as complete
// streams (a chunked-index file embeds a full peptide-store stream), so
// each layer re-validates independently. Version bumps are strict: readers
// reject any version they were not built for — regenerate indexes with
// `lbectl prepare` rather than migrating in place.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/lbe_layer.hpp"
#include "index/chunked_index.hpp"

namespace lbe::bin {
class ByteReader;
}  // namespace lbe::bin

namespace lbe::index {

namespace serialize {

/// "LBEX" (little-endian) — shared by every index component file.
inline constexpr std::uint32_t kMagic = 0x5845424Cu;

/// Bumped on ANY layout change; version 1 was the pre-checksum format,
/// version 2 the streamed-vector layout. Version 3 stores every raw array
/// (postings, bin offsets, peptide-store columns) 8-byte aligned at an
/// offset-addressable extent so a warm start can bind them straight out of
/// an mmap (common/mmap_file.hpp) instead of copying them into vectors,
/// and moves per-chunk metadata into a chunk directory validated at map
/// time so chunks can be materialized lazily, on first query touch.
/// Version 4
/// replaces each chunk's raw u32 posting array with bit-packed
/// frame-of-reference blocks plus a per-block directory
/// (index/posting_codec.hpp): a mapped chunk binds the packed extents in
/// place and decodes spans at query time through the runtime-selected
/// scalar/SSE4.1/AVX2 kernel.
/// Version 5 appends per-block bound metadata (BlockBound: precursor-mass
/// range + max per-peptide fragment count, one record per 128-posting
/// codec block) to each chunk's arrays payload, so the span walk can skip
/// blocks that cannot contribute a reportable candidate (block-max
/// pruning); bounds are validated at parse and bound in place. Version 6
/// appends each chunk's peptide ids in (precursor mass, id) order, which
/// the precursor-first window path binary-searches; parse rejects
/// out-of-range ids and any break in the strict order.
inline constexpr std::uint32_t kFormatVersion = 6;

/// What a stream claims to contain; read_header rejects mismatches so a
/// rank file can never be mistaken for a manifest. Value 2 is retired
/// (standalone SlmIndex files); never reuse it.
enum class Kind : std::uint32_t {
  kPeptideStore = 1,
  kChunkedIndex = 3,
  kMappingTable = 4,
  kManifest = 5,
};

// Section tags (unique per enclosing kind, not globally).
inline constexpr std::uint32_t kSecParams = 0x01;
inline constexpr std::uint32_t kSecColumns = 0x02;
inline constexpr std::uint32_t kSecMapping = 0x05;
inline constexpr std::uint32_t kSecLbeParams = 0x06;
/// v3 chunk directory: per chunk {mass range, file extent, payload CRC}.
/// Validated at map time so routing decisions (which chunks a precursor
/// window touches) never depend on unvalidated bytes; the chunk payloads it
/// points at are CRC-checked lazily, on first touch.
inline constexpr std::uint32_t kSecChunkDir = 0x07;

/// Bytes write_header emits (three u32 fields).
inline constexpr std::uint64_t kHeaderBytes = 12;

/// Refinement of IoError for a well-formed header whose format version is
/// not the one this build reads. Version bumps are strict (no in-place
/// migration), but a *stale* bundle is not a *corrupt* one: the warm-start
/// path catches exactly this type, warns, and rebuilds from the plan —
/// the PR 3 plan-mismatch semantics — while every other IoError stays
/// fatal, because a bundle the user pointed at must not be silently
/// ignored.
class FormatVersionError : public IoError {
 public:
  explicit FormatVersionError(const std::string& msg) : IoError(msg) {}
};

void write_header(std::ostream& out, Kind kind);

/// Throws IoError on bad magic or wrong kind, FormatVersionError on an
/// unsupported format version.
void read_header(std::istream& in, Kind expected);

/// Mapped twin of read_header, consuming from a byte cursor.
void read_header_mapped(bin::ByteReader& reader, Kind expected);

/// Structural-validation helper for load paths: a failed condition means
/// the file is corrupt (or adversarial), which is an IoError — never UB.
void require(bool condition, const char* message);

// Parameter payloads shared by component files and the bundle manifest.
void write_index_params(std::ostream& out, const IndexParams& params);
IndexParams read_index_params(std::istream& in);
bool same_index_params(const IndexParams& a, const IndexParams& b);

void write_lbe_params(std::ostream& out, const core::LbeParams& params);
core::LbeParams read_lbe_params(std::istream& in);
bool same_lbe_params(const core::LbeParams& a, const core::LbeParams& b);

}  // namespace serialize

/// One full per-rank index set plus everything needed to validate that it
/// still matches the plan a search is about to run: the LBE grouping/
/// partitioning parameters, the index/chunking parameters, and the
/// master-side mapping table the ranks were carved from.
struct IndexBundle {
  core::LbeParams lbe;
  IndexParams index_params;
  ChunkingParams chunking;
  MappingTable mapping;
  /// Fingerprint (CRC-32) of the database the indexes were built from —
  /// peptides, decoy flags, modification spec, variant limits. Parameters
  /// and the mapping table alone cannot detect a same-shape database edit
  /// (e.g. one residue substituted); this can, so a stale bundle is
  /// rejected instead of silently altering results.
  std::uint32_t database_crc = 0;
  std::vector<std::unique_ptr<ChunkedIndex>> per_rank;

  int ranks() const noexcept { return static_cast<int>(per_rank.size()); }
};

/// File layout inside a bundle directory.
std::string bundle_manifest_path(const std::string& dir);
std::string bundle_rank_path(const std::string& dir, int rank);

/// Writes `dir/index.manifest` alone (creating `dir` if missing), from the
/// bundle's parameters, mapping table and database fingerprint — `per_rank`
/// may be empty. Lets `lbectl prepare` stream rank files one at a time
/// (build, save, drop) instead of holding every rank's index in memory.
void save_index_manifest(const std::string& dir, const IndexBundle& bundle);

/// save_index_manifest plus one `dir/rank<m>.idx` per `per_rank` entry.
/// Throws IoError on any write failure.
void save_index_bundle(const std::string& dir, const IndexBundle& bundle);

/// Loads a bundle written by save_index_bundle, mapping every rank file
/// (ChunkedIndex::map_file): the manifest, store columns and chunk
/// directories are validated here, chunk payloads on first query touch —
/// peak RSS and time-to-first-query scale with the chunks a workload
/// actually visits, not with the bundle. `mods` must be the same
/// modification set the indexes were built under and must outlive the
/// bundle. Throws IoError on missing/truncated/corrupt metadata or when a
/// rank file disagrees with the manifest's mapping table; call
/// ChunkedIndex::materialize_all to verify every chunk payload up front.
IndexBundle load_index_bundle(const std::string& dir,
                              const chem::ModificationSet& mods);

}  // namespace lbe::index
