// Binary stream serialization helpers (little-endian, fixed-width).
//
// Used by the index on-disk format (index/serialize.hpp) and the plan file
// (app/pipeline.hpp). Reads validate against stream truncation and throw
// IoError; a sanity cap guards vector sizes so corrupted headers fail fast
// instead of attempting huge allocations. `write_section`/`read_section`
// add CRC-checked framing for formats that must reject bit corruption, not
// just truncation.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace lbe::bin {

/// Upper bound on any serialized vector's element count (16 Gi entries);
/// anything larger indicates corruption, not data.
inline constexpr std::uint64_t kMaxElements = 1ull << 34;

/// Upper bound on one CRC-framed section's payload (1 TiB).
inline constexpr std::uint64_t kMaxSectionBytes = 1ull << 40;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);
inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Writes one framed section: [tag u32][size u64][crc32 u32][payload].
void write_section(std::ostream& out, std::uint32_t tag,
                   std::string_view payload);

/// Reads one framed section, requiring `expected_tag`, and verifies the
/// payload checksum. Throws IoError on tag mismatch, truncation, an
/// implausible size, or a CRC mismatch (flipped bits).
std::string read_section(std::istream& in, std::uint32_t expected_tag);

// ---- format-v3 aligned ("raw") sections -----------------------------------
//
// Same 16-byte [tag u32][size u64][crc32 u32] frame as write_section, but
// preceded by zero padding so the frame — and, the frame being 16 bytes,
// the payload — starts at an 8-byte-aligned *file* offset. That is what
// lets the mmap load path (common/mmap_file.hpp, the only reader of these
// sections) view u32/u64/double arrays in place. The writer threads an
// explicit byte cursor (bytes since the start of the file) instead of
// trusting tellp, so nested components embedded at arbitrary offsets stay
// in sync. Padding bytes are written as zeros and verified zero on read:
// no byte of a v3 file is outside some validated region, so a flipped bit
// anywhere is an IoError.

/// Bytes `write_raw_section` will occupy for a payload of `size` bytes
/// starting at file offset `cursor` (padding + 16-byte frame + payload).
std::uint64_t raw_section_span(std::uint64_t cursor, std::uint64_t size);

/// Zero-pads `out` to the next 8-byte boundary of `cursor`.
void write_alignment(std::ostream& out, std::uint64_t& cursor);

/// Alignment padding + frame only — for callers that stream a large payload
/// right after (the payload's `size` and `crc` must be known up front).
void write_raw_section_frame(std::ostream& out, std::uint64_t& cursor,
                             std::uint32_t tag, std::uint64_t size,
                             std::uint32_t crc);

/// Alignment padding + frame + payload.
void write_raw_section(std::ostream& out, std::uint64_t& cursor,
                       std::uint32_t tag, std::string_view payload);

/// Appends `size` raw bytes plus zero padding to the next 8-byte boundary
/// of `cursor` (payload- or file-relative, as the caller tracks it).
void write_padded(std::ostream& out, const void* data, std::size_t size,
                  std::uint64_t& cursor);

/// CRC twin of write_padded: chains `size` bytes plus their zero padding
/// into `crc`, advancing `cursor` identically. Lets a writer know a large
/// payload's checksum before streaming it (no payload-sized buffer).
void crc32_padded(const void* data, std::size_t size, std::uint64_t& cursor,
                  std::uint32_t& crc);

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  if (!out) throw IoError("binary write failed");
}

template <typename T>
T read_pod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw IoError("binary read failed: truncated stream");
  return value;
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!out) throw IoError("binary write failed");
  }
}

template <typename T>
std::vector<T> read_vector(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto count = read_pod<std::uint64_t>(in);
  if (count > kMaxElements) {
    throw IoError("binary read failed: implausible element count (corrupt "
                  "file?)");
  }
  std::vector<T> v(static_cast<std::size_t>(count));
  if (count) {
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!in) throw IoError("binary read failed: truncated stream");
  }
  return v;
}

inline void write_string(std::ostream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!out) throw IoError("binary write failed");
}

inline std::string read_string(std::istream& in) {
  const auto size = read_pod<std::uint64_t>(in);
  if (size > kMaxElements) {
    throw IoError("binary read failed: implausible string size");
  }
  std::string s(static_cast<std::size_t>(size), '\0');
  if (size) {
    in.read(s.data(), static_cast<std::streamsize>(size));
    if (!in) throw IoError("binary read failed: truncated stream");
  }
  return s;
}

}  // namespace lbe::bin
