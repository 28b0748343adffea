// Read-only memory-mapped files and a bounds-checked byte cursor.
//
// Every rank file is read this way (index/serialize.hpp, format v3+):
// index arrays bind straight into mapped file memory instead of being
// copied into freshly allocated vectors. The kernel pages data in on first
// touch, so loading a prepared bundle costs O(metadata) up front and
// narrow-window searches that visit few chunks never read most of the file
// at all. `MmapFile` is the RAII mapping (shared ownership, because several
// index components may view one mapping and must keep it alive);
// `ByteReader` walks mapped bytes with the same corruption discipline as
// the stream readers in binary_io: every overrun, bad tag, non-zero
// alignment pad or checksum mismatch is a typed IoError, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "common/error.hpp"

namespace lbe::bin {

/// Alignment every format-v3 raw-array section start is padded to, so that
/// u64/double columns can be viewed in place from a mapping.
inline constexpr std::size_t kRawAlignment = 8;

/// One read-only mapping of a whole file. Open via `open()` (shared_ptr so
/// spans into the mapping can keep it alive past the loader that created
/// it). Throws IoError when the file is missing, empty, or unmappable.
class MmapFile {
 public:
  static std::shared_ptr<const MmapFile> open(const std::string& path);

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  std::span<const std::byte> bytes() const noexcept {
    return {static_cast<const std::byte*>(data_), size_};
  }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

  /// Drops this process's resident copies of the mapped pages. The mapping
  /// stays valid: a read-only file mapping faults each page back in from
  /// the page cache on its next touch, exactly as the kernel may do on its
  /// own under memory pressure.
  void release_resident() const noexcept;

 private:
  MmapFile(void* data, std::size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  void* data_;
  std::size_t size_;
  std::string path_;
};

/// Bounds-checked cursor over a byte range (typically MmapFile::bytes()).
/// Mirrors the binary_io stream readers: any attempt to read past the end
/// throws IoError, so a truncated file can never yield a wild span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes,
                      std::size_t offset = 0)
      : bytes_(bytes), offset_(offset) {
    if (offset_ > bytes_.size()) {
      throw IoError("mapped read failed: cursor past end of file");
    }
  }

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }

  /// Consumes `n` bytes; throws IoError on overrun.
  std::span<const std::byte> take(std::size_t n) {
    if (n > remaining()) {
      throw IoError("mapped read failed: truncated file");
    }
    const auto out = bytes_.subspan(offset_, n);
    offset_ += n;
    return out;
  }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// Consumes padding up to the next kRawAlignment boundary (relative to
  /// the start of the underlying range, i.e. the file). Pad bytes must be
  /// zero: a flipped bit in padding is corruption like any other.
  void align() {
    const std::size_t misalign = offset_ % kRawAlignment;
    if (misalign == 0) return;
    for (const std::byte b : take(kRawAlignment - misalign)) {
      if (b != std::byte{0}) {
        throw IoError("mapped read failed: non-zero alignment padding "
                      "(corrupt file?)");
      }
    }
  }

  /// Views `count` elements of T in place (no copy). The cursor must sit at
  /// an alignof(T)-compatible offset — guaranteed for the v3 layout, where
  /// every array start is 8-byte aligned — and the mapping must outlive the
  /// returned span.
  template <typename T>
  std::span<const T> view_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kRawAlignment);
    // Guard the byte-count multiply: a corrupt count must fail as a
    // truncation, not wrap around and hand back a short span.
    if (count > remaining() / sizeof(T)) {
      throw IoError("mapped read failed: truncated file");
    }
    const auto raw = take(count * sizeof(T));
    // Check the REAL pointer, not just the range-relative offset: a
    // mapping is page-aligned, but a reader over any other buffer carries
    // no such promise — this turns a surprise into IoError instead of
    // misaligned UB.
    if (count != 0 &&
        reinterpret_cast<std::uintptr_t>(raw.data()) % alignof(T) != 0) {
      throw IoError("mapped read failed: misaligned array (corrupt file?)");
    }
    return {count == 0 ? nullptr : reinterpret_cast<const T*>(raw.data()),
            count};
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_;
};

/// Reads one aligned section written by binary_io's write_raw_section:
/// consumes alignment padding (verified zero), the [tag u32][size u64]
/// [crc32 u32] frame, and the payload, validating the checksum before
/// returning the in-place payload view. Throws IoError on any mismatch.
std::span<const std::byte> read_raw_section(ByteReader& reader,
                                            std::uint32_t expected_tag);

}  // namespace lbe::bin
