#include "common/binary_io.hpp"

#include <algorithm>
#include <array>

namespace lbe::bin {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void write_section(std::ostream& out, std::uint32_t tag,
                   std::string_view payload) {
  write_pod(out, tag);
  write_pod(out, static_cast<std::uint64_t>(payload.size()));
  write_pod(out, crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw IoError("binary write failed");
}

namespace {

/// Reads exactly `size` bytes in bounded chunks: a corrupt size field under
/// the cap fails as a truncated-section IoError, not as one giant
/// bad_alloc.
std::string read_exact(std::istream& in, std::uint64_t size) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::string payload;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const auto step =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunk));
    const std::size_t old_size = payload.size();
    payload.resize(old_size + step);
    in.read(payload.data() + old_size, static_cast<std::streamsize>(step));
    if (!in) throw IoError("binary read failed: truncated section");
    remaining -= step;
  }
  return payload;
}

constexpr std::size_t kRawAlign = 8;

std::size_t padding_for(std::uint64_t cursor) {
  return static_cast<std::size_t>((kRawAlign - cursor % kRawAlign) %
                                  kRawAlign);
}

}  // namespace

std::string read_section(std::istream& in, std::uint32_t expected_tag) {
  const auto tag = read_pod<std::uint32_t>(in);
  if (tag != expected_tag) {
    throw IoError("binary read failed: unexpected section tag (corrupt "
                  "file?)");
  }
  const auto size = read_pod<std::uint64_t>(in);
  if (size > kMaxSectionBytes) {
    throw IoError("binary read failed: implausible section size (corrupt "
                  "file?)");
  }
  const auto stored_crc = read_pod<std::uint32_t>(in);
  std::string payload = read_exact(in, size);
  if (crc32(payload) != stored_crc) {
    throw IoError("binary read failed: section checksum mismatch (corrupt "
                  "file?)");
  }
  return payload;
}

std::uint64_t raw_section_span(std::uint64_t cursor, std::uint64_t size) {
  return padding_for(cursor) + 16 + size;
}

void write_alignment(std::ostream& out, std::uint64_t& cursor) {
  static const char kZeros[kRawAlign] = {};
  const std::size_t pad = padding_for(cursor);
  if (pad != 0) {
    out.write(kZeros, static_cast<std::streamsize>(pad));
    if (!out) throw IoError("binary write failed");
    cursor += pad;
  }
}

void write_padded(std::ostream& out, const void* data, std::size_t size,
                  std::uint64_t& cursor) {
  if (size != 0) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) throw IoError("binary write failed");
    cursor += size;
  }
  write_alignment(out, cursor);
}

void crc32_padded(const void* data, std::size_t size, std::uint64_t& cursor,
                  std::uint32_t& crc) {
  static const char kZeros[kRawAlign] = {};
  crc = crc32(data, size, crc);
  cursor += size;
  const std::size_t pad = padding_for(cursor);
  crc = crc32(kZeros, pad, crc);
  cursor += pad;
}

void write_raw_section_frame(std::ostream& out, std::uint64_t& cursor,
                             std::uint32_t tag, std::uint64_t size,
                             std::uint32_t crc) {
  write_alignment(out, cursor);
  write_pod(out, tag);
  write_pod(out, size);
  write_pod(out, crc);
  cursor += 16;
}

void write_raw_section(std::ostream& out, std::uint64_t& cursor,
                       std::uint32_t tag, std::string_view payload) {
  write_raw_section_frame(out, cursor, tag, payload.size(), crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw IoError("binary write failed");
  cursor += payload.size();
}

}  // namespace lbe::bin
