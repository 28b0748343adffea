// MmapFile + ByteReader: the RAII mapping layer behind format-v3 warm
// starts. Missing/empty files and every flavour of overrun must surface as
// IoError, alignment padding must verify as zero, and raw sections must
// round-trip between the stream writer and the mapped reader.
#include "common/mmap_file.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace lbe::bin {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(MmapFile, MapsFileBytes) {
  const std::string path = temp_path("mmap_basic.bin");
  const std::string content = "0123456789abcdef";
  write_file(path, content);

  const auto map = MmapFile::open(path);
  ASSERT_EQ(map->size(), content.size());
  EXPECT_EQ(std::memcmp(map->bytes().data(), content.data(), content.size()),
            0);
  EXPECT_EQ(map->path(), path);

  // Releasing the resident pages keeps the mapping readable.
  map->release_resident();
  EXPECT_EQ(std::memcmp(map->bytes().data(), content.data(), content.size()),
            0);
}

TEST(MmapFile, MissingFileThrows) {
  EXPECT_THROW(MmapFile::open("/nonexistent/lbe_mmap.bin"), IoError);
}

TEST(MmapFile, EmptyFileThrows) {
  const std::string path = temp_path("mmap_empty.bin");
  write_file(path, "");
  EXPECT_THROW(MmapFile::open(path), IoError);
}

TEST(ByteReader, OverrunThrows) {
  const std::string bytes = "12345678";
  ByteReader reader(std::as_bytes(std::span(bytes)));
  EXPECT_EQ(reader.read_pod<std::uint32_t>(), 0x34333231u);  // "1234" LE
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_THROW(reader.read_pod<std::uint64_t>(), IoError);
  EXPECT_THROW(ByteReader(std::as_bytes(std::span(bytes)), 9), IoError);
}

TEST(ByteReader, AlignConsumesZeroPaddingOnly) {
  const std::string zeros(16, '\0');
  ByteReader ok(std::as_bytes(std::span(zeros)), 0);
  ok.take(3);
  ok.align();
  EXPECT_EQ(ok.offset(), 8u);

  std::string dirty(16, '\0');
  dirty[5] = 0x10;  // inside the pad of a 3-byte prefix
  ByteReader bad(std::as_bytes(std::span(dirty)), 0);
  bad.take(3);
  EXPECT_THROW(bad.align(), IoError);
}

TEST(ByteReader, RawSectionRoundTripsFromStreamWriter) {
  std::ostringstream out;
  std::uint64_t cursor = 12;  // simulate a 12-byte component header
  out.write("HDRHDRHDRHDR", 12);
  const std::string payload = "payload bytes go here!";
  write_raw_section(out, cursor, 0x42, payload);

  const std::string file = out.str();
  ByteReader reader(std::as_bytes(std::span(file)), 12);
  const auto view = read_raw_section(reader, 0x42);
  ASSERT_EQ(view.size(), payload.size());
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(reader.remaining(), 0u);

  // Wrong tag and flipped payload bit both reject.
  ByteReader wrong_tag(std::as_bytes(std::span(file)), 12);
  EXPECT_THROW(read_raw_section(wrong_tag, 0x43), IoError);
  std::string corrupt = file;
  corrupt[corrupt.size() - 1] ^= 0x01;
  ByteReader flipped(std::as_bytes(std::span(corrupt)), 12);
  EXPECT_THROW(read_raw_section(flipped, 0x42), IoError);
}

TEST(ByteReader, ViewArrayGuardsCountOverflow) {
  const std::string bytes(32, '\0');
  ByteReader reader(std::as_bytes(std::span(bytes)));
  EXPECT_THROW(reader.view_array<std::uint64_t>(
                   std::numeric_limits<std::size_t>::max() / 4),
               IoError);
}

}  // namespace
}  // namespace lbe::bin
