// The v4 posting codec in isolation: round-trips across the width range,
// degenerate spans, the incompressible fallback, structural validation,
// and — on hardware that has them — byte-for-byte agreement of the SSE4.1
// and AVX2 unpack kernels with the scalar reference. The engine-level
// equivalence (identical psms.tsv per --simd level) is asserted separately
// by cmake/lbectl_equivalence_matrix.sh.
#include "index/posting_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace codec = lbe::index::codec;

namespace {

/// Encode + decode-all under the currently selected kernel.
std::vector<std::uint32_t> round_trip(
    const std::vector<std::uint32_t>& values) {
  std::vector<codec::BlockMeta> blocks;
  std::vector<std::byte> bytes;
  codec::encode(values, blocks, bytes);
  codec::validate_blocks(blocks, values.size(), bytes.size());
  const std::size_t padded =
      blocks.size() * static_cast<std::size_t>(codec::kBlockValues);
  std::vector<std::uint32_t> out(padded, 0xDEADBEEFu);
  codec::decode_blocks(blocks, bytes, values.size(), 0, blocks.size(),
                       out.data());
  out.resize(values.size());
  return out;
}

/// Values whose per-block offset range needs exactly `width` bits.
std::vector<std::uint32_t> values_of_width(std::uint32_t width,
                                           std::size_t count,
                                           std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::uint64_t range = width >= 32
                                  ? 0x100000000ull
                                  : (1ull << width);
  const std::uint32_t base = rng() % 100000u;
  std::vector<std::uint32_t> values(count);
  for (auto& v : values) {
    v = base + static_cast<std::uint32_t>(rng() % range);
  }
  return values;
}

class PostingCodecTest : public ::testing::Test {
 protected:
  void TearDown() override {
    codec::set_simd_level(codec::SimdLevel::kAuto);
  }
};

TEST_F(PostingCodecTest, RoundTripsEveryWidthOnEveryKernel) {
  for (const codec::SimdLevel level :
       {codec::SimdLevel::kScalar, codec::SimdLevel::kSse,
        codec::SimdLevel::kAvx2}) {
    if (!codec::cpu_supports(level)) continue;
    codec::set_simd_level(level);
    ASSERT_EQ(codec::resolved_simd_level(), level);
    for (std::uint32_t width = 0; width <= 32; ++width) {
      const auto values = values_of_width(width, 1000, 7u * width + 1);
      EXPECT_EQ(round_trip(values), values)
          << "width " << width << " on " << codec::simd_level_name(level);
    }
  }
}

TEST_F(PostingCodecTest, KernelsAgreeByteForByte) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t width = rng() % 33u;
    const std::size_t count = 1 + rng() % 1000;
    const auto values = values_of_width(width, count, rng());

    codec::set_simd_level(codec::SimdLevel::kScalar);
    const auto scalar = round_trip(values);
    ASSERT_EQ(scalar, values);
    for (const codec::SimdLevel level :
         {codec::SimdLevel::kSse, codec::SimdLevel::kAvx2}) {
      if (!codec::cpu_supports(level)) continue;
      codec::set_simd_level(level);
      EXPECT_EQ(round_trip(values), scalar)
          << codec::simd_level_name(level) << " diverges from scalar at "
          << "width " << width << " count " << count;
    }
  }
}

TEST_F(PostingCodecTest, DegenerateSpans) {
  // Empty: no blocks, no bytes.
  std::vector<codec::BlockMeta> blocks;
  std::vector<std::byte> bytes;
  codec::encode({}, blocks, bytes);
  EXPECT_TRUE(blocks.empty());
  EXPECT_TRUE(bytes.empty());
  codec::validate_blocks(blocks, 0, 0);

  // Single value; all-equal block (width 0); max-u32 values.
  EXPECT_EQ(round_trip({42u}), std::vector<std::uint32_t>{42u});
  const std::vector<std::uint32_t> equal(300, 123456u);
  EXPECT_EQ(round_trip(equal), equal);
  const std::uint32_t top = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::uint32_t> extremes = {0u, top, top - 1, 0u, top};
  EXPECT_EQ(round_trip(extremes), extremes);
}

TEST_F(PostingCodecTest, BlockBoundaryCounts) {
  for (const std::size_t count : {127u, 128u, 129u, 255u, 256u, 257u}) {
    const auto values = values_of_width(11, count, 99);
    EXPECT_EQ(round_trip(values), values) << "count " << count;
  }
}

TEST_F(PostingCodecTest, IncompressibleBlocksFallBackToRaw) {
  // Full-range random values need 32-bit offsets: packing would not
  // shrink them, so the encoder must emit verbatim blocks no larger than
  // the raw array.
  std::mt19937 rng(7);
  std::vector<std::uint32_t> values(512);
  for (auto& v : values) v = rng();
  std::vector<codec::BlockMeta> blocks;
  std::vector<std::byte> bytes;
  codec::encode(values, blocks, bytes);
  ASSERT_EQ(blocks.size(), 4u);
  for (const auto& meta : blocks) {
    EXPECT_EQ(meta.tag, codec::kTagRaw);
  }
  EXPECT_EQ(bytes.size(), values.size() * sizeof(std::uint32_t));
  EXPECT_EQ(round_trip(values), values);
}

TEST_F(PostingCodecTest, CompressesTypicalPostingsWell) {
  // The gate the index_io bench enforces end to end (≤ 0.6× raw u32),
  // checked here at the codec layer: clustered bins pack far below 4 B.
  const auto values = values_of_width(12, 4096, 3);
  std::vector<codec::BlockMeta> blocks;
  std::vector<std::byte> bytes;
  codec::encode(values, blocks, bytes);
  const double per_posting =
      static_cast<double>(bytes.size() +
                          blocks.size() * sizeof(codec::BlockMeta)) /
      static_cast<double>(values.size());
  EXPECT_LE(per_posting, 0.6 * sizeof(std::uint32_t));
}

TEST_F(PostingCodecTest, DecodeRangeMatchesFullDecodeOnEveryKernel) {
  // decode_range is the span-walk entry point: arbitrary [first, last)
  // sub-ranges, rounded out to 8-value rows, must reproduce exactly what a
  // full block decode yields — mid-stream kernel entry (a lane's bit
  // buffer primed at a non-zero word/bit offset) included — and must not
  // write outside the rounded row range.
  std::mt19937 rng(2024);
  for (const codec::SimdLevel level :
       {codec::SimdLevel::kScalar, codec::SimdLevel::kSse,
        codec::SimdLevel::kAvx2}) {
    if (!codec::cpu_supports(level)) continue;
    codec::set_simd_level(level);
    for (int trial = 0; trial < 40; ++trial) {
      const std::uint32_t width = rng() % 33u;
      const std::size_t count = 1 + rng() % 700;
      const auto values = values_of_width(width, count, rng());
      std::vector<codec::BlockMeta> blocks;
      std::vector<std::byte> bytes;
      codec::encode(values, blocks, bytes);

      const std::uint64_t first = rng() % count;
      const std::uint64_t last = first + 1 + rng() % (count - first);
      const std::size_t block_first =
          static_cast<std::size_t>(first) / codec::kBlockValues;
      const std::size_t block_count =
          (static_cast<std::size_t>(last) - 1) / codec::kBlockValues -
          block_first + 1;
      std::vector<std::uint32_t> out(block_count * codec::kBlockValues,
                                     0xDEADBEEFu);
      codec::decode_range(blocks, bytes, count, first, last, out.data());

      const std::uint64_t origin =
          static_cast<std::uint64_t>(block_first) * codec::kBlockValues;
      for (std::uint64_t i = first; i < last; ++i) {
        ASSERT_EQ(out[i - origin], values[i])
            << codec::simd_level_name(level) << " width " << width
            << " range [" << first << ", " << last << ") at " << i;
      }
      // Row-rounding bound: nothing before floor8(first) or at/after
      // ceil8(last) may be written.
      const std::uint64_t lo_bound = (first - origin) / 8 * 8;
      const std::uint64_t hi_bound = ((last - origin) + 7) / 8 * 8;
      for (std::uint64_t i = 0; i < lo_bound; ++i) {
        ASSERT_EQ(out[i], 0xDEADBEEFu) << "wrote before the row range";
      }
      for (std::uint64_t i = hi_bound; i < out.size(); ++i) {
        ASSERT_EQ(out[i], 0xDEADBEEFu) << "wrote past the row range";
      }
    }
  }
}

TEST_F(PostingCodecTest, ValidationRejectsMalformedDirectories) {
  const auto values = values_of_width(9, 300, 5);
  std::vector<codec::BlockMeta> blocks;
  std::vector<std::byte> bytes;
  codec::encode(values, blocks, bytes);

  auto corrupt = blocks;
  corrupt[1].tag = 7;
  EXPECT_THROW(codec::validate_blocks(corrupt, values.size(), bytes.size()),
               lbe::IoError);
  corrupt = blocks;
  corrupt[0].width = 33;
  EXPECT_THROW(codec::validate_blocks(corrupt, values.size(), bytes.size()),
               lbe::IoError);
  corrupt = blocks;
  corrupt[2].offset += 8;
  EXPECT_THROW(codec::validate_blocks(corrupt, values.size(), bytes.size()),
               lbe::IoError);
  corrupt = blocks;
  corrupt[0].reserved = 1;
  EXPECT_THROW(codec::validate_blocks(corrupt, values.size(), bytes.size()),
               lbe::IoError);
  // Stream bytes not tiled exactly by the blocks.
  EXPECT_THROW(codec::validate_blocks(blocks, values.size(),
                                      bytes.size() + 8),
               lbe::IoError);
  // Wrong block count for the posting total.
  EXPECT_THROW(codec::validate_blocks(blocks, values.size() + 200,
                                      bytes.size()),
               lbe::IoError);
}

}  // namespace
