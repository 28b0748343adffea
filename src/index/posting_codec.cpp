#include "index/posting_codec.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <string>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LBE_CODEC_X86 1
#else
#define LBE_CODEC_X86 0
#endif

namespace lbe::index::codec {

namespace {

constexpr std::uint32_t kLanes = 8;

std::uint32_t block_rows(std::uint32_t n) noexcept {
  return (n + kLanes - 1) / kLanes;
}

std::uint64_t packed_block_bytes(std::uint32_t n, std::uint32_t width) {
  // One 32-byte stripe per 32 packed bits of the longest lane.
  const std::uint64_t lane_bits =
      static_cast<std::uint64_t>(block_rows(n)) * width;
  return 32 * ((lane_bits + 31) / 32);
}

std::uint32_t width_mask(std::uint32_t width) noexcept {
  return width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u);
}

std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// ---- decode kernels --------------------------------------------------------
//
// All kernels decode rows [row_first, row_last) of a packed block's
// canonical stripe layout (see the header), writing (row_last - row_first)
// * 8 values at `out` — the caller aims `out` at the row_first position of
// the block's reserved 128-value output region, so tail rows of a short
// final block land inside it, never past it. Row-ranged decode is what
// keeps short bin spans cheap: a span touching 20 postings unpacks 3 rows,
// not a whole block. A width-0 block is pure base replication and touches
// no stream bytes.

void unpack_block_scalar(const BlockMeta& meta, const std::byte* p,
                         std::uint32_t row_first, std::uint32_t row_last,
                         std::uint32_t* out) {
  const std::uint32_t width = meta.width;
  const std::uint32_t base = meta.base;
  if (width == 0) {
    std::fill_n(out, static_cast<std::size_t>(row_last - row_first) * kLanes,
                base);
    return;
  }
  const std::uint32_t mask = width_mask(width);
  // Lane-outer with a 64-bit bit buffer: each lane is an independent
  // little-endian bit stream (one u32 word per stripe), so a lane refills
  // its buffer once per 32 bits consumed — about width/32 loads per value
  // instead of the naive one-or-two.
  const std::uint32_t start_bit = row_first * width;
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    std::uint32_t word = start_bit >> 5;
    std::uint64_t buf = load_u32(p + 4 * (word * kLanes + lane));
    std::uint32_t have = 32 - (start_bit & 31);
    buf >>= start_bit & 31;
    ++word;
    for (std::uint32_t r = row_first; r < row_last; ++r) {
      if (have < width) {
        buf |= static_cast<std::uint64_t>(
                   load_u32(p + 4 * (word * kLanes + lane)))
               << have;
        have += 32;
        ++word;
      }
      out[(r - row_first) * kLanes + lane] =
          base + (static_cast<std::uint32_t>(buf) & mask);
      buf >>= width;
      have -= width;
    }
  }
}

#if LBE_CODEC_X86

__attribute__((target("sse4.1"))) void unpack_block_sse(
    const BlockMeta& meta, const std::byte* p, std::uint32_t row_first,
    std::uint32_t row_last, std::uint32_t* out) {
  const std::uint32_t width = meta.width;
  if (width == 0) {
    std::fill_n(out, static_cast<std::size_t>(row_last - row_first) * kLanes,
                meta.base);
    return;
  }
  const __m128i mask = _mm_set1_epi32(static_cast<int>(width_mask(width)));
  const __m128i base = _mm_set1_epi32(static_cast<int>(meta.base));
  // One stripe = lanes 0-3 in the low 16 bytes, lanes 4-7 in the high 16;
  // both halves share the exact shift schedule of the AVX2 kernel. Entry
  // mid-stream: row_first's packed bits start at bit (row_first * width)
  // of every lane, i.e. stripe (bitpos / 32) at in-word offset bitpos % 32.
  const std::uint32_t bitpos = row_first * width;
  p += 32 * (bitpos >> 5);
  __m128i acc0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i acc1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  p += 32;
  std::uint32_t bit = bitpos & 31;
  for (std::uint32_t r = row_first; r < row_last; ++r) {
    __m128i v0, v1;
    if (bit + width <= 32) {
      const __m128i count = _mm_cvtsi32_si128(static_cast<int>(bit));
      v0 = _mm_srl_epi32(acc0, count);
      v1 = _mm_srl_epi32(acc1, count);
      bit += width;
      if (bit == 32 && r + 1 < row_last) {
        acc0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
        acc1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
        p += 32;
        bit = 0;
      }
    } else {
      const __m128i lo_count = _mm_cvtsi32_si128(static_cast<int>(bit));
      const __m128i hi_count = _mm_cvtsi32_si128(static_cast<int>(32 - bit));
      const __m128i lo0 = _mm_srl_epi32(acc0, lo_count);
      const __m128i lo1 = _mm_srl_epi32(acc1, lo_count);
      acc0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      acc1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
      p += 32;
      v0 = _mm_or_si128(lo0, _mm_sll_epi32(acc0, hi_count));
      v1 = _mm_or_si128(lo1, _mm_sll_epi32(acc1, hi_count));
      bit = bit + width - 32;
    }
    v0 = _mm_add_epi32(_mm_and_si128(v0, mask), base);
    v1 = _mm_add_epi32(_mm_and_si128(v1, mask), base);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + (r - row_first) * kLanes), v0);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + (r - row_first) * kLanes + 4), v1);
  }
}

__attribute__((target("avx2"))) void unpack_block_avx2(
    const BlockMeta& meta, const std::byte* p, std::uint32_t row_first,
    std::uint32_t row_last, std::uint32_t* out) {
  const std::uint32_t width = meta.width;
  if (width == 0) {
    std::fill_n(out, static_cast<std::size_t>(row_last - row_first) * kLanes,
                meta.base);
    return;
  }
  const __m256i mask = _mm256_set1_epi32(static_cast<int>(width_mask(width)));
  const __m256i base = _mm256_set1_epi32(static_cast<int>(meta.base));
  const std::uint32_t bitpos = row_first * width;
  p += 32 * (bitpos >> 5);
  __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  p += 32;
  std::uint32_t bit = bitpos & 31;
  for (std::uint32_t r = row_first; r < row_last; ++r) {
    __m256i v;
    if (bit + width <= 32) {
      v = _mm256_srl_epi32(acc, _mm_cvtsi32_si128(static_cast<int>(bit)));
      bit += width;
      if (bit == 32 && r + 1 < row_last) {
        acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
        p += 32;
        bit = 0;
      }
    } else {
      const __m256i lo =
          _mm256_srl_epi32(acc, _mm_cvtsi32_si128(static_cast<int>(bit)));
      acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      p += 32;
      const __m256i hi = _mm256_sll_epi32(
          acc, _mm_cvtsi32_si128(static_cast<int>(32 - bit)));
      v = _mm256_or_si256(lo, hi);
      bit = bit + width - 32;
    }
    v = _mm256_add_epi32(_mm256_and_si256(v, mask), base);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + (r - row_first) * kLanes), v);
  }
}

#endif  // LBE_CODEC_X86

using UnpackFn = void (*)(const BlockMeta&, const std::byte*, std::uint32_t,
                          std::uint32_t, std::uint32_t*);

UnpackFn kernel_for(SimdLevel level) noexcept {
#if LBE_CODEC_X86
  if (level == SimdLevel::kAvx2) return &unpack_block_avx2;
  if (level == SimdLevel::kSse) return &unpack_block_sse;
#endif
  (void)level;
  return &unpack_block_scalar;
}

SimdLevel clamp_to_cpu(SimdLevel level) noexcept {
  if (level == SimdLevel::kAuto) {
    if (cpu_supports(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    if (cpu_supports(SimdLevel::kSse)) return SimdLevel::kSse;
    return SimdLevel::kScalar;
  }
  // A requested ISA the CPU lacks degrades to the widest one it has —
  // `--simd avx2` on an SSE-only machine must not fault mid-query.
  if (level == SimdLevel::kAvx2 && !cpu_supports(SimdLevel::kAvx2)) {
    return clamp_to_cpu(SimdLevel::kAuto);
  }
  if (level == SimdLevel::kSse && !cpu_supports(SimdLevel::kSse)) {
    return SimdLevel::kScalar;
  }
  return level;
}

struct KernelState {
  std::atomic<int> level;
  std::atomic<UnpackFn> unpack;
  KernelState() noexcept {
    const SimdLevel resolved = clamp_to_cpu(SimdLevel::kAuto);
    level.store(static_cast<int>(resolved), std::memory_order_relaxed);
    unpack.store(kernel_for(resolved), std::memory_order_relaxed);
  }
};

KernelState& state() noexcept {
  static KernelState s;
  return s;
}

}  // namespace

std::uint64_t block_bytes(const BlockMeta& meta, std::uint32_t n) noexcept {
  if (meta.tag == kTagRaw) return static_cast<std::uint64_t>(n) * 4;
  return packed_block_bytes(n, meta.width);
}

void encode(std::span<const std::uint32_t> values,
            std::vector<BlockMeta>& blocks, std::vector<std::byte>& bytes) {
  // Pass 1 picks every block's encoding, so pass 2 fills buffers allocated
  // at their exact final size: no growth slack for memory_bytes to count.
  std::vector<BlockMeta> metas;
  metas.reserve((values.size() + kBlockValues - 1) / kBlockValues);
  std::uint64_t total = 0;
  for (std::size_t begin = 0; begin < values.size();
       begin += kBlockValues) {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(kBlockValues, values.size() - begin));
    const std::uint32_t* v = values.data() + begin;
    const auto [min_it, max_it] = std::minmax_element(v, v + n);
    const std::uint32_t width =
        static_cast<std::uint32_t>(std::bit_width(*max_it - *min_it));
    BlockMeta meta;
    meta.offset = total;
    if (packed_block_bytes(n, width) >= static_cast<std::uint64_t>(n) * 4) {
      // Incompressible (or too short to amortize a stripe): verbatim u32.
      meta.tag = kTagRaw;
    } else {
      meta.base = *min_it;
      meta.width = static_cast<std::uint8_t>(width);
      meta.tag = kTagPacked;
    }
    total += block_bytes(meta, n);
    metas.push_back(meta);
  }

  std::vector<std::byte> stream(static_cast<std::size_t>(total),
                                std::byte{0});
  for (std::size_t b = 0; b < metas.size(); ++b) {
    const BlockMeta& meta = metas[b];
    const std::size_t begin = b * kBlockValues;
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(kBlockValues, values.size() - begin));
    const std::uint32_t* v = values.data() + begin;
    auto* words = reinterpret_cast<unsigned char*>(stream.data() + meta.offset);
    if (meta.tag == kTagRaw) {
      std::memcpy(words, v, static_cast<std::size_t>(n) * 4);
      continue;
    }
    const std::uint32_t width = meta.width;
    if (width == 0) continue;
    auto or_word = [&](std::uint32_t word_index, std::uint32_t value) {
      std::uint32_t w;
      std::memcpy(&w, words + 4 * word_index, 4);
      w |= value;
      std::memcpy(words + 4 * word_index, &w, 4);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t off = v[i] - meta.base;
      const std::uint32_t lane = i % kLanes;
      const std::uint32_t bitpos = (i / kLanes) * width;
      const std::uint32_t word = bitpos >> 5;
      const std::uint32_t shift = bitpos & 31;
      or_word(word * kLanes + lane, off << shift);
      if (shift + width > 32) {
        or_word((word + 1) * kLanes + lane, off >> (32 - shift));
      }
    }
  }
  blocks = std::move(metas);
  bytes = std::move(stream);
}

void decode_blocks(std::span<const BlockMeta> blocks,
                   std::span<const std::byte> bytes,
                   std::uint64_t total_count, std::size_t block_first,
                   std::size_t block_count, std::uint32_t* out) {
  const UnpackFn unpack = state().unpack.load(std::memory_order_relaxed);
  for (std::size_t b = block_first; b < block_first + block_count; ++b) {
    const BlockMeta& meta = blocks[b];
    const std::uint64_t value_first =
        static_cast<std::uint64_t>(b) * kBlockValues;
    const auto n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            kBlockValues, total_count - value_first));
    std::uint32_t* slot = out + (b - block_first) * kBlockValues;
    const std::byte* p = bytes.data() + meta.offset;
    if (meta.tag == kTagRaw) {
      std::memcpy(slot, p, static_cast<std::size_t>(n) * 4);
    } else {
      unpack(meta, p, 0, block_rows(n), slot);
    }
  }
}

void decode_range(std::span<const BlockMeta> blocks,
                  std::span<const std::byte> bytes, std::uint64_t total_count,
                  std::uint64_t first, std::uint64_t last,
                  std::uint32_t* out) {
  if (first >= last) return;
  const UnpackFn unpack = state().unpack.load(std::memory_order_relaxed);
  const std::size_t block_first = first / kBlockValues;
  const std::size_t block_last =
      static_cast<std::size_t>((last + kBlockValues - 1) / kBlockValues);
  for (std::size_t b = block_first; b < block_last; ++b) {
    const BlockMeta& meta = blocks[b];
    const std::uint64_t value_first =
        static_cast<std::uint64_t>(b) * kBlockValues;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockValues, total_count - value_first));
    // Rows covering the intersection of [first, last) with this block.
    const auto lo = static_cast<std::uint32_t>(
        b == block_first ? first - value_first : 0);
    const auto hi =
        static_cast<std::uint32_t>(b + 1 == block_last ? last - value_first
                                                       : n);
    const std::uint32_t row_first = lo / kLanes;
    const std::uint32_t row_last = (hi + kLanes - 1) / kLanes;
    std::uint32_t* slot = out + (b - block_first) * kBlockValues;
    const std::byte* p = bytes.data() + meta.offset;
    if (meta.tag == kTagRaw) {
      const std::uint32_t from = row_first * kLanes;
      const std::uint32_t to = std::min<std::uint32_t>(row_last * kLanes, n);
      std::memcpy(slot + from, p + static_cast<std::size_t>(from) * 4,
                  static_cast<std::size_t>(to - from) * 4);
    } else {
      unpack(meta, p, row_first, row_last, slot + row_first * kLanes);
    }
  }
}

void validate_blocks(std::span<const BlockMeta> blocks,
                     std::uint64_t total_count, std::uint64_t stream_bytes) {
  const std::uint64_t expected_blocks =
      (total_count + kBlockValues - 1) / kBlockValues;
  if (blocks.size() != expected_blocks) {
    throw IoError("corrupt index stream: posting block count mismatch");
  }
  std::uint64_t cursor = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockMeta& meta = blocks[b];
    const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kBlockValues, total_count - static_cast<std::uint64_t>(b) *
                                        kBlockValues));
    if (meta.tag != kTagPacked && meta.tag != kTagRaw) {
      throw IoError("corrupt index stream: unknown posting block encoding");
    }
    if (meta.width > 32 || meta.reserved != 0 ||
        (meta.tag == kTagRaw && (meta.width != 0 || meta.base != 0))) {
      throw IoError("corrupt index stream: malformed posting block header");
    }
    if (meta.offset != cursor) {
      throw IoError("corrupt index stream: posting block extent out of "
                    "order");
    }
    cursor += block_bytes(meta, n);
  }
  if (cursor != stream_bytes) {
    throw IoError("corrupt index stream: posting blocks do not tile the "
                  "packed stream");
  }
}

// ---- kernel selection ------------------------------------------------------

bool cpu_supports(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
#if LBE_CODEC_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kSse:
#if LBE_CODEC_X86
      return __builtin_cpu_supports("sse4.1") != 0;
#else
      return false;
#endif
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
  }
  return false;
}

void set_simd_level(SimdLevel level) noexcept {
  const SimdLevel resolved = clamp_to_cpu(level);
  KernelState& s = state();
  s.level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  s.unpack.store(kernel_for(resolved), std::memory_order_relaxed);
}

SimdLevel resolved_simd_level() noexcept {
  return static_cast<SimdLevel>(state().level.load(std::memory_order_relaxed));
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse:
      return "sse";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool parse_simd_level(std::string_view text, SimdLevel& out) noexcept {
  if (text == "auto") {
    out = SimdLevel::kAuto;
  } else if (text == "scalar") {
    out = SimdLevel::kScalar;
  } else if (text == "sse") {
    out = SimdLevel::kSse;
  } else if (text == "avx2") {
    out = SimdLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace lbe::index::codec
