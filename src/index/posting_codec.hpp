// Bit-packed posting blocks and their SIMD unpack kernels (format v4).
//
// Postings inside a bin are sorted by (parent mass, id), not by id, so a
// sequential delta chain would need signed deltas and a serial prefix sum
// to undo. Frame-of-reference coding sidesteps both: every 128-posting
// block stores its minimum as a 32-bit base plus each value's offset from
// that base at one fixed bit width chosen per block at encode time. Decode
// is order-preserving (the walk order the scorecard depends on byte-for-
// byte), branch-free per value, and vectorizes as unpack-then-broadcast-
// add. Blocks that would not shrink (width 32, or tiny tails) fall back to
// verbatim u32 so the packed stream is never larger than raw.
//
// Layout — one canonical byte format every kernel decodes identically:
//
//   block   := 128 consecutive postings of a chunk's CSR array (the last
//              block of a chunk may hold fewer)
//   meta    := {offset u64, base u32, width u8, tag u8, reserved u16}
//              (16 B; `offset` is the block's byte offset in the packed
//              stream, so span walks random-access their first block)
//   kRaw    := the block's values verbatim, little-endian u32
//   kPacked := value v lives in lane v%8, row v/8; each lane packs its
//              rows at `width` bits, least-significant-first, into a
//              private u32 word stream; lane word k is word 8*k+lane of
//              the block — i.e. the stream is a sequence of 32-byte
//              "stripes" of one u32 per lane. A block with R = ceil(n/8)
//              rows occupies ceil(R*width/32) stripes, zero-padded.
//
// The 8-lane vertical layout is the natural shape for AVX2 (one stripe =
// one ymm register); SSE4.1 decodes the two 16-byte stripe halves with
// identical shift phases, and the scalar kernel walks the same words one
// lane at a time — all three produce identical output for identical
// bytes, which CI enforces (see .github/workflows/ci.yml).
//
// Kernel selection is process-global: `set_simd_level` (the `--simd`
// knob in lbectl/lbebench) picks scalar/SSE4.1/AVX2 or kAuto, which
// resolves to the widest ISA the CPU reports. Requests the CPU cannot
// honor fall back to the widest supported level rather than faulting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace lbe::index::codec {

/// Postings per block. 128 keeps the decode scratch L1-resident (512 B)
/// and the per-block metadata overhead at 16/128 = 0.125 B per posting.
inline constexpr std::uint32_t kBlockValues = 128;

/// Block encodings. u8 on disk; anything else is corruption.
inline constexpr std::uint8_t kTagPacked = 0;
inline constexpr std::uint8_t kTagRaw = 1;

/// Per-block directory entry, stored verbatim in the v4 arrays payload
/// (16 B, 8-aligned so the directory can be viewed in place from a
/// mapping). `offset` is relative to the start of the packed byte stream.
struct BlockMeta {
  std::uint64_t offset = 0;
  std::uint32_t base = 0;
  std::uint8_t width = 0;  ///< bits per value offset, 0..32 (kPacked only)
  std::uint8_t tag = kTagPacked;
  std::uint16_t reserved = 0;
};
static_assert(sizeof(BlockMeta) == 16);

/// Bytes block `meta` occupies in the packed stream for `n` values.
std::uint64_t block_bytes(const BlockMeta& meta, std::uint32_t n) noexcept;

/// Encodes `values` into a packed stream: one BlockMeta per kBlockValues
/// (the final block may be short). `blocks` and `bytes` are replaced by
/// vectors whose capacity equals their size; offsets are relative to the
/// start of `bytes`. Deterministic: identical input yields identical bytes
/// on every ISA.
void encode(std::span<const std::uint32_t> values,
            std::vector<BlockMeta>& blocks, std::vector<std::byte>& bytes);

/// Decodes whole blocks [block_first, block_first + block_count) into
/// `out`, block b landing at out + (b - block_first) * kBlockValues —
/// so posting i of the array lands at out[i - block_first*kBlockValues]
/// regardless of how short the final block is. `total_count` is the
/// array's full posting count (it determines the final block's length).
/// `out` must hold block_count * kBlockValues values. Uses the resolved
/// process-global kernel. The caller is responsible for having validated
/// the metadata (validate_blocks below): this path is the query hot loop
/// and re-checks nothing.
void decode_blocks(std::span<const BlockMeta> blocks,
                   std::span<const std::byte> bytes,
                   std::uint64_t total_count, std::size_t block_first,
                   std::size_t block_count, std::uint32_t* out);

/// Decodes only the posting values [first, last) — rounded outward to the
/// layout's 8-value row boundaries — with the same output addressing as
/// decode_blocks: posting i lands at out[i - (first / kBlockValues) *
/// kBlockValues], and `out` must span every block the range touches.
/// Values outside the rounded row range are left unwritten. This is the
/// span-walk entry point: a bin span touching 20 postings unpacks two or
/// three 8-value rows instead of whole 128-value blocks. Same
/// validation-is-the-caller's-problem contract as decode_blocks.
void decode_range(std::span<const BlockMeta> blocks,
                  std::span<const std::byte> bytes, std::uint64_t total_count,
                  std::uint64_t first, std::uint64_t last, std::uint32_t* out);

/// Structural validation for loaded block directories: block count
/// matches total_count, tags/widths/reserved fields are legal, and the
/// per-block extents tile `stream_bytes` exactly (no byte of the stream
/// escapes a block, no block escapes the stream). Throws IoError.
void validate_blocks(std::span<const BlockMeta> blocks,
                     std::uint64_t total_count, std::uint64_t stream_bytes);

// ---- kernel selection ------------------------------------------------------

enum class SimdLevel : int {
  kAuto = 0,    ///< widest ISA the CPU supports (the default)
  kScalar = 1,  ///< portable reference kernel
  kSse = 2,     ///< SSE4.1
  kAvx2 = 3,    ///< AVX2
};

/// True when the running CPU can execute `level` (kAuto/kScalar: always).
bool cpu_supports(SimdLevel level) noexcept;

/// Sets the process-global decode kernel. kAuto — and any level the CPU
/// cannot honor — resolves to the widest supported ISA. Not meant to be
/// raced against in-flight queries; lbectl/lbebench call it once at
/// startup, tests call it between queries.
void set_simd_level(SimdLevel level) noexcept;

/// The level requests resolve to right now (never kAuto).
SimdLevel resolved_simd_level() noexcept;

/// "auto" | "scalar" | "sse" | "avx2".
const char* simd_level_name(SimdLevel level) noexcept;

/// Parses a `--simd` argument; returns false on unknown spelling.
bool parse_simd_level(std::string_view text, SimdLevel& out) noexcept;

}  // namespace lbe::index::codec
