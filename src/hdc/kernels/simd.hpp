// Runtime-dispatched SIMD tier of the packed similarity kernels.
//
// The word-plane kernels in plane.hpp retire one 64-bit word per popcount;
// AVX2 / AVX-512 / NEON hardware can chew 256-512 plane bits per
// instruction. This module provides vectorized implementations of the three
// fused XOR/AND+popcount dot reductions (and of query packing), selected at
// runtime from CPUID so one binary runs everywhere:
//
//   kScalarWords ── the plane.hpp word loops (always available, the
//   kAVX2         ┐ reference the differential fuzz suite compares against)
//   kAVX512       ├ x86: nibble-LUT popcount / VPOPCNTQ over 4-8 words per op
//   kNEON         ┘ aarch64: VCNT over 2 words per op
//
// Every level computes the exact same integers — dot products over the
// {-1,0,+1} alphabets are sums of word popcounts in every tier, just grouped
// differently — so results stay bit-identical (index, similarity, tie order)
// across levels; tests/test_kernel_fuzz.cpp asserts this exhaustively.
//
// Selection order for a PackedItemMemory scan:
//   1. an explicit hdc::ScanBackend::kPacked<level> knob (throws if the
//      level is not available on this CPU),
//   2. else the FACTORHD_SIMD env var (auto | scalar | avx2 | avx512 | neon;
//      unavailable requests fall back to the detected level),
//   3. else the best CPUID-detected level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace factorhd::hdc::kernels {

/// Vector instruction tier of the packed-plane kernels.
enum class SimdLevel {
  kScalarWords,  ///< portable 64-bit word loops (plane.hpp)
  kAVX2,         ///< x86 256-bit, nibble-LUT popcount (PSHUFB + PSADBW)
  kAVX512,       ///< x86 512-bit, native VPOPCNTQ (requires AVX512VPOPCNTDQ)
  kNEON,         ///< aarch64 128-bit, VCNT + pairwise widening adds
};

/// \return Stable lowercase name ("scalar", "avx2", "avx512", "neon") used
///   by the FACTORHD_SIMD env var and the BENCH_kernels.json `level` field.
[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

/// Parses a FACTORHD_SIMD value ("auto" and unknown strings -> nullopt).
/// \param name Level name; "scalar" and "words" both mean kScalarWords.
/// \return The parsed level, or nullopt when `name` names no fixed level.
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    std::string_view name) noexcept;

/// Best level this CPU supports, probed once via CPUID (x86) or the target
/// architecture (aarch64). kScalarWords when nothing better is available.
[[nodiscard]] SimdLevel detect_simd_level() noexcept;

/// \param level Level to test.
/// \return True when `level` can execute on this CPU: kScalarWords always,
///   kAVX2 also on AVX-512 hardware, kAVX512/kNEON only when detected.
[[nodiscard]] bool simd_level_available(SimdLevel level) noexcept;

/// Pure selection rule behind dispatched_simd_level(), separated for
/// testability: `env` is the FACTORHD_SIMD value, `detected` the CPU's best
/// level. Unset/"auto"/unparsable or unavailable requests yield `detected`.
/// \param detected CPUID-detected best level.
/// \param env FACTORHD_SIMD value ("" when unset).
/// \return The level scans should run at.
[[nodiscard]] SimdLevel clamp_simd_level(SimdLevel detected,
                                         std::string_view env) noexcept;

/// The level kAuto/kPacked scans dispatch to: detect_simd_level() clamped by
/// FACTORHD_SIMD, computed once per process.
[[nodiscard]] SimdLevel dispatched_simd_level() noexcept;

/// One SIMD tier's kernel set. All three dot kernels take canonical-tail
/// planes (bits >= dim zero in the last word) and return the exact integer
/// dot product — identical across tiers. pack_planes is the fused query
/// packer: int32 components -> sign/nonzero planes with canonical tails;
/// accumulate_planes is its inverse, added into int32 components.
struct DotKernels {
  /// dot of two bipolar sign planes (= dim - 2 * hamming).
  std::int64_t (*bipolar_bipolar)(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words,
                                  std::size_t dim) noexcept;
  /// dot of a bipolar sign plane with a ternary (nonzero, sign) pair.
  std::int64_t (*bipolar_ternary)(const std::uint64_t* bip,
                                  const std::uint64_t* nz,
                                  const std::uint64_t* sg,
                                  std::size_t words) noexcept;
  /// dot of two ternary (nonzero, sign) plane pairs.
  std::int64_t (*ternary_ternary)(const std::uint64_t* a_nz,
                                  const std::uint64_t* a_sg,
                                  const std::uint64_t* b_nz,
                                  const std::uint64_t* b_sg,
                                  std::size_t words) noexcept;
  /// Packs `dim` int32 components into sign/nonzero planes (both
  /// plane_words(dim) long, canonical tails). Sets *any_zero when a
  /// component is 0. Returns false — leaving the planes unspecified — when a
  /// component lies outside {-1, 0, +1} (integer bundles take the scalar
  /// path).
  bool (*pack_planes)(const std::int32_t* components, std::size_t dim,
                      std::uint64_t* sign, std::uint64_t* nonzero,
                      bool* any_zero) noexcept;
  /// Adds a row stored as planes (canonical tails, plane_words(dim) words
  /// each) into `dim` int32 components: +1 on a set sign bit, -1 on a clear
  /// one, 0 where `nonzero` has a clear bit. `nonzero` is nullptr for a
  /// bipolar row (nonzero everywhere).
  void (*accumulate_planes)(std::int32_t* components, std::size_t dim,
                            const std::uint64_t* sign,
                            const std::uint64_t* nonzero) noexcept;
};

/// Kernel table for `level`. Levels not compiled into this binary (e.g.
/// kNEON on x86) alias the scalar table; callers that must not degrade
/// silently check simd_level_available() first (hdc::ItemMemory throws).
/// \param level Requested tier.
/// \return The tier's kernel set (static storage, never null).
[[nodiscard]] const DotKernels& dot_kernels(SimdLevel level) noexcept;

/// Batched one-query-against-many-rows dot kernels over a row-major plane
/// buffer: `count` rows of `words` words each, row i starting at word
/// i * `stride` (`stride` >= `words`; callers with contiguous rows pass
/// `words`, a scan over a column range of wider rows passes the row width
/// and offsets `rows` and the query planes to the range's first word). The
/// DotKernels entries are tuned for long single dots; a k-means screen needs
/// thousands of *short* prefix dots per row, where the per-call cost
/// (indirect call, prologue, horizontal reduction) rivals the popcounts
/// themselves. These loops keep the query resident and amortize that
/// overhead across the whole batch. Results are the exact same integers as
/// calling the matching DotKernels entry per row — bit-identical across
/// levels (tests/test_kernel_equivalence.cpp pins this).
struct BatchDotKernels {
  /// out[i] = bipolar×bipolar dot of `query` against row i
  /// (= dim - 2 * hamming over `words` words; `dim` counts the dimensions
  /// those words hold, and bits past it must be zero in both operands).
  void (*bipolar_rows)(const std::uint64_t* query, const std::uint64_t* rows,
                       std::size_t count, std::size_t words,
                       std::size_t stride, std::size_t dim,
                       std::int64_t* out) noexcept;
  /// out[i] = dot of a ternary (nonzero, sign) query against bipolar row i.
  void (*ternary_rows)(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                       const std::uint64_t* rows, std::size_t count,
                       std::size_t words, std::size_t stride,
                       std::int64_t* out) noexcept;
};

/// Batch kernel table for `level`; same aliasing rule as dot_kernels().
[[nodiscard]] const BatchDotKernels& batch_dot_kernels(
    SimdLevel level) noexcept;

/// Words per row of a slab plane: the 512-dimension (one cache line)
/// prefix the pruned argmax scores in its second step.
inline constexpr std::size_t kSlabWords = 8;

/// Words of each slab-plane row the pruned argmax's first step scores: the
/// 128-dimension prefix, read from the same plane as the full slab.
inline constexpr std::size_t kSlabStepWords = 2;

/// Rows per interleaved block of a slab plane. Block b holds rows
/// [8b, 8b + 8), word-major: row i's word w sits at
/// slab[(i / 8) * 64 + w * 8 + i % 8], so one 512-bit load is word w of
/// eight rows.
inline constexpr std::size_t kSlabLanes = 8;

/// Multi-query blocked scan kernels: Q queries against a row-major bipolar
/// plane buffer (the BatchDotKernels `words` / `stride` geometry) in ONE
/// pass over the rows, GEMM-style.
///
/// The single-query batch loops above re-stream the whole codebook from
/// memory for every query in a micro-batch; once the planes spill L2 that
/// stream dominates the scan. These kernels invert the loop nest — row
/// blocks stay register/L1-resident while every query visits them — so a
/// grouped batch pays the codebook memory traffic once per block instead of
/// once per query. Queries are passed as a pointer array (one plane pointer
/// per query, each `words` long with canonical tails); results land
/// query-major: out[q * count + i] = dot(query q, row i).
///
/// Every tier computes the exact same integers as calling the matching
/// BatchDotKernels entry per query — bit-identical across levels and block
/// sizes (tests/test_kernel_fuzz.cpp pins blocked == per-query per tier).
struct QueryBlockKernels {
  /// out[q * count + i] = bipolar×bipolar dot of queries[q] against row i.
  void (*bipolar_rows)(const std::uint64_t* const* queries, std::size_t nq,
                       const std::uint64_t* rows, std::size_t count,
                       std::size_t words, std::size_t stride, std::size_t dim,
                       std::int64_t* out) noexcept;
  /// out[q * count + i] = dot of ternary query q (q_nz[q], q_sg[q] plane
  /// pairs) against bipolar row i.
  void (*ternary_rows)(const std::uint64_t* const* q_nz,
                       const std::uint64_t* const* q_sg, std::size_t nq,
                       const std::uint64_t* rows, std::size_t count,
                       std::size_t words, std::size_t stride,
                       std::int64_t* out) noexcept;
  /// Slab partials of the pruned argmax: nq queries in (nonzero, sign)
  /// form against `count` rows of a slab plane (kSlabLanes-interleaved,
  /// kSlabWords words per row, zero-padded to a whole block), over the
  /// row words [0, words), 1 <= words <= kSlabWords. Query q's planes are
  /// q_nz[q * kSlabWords ..] and q_sg[q * kSlabWords ..]; a bipolar query
  /// passes an all-ones nonzero mask over its dimensions. Writes
  /// out[q * out_stride + i] = Σ_w popcount(nz_w) -
  /// 2 Σ_w popcount((row_w ^ sg_w) & nz_w) over w < words, the exact dot
  /// over those words (|value| <= 64 * words), and max_out[q] = the
  /// largest of query q's `count` values (INT16_MIN when count is 0). The
  /// pruned argmax passes out_stride = 256, one chunk's rows, so the
  /// queries' stores of a row block land in different cache sets.
  void (*slab_rows)(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                    std::size_t nq, const std::uint64_t* slab,
                    std::size_t count, std::size_t words, std::int16_t* out,
                    std::size_t out_stride, std::int16_t* max_out) noexcept;
  /// The pruned argmax's fallback merge: the first maximum of
  /// partial[i] + suffix[i] over i < count (count >= 1). Writes the maximum
  /// to *value and the lowest index holding it to *index.
  void (*partial_argmax)(const std::int16_t* partial,
                         const std::int64_t* suffix, std::size_t count,
                         std::int64_t* value, std::size_t* index) noexcept;
};

/// Query-block kernel table for `level`; same aliasing rule as
/// dot_kernels().
[[nodiscard]] const QueryBlockKernels& query_block_kernels(
    SimdLevel level) noexcept;

}  // namespace factorhd::hdc::kernels
