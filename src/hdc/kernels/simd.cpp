#include "hdc/kernels/simd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "hdc/kernels/plane.hpp"
#include "util/env.hpp"

// 64-bit x86 only: the kernels use 64-bit-lane intrinsics
// (_mm_extract_epi64 etc.) that GCC/Clang do not provide on 32-bit targets.
#if defined(__x86_64__)
#define FACTORHD_X86_SIMD 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define FACTORHD_NEON_SIMD 1
#include <arm_neon.h>
#endif

namespace factorhd::hdc::kernels {

namespace {

// --- Scalar-words tier ------------------------------------------------------
// Thin wrappers over the plane.hpp reference loops plus the portable packer;
// this is the tier every SIMD level must agree with bit-for-bit.

std::int64_t dot_bb_scalar(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words, std::size_t dim) noexcept {
  return dot_bipolar_bipolar(a, b, words, dim);
}

std::int64_t dot_bt_scalar(const std::uint64_t* bip, const std::uint64_t* nz,
                           const std::uint64_t* sg,
                           std::size_t words) noexcept {
  return dot_bipolar_ternary(bip, nz, sg, words);
}

std::int64_t dot_tt_scalar(const std::uint64_t* a_nz, const std::uint64_t* a_sg,
                           const std::uint64_t* b_nz, const std::uint64_t* b_sg,
                           std::size_t words) noexcept {
  return dot_ternary_ternary(a_nz, a_sg, b_nz, b_sg, words);
}

// Packs one (possibly partial) word's components [base, min(base+64, dim)).
// Word-blocked and branchless in the per-component work: compare results
// OR-ed into register-resident words instead of mispredicting per-component
// branches. Returns false on a component outside {-1, 0, +1}.
bool pack_word_scalar(const std::int32_t* p, std::size_t base, std::size_t dim,
                      std::uint64_t& sg_out, std::uint64_t& nz_out) noexcept {
  const std::size_t n = std::min(kWordBits, dim - base);
  std::uint64_t nz = 0;
  std::uint64_t sg = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t c = p[base + i];
    if (c > 1 || c < -1) return false;  // integer bundle: scalar path
    nz |= static_cast<std::uint64_t>(c != 0) << i;
    sg |= static_cast<std::uint64_t>(c > 0) << i;
  }
  sg_out = sg;
  nz_out = nz;
  return true;
}

// `full` bitmask for the word starting at `base`: 1s at every in-dim bit.
constexpr std::uint64_t word_full_mask(std::size_t base,
                                       std::size_t dim) noexcept {
  const std::size_t n = std::min(kWordBits, dim - base);
  return n == kWordBits ? ~0ULL : (1ULL << n) - 1;
}

bool pack_planes_scalar(const std::int32_t* p, std::size_t dim,
                        std::uint64_t* sign, std::uint64_t* nonzero,
                        bool* any_zero) noexcept {
  const std::size_t words = plane_words(dim);
  bool saw_zero = false;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w * kWordBits;
    if (!pack_word_scalar(p, base, dim, sign[w], nonzero[w])) return false;
    saw_zero |= (nonzero[w] != word_full_mask(base, dim));
  }
  *any_zero = saw_zero;
  return true;
}

// kByteBits[b][k] = bit k of byte b, as an int32 0 or 1: eight plane bits
// become eight components per table row instead of a branch per bit.
constexpr auto kByteBits = [] {
  std::array<std::array<std::int32_t, 8>, 256> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 8; ++k) table[b][k] = (b >> k) & 1u;
  }
  return table;
}();

// A component is 2 * sign - nonzero: +1, -1, or 0 where the nonzero bit is
// clear (a canonical ternary row has no sign bit there). The accumulate
// kernels carry the multi-object factorization's candidate re-encodings;
// like dot and similarity (similarity.cpp) each is pinned to a 64-byte
// boundary, so code added elsewhere cannot move its loop.
__attribute__((aligned(64))) void accumulate_planes_scalar(
    std::int32_t* p, std::size_t dim, const std::uint64_t* sign,
    const std::uint64_t* nonzero) noexcept {
  for (std::size_t i = 0, w = 0; i < dim; i += kWordBits, ++w) {
    std::uint64_t s = sign[w];
    std::uint64_t nz = nonzero != nullptr ? nonzero[w] : ~0ULL;
    const std::size_t n = std::min(kWordBits, dim - i);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8, s >>= 8, nz >>= 8) {
      const auto& sb = kByteBits[s & 0xffu];
      const auto& nb = kByteBits[nz & 0xffu];
      for (std::size_t j = 0; j < 8; ++j) p[i + k + j] += 2 * sb[j] - nb[j];
    }
    for (; k < n; ++k, s >>= 1, nz >>= 1) {
      p[i + k] += 2 * static_cast<std::int32_t>(s & 1u) -
                  static_cast<std::int32_t>(nz & 1u);
    }
  }
}

constexpr DotKernels kScalarKernels{dot_bb_scalar, dot_bt_scalar,
                                    dot_tt_scalar, pack_planes_scalar,
                                    accumulate_planes_scalar};

// Batch tier reference: the per-row kernels applied in row order. Every
// vectorized batch loop must reproduce these integers exactly.

void batch_bb_scalar(const std::uint64_t* query, const std::uint64_t* rows,
                     std::size_t count, std::size_t words, std::size_t stride,
                     std::size_t dim, std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = dot_bipolar_bipolar(query, rows + i * stride, words, dim);
  }
}

void batch_bt_scalar(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                     const std::uint64_t* rows, std::size_t count,
                     std::size_t words, std::size_t stride,
                     std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = dot_bipolar_ternary(rows + i * stride, q_nz, q_sg, words);
  }
}

constexpr BatchDotKernels kScalarBatchKernels{batch_bb_scalar, batch_bt_scalar};

// Query-block tier reference: the per-query batch loops applied in query
// order. Every blocked loop nest must reproduce these integers exactly.

void block_bb_scalar(const std::uint64_t* const* queries, std::size_t nq,
                     const std::uint64_t* rows, std::size_t count,
                     std::size_t words, std::size_t stride, std::size_t dim,
                     std::int64_t* out) noexcept {
  for (std::size_t q = 0; q < nq; ++q) {
    batch_bb_scalar(queries[q], rows, count, words, stride, dim,
                    out + q * count);
  }
}

void block_bt_scalar(const std::uint64_t* const* q_nz,
                     const std::uint64_t* const* q_sg, std::size_t nq,
                     const std::uint64_t* rows, std::size_t count,
                     std::size_t words, std::size_t stride,
                     std::int64_t* out) noexcept {
  for (std::size_t q = 0; q < nq; ++q) {
    batch_bt_scalar(q_nz[q], q_sg[q], rows, count, words, stride,
                    out + q * count);
  }
}

// Slab reference: one row, one query, one word at a time over the
// interleaved plane. Every vectorized slab loop must reproduce it exactly.
void slab_scalar(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                 std::size_t nq, const std::uint64_t* slab, std::size_t count,
                 std::size_t words, std::int16_t* out, std::size_t out_stride,
                 std::int16_t* max_out) noexcept {
  for (std::size_t q = 0; q < nq; ++q) {
    const std::uint64_t* nz = q_nz + q * kSlabWords;
    const std::uint64_t* sg = q_sg + q * kSlabWords;
    int support = 0;
    for (std::size_t w = 0; w < words; ++w) support += std::popcount(nz[w]);
    std::int16_t best = INT16_MIN;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t* row =
          slab + (i / kSlabLanes) * kSlabWords * kSlabLanes + i % kSlabLanes;
      int h = 0;
      for (std::size_t w = 0; w < words; ++w) {
        h += std::popcount((row[w * kSlabLanes] ^ sg[w]) & nz[w]);
      }
      const auto partial = static_cast<std::int16_t>(support - 2 * h);
      out[q * out_stride + i] = partial;
      best = std::max(best, partial);
    }
    max_out[q] = best;
  }
}

// The vector slab loops take the word count as a template argument, so
// their row vectors stay in registers; each tier dispatches through a table
// of its instances for W = 1 .. kSlabWords.
using SlabWordsFn = void (*)(const std::uint64_t* q_nz,
                             const std::uint64_t* q_sg, std::size_t nq,
                             const std::uint64_t* slab, std::size_t count,
                             std::int16_t* out, std::size_t out_stride,
                             std::int16_t* max_out) noexcept;
using SlabWordsTable = std::array<SlabWordsFn, kSlabWords>;

// Fallback-merge reference: the plain first-maximum loop.
void partial_argmax_scalar(const std::int16_t* partial,
                           const std::int64_t* suffix, std::size_t count,
                           std::int64_t* value, std::size_t* index) noexcept {
  std::int64_t best = INT64_MIN;
  std::size_t at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t v = partial[i] + suffix[i];
    if (v > best) {
      best = v;
      at = i;
    }
  }
  *value = best;
  *index = at;
}

constexpr QueryBlockKernels kScalarQueryBlockKernels{
    block_bb_scalar, block_bt_scalar, slab_scalar, partial_argmax_scalar};

#if FACTORHD_X86_SIMD

// GCC 12 flags the intentionally-undefined vectors inside the AVX-512
// intrinsic headers (_mm256_undefined_si256 via _mm512_reduce_add_epi64) as
// "used uninitialized" when they inline into optimized user code — a known
// false positive (GCC PR105593, fixed in GCC 13). Suppress it for the
// kernel definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// --- AVX2 tier --------------------------------------------------------------
// No native vector popcount on AVX2: use the nibble-LUT (PSHUFB) byte
// popcount folded into 64-bit lane sums with PSADBW — 4 plane words per
// vector op. Compiled with per-function target attributes so the rest of the
// binary stays baseline; only executed when CPUID reports AVX2.

__attribute__((target("avx2"))) inline __m256i popcount_epi64_avx2(
    __m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::int64_t hsum_epi64_avx2(
    __m256i v) noexcept {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return _mm_extract_epi64(s, 0) + _mm_extract_epi64(s, 1);
}

__attribute__((target("avx2"))) std::int64_t dot_bb_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words,
    std::size_t dim) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, popcount_epi64_avx2(x));
  }
  std::int64_t hamming = hsum_epi64_avx2(acc);
  for (; w < words; ++w) hamming += std::popcount(a[w] ^ b[w]);
  return static_cast<std::int64_t>(dim) - 2 * hamming;
}

__attribute__((target("avx2"))) std::int64_t dot_bt_avx2(
    const std::uint64_t* bip, const std::uint64_t* nz, const std::uint64_t* sg,
    std::size_t words) noexcept {
  __m256i support = _mm256_setzero_si256();
  __m256i differ = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bip + w));
    const __m256i vn =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nz + w));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sg + w));
    support = _mm256_add_epi64(support, popcount_epi64_avx2(vn));
    differ = _mm256_add_epi64(
        differ, popcount_epi64_avx2(_mm256_and_si256(_mm256_xor_si256(vb, vs), vn)));
  }
  std::int64_t acc = hsum_epi64_avx2(support) - 2 * hsum_epi64_avx2(differ);
  for (; w < words; ++w) {
    acc += std::popcount(nz[w]) - 2 * std::popcount((bip[w] ^ sg[w]) & nz[w]);
  }
  return acc;
}

__attribute__((target("avx2"))) std::int64_t dot_tt_avx2(
    const std::uint64_t* a_nz, const std::uint64_t* a_sg,
    const std::uint64_t* b_nz, const std::uint64_t* b_sg,
    std::size_t words) noexcept {
  __m256i support = _mm256_setzero_si256();
  __m256i differ = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i active = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_nz + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_nz + w)));
    const __m256i x = _mm256_and_si256(
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_sg + w)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_sg + w))),
        active);
    support = _mm256_add_epi64(support, popcount_epi64_avx2(active));
    differ = _mm256_add_epi64(differ, popcount_epi64_avx2(x));
  }
  std::int64_t acc = hsum_epi64_avx2(support) - 2 * hsum_epi64_avx2(differ);
  for (; w < words; ++w) {
    const std::uint64_t active = a_nz[w] & b_nz[w];
    acc += std::popcount(active) -
           2 * std::popcount((a_sg[w] ^ b_sg[w]) & active);
  }
  return acc;
}

__attribute__((target("avx2"))) bool pack_planes_avx2(
    const std::int32_t* p, std::size_t dim, std::uint64_t* sign,
    std::uint64_t* nonzero, bool* any_zero) noexcept {
  const std::size_t words = plane_words(dim);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i neg_one = _mm256_set1_epi32(-1);
  const __m256i zero = _mm256_setzero_si256();
  bool saw_zero = false;
  std::size_t w = 0;
  // Full 64-component words: 8 blocks of 8 int32 lanes, each compare
  // materialized as an 8-bit movemask slice of the plane word.
  for (; (w + 1) * kWordBits <= dim; ++w) {
    const std::int32_t* base = p + w * kWordBits;
    std::uint64_t nz = 0;
    std::uint64_t sg = 0;
    std::uint32_t invalid = 0;
    for (std::size_t blk = 0; blk < kWordBits / 8; ++blk) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + blk * 8));
      const __m256i eq1 = _mm256_cmpeq_epi32(v, one);
      const __m256i eq0 = _mm256_cmpeq_epi32(v, zero);
      const __m256i eqm1 = _mm256_cmpeq_epi32(v, neg_one);
      const auto mask1 = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq1)));
      const auto mask0 = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq0)));
      const auto valid = static_cast<std::uint32_t>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_or_si256(_mm256_or_si256(eq1, eq0), eqm1))));
      invalid |= ~valid & 0xffu;
      sg |= static_cast<std::uint64_t>(mask1) << (blk * 8);
      nz |= static_cast<std::uint64_t>(~mask0 & 0xffu) << (blk * 8);
    }
    if (invalid != 0) return false;  // integer bundle: scalar path
    sign[w] = sg;
    nonzero[w] = nz;
    saw_zero |= (nz != ~0ULL);
  }
  for (; w < words; ++w) {  // partial tail word
    const std::size_t base = w * kWordBits;
    if (!pack_word_scalar(p, base, dim, sign[w], nonzero[w])) return false;
    saw_zero |= (nonzero[w] != word_full_mask(base, dim));
  }
  *any_zero = saw_zero;
  return true;
}

// Batch loops: two rows per iteration share each query load and keep two
// popcount accumulators in flight, so the per-row horizontal reduction and
// loop control overlap with the neighbouring row's popcount chain.

__attribute__((target("avx2"))) void batch_bb_avx2(
    const std::uint64_t* query, const std::uint64_t* rows, std::size_t count,
    std::size_t words, std::size_t stride, std::size_t dim,
    std::int64_t* out) noexcept {
  const auto sdim = static_cast<std::int64_t>(dim);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t* r0 = rows + i * stride;
    const std::uint64_t* r1 = r0 + stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + w));
      acc0 = _mm256_add_epi64(
          acc0, popcount_epi64_avx2(_mm256_xor_si256(
                    q, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(r0 + w)))));
      acc1 = _mm256_add_epi64(
          acc1, popcount_epi64_avx2(_mm256_xor_si256(
                    q, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(r1 + w)))));
    }
    std::int64_t h0 = hsum_epi64_avx2(acc0);
    std::int64_t h1 = hsum_epi64_avx2(acc1);
    for (; w < words; ++w) {
      h0 += std::popcount(query[w] ^ r0[w]);
      h1 += std::popcount(query[w] ^ r1[w]);
    }
    out[i] = sdim - 2 * h0;
    out[i + 1] = sdim - 2 * h1;
  }
  if (i < count) out[i] = dot_bb_avx2(query, rows + i * stride, words, dim);
}

__attribute__((target("avx2"))) void batch_bt_avx2(
    const std::uint64_t* q_nz, const std::uint64_t* q_sg,
    const std::uint64_t* rows, std::size_t count, std::size_t words,
    std::size_t stride, std::int64_t* out) noexcept {
  // The support term Σ popcount(q_nz) is row-independent: hoist it.
  std::int64_t support = 0;
  {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      acc = _mm256_add_epi64(
          acc, popcount_epi64_avx2(_mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(q_nz + w))));
    }
    support = hsum_epi64_avx2(acc);
    for (; w < words; ++w) support += std::popcount(q_nz[w]);
  }
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t* r0 = rows + i * stride;
    const std::uint64_t* r1 = r0 + stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i vn =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q_nz + w));
      const __m256i vs =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q_sg + w));
      acc0 = _mm256_add_epi64(
          acc0, popcount_epi64_avx2(_mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(r0 + w)),
                        vs),
                    vn)));
      acc1 = _mm256_add_epi64(
          acc1, popcount_epi64_avx2(_mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(r1 + w)),
                        vs),
                    vn)));
    }
    std::int64_t d0 = hsum_epi64_avx2(acc0);
    std::int64_t d1 = hsum_epi64_avx2(acc1);
    for (; w < words; ++w) {
      d0 += std::popcount((r0[w] ^ q_sg[w]) & q_nz[w]);
      d1 += std::popcount((r1[w] ^ q_sg[w]) & q_nz[w]);
    }
    out[i] = support - 2 * d0;
    out[i + 1] = support - 2 * d1;
  }
  if (i < count) out[i] = dot_bt_avx2(rows + i * stride, q_nz, q_sg, words);
}

// Eight components per byte of the planes: each lane tests its own bit of
// the broadcast byte, so the compare masks are -1 on a set bit. Adding
// -mask_sign gives +1 on the set sign bits, and adding (nonzero & ~sign)'s
// mask gives -1 on the nonzero clear ones. A partial last word takes the
// scalar kernel.
__attribute__((target("avx2"), aligned(64))) void accumulate_planes_avx2(
    std::int32_t* p, std::size_t dim, const std::uint64_t* sign,
    const std::uint64_t* nonzero) noexcept {
  const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  std::size_t w = 0;
  for (; (w + 1) * kWordBits <= dim; ++w) {
    std::uint64_t s = sign[w];
    std::uint64_t nz = nonzero != nullptr ? nonzero[w] : ~0ULL;
    std::int32_t* base = p + w * kWordBits;
    for (std::size_t k = 0; k < kWordBits; k += 8, s >>= 8, nz >>= 8) {
      const __m256i ms = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(s & 0xffu)),
                           bits),
          bits);
      const __m256i mn = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(nz & 0xffu)),
                           bits),
          bits);
      auto* q = reinterpret_cast<__m256i*>(base + k);
      const __m256i v = _mm256_loadu_si256(q);
      _mm256_storeu_si256(q, _mm256_add_epi32(_mm256_sub_epi32(v, ms),
                                              _mm256_andnot_si256(ms, mn)));
    }
  }
  if (w * kWordBits < dim) {
    accumulate_planes_scalar(p + w * kWordBits, dim - w * kWordBits, sign + w,
                             nonzero != nullptr ? nonzero + w : nullptr);
  }
}

constexpr DotKernels kAVX2Kernels{dot_bb_avx2, dot_bt_avx2, dot_tt_avx2,
                                  pack_planes_avx2, accumulate_planes_avx2};
constexpr BatchDotKernels kAVX2BatchKernels{batch_bb_avx2, batch_bt_avx2};

// Blocked loops: cache blocking only. A 64-row chunk (up to 64 KiB of
// planes at D=8192) stays L1/L2-resident while every query of the block
// visits it, so the codebook streams from memory once per chunk instead of
// once per query. Within a chunk the per-query batch loops run unchanged —
// the same integers in the same row order, just a different visit order.

__attribute__((target("avx2"))) void block_bb_avx2(
    const std::uint64_t* const* queries, std::size_t nq,
    const std::uint64_t* rows, std::size_t count, std::size_t words,
    std::size_t stride, std::size_t dim, std::int64_t* out) noexcept {
  constexpr std::size_t kChunkRows = 64;
  for (std::size_t i = 0; i < count; i += kChunkRows) {
    const std::size_t c = std::min(kChunkRows, count - i);
    for (std::size_t q = 0; q < nq; ++q) {
      batch_bb_avx2(queries[q], rows + i * stride, c, words, stride, dim,
                    out + q * count + i);
    }
  }
}

__attribute__((target("avx2"))) void block_bt_avx2(
    const std::uint64_t* const* q_nz, const std::uint64_t* const* q_sg,
    std::size_t nq, const std::uint64_t* rows, std::size_t count,
    std::size_t words, std::size_t stride, std::int64_t* out) noexcept {
  constexpr std::size_t kChunkRows = 64;
  for (std::size_t i = 0; i < count; i += kChunkRows) {
    const std::size_t c = std::min(kChunkRows, count - i);
    for (std::size_t q = 0; q < nq; ++q) {
      batch_bt_avx2(q_nz[q], q_sg[q], rows + i * stride, c, words, stride,
                    out + q * count + i);
    }
  }
}

// Slab loop: each 8-row block is two 4-row halves, one 256-bit vector per
// half and word; a query's words are broadcast, so every lane accumulates
// its own row's popcounts and no horizontal reduction is needed. W, the
// words scored, is a template argument so the row vectors stay in
// registers; slab_avx2 picks the instance.
template <std::size_t W>
__attribute__((target("avx2"))) void slab_avx2_words(
    const std::uint64_t* q_nz, const std::uint64_t* q_sg, std::size_t nq,
    const std::uint64_t* slab, std::size_t count, std::int16_t* out,
    std::size_t out_stride, std::int16_t* max_out) noexcept {
  for (std::size_t q = 0; q < nq; ++q) max_out[q] = INT16_MIN;
  alignas(32) std::int64_t lanes[4];
  for (std::size_t i = 0; i < count; i += 4) {
    const std::uint64_t* blk =
        slab + (i / kSlabLanes) * kSlabWords * kSlabLanes + i % kSlabLanes;
    __m256i r[W];
    for (std::size_t w = 0; w < W; ++w) {
      r[w] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(blk + w * kSlabLanes));
    }
    const std::size_t valid = std::min<std::size_t>(4, count - i);
    for (std::size_t q = 0; q < nq; ++q) {
      const std::uint64_t* nz = q_nz + q * kSlabWords;
      const std::uint64_t* sg = q_sg + q * kSlabWords;
      __m256i acc = _mm256_setzero_si256();
      std::int64_t support = 0;
      for (std::size_t w = 0; w < W; ++w) {
        support += std::popcount(nz[w]);
        const __m256i x = _mm256_and_si256(
            _mm256_xor_si256(r[w], _mm256_set1_epi64x(
                                       static_cast<long long>(sg[w]))),
            _mm256_set1_epi64x(static_cast<long long>(nz[w])));
        acc = _mm256_add_epi64(acc, popcount_epi64_avx2(x));
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      std::int16_t* o = out + q * out_stride + i;
      for (std::size_t j = 0; j < valid; ++j) {
        o[j] = static_cast<std::int16_t>(support - 2 * lanes[j]);
        max_out[q] = std::max(max_out[q], o[j]);
      }
    }
  }
}

template <std::size_t... I>
constexpr SlabWordsTable slab_avx2_table(std::index_sequence<I...>) {
  return {&slab_avx2_words<I + 1>...};
}

void slab_avx2(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
               std::size_t nq, const std::uint64_t* slab, std::size_t count,
               std::size_t words, std::int16_t* out, std::size_t out_stride,
               std::int16_t* max_out) noexcept {
  static constexpr SlabWordsTable kTable =
      slab_avx2_table(std::make_index_sequence<kSlabWords>{});
  kTable[words - 1](q_nz, q_sg, nq, slab, count, out, out_stride, max_out);
}

// Fallback merge in two passes: a vector maximum over two independent
// accumulators (one compare-and-blend chain is latency-bound), then the
// first lane equal to it. The scalar loop's single cmov chain ran at about
// 1 ns per row.
__attribute__((target("avx2"))) inline __m256i partial_sum4_avx2(
    const std::int16_t* partial, const std::int64_t* suffix) noexcept {
  return _mm256_add_epi64(
      _mm256_cvtepi16_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(partial))),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(suffix)));
}

__attribute__((target("avx2"))) void partial_argmax_avx2(
    const std::int16_t* partial, const std::int64_t* suffix,
    std::size_t count, std::int64_t* value, std::size_t* index) noexcept {
  __m256i m0 = _mm256_set1_epi64x(INT64_MIN);
  __m256i m1 = m0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i x0 = partial_sum4_avx2(partial + i, suffix + i);
    const __m256i x1 = partial_sum4_avx2(partial + i + 4, suffix + i + 4);
    m0 = _mm256_blendv_epi8(m0, x0, _mm256_cmpgt_epi64(x0, m0));
    m1 = _mm256_blendv_epi8(m1, x1, _mm256_cmpgt_epi64(x1, m1));
  }
  m0 = _mm256_blendv_epi8(m0, m1, _mm256_cmpgt_epi64(m1, m0));
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), m0);
  std::int64_t best = std::max(std::max(lanes[0], lanes[1]),
                               std::max(lanes[2], lanes[3]));
  for (std::size_t j = i; j < count; ++j) {
    best = std::max<std::int64_t>(best, partial[j] + suffix[j]);
  }
  const __m256i vb = _mm256_set1_epi64x(best);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256i x = partial_sum4_avx2(partial + j, suffix + j);
    const int eq =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, vb)));
    if (eq != 0) {
      *value = best;
      *index = j + static_cast<std::size_t>(std::countr_zero(
                       static_cast<unsigned>(eq)));
      return;
    }
  }
  while (partial[j] + suffix[j] != best) ++j;
  *value = best;
  *index = j;
}

constexpr QueryBlockKernels kAVX2QueryBlockKernels{
    block_bb_avx2, block_bt_avx2, slab_avx2, partial_argmax_avx2};

// --- AVX-512 tier -----------------------------------------------------------
// Native 64-bit-lane popcount (VPOPCNTQ, requires AVX512VPOPCNTDQ) over 8
// plane words per vector op, with masked loads covering the tail in-loop.

__attribute__((target("avx512f,avx512vpopcntdq"))) std::int64_t dot_bb_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words,
    std::size_t dim) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                       _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  if (w < words) {
    const auto m = static_cast<__mmask8>((1u << (words - w)) - 1);
    const __m512i x = _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a + w),
                                       _mm512_maskz_loadu_epi64(m, b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  const std::int64_t hamming = _mm512_reduce_add_epi64(acc);
  return static_cast<std::int64_t>(dim) - 2 * hamming;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::int64_t dot_bt_avx512(
    const std::uint64_t* bip, const std::uint64_t* nz, const std::uint64_t* sg,
    std::size_t words) noexcept {
  __m512i support = _mm512_setzero_si512();
  __m512i differ = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i vn = _mm512_loadu_si512(nz + w);
    const __m512i x = _mm512_and_si512(
        _mm512_xor_si512(_mm512_loadu_si512(bip + w),
                         _mm512_loadu_si512(sg + w)),
        vn);
    support = _mm512_add_epi64(support, _mm512_popcnt_epi64(vn));
    differ = _mm512_add_epi64(differ, _mm512_popcnt_epi64(x));
  }
  if (w < words) {
    const auto m = static_cast<__mmask8>((1u << (words - w)) - 1);
    const __m512i vn = _mm512_maskz_loadu_epi64(m, nz + w);
    const __m512i x = _mm512_and_si512(
        _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, bip + w),
                         _mm512_maskz_loadu_epi64(m, sg + w)),
        vn);
    support = _mm512_add_epi64(support, _mm512_popcnt_epi64(vn));
    differ = _mm512_add_epi64(differ, _mm512_popcnt_epi64(x));
  }
  return _mm512_reduce_add_epi64(support) -
         2 * _mm512_reduce_add_epi64(differ);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::int64_t dot_tt_avx512(
    const std::uint64_t* a_nz, const std::uint64_t* a_sg,
    const std::uint64_t* b_nz, const std::uint64_t* b_sg,
    std::size_t words) noexcept {
  __m512i support = _mm512_setzero_si512();
  __m512i differ = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i active = _mm512_and_si512(_mm512_loadu_si512(a_nz + w),
                                            _mm512_loadu_si512(b_nz + w));
    const __m512i x = _mm512_and_si512(
        _mm512_xor_si512(_mm512_loadu_si512(a_sg + w),
                         _mm512_loadu_si512(b_sg + w)),
        active);
    support = _mm512_add_epi64(support, _mm512_popcnt_epi64(active));
    differ = _mm512_add_epi64(differ, _mm512_popcnt_epi64(x));
  }
  if (w < words) {
    const auto m = static_cast<__mmask8>((1u << (words - w)) - 1);
    const __m512i active =
        _mm512_and_si512(_mm512_maskz_loadu_epi64(m, a_nz + w),
                         _mm512_maskz_loadu_epi64(m, b_nz + w));
    const __m512i x = _mm512_and_si512(
        _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a_sg + w),
                         _mm512_maskz_loadu_epi64(m, b_sg + w)),
        active);
    support = _mm512_add_epi64(support, _mm512_popcnt_epi64(active));
    differ = _mm512_add_epi64(differ, _mm512_popcnt_epi64(x));
  }
  return _mm512_reduce_add_epi64(support) -
         2 * _mm512_reduce_add_epi64(differ);
}

__attribute__((target("avx512f,avx512bw"))) bool pack_planes_avx512(
    const std::int32_t* p, std::size_t dim, std::uint64_t* sign,
    std::uint64_t* nonzero, bool* any_zero) noexcept {
  const std::size_t words = plane_words(dim);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i neg_one = _mm512_set1_epi32(-1);
  const __m512i zero = _mm512_setzero_si512();
  bool saw_zero = false;
  std::size_t w = 0;
  // Full 64-component words: 4 blocks of 16 int32 lanes; each compare mask
  // is a 16-bit slice of the plane word, straight from the k-registers.
  for (; (w + 1) * kWordBits <= dim; ++w) {
    const std::int32_t* base = p + w * kWordBits;
    std::uint64_t nz = 0;
    std::uint64_t sg = 0;
    std::uint32_t invalid = 0;
    for (std::size_t blk = 0; blk < kWordBits / 16; ++blk) {
      const __m512i v = _mm512_loadu_si512(base + blk * 16);
      const __mmask16 m1 = _mm512_cmpeq_epi32_mask(v, one);
      const __mmask16 m0 = _mm512_cmpeq_epi32_mask(v, zero);
      const __mmask16 mm1 = _mm512_cmpeq_epi32_mask(v, neg_one);
      invalid |= static_cast<std::uint16_t>(~(m1 | m0 | mm1));
      sg |= static_cast<std::uint64_t>(m1) << (blk * 16);
      nz |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(~m0))
            << (blk * 16);
    }
    if (invalid != 0) return false;  // integer bundle: scalar path
    sign[w] = sg;
    nonzero[w] = nz;
    saw_zero |= (nz != ~0ULL);
  }
  for (; w < words; ++w) {  // partial tail word
    const std::size_t base = w * kWordBits;
    if (!pack_word_scalar(p, base, dim, sign[w], nonzero[w])) return false;
    saw_zero |= (nonzero[w] != word_full_mask(base, dim));
  }
  *any_zero = saw_zero;
  return true;
}

// Sums eight per-row lane accumulators into one vector holding the eight
// row totals in order — a 3-level shuffle/add tree, ~3 ops per row where
// _mm512_reduce_add_epi64 per row costs ~7. Level 1 pairs rows within
// 128-bit lanes; levels 2-3 fold across lanes.
__attribute__((target("avx512f"))) inline __m512i hsum8_epi64_avx512(
    __m512i a0, __m512i a1, __m512i a2, __m512i a3, __m512i a4, __m512i a5,
    __m512i a6, __m512i a7) noexcept {
  const __m512i p01 = _mm512_add_epi64(_mm512_unpacklo_epi64(a0, a1),
                                       _mm512_unpackhi_epi64(a0, a1));
  const __m512i p23 = _mm512_add_epi64(_mm512_unpacklo_epi64(a2, a3),
                                       _mm512_unpackhi_epi64(a2, a3));
  const __m512i p45 = _mm512_add_epi64(_mm512_unpacklo_epi64(a4, a5),
                                       _mm512_unpackhi_epi64(a4, a5));
  const __m512i p67 = _mm512_add_epi64(_mm512_unpacklo_epi64(a6, a7),
                                       _mm512_unpackhi_epi64(a6, a7));
  const __m512i q0123 =
      _mm512_add_epi64(_mm512_shuffle_i64x2(p01, p23, 0x88),
                       _mm512_shuffle_i64x2(p01, p23, 0xdd));
  const __m512i q4567 =
      _mm512_add_epi64(_mm512_shuffle_i64x2(p45, p67, 0x88),
                       _mm512_shuffle_i64x2(p45, p67, 0xdd));
  return _mm512_add_epi64(_mm512_shuffle_i64x2(q0123, q4567, 0x88),
                          _mm512_shuffle_i64x2(q0123, q4567, 0xdd));
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void batch_bb_avx512(
    const std::uint64_t* query, const std::uint64_t* rows, std::size_t count,
    std::size_t words, std::size_t stride, std::size_t dim,
    std::int64_t* out) noexcept {
  const auto sdim = static_cast<std::int64_t>(dim);
  const auto tail =
      static_cast<__mmask8>((1u << (words % 8)) - 1);  // 0 when words % 8 == 0
  std::size_t i = 0;
  const __m512i vdim = _mm512_set1_epi64(sdim);
  for (; i + 8 <= count; i += 8) {
    const std::uint64_t* r = rows + i * stride;
    __m512i acc[8] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i q = _mm512_loadu_si512(query + w);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(
                        q, _mm512_loadu_si512(r + j * stride + w))));
      }
    }
    if (w < words) {
      const __m512i q = _mm512_maskz_loadu_epi64(tail, query + w);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(
                        q,
                        _mm512_maskz_loadu_epi64(tail, r + j * stride + w))));
      }
    }
    const __m512i h = hsum8_epi64_avx512(acc[0], acc[1], acc[2], acc[3],
                                         acc[4], acc[5], acc[6], acc[7]);
    _mm512_storeu_si512(out + i,
                        _mm512_sub_epi64(vdim, _mm512_add_epi64(h, h)));
  }
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t* r0 = rows + i * stride;
    const std::uint64_t* r1 = r0 + stride;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i q = _mm512_loadu_si512(query + w);
      acc0 = _mm512_add_epi64(
          acc0, _mm512_popcnt_epi64(
                    _mm512_xor_si512(q, _mm512_loadu_si512(r0 + w))));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(
                    _mm512_xor_si512(q, _mm512_loadu_si512(r1 + w))));
    }
    if (w < words) {
      const __m512i q = _mm512_maskz_loadu_epi64(tail, query + w);
      acc0 = _mm512_add_epi64(
          acc0, _mm512_popcnt_epi64(_mm512_xor_si512(
                    q, _mm512_maskz_loadu_epi64(tail, r0 + w))));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(_mm512_xor_si512(
                    q, _mm512_maskz_loadu_epi64(tail, r1 + w))));
    }
    out[i] = sdim - 2 * _mm512_reduce_add_epi64(acc0);
    out[i + 1] = sdim - 2 * _mm512_reduce_add_epi64(acc1);
  }
  if (i < count) out[i] = dot_bb_avx512(query, rows + i * stride, words, dim);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void batch_bt_avx512(
    const std::uint64_t* q_nz, const std::uint64_t* q_sg,
    const std::uint64_t* rows, std::size_t count, std::size_t words,
    std::size_t stride, std::int64_t* out) noexcept {
  const auto tail = static_cast<__mmask8>((1u << (words % 8)) - 1);
  std::int64_t support = 0;
  {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_loadu_si512(q_nz + w)));
    }
    if (w < words) {
      acc = _mm512_add_epi64(
          acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(tail, q_nz + w)));
    }
    support = _mm512_reduce_add_epi64(acc);
  }
  std::size_t i = 0;
  const __m512i vsupport = _mm512_set1_epi64(support);
  for (; i + 8 <= count; i += 8) {
    const std::uint64_t* r = rows + i * stride;
    __m512i acc[8] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i vn = _mm512_loadu_si512(q_nz + w);
      const __m512i vs = _mm512_loadu_si512(q_sg + w);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_add_epi64(
            acc[j],
            _mm512_popcnt_epi64(_mm512_and_si512(
                _mm512_xor_si512(_mm512_loadu_si512(r + j * stride + w), vs),
                vn)));
      }
    }
    if (w < words) {
      const __m512i vn = _mm512_maskz_loadu_epi64(tail, q_nz + w);
      const __m512i vs = _mm512_maskz_loadu_epi64(tail, q_sg + w);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_and_si512(
                        _mm512_xor_si512(
                            _mm512_maskz_loadu_epi64(tail, r + j * stride + w),
                            vs),
                        vn)));
      }
    }
    const __m512i h = hsum8_epi64_avx512(acc[0], acc[1], acc[2], acc[3],
                                         acc[4], acc[5], acc[6], acc[7]);
    _mm512_storeu_si512(out + i,
                        _mm512_sub_epi64(vsupport, _mm512_add_epi64(h, h)));
  }
  for (; i + 2 <= count; i += 2) {
    const std::uint64_t* r0 = rows + i * stride;
    const std::uint64_t* r1 = r0 + stride;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i vn = _mm512_loadu_si512(q_nz + w);
      const __m512i vs = _mm512_loadu_si512(q_sg + w);
      acc0 = _mm512_add_epi64(
          acc0, _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_xor_si512(_mm512_loadu_si512(r0 + w), vs), vn)));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_xor_si512(_mm512_loadu_si512(r1 + w), vs), vn)));
    }
    if (w < words) {
      const __m512i vn = _mm512_maskz_loadu_epi64(tail, q_nz + w);
      const __m512i vs = _mm512_maskz_loadu_epi64(tail, q_sg + w);
      acc0 = _mm512_add_epi64(
          acc0, _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_xor_si512(_mm512_maskz_loadu_epi64(tail, r0 + w),
                                     vs),
                    vn)));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_xor_si512(_mm512_maskz_loadu_epi64(tail, r1 + w),
                                     vs),
                    vn)));
    }
    out[i] = support - 2 * _mm512_reduce_add_epi64(acc0);
    out[i + 1] = support - 2 * _mm512_reduce_add_epi64(acc1);
  }
  if (i < count) out[i] = dot_bt_avx512(rows + i * stride, q_nz, q_sg, words);
}

// Sixteen components per 16-bit slice of the planes, straight from the
// k-registers: a masked +1 on the set sign bits, a masked -1 on the nonzero
// clear ones. Loads and stores are masked to the dimension, so the bits a
// bipolar row's complement sets past it are never applied.
__attribute__((target("avx512f"), aligned(64))) void accumulate_planes_avx512(
    std::int32_t* p, std::size_t dim, const std::uint64_t* sign,
    const std::uint64_t* nonzero) noexcept {
  const __m512i one = _mm512_set1_epi32(1);
  for (std::size_t i = 0, w = 0; i < dim; i += kWordBits, ++w) {
    const std::uint64_t s = sign[w];
    const std::uint64_t neg = (nonzero != nullptr ? nonzero[w] : ~0ULL) & ~s;
    const std::size_t n = std::min(kWordBits, dim - i);
    for (std::size_t c = 0; c < n; c += 16) {
      const __mmask16 in = n - c >= 16
                               ? static_cast<__mmask16>(0xffff)
                               : static_cast<__mmask16>((1u << (n - c)) - 1);
      std::int32_t* q = p + i + c;
      __m512i v = _mm512_maskz_loadu_epi32(in, q);
      v = _mm512_mask_add_epi32(v, static_cast<__mmask16>(s >> c), v, one);
      v = _mm512_mask_sub_epi32(v, static_cast<__mmask16>(neg >> c), v, one);
      _mm512_mask_storeu_epi32(q, in, v);
    }
  }
}

constexpr DotKernels kAVX512Kernels{dot_bb_avx512, dot_bt_avx512,
                                    dot_tt_avx512, pack_planes_avx512,
                                    accumulate_planes_avx512};
constexpr BatchDotKernels kAVX512BatchKernels{batch_bb_avx512,
                                              batch_bt_avx512};

// Blocked loops: 2-query x 8-row register tile. Each 8-row block's plane
// words are loaded once per query pair and shared by both queries' popcount
// chains, and the row blocks stay L1-resident across the whole query loop —
// the codebook streams from memory once per block pass instead of once per
// query. Row remainders fall back to the per-query batch loops, query
// remainders to a single-query 8-row tile; both produce the same integers,
// so any (count, nq) is bit-identical to the per-query path.

__attribute__((target("avx512f,avx512vpopcntdq"))) void block_bb_avx512(
    const std::uint64_t* const* queries, std::size_t nq,
    const std::uint64_t* rows, std::size_t count, std::size_t words,
    std::size_t stride, std::size_t dim, std::int64_t* out) noexcept {
  const __m512i vdim = _mm512_set1_epi64(static_cast<std::int64_t>(dim));
  const auto tail = static_cast<__mmask8>((1u << (words % 8)) - 1);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::uint64_t* r = rows + i * stride;
    std::size_t q = 0;
    for (; q + 2 <= nq; q += 2) {
      const std::uint64_t* q0 = queries[q];
      const std::uint64_t* q1 = queries[q + 1];
      __m512i a0[8];
      __m512i a1[8];
      for (std::size_t j = 0; j < 8; ++j) {
        a0[j] = _mm512_setzero_si512();
        a1[j] = _mm512_setzero_si512();
      }
      std::size_t w = 0;
      for (; w + 8 <= words; w += 8) {
        const __m512i v0 = _mm512_loadu_si512(q0 + w);
        const __m512i v1 = _mm512_loadu_si512(q1 + w);
        for (std::size_t j = 0; j < 8; ++j) {
          const __m512i rv = _mm512_loadu_si512(r + j * stride + w);
          a0[j] = _mm512_add_epi64(
              a0[j], _mm512_popcnt_epi64(_mm512_xor_si512(v0, rv)));
          a1[j] = _mm512_add_epi64(
              a1[j], _mm512_popcnt_epi64(_mm512_xor_si512(v1, rv)));
        }
      }
      if (w < words) {
        const __m512i v0 = _mm512_maskz_loadu_epi64(tail, q0 + w);
        const __m512i v1 = _mm512_maskz_loadu_epi64(tail, q1 + w);
        for (std::size_t j = 0; j < 8; ++j) {
          const __m512i rv = _mm512_maskz_loadu_epi64(tail, r + j * stride + w);
          a0[j] = _mm512_add_epi64(
              a0[j], _mm512_popcnt_epi64(_mm512_xor_si512(v0, rv)));
          a1[j] = _mm512_add_epi64(
              a1[j], _mm512_popcnt_epi64(_mm512_xor_si512(v1, rv)));
        }
      }
      const __m512i h0 = hsum8_epi64_avx512(a0[0], a0[1], a0[2], a0[3], a0[4],
                                            a0[5], a0[6], a0[7]);
      const __m512i h1 = hsum8_epi64_avx512(a1[0], a1[1], a1[2], a1[3], a1[4],
                                            a1[5], a1[6], a1[7]);
      _mm512_storeu_si512(out + q * count + i,
                          _mm512_sub_epi64(vdim, _mm512_add_epi64(h0, h0)));
      _mm512_storeu_si512(out + (q + 1) * count + i,
                          _mm512_sub_epi64(vdim, _mm512_add_epi64(h1, h1)));
    }
    if (q < nq) {
      const std::uint64_t* qp = queries[q];
      __m512i acc[8];
      for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
      std::size_t w = 0;
      for (; w + 8 <= words; w += 8) {
        const __m512i qv = _mm512_loadu_si512(qp + w);
        for (std::size_t j = 0; j < 8; ++j) {
          acc[j] = _mm512_add_epi64(
              acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(
                          qv, _mm512_loadu_si512(r + j * stride + w))));
        }
      }
      if (w < words) {
        const __m512i qv = _mm512_maskz_loadu_epi64(tail, qp + w);
        for (std::size_t j = 0; j < 8; ++j) {
          acc[j] = _mm512_add_epi64(
              acc[j],
              _mm512_popcnt_epi64(_mm512_xor_si512(
                  qv, _mm512_maskz_loadu_epi64(tail, r + j * stride + w))));
        }
      }
      const __m512i h = hsum8_epi64_avx512(acc[0], acc[1], acc[2], acc[3],
                                           acc[4], acc[5], acc[6], acc[7]);
      _mm512_storeu_si512(out + q * count + i,
                          _mm512_sub_epi64(vdim, _mm512_add_epi64(h, h)));
    }
  }
  if (i < count) {
    for (std::size_t q = 0; q < nq; ++q) {
      batch_bb_avx512(queries[q], rows + i * stride, count - i, words, stride,
                      dim, out + q * count + i);
    }
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void block_bt_avx512(
    const std::uint64_t* const* q_nz, const std::uint64_t* const* q_sg,
    std::size_t nq, const std::uint64_t* rows, std::size_t count,
    std::size_t words, std::size_t stride, std::int64_t* out) noexcept {
  // The support term Σ popcount(q_nz) is row-independent; hoist it per query
  // into a fixed stack buffer, processing queries in groups so the kernel
  // stays allocation-free at any nq.
  constexpr std::size_t kGroup = 64;
  const auto tail = static_cast<__mmask8>((1u << (words % 8)) - 1);
  std::int64_t support[kGroup];
  for (std::size_t qb = 0; qb < nq; qb += kGroup) {
    const std::size_t qn = std::min(kGroup, nq - qb);
    for (std::size_t t = 0; t < qn; ++t) {
      const std::uint64_t* nzp = q_nz[qb + t];
      __m512i acc = _mm512_setzero_si512();
      std::size_t w = 0;
      for (; w + 8 <= words; w += 8) {
        acc = _mm512_add_epi64(acc,
                               _mm512_popcnt_epi64(_mm512_loadu_si512(nzp + w)));
      }
      if (w < words) {
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(tail, nzp + w)));
      }
      support[t] = _mm512_reduce_add_epi64(acc);
    }
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      const std::uint64_t* r = rows + i * stride;
      std::size_t t = 0;
      for (; t + 2 <= qn; t += 2) {
        const std::uint64_t* nz0 = q_nz[qb + t];
        const std::uint64_t* sg0 = q_sg[qb + t];
        const std::uint64_t* nz1 = q_nz[qb + t + 1];
        const std::uint64_t* sg1 = q_sg[qb + t + 1];
        __m512i a0[8];
        __m512i a1[8];
        for (std::size_t j = 0; j < 8; ++j) {
          a0[j] = _mm512_setzero_si512();
          a1[j] = _mm512_setzero_si512();
        }
        std::size_t w = 0;
        for (; w + 8 <= words; w += 8) {
          const __m512i vn0 = _mm512_loadu_si512(nz0 + w);
          const __m512i vs0 = _mm512_loadu_si512(sg0 + w);
          const __m512i vn1 = _mm512_loadu_si512(nz1 + w);
          const __m512i vs1 = _mm512_loadu_si512(sg1 + w);
          for (std::size_t j = 0; j < 8; ++j) {
            const __m512i rv = _mm512_loadu_si512(r + j * stride + w);
            a0[j] = _mm512_add_epi64(
                a0[j], _mm512_popcnt_epi64(_mm512_and_si512(
                           _mm512_xor_si512(rv, vs0), vn0)));
            a1[j] = _mm512_add_epi64(
                a1[j], _mm512_popcnt_epi64(_mm512_and_si512(
                           _mm512_xor_si512(rv, vs1), vn1)));
          }
        }
        if (w < words) {
          const __m512i vn0 = _mm512_maskz_loadu_epi64(tail, nz0 + w);
          const __m512i vs0 = _mm512_maskz_loadu_epi64(tail, sg0 + w);
          const __m512i vn1 = _mm512_maskz_loadu_epi64(tail, nz1 + w);
          const __m512i vs1 = _mm512_maskz_loadu_epi64(tail, sg1 + w);
          for (std::size_t j = 0; j < 8; ++j) {
            const __m512i rv =
                _mm512_maskz_loadu_epi64(tail, r + j * stride + w);
            a0[j] = _mm512_add_epi64(
                a0[j], _mm512_popcnt_epi64(_mm512_and_si512(
                           _mm512_xor_si512(rv, vs0), vn0)));
            a1[j] = _mm512_add_epi64(
                a1[j], _mm512_popcnt_epi64(_mm512_and_si512(
                           _mm512_xor_si512(rv, vs1), vn1)));
          }
        }
        const __m512i h0 = hsum8_epi64_avx512(a0[0], a0[1], a0[2], a0[3],
                                              a0[4], a0[5], a0[6], a0[7]);
        const __m512i h1 = hsum8_epi64_avx512(a1[0], a1[1], a1[2], a1[3],
                                              a1[4], a1[5], a1[6], a1[7]);
        const __m512i vsup0 = _mm512_set1_epi64(support[t]);
        const __m512i vsup1 = _mm512_set1_epi64(support[t + 1]);
        _mm512_storeu_si512(out + (qb + t) * count + i,
                            _mm512_sub_epi64(vsup0, _mm512_add_epi64(h0, h0)));
        _mm512_storeu_si512(out + (qb + t + 1) * count + i,
                            _mm512_sub_epi64(vsup1, _mm512_add_epi64(h1, h1)));
      }
      if (t < qn) {
        const std::uint64_t* nzp = q_nz[qb + t];
        const std::uint64_t* sgp = q_sg[qb + t];
        __m512i acc[8];
        for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
        std::size_t w = 0;
        for (; w + 8 <= words; w += 8) {
          const __m512i vn = _mm512_loadu_si512(nzp + w);
          const __m512i vs = _mm512_loadu_si512(sgp + w);
          for (std::size_t j = 0; j < 8; ++j) {
            acc[j] = _mm512_add_epi64(
                acc[j], _mm512_popcnt_epi64(_mm512_and_si512(
                            _mm512_xor_si512(
                                _mm512_loadu_si512(r + j * stride + w), vs),
                            vn)));
          }
        }
        if (w < words) {
          const __m512i vn = _mm512_maskz_loadu_epi64(tail, nzp + w);
          const __m512i vs = _mm512_maskz_loadu_epi64(tail, sgp + w);
          for (std::size_t j = 0; j < 8; ++j) {
            acc[j] = _mm512_add_epi64(
                acc[j],
                _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_xor_si512(
                        _mm512_maskz_loadu_epi64(tail, r + j * stride + w), vs),
                    vn)));
          }
        }
        const __m512i h = hsum8_epi64_avx512(acc[0], acc[1], acc[2], acc[3],
                                             acc[4], acc[5], acc[6], acc[7]);
        const __m512i vsup = _mm512_set1_epi64(support[t]);
        _mm512_storeu_si512(out + (qb + t) * count + i,
                            _mm512_sub_epi64(vsup, _mm512_add_epi64(h, h)));
      }
    }
    if (i < count) {
      for (std::size_t t = 0; t < qn; ++t) {
        batch_bt_avx512(q_nz[qb + t], q_sg[qb + t], rows + i * stride,
                        count - i, words, stride, out + (qb + t) * count + i);
      }
    }
  }
}

// Slab loop: one 512-bit vector holds word w of an 8-row block, so a
// broadcast query word scores all eight rows at once and each lane keeps its
// own row's running count — no horizontal reduction, which is what the
// row-major blocked loops above spend most of their shuffle port on at
// 8 words per row. The block's W row vectors stay in registers while every
// query visits them; (row ^ sign) & nonzero is one VPTERNLOGQ.
// Row blocks (512 bytes each) between a slab block's prefetch and its
// load. With 2 of 8 words per block, Rep-1 cleanup at M = 65536 ran about
// 3 us per query (8-10%) faster with it in three interleaved pairs.
constexpr std::size_t kSlabPrefetchBlocks = 16;

template <std::size_t W>
__attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))) void
slab_avx512_words(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                  std::size_t nq, const std::uint64_t* slab, std::size_t count,
                  std::int16_t* out, std::size_t out_stride,
                  std::int16_t* max_out) noexcept {
  // Per-query supports, in fixed stack groups so the kernel stays
  // allocation-free at any nq.
  constexpr std::size_t kGroup = 16;
  constexpr auto kWordMask = static_cast<__mmask8>((1u << W) - 1);
  for (std::size_t qb = 0; qb < nq; qb += kGroup) {
    const std::size_t qn = std::min(kGroup, nq - qb);
    std::int64_t support[kGroup];
    for (std::size_t t = 0; t < qn; ++t) {
      const std::uint64_t* nz = q_nz + (qb + t) * kSlabWords;
      support[t] = _mm512_reduce_add_epi64(
          _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(kWordMask, nz)));
    }
    for (std::size_t i = 0; i < count; i += kSlabLanes) {
      const std::uint64_t* blk = slab + (i / kSlabLanes) * kSlabWords *
                                            kSlabLanes;
      __m512i r[W];
      for (std::size_t w = 0; w < W; ++w) {
        if constexpr (W < kSlabWords) {
          // A prefix read uses W of each block's 8 lines, a stride the
          // hardware prefetcher follows poorly: fetch the lines this loop
          // reads kSlabPrefetchBlocks blocks ahead (a prefetch never
          // faults, so the plane's end needs no guard).
          _mm_prefetch(reinterpret_cast<const char*>(
                           blk + (kSlabPrefetchBlocks * kSlabWords + w) *
                                     kSlabLanes),
                       _MM_HINT_T0);
        }
        r[w] = _mm512_loadu_si512(blk + w * kSlabLanes);
      }
      const std::size_t valid = std::min(kSlabLanes, count - i);
      for (std::size_t t = 0; t < qn; ++t) {
        const std::uint64_t* nz = q_nz + (qb + t) * kSlabWords;
        const std::uint64_t* sg = q_sg + (qb + t) * kSlabWords;
        __m512i acc = _mm512_setzero_si512();
        for (std::size_t w = 0; w < W; ++w) {
          // 0x28 = (a ^ b) & c for a = sign, b = row, c = nonzero. The
          // instruction overwrites its first operand, so that one is the
          // fresh broadcast, not the row kept for the next query.
          acc = _mm512_add_epi64(
              acc, _mm512_popcnt_epi64(_mm512_ternarylogic_epi64(
                       _mm512_set1_epi64(static_cast<long long>(sg[w])), r[w],
                       _mm512_set1_epi64(static_cast<long long>(nz[w])),
                       0x28)));
        }
        const __m512i p = _mm512_sub_epi64(_mm512_set1_epi64(support[t]),
                                           _mm512_add_epi64(acc, acc));
        std::int16_t* o = out + (qb + t) * out_stride + i;
        if (valid == kSlabLanes) {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(o),
                           _mm512_cvtepi64_epi16(p));
        } else {
          _mm512_mask_cvtepi64_storeu_epi16(
              o, static_cast<__mmask8>((1u << valid) - 1), p);
        }
      }
    }
    // Maxima from the stored partials, 32 per vector: cheaper than a
    // running 64-bit maximum per row block.
    for (std::size_t t = 0; t < qn; ++t) {
      const std::int16_t* o = out + (qb + t) * out_stride;
      __m512i vmax = _mm512_set1_epi16(INT16_MIN);
      for (std::size_t i = 0; i < count; i += 32) {
        const std::size_t n = std::min<std::size_t>(32, count - i);
        const __mmask32 m = n == 32 ? ~__mmask32{0} : (__mmask32{1} << n) - 1;
        vmax = _mm512_max_epi16(
            vmax, _mm512_mask_loadu_epi16(_mm512_set1_epi16(INT16_MIN), m,
                                          o + i));
      }
      max_out[qb + t] = static_cast<std::int16_t>(
          _mm512_reduce_max_epi32(_mm512_max_epi32(
              _mm512_srai_epi32(vmax, 16),
              _mm512_srai_epi32(_mm512_slli_epi32(vmax, 16), 16))));
    }
  }
}

template <std::size_t... I>
constexpr SlabWordsTable slab_avx512_table(std::index_sequence<I...>) {
  return {&slab_avx512_words<I + 1>...};
}

void slab_avx512(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                 std::size_t nq, const std::uint64_t* slab, std::size_t count,
                 std::size_t words, std::int16_t* out, std::size_t out_stride,
                 std::int16_t* max_out) noexcept {
  static constexpr SlabWordsTable kTable =
      slab_avx512_table(std::make_index_sequence<kSlabWords>{});
  kTable[words - 1](q_nz, q_sg, nq, slab, count, out, out_stride, max_out);
}

// Fallback merge: as the AVX2 loop, eight rows per vector and VPMAXSQ.
__attribute__((target("avx512f"))) inline __m512i partial_sum8_avx512(
    const std::int16_t* partial, const std::int64_t* suffix) noexcept {
  return _mm512_add_epi64(
      _mm512_cvtepi16_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(partial))),
      _mm512_loadu_si512(suffix));
}

__attribute__((target("avx512f"))) void partial_argmax_avx512(
    const std::int16_t* partial, const std::int64_t* suffix,
    std::size_t count, std::int64_t* value, std::size_t* index) noexcept {
  __m512i m0 = _mm512_set1_epi64(INT64_MIN);
  __m512i m1 = m0;
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    m0 = _mm512_max_epi64(m0, partial_sum8_avx512(partial + i, suffix + i));
    m1 = _mm512_max_epi64(m1,
                          partial_sum8_avx512(partial + i + 8, suffix + i + 8));
  }
  for (; i + 8 <= count; i += 8) {
    m0 = _mm512_max_epi64(m0, partial_sum8_avx512(partial + i, suffix + i));
  }
  std::int64_t best = _mm512_reduce_max_epi64(_mm512_max_epi64(m0, m1));
  for (std::size_t j = i; j < count; ++j) {
    best = std::max<std::int64_t>(best, partial[j] + suffix[j]);
  }
  const __m512i vb = _mm512_set1_epi64(best);
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m512i x = partial_sum8_avx512(partial + j, suffix + j);
    const __mmask8 eq = _mm512_cmpeq_epi64_mask(x, vb);
    if (eq != 0) {
      *value = best;
      *index = j + static_cast<std::size_t>(std::countr_zero(
                       static_cast<unsigned>(eq)));
      return;
    }
  }
  while (partial[j] + suffix[j] != best) ++j;
  *value = best;
  *index = j;
}

constexpr QueryBlockKernels kAVX512QueryBlockKernels{
    block_bb_avx512, block_bt_avx512, slab_avx512, partial_argmax_avx512};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FACTORHD_X86_SIMD

#if FACTORHD_NEON_SIMD

// --- NEON tier --------------------------------------------------------------
// VCNT byte popcount widened pairwise to 64-bit lanes, 2 plane words per
// vector op. aarch64 mandates NEON, so no runtime probe is needed; query
// packing reuses the portable word-blocked packer.

inline std::int64_t hsum_u64x2(uint64x2_t v) noexcept {
  return static_cast<std::int64_t>(vgetq_lane_u64(v, 0) +
                                   vgetq_lane_u64(v, 1));
}

inline uint64x2_t popcount_u64x2(uint8x16_t v) noexcept {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v))));
}

std::int64_t dot_bb_neon(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words, std::size_t dim) noexcept {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint8x16_t x =
        veorq_u8(vld1q_u8(reinterpret_cast<const std::uint8_t*>(a + w)),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(b + w)));
    acc = vaddq_u64(acc, popcount_u64x2(x));
  }
  std::int64_t hamming = hsum_u64x2(acc);
  for (; w < words; ++w) hamming += std::popcount(a[w] ^ b[w]);
  return static_cast<std::int64_t>(dim) - 2 * hamming;
}

std::int64_t dot_bt_neon(const std::uint64_t* bip, const std::uint64_t* nz,
                         const std::uint64_t* sg, std::size_t words) noexcept {
  uint64x2_t support = vdupq_n_u64(0);
  uint64x2_t differ = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint8x16_t vn = vld1q_u8(reinterpret_cast<const std::uint8_t*>(nz + w));
    const uint8x16_t x = vandq_u8(
        veorq_u8(vld1q_u8(reinterpret_cast<const std::uint8_t*>(bip + w)),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(sg + w))),
        vn);
    support = vaddq_u64(support, popcount_u64x2(vn));
    differ = vaddq_u64(differ, popcount_u64x2(x));
  }
  std::int64_t acc = hsum_u64x2(support) - 2 * hsum_u64x2(differ);
  for (; w < words; ++w) {
    acc += std::popcount(nz[w]) - 2 * std::popcount((bip[w] ^ sg[w]) & nz[w]);
  }
  return acc;
}

std::int64_t dot_tt_neon(const std::uint64_t* a_nz, const std::uint64_t* a_sg,
                         const std::uint64_t* b_nz, const std::uint64_t* b_sg,
                         std::size_t words) noexcept {
  uint64x2_t support = vdupq_n_u64(0);
  uint64x2_t differ = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint8x16_t active = vandq_u8(
        vld1q_u8(reinterpret_cast<const std::uint8_t*>(a_nz + w)),
        vld1q_u8(reinterpret_cast<const std::uint8_t*>(b_nz + w)));
    const uint8x16_t x = vandq_u8(
        veorq_u8(vld1q_u8(reinterpret_cast<const std::uint8_t*>(a_sg + w)),
                 vld1q_u8(reinterpret_cast<const std::uint8_t*>(b_sg + w))),
        active);
    support = vaddq_u64(support, popcount_u64x2(active));
    differ = vaddq_u64(differ, popcount_u64x2(x));
  }
  std::int64_t acc = hsum_u64x2(support) - 2 * hsum_u64x2(differ);
  for (; w < words; ++w) {
    const std::uint64_t active = a_nz[w] & b_nz[w];
    acc += std::popcount(active) -
           2 * std::popcount((a_sg[w] ^ b_sg[w]) & active);
  }
  return acc;
}

constexpr DotKernels kNEONKernels{dot_bb_neon, dot_bt_neon, dot_tt_neon,
                                  pack_planes_scalar,
                                  accumulate_planes_scalar};

// Batch loops: per-row NEON dots. This already removes the indirect call per
// prefix dot; no two-row unroll until a target shows it pays.

void batch_bb_neon(const std::uint64_t* query, const std::uint64_t* rows,
                   std::size_t count, std::size_t words, std::size_t stride,
                   std::size_t dim, std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = dot_bb_neon(query, rows + i * stride, words, dim);
  }
}

void batch_bt_neon(const std::uint64_t* q_nz, const std::uint64_t* q_sg,
                   const std::uint64_t* rows, std::size_t count,
                   std::size_t words, std::size_t stride,
                   std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = dot_bt_neon(rows + i * stride, q_nz, q_sg, words);
  }
}

constexpr BatchDotKernels kNEONBatchKernels{batch_bb_neon, batch_bt_neon};

// Blocked loops: cache blocking over 64-row chunks, as in the AVX2 tier —
// the per-query NEON batch loops run unchanged within each chunk.

void block_bb_neon(const std::uint64_t* const* queries, std::size_t nq,
                   const std::uint64_t* rows, std::size_t count,
                   std::size_t words, std::size_t stride, std::size_t dim,
                   std::int64_t* out) noexcept {
  constexpr std::size_t kChunkRows = 64;
  for (std::size_t i = 0; i < count; i += kChunkRows) {
    const std::size_t c = std::min(kChunkRows, count - i);
    for (std::size_t q = 0; q < nq; ++q) {
      batch_bb_neon(queries[q], rows + i * stride, c, words, stride, dim,
                    out + q * count + i);
    }
  }
}

void block_bt_neon(const std::uint64_t* const* q_nz,
                   const std::uint64_t* const* q_sg, std::size_t nq,
                   const std::uint64_t* rows, std::size_t count,
                   std::size_t words, std::size_t stride,
                   std::int64_t* out) noexcept {
  constexpr std::size_t kChunkRows = 64;
  for (std::size_t i = 0; i < count; i += kChunkRows) {
    const std::size_t c = std::min(kChunkRows, count - i);
    for (std::size_t q = 0; q < nq; ++q) {
      batch_bt_neon(q_nz[q], q_sg[q], rows + i * stride, c, words, stride,
                    out + q * count + i);
    }
  }
}

// The slab loop and the fallback merge run the portable references on NEON
// until a target measures vector versions.
constexpr QueryBlockKernels kNEONQueryBlockKernels{
    block_bb_neon, block_bt_neon, slab_scalar, partial_argmax_scalar};

#endif  // FACTORHD_NEON_SIMD

}  // namespace

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalarWords:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
    case SimdLevel::kAVX512:
      return "avx512";
    case SimdLevel::kNEON:
      return "neon";
  }
  return "scalar";
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) noexcept {
  if (name == "scalar" || name == "words") return SimdLevel::kScalarWords;
  if (name == "avx2") return SimdLevel::kAVX2;
  if (name == "avx512") return SimdLevel::kAVX512;
  if (name == "neon") return SimdLevel::kNEON;
  return std::nullopt;
}

SimdLevel detect_simd_level() noexcept {
#if FACTORHD_X86_SIMD
  static const SimdLevel detected = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq") &&
        __builtin_cpu_supports("avx512bw")) {
      return SimdLevel::kAVX512;
    }
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
    return SimdLevel::kScalarWords;
  }();
  return detected;
#elif FACTORHD_NEON_SIMD
  return SimdLevel::kNEON;
#else
  return SimdLevel::kScalarWords;
#endif
}

bool simd_level_available(SimdLevel level) noexcept {
  if (level == SimdLevel::kScalarWords) return true;
  const SimdLevel detected = detect_simd_level();
  if (level == detected) return true;
  // AVX-512 hardware runs the AVX2 tier too (forced-level differential runs).
  return level == SimdLevel::kAVX2 && detected == SimdLevel::kAVX512;
}

SimdLevel clamp_simd_level(SimdLevel detected, std::string_view env) noexcept {
  if (env.empty() || env == "auto") return detected;
  const std::optional<SimdLevel> requested = parse_simd_level(env);
  if (!requested) return detected;
  if (*requested == SimdLevel::kScalarWords) return SimdLevel::kScalarWords;
  if (*requested == detected) return *requested;
  if (*requested == SimdLevel::kAVX2 && detected == SimdLevel::kAVX512) {
    return *requested;
  }
  return detected;  // unavailable request: keep the detected level
}

SimdLevel dispatched_simd_level() noexcept {
  // FACTORHD_SIMD is registered in util::env_knobs(); the accepted values
  // there mirror parse_simd_level.
  static const SimdLevel dispatched = clamp_simd_level(
      detect_simd_level(), util::env_string("FACTORHD_SIMD", ""));
  return dispatched;
}

const DotKernels& dot_kernels(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalarWords:
      return kScalarKernels;
#if FACTORHD_X86_SIMD
    case SimdLevel::kAVX2:
      return kAVX2Kernels;
    case SimdLevel::kAVX512:
      return kAVX512Kernels;
#endif
#if FACTORHD_NEON_SIMD
    case SimdLevel::kNEON:
      return kNEONKernels;
#endif
    default:
      // Level not compiled into this binary; callers that must not degrade
      // check simd_level_available() first (hdc::ItemMemory throws).
      return kScalarKernels;
  }
}

const BatchDotKernels& batch_dot_kernels(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalarWords:
      return kScalarBatchKernels;
#if FACTORHD_X86_SIMD
    case SimdLevel::kAVX2:
      return kAVX2BatchKernels;
    case SimdLevel::kAVX512:
      return kAVX512BatchKernels;
#endif
#if FACTORHD_NEON_SIMD
    case SimdLevel::kNEON:
      return kNEONBatchKernels;
#endif
    default:
      return kScalarBatchKernels;  // same aliasing rule as dot_kernels()
  }
}

const QueryBlockKernels& query_block_kernels(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalarWords:
      return kScalarQueryBlockKernels;
#if FACTORHD_X86_SIMD
    case SimdLevel::kAVX2:
      return kAVX2QueryBlockKernels;
    case SimdLevel::kAVX512:
      return kAVX512QueryBlockKernels;
#endif
#if FACTORHD_NEON_SIMD
    case SimdLevel::kNEON:
      return kNEONQueryBlockKernels;
#endif
    default:
      return kScalarQueryBlockKernels;  // same aliasing rule as dot_kernels()
  }
}

}  // namespace factorhd::hdc::kernels
