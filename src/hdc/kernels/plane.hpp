// Word-plane primitives of the packed similarity kernels.
//
// A "plane" is a dimension-major bitset: bit i of word w carries dimension
// 64*w + i of a hypervector. Bipolar HVs need one plane (the sign plane,
// +1 -> 1); ternary HVs need two (nonzero + sign, matching hdc/packed.hpp).
// Every dot product over the {-1,0,+1} alphabets then reduces to a handful
// of XOR/AND + popcount word operations, processing 64 dimensions per
// instruction — the bit-level storage model behind the paper's §IV-A
// fair-comparison rule, promoted here from per-vector codecs
// (PackedBipolar/PackedTernary) to whole-codebook scans.
//
// Invariant shared by all planes: bits at positions >= dim in the last word
// are zero ("canonical tail"), so popcounts never need a trailing mask.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/kernels/simd.hpp"

namespace factorhd::hdc::kernels {

/// Bits per plane word.
inline constexpr std::size_t kWordBits = 64;

/// \param dim Hypervector dimension.
/// \return Number of 64-bit words needed to hold `dim` bits.
[[nodiscard]] constexpr std::size_t plane_words(std::size_t dim) noexcept {
  return (dim + kWordBits - 1) / kWordBits;
}

/// A query packed into word planes, classified by alphabet.
///
/// `nonzero` is filled for ternary queries only; bipolar queries are fully
/// described by `sign` (every dimension is nonzero). Both planes keep the
/// canonical-tail invariant.
struct PackedQuery {
  std::size_t dim = 0;
  /// True when every component is ±1 (enables the XOR-only fast path).
  bool bipolar = false;
  std::vector<std::uint64_t> sign;     ///< bit = 1 where component is +1
  std::vector<std::uint64_t> nonzero;  ///< ternary only: bit = 1 where != 0

  /// Packs `v` when its alphabet admits plane arithmetic, using the
  /// runtime-dispatched SIMD tier (see simd.hpp).
  /// \param v Query hypervector of any alphabet.
  /// \return The packed planes, or std::nullopt when `v` has a component
  ///   outside {-1, 0, +1} (integer bundles must use the scalar path) or is
  ///   empty.
  [[nodiscard]] static std::optional<PackedQuery> pack(const Hypervector& v);

  /// Packs with an explicit SIMD tier. Every tier produces identical planes;
  /// the parameter only selects the instruction set doing the packing.
  /// \param v Query hypervector of any alphabet.
  /// \param level SIMD tier to pack with (must be available on this CPU).
  /// \return As pack(v).
  [[nodiscard]] static std::optional<PackedQuery> pack(const Hypervector& v,
                                                       SimdLevel level);
};

/// Packs codebook rows into row-major word planes: row r's words at
/// [r * plane_words(dim), (r + 1) * plane_words(dim)), canonical tails. One
/// read of each entry through the dispatched tier's fused packer
/// (DotKernels::pack_planes) validates and packs it; codebooks of at least
/// 2^20 components split their rows across the scan pool in fixed
/// contiguous blocks (sequential under a ScanNestingGuard,
/// packed_item_memory.hpp). The planes are identical for every tier and
/// worker count.
/// \param rows Rows to pack, each of dimension `dim`.
/// \param dim Row dimension (non-zero).
/// \param sign Receives the sign planes.
/// \param nonzero Receives the nonzero planes when some entry is 0; left
///   empty otherwise (a bipolar codebook holds one plane).
/// \return False when an entry lies outside {-1, 0, +1}; the planes are
///   then unspecified.
[[nodiscard]] bool pack_rows(std::span<const Hypervector> rows,
                             std::size_t dim, std::vector<std::uint64_t>& sign,
                             std::vector<std::uint64_t>& nonzero);

/// Unpacks row-major planes (pack_rows' layout) into int32 rows through
/// the dispatched tier's DotKernels::accumulate_planes. Sets of at least
/// 2^16 components split their rows across the scan pool in fixed
/// contiguous blocks, also inside an outer worker pool: the cost is
/// first-touch page faults on the new rows, and the build runs once per
/// codebook. The rows are identical for every tier and worker count.
/// \param size Number of rows.
/// \param dim Row dimension (non-zero).
/// \param sign Sign planes, size * plane_words(dim) words.
/// \param nonzero Nonzero planes as long as `sign`, or nullptr when every
///   entry is nonzero.
/// \return The rows, in order.
[[nodiscard]] std::vector<Hypervector> unpack_rows(
    std::size_t size, std::size_t dim, const std::uint64_t* sign,
    const std::uint64_t* nonzero);

/// Dot product of two bipolar sign planes.
/// \param a,b Sign planes with canonical tails.
/// \param words Plane length in words.
/// \param dim Shared dimension (needed to recover dot = dim - 2 * hamming).
/// \return Exact integer dot product in [-dim, dim].
[[nodiscard]] std::int64_t dot_bipolar_bipolar(const std::uint64_t* a,
                                               const std::uint64_t* b,
                                               std::size_t words,
                                               std::size_t dim) noexcept;

/// Dot product of a bipolar sign plane with a ternary (nonzero, sign) pair.
/// \param bip Bipolar sign plane.
/// \param nz,sg Ternary nonzero and sign planes.
/// \param words Plane length in words.
/// \return Exact integer dot product (agreements minus disagreements over
///   the ternary support).
[[nodiscard]] std::int64_t dot_bipolar_ternary(const std::uint64_t* bip,
                                               const std::uint64_t* nz,
                                               const std::uint64_t* sg,
                                               std::size_t words) noexcept;

/// Dot product of two ternary (nonzero, sign) plane pairs.
/// \param a_nz,a_sg First operand's planes.
/// \param b_nz,b_sg Second operand's planes.
/// \param words Plane length in words.
/// \return Exact integer dot product over the shared support.
[[nodiscard]] std::int64_t dot_ternary_ternary(const std::uint64_t* a_nz,
                                               const std::uint64_t* a_sg,
                                               const std::uint64_t* b_nz,
                                               const std::uint64_t* b_sg,
                                               std::size_t words) noexcept;

}  // namespace factorhd::hdc::kernels
