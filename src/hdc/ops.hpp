// The HDC operator algebra: bundling (+), binding (⊙), unbinding, clipping,
// permutation (ρ), and negation, exactly as defined in the paper's §II-A.
//
// Binding over the {-1,+1} alphabet is componentwise multiplication and is
// self-inverse (V ⊙ V = 1), so unbinding reuses `bind`. Bundling is
// componentwise addition; the FactorHD single-object convention clips bundle
// results to the ternary alphabet while multi-object bundles stay in Z^D.
//
// Unless noted otherwise, every binary operation throws
// std::invalid_argument on dimension mismatch or empty input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hdc/hypervector.hpp"

namespace factorhd::hdc {

/// Componentwise sum a + b (bundling / memorization).
/// \param a,b Hypervectors of equal non-zero dimension.
/// \return The bundle a + b.
/// \throws std::invalid_argument On dimension mismatch or empty input.
[[nodiscard]] Hypervector bundle(const Hypervector& a, const Hypervector& b);

/// Sum of an arbitrary number of HVs.
/// \param vs Non-empty span of dimension-consistent hypervectors.
/// \return The bundle Σ vs[i].
/// \throws std::invalid_argument On empty input or mixed dimensions.
[[nodiscard]] Hypervector bundle(std::span<const Hypervector> vs);

/// In-place accumulate: target += v.
/// \param target Accumulator, same dimension as `v`.
/// \param v Hypervector to add.
/// \throws std::invalid_argument On dimension mismatch or empty input.
void accumulate(Hypervector& target, const Hypervector& v);

/// In-place accumulate of a row stored as word planes (the
/// hdc/kernels/plane.hpp layout: bit i of word w is dimension 64 * w + i,
/// bits past the dimension zero): target += row, where a row component is
/// +1 on a set sign bit, -1 on a clear one, and 0 wherever the nonzero
/// plane, when given, has a clear bit. Adding into a zero HV unpacks the
/// row. Runs the dispatched SIMD tier's kernels::DotKernels::
/// accumulate_planes.
/// \param target Accumulator; its dimension is the row's.
/// \param sign Sign plane of the row, ceil(target.dim() / 64) words.
/// \param nonzero Nonzero plane of a ternary row (as long as `sign`), or
///   nullptr for a bipolar row.
void accumulate_planes(Hypervector& target, const std::uint64_t* sign,
                       const std::uint64_t* nonzero);

/// In-place subtract: target -= v (used when excluding a reconstructed object
/// from a multi-object bundle during factorization).
/// \param target Accumulator, same dimension as `v`.
/// \param v Hypervector to subtract.
/// \throws std::invalid_argument On dimension mismatch or empty input.
void subtract(Hypervector& target, const Hypervector& v);

/// Componentwise product a ⊙ b (binding / association). Self-inverse over the
/// bipolar alphabet, so this is also the unbinding operator.
/// \param a,b Hypervectors of equal non-zero dimension.
/// \return The bound product a ⊙ b.
/// \throws std::invalid_argument On dimension mismatch or empty input.
[[nodiscard]] Hypervector bind(const Hypervector& a, const Hypervector& b);

/// Product of an arbitrary number of HVs.
/// \param vs Non-empty span of dimension-consistent hypervectors.
/// \return The bound product ⊙ vs[i].
/// \throws std::invalid_argument On empty input or mixed dimensions.
[[nodiscard]] Hypervector bind(std::span<const Hypervector> vs);

/// In-place binding: target ⊙= v.
/// \param target Accumulator, same dimension as `v`.
/// \param v Hypervector to bind in.
/// \throws std::invalid_argument On dimension mismatch or empty input.
void bind_inplace(Hypervector& target, const Hypervector& v);

/// Clip every component into [-1, +1] (sign with a dead zone at 0). Applied
/// to single-object FactorHD bundles per the paper's encoding convention.
/// \param v Any hypervector.
/// \return The ternary-clipped copy.
[[nodiscard]] Hypervector clip_ternary(const Hypervector& v);
/// In-place variant of clip_ternary.
/// \param v Hypervector clipped in place.
void clip_ternary_inplace(Hypervector& v);

/// Componentwise sign: >0 -> +1, <0 -> -1, 0 stays 0 (identical to
/// clip_ternary for inputs in Z; provided under the conventional name used
/// when binarizing resonator estimates).
/// \param v Any hypervector.
/// \return The componentwise sign.
[[nodiscard]] Hypervector sign(const Hypervector& v);

/// Majority-style binarization with deterministic tie-break for zero
/// components: zeros become +1 when `ties_positive`, else -1. Produces a
/// strictly bipolar HV, as required by codebook cleanup in the baselines.
/// \param v Any hypervector.
/// \param ties_positive Tie-break direction for zero components.
/// \return A strictly bipolar hypervector.
[[nodiscard]] Hypervector sign_bipolar(const Hypervector& v,
                                       bool ties_positive = true);

/// Cyclic permutation ρ^k (rotate components right by k mod D). ρ preserves
/// distances, and ρ^k(a) is quasi-orthogonal to a for k != 0 (mod D); used to
/// protect positional structure.
/// \param v Hypervector to rotate.
/// \param k Rotation amount (taken mod D).
/// \return The rotated copy.
/// \throws std::invalid_argument On empty input.
[[nodiscard]] Hypervector permute(const Hypervector& v, std::size_t k);

/// Inverse of permute: rotate left by k mod D.
/// \param v Hypervector to rotate.
/// \param k Rotation amount (taken mod D).
/// \return The rotated copy.
/// \throws std::invalid_argument On empty input.
[[nodiscard]] Hypervector unpermute(const Hypervector& v, std::size_t k);

/// Componentwise negation -v (the bipolar additive inverse).
/// \param v Any hypervector.
/// \return The negated copy.
[[nodiscard]] Hypervector negate(const Hypervector& v);

/// The multiplicative identity for binding: the all-ones HV of dimension dim.
/// \param dim Dimension of the identity.
/// \return The all-ones hypervector.
/// \throws std::invalid_argument When `dim` is zero.
[[nodiscard]] Hypervector identity(std::size_t dim);

/// Weighted bundle rounded to integers: out_i = round(scale * Σ_k w_k v_k[i]).
/// This is the "analog" bundle the neuro-symbolic pipeline uses to fold a
/// classifier's softmax over label encodings into one HV.
/// \param vs Non-empty span of dimension-consistent hypervectors.
/// \param weights One weight per hypervector.
/// \param scale Multiplier applied before rounding.
/// \return The rounded weighted bundle.
/// \throws std::invalid_argument On empty input, mixed dimensions, or
///   weight/vector count mismatch.
[[nodiscard]] Hypervector weighted_bundle(std::span<const Hypervector> vs,
                                          std::span<const double> weights,
                                          double scale = 1.0);

}  // namespace factorhd::hdc
