// Random hypervector generation.
//
// Randomly generated HVs in high dimension are quasi-orthogonal with
// overwhelming probability (concentration of measure): the normalized dot
// product of two independent bipolar HVs has mean 0 and stddev 1/sqrt(D).
// This is the foundation of symbolic representation in HDC.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hdc/hypervector.hpp"
#include "util/rng.hpp"

namespace factorhd::hdc {

/// Uniform random bipolar HV in {-1,+1}^D. Draws 64 components per generator
/// call (one bit each): the HV random_sign_words() draws, unpacked.
/// \param dim Hypervector dimension.
/// \param rng Source of randomness.
/// \return A random bipolar hypervector.
[[nodiscard]] Hypervector random_bipolar(std::size_t dim,
                                         util::Xoshiro256& rng);

/// Sign plane of a uniform random bipolar HV (hdc/kernels/plane.hpp
/// layout): one generator call per 64-bit word, component 64 * w + i is +1
/// where bit i of word w is set, and the bits past `dim` in the last word
/// are cleared. Same draws, same components as random_bipolar().
/// \param dim Hypervector dimension.
/// \param rng Source of randomness.
/// \param out Destination, ceil(dim / 64) words.
void random_sign_words(std::size_t dim, util::Xoshiro256& rng,
                       std::uint64_t* out);

/// Random ternary HV: each component is 0 with probability `sparsity`,
/// otherwise ±1 with equal probability.
/// \param dim Hypervector dimension.
/// \param sparsity Per-component zero probability in [0, 1].
/// \param rng Source of randomness.
/// \return A random ternary hypervector.
[[nodiscard]] Hypervector random_ternary(std::size_t dim, double sparsity,
                                         util::Xoshiro256& rng);

/// Flip each component of a bipolar HV independently with probability p
/// (noise model used in robustness tests and the IMC factorizer simulation).
/// \param v Hypervector to perturb (components are negated, so any alphabet
///   works; the noise model is meaningful for bipolar inputs).
/// \param p Per-component flip probability in [0, 1].
/// \param rng Source of randomness.
/// \return The noisy copy.
[[nodiscard]] Hypervector flip_noise(const Hypervector& v, double p,
                                     util::Xoshiro256& rng);

}  // namespace factorhd::hdc
