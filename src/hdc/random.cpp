#include "hdc/random.hpp"

#include <cstdint>
#include <vector>

#include "hdc/kernels/plane.hpp"
#include "hdc/ops.hpp"

namespace factorhd::hdc {

Hypervector random_bipolar(std::size_t dim, util::Xoshiro256& rng) {
  std::vector<std::uint64_t> sign(kernels::plane_words(dim));
  random_sign_words(dim, rng, sign.data());
  Hypervector out(dim);
  accumulate_planes(out, sign.data(), nullptr);
  return out;
}

void random_sign_words(std::size_t dim, util::Xoshiro256& rng,
                       std::uint64_t* out) {
  const std::size_t words = kernels::plane_words(dim);
  for (std::size_t w = 0; w < words; ++w) out[w] = rng();
  if (const std::size_t tail = dim % kernels::kWordBits; tail != 0) {
    out[words - 1] &= (std::uint64_t{1} << tail) - 1;
  }
}

Hypervector random_ternary(std::size_t dim, double sparsity,
                           util::Xoshiro256& rng) {
  Hypervector out(dim);
  auto* p = out.data();
  for (std::size_t i = 0; i < dim; ++i) {
    if (rng.bernoulli(sparsity)) {
      p[i] = 0;
    } else {
      p[i] = rng.bipolar();
    }
  }
  return out;
}

Hypervector flip_noise(const Hypervector& v, double p, util::Xoshiro256& rng) {
  Hypervector out = v;
  auto* po = out.data();
  for (std::size_t i = 0, n = out.dim(); i < n; ++i) {
    if (rng.bernoulli(p)) po[i] = -po[i];
  }
  return out;
}

}  // namespace factorhd::hdc
