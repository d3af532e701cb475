#include "hdc/random.hpp"

#include <array>
#include <cstdint>
#include <cstring>

namespace factorhd::hdc {

namespace {

// kByteComponents[b][k] = component for bit k of byte b: +1 where the bit is
// set, else -1. Eight components per table copy instead of a branch per bit.
constexpr auto kByteComponents = [] {
  std::array<std::array<Hypervector::value_type, 8>, 256> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 8; ++k) {
      table[b][k] = ((b >> k) & 1u) != 0 ? 1 : -1;
    }
  }
  return table;
}();

}  // namespace

Hypervector random_bipolar(std::size_t dim, util::Xoshiro256& rng) {
  Hypervector out(dim);
  auto* p = out.data();
  // Each 64-bit draw fills the next 64 components, low bit first (+1 for a
  // set bit); a final partial word uses only its low bits. Whole bytes go
  // through the table, the bits of a trailing partial byte one at a time.
  for (std::size_t i = 0; i < dim; i += 64) {
    std::uint64_t bits = rng();
    const std::size_t chunk = dim - i < 64 ? dim - i : 64;
    std::size_t k = 0;
    for (; k + 8 <= chunk; k += 8, bits >>= 8) {
      std::memcpy(p + i + k, kByteComponents[bits & 0xffu].data(),
                  sizeof(kByteComponents[0]));
    }
    for (; k < chunk; ++k, bits >>= 1) {
      p[i + k] = (bits & 1u) != 0 ? 1 : -1;
    }
  }
  return out;
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
