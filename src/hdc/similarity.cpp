#include "hdc/similarity.hpp"

#include <cmath>

namespace factorhd::hdc {

// dot and similarity carry the integer residual scans of multi-object
// factorization, and their loop's speed moved by about 1.5x with nothing but
// the function's address mod 64. Pinning both to a 64-byte boundary keeps
// unrelated changes elsewhere in the library from moving that workload.
[[gnu::aligned(64)]] std::int64_t dot(const Hypervector& a,
                                      const Hypervector& b) {
  require_same_dim(a, b, "dot");
  const auto* pa = a.data();
  const auto* pb = b.data();
  std::int64_t acc = 0;
  for (std::size_t i = 0, n = a.dim(); i < n; ++i) {
    acc += static_cast<std::int64_t>(pa[i]) * pb[i];
  }
  return acc;
}

[[gnu::aligned(64)]] double similarity(const Hypervector& a,
                                       const Hypervector& b) {
  return static_cast<double>(dot(a, b)) / static_cast<double>(a.dim());
}

double cosine(const Hypervector& a, const Hypervector& b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return static_cast<double>(dot(a, b)) / (na * nb);
}

std::size_t hamming(const Hypervector& a, const Hypervector& b) {
  require_same_dim(a, b, "hamming");
  const auto* pa = a.data();
  const auto* pb = b.data();
  std::size_t diff = 0;
  for (std::size_t i = 0, n = a.dim(); i < n; ++i) diff += (pa[i] != pb[i]);
  return diff;
}

double normalized_hamming(const Hypervector& a, const Hypervector& b) {
  return static_cast<double>(hamming(a, b)) / static_cast<double>(a.dim());
}

double norm(const Hypervector& v) {
  double acc = 0.0;
  const auto* p = v.data();
  for (std::size_t i = 0, n = v.dim(); i < n; ++i) {
    acc += static_cast<double>(p[i]) * p[i];
  }
  return std::sqrt(acc);
}

}  // namespace factorhd::hdc
