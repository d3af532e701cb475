#include "hdc/ops.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hdc/kernels/simd.hpp"

namespace factorhd::hdc {

Hypervector bundle(const Hypervector& a, const Hypervector& b) {
  require_same_dim(a, b, "bundle");
  Hypervector out(a.dim());
  const auto* pa = a.data();
  const auto* pb = b.data();
  auto* po = out.data();
  for (std::size_t i = 0, n = a.dim(); i < n; ++i) po[i] = pa[i] + pb[i];
  return out;
}

Hypervector bundle(std::span<const Hypervector> vs) {
  if (vs.empty()) throw std::invalid_argument("bundle: empty input span");
  Hypervector out = vs[0];
  for (std::size_t k = 1; k < vs.size(); ++k) accumulate(out, vs[k]);
  return out;
}

// accumulate, subtract, bind, bind_inplace and clip_ternary_inplace carry
// the multi-object factorization's residual updates and candidate
// re-encodings. Like dot and similarity (similarity.cpp), each is pinned to
// a 64-byte boundary, so code added elsewhere in the library cannot move
// their loops and with them that workload's speed (the plane-accumulate
// kernels behind accumulate_planes are pinned in kernels/simd.cpp).
[[gnu::aligned(64)]] void accumulate(Hypervector& target,
                                     const Hypervector& v) {
  require_same_dim(target, v, "accumulate");
  auto* pt = target.data();
  const auto* pv = v.data();
  for (std::size_t i = 0, n = target.dim(); i < n; ++i) pt[i] += pv[i];
}

void accumulate_planes(Hypervector& target, const std::uint64_t* sign,
                       const std::uint64_t* nonzero) {
  kernels::dot_kernels(kernels::dispatched_simd_level())
      .accumulate_planes(target.data(), target.dim(), sign, nonzero);
}

[[gnu::aligned(64)]] void subtract(Hypervector& target,
                                   const Hypervector& v) {
  require_same_dim(target, v, "subtract");
  auto* pt = target.data();
  const auto* pv = v.data();
  for (std::size_t i = 0, n = target.dim(); i < n; ++i) pt[i] -= pv[i];
}

[[gnu::aligned(64)]] Hypervector bind(const Hypervector& a,
                                      const Hypervector& b) {
  require_same_dim(a, b, "bind");
  Hypervector out(a.dim());
  const auto* pa = a.data();
  const auto* pb = b.data();
  auto* po = out.data();
  for (std::size_t i = 0, n = a.dim(); i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Hypervector bind(std::span<const Hypervector> vs) {
  if (vs.empty()) throw std::invalid_argument("bind: empty input span");
  Hypervector out = vs[0];
  for (std::size_t k = 1; k < vs.size(); ++k) bind_inplace(out, vs[k]);
  return out;
}

[[gnu::aligned(64)]] void bind_inplace(Hypervector& target,
                                       const Hypervector& v) {
  require_same_dim(target, v, "bind_inplace");
  auto* pt = target.data();
  const auto* pv = v.data();
  for (std::size_t i = 0, n = target.dim(); i < n; ++i) pt[i] *= pv[i];
}

Hypervector clip_ternary(const Hypervector& v) {
  Hypervector out = v;
  clip_ternary_inplace(out);
  return out;
}

[[gnu::aligned(64)]] void clip_ternary_inplace(Hypervector& v) {
  auto* p = v.data();
  for (std::size_t i = 0, n = v.dim(); i < n; ++i) {
    p[i] = p[i] > 0 ? 1 : (p[i] < 0 ? -1 : 0);
  }
}

Hypervector sign(const Hypervector& v) { return clip_ternary(v); }

Hypervector sign_bipolar(const Hypervector& v, bool ties_positive) {
  Hypervector out(v.dim());
  const auto* pv = v.data();
  auto* po = out.data();
  const Hypervector::value_type tie = ties_positive ? 1 : -1;
  for (std::size_t i = 0, n = v.dim(); i < n; ++i) {
    po[i] = pv[i] > 0 ? 1 : (pv[i] < 0 ? -1 : tie);
  }
  return out;
}

Hypervector permute(const Hypervector& v, std::size_t k) {
  const std::size_t n = v.dim();
  if (n == 0) throw std::invalid_argument("permute: empty hypervector");
  k %= n;
  Hypervector out(n);
  const auto* pv = v.data();
  auto* po = out.data();
  for (std::size_t i = 0; i < n; ++i) po[(i + k) % n] = pv[i];
  return out;
}

Hypervector unpermute(const Hypervector& v, std::size_t k) {
  const std::size_t n = v.dim();
  if (n == 0) throw std::invalid_argument("unpermute: empty hypervector");
  k %= n;
  return permute(v, n - k);
}

Hypervector negate(const Hypervector& v) {
  Hypervector out(v.dim());
  const auto* pv = v.data();
  auto* po = out.data();
  for (std::size_t i = 0, n = v.dim(); i < n; ++i) po[i] = -pv[i];
  return out;
}

Hypervector identity(std::size_t dim) {
  if (dim == 0) throw std::invalid_argument("identity: zero dimension");
  Hypervector out(dim);
  auto* po = out.data();
  for (std::size_t i = 0; i < dim; ++i) po[i] = 1;
  return out;
}

Hypervector weighted_bundle(std::span<const Hypervector> vs,
                            std::span<const double> weights, double scale) {
  if (vs.empty() || vs.size() != weights.size()) {
    throw std::invalid_argument(
        "weighted_bundle: need matching non-empty vectors and weights");
  }
  const std::size_t dim = vs[0].dim();
  std::vector<double> acc(dim, 0.0);
  for (std::size_t k = 0; k < vs.size(); ++k) {
    require_same_dim(vs[0], vs[k], "weighted_bundle");
    const double w = weights[k];
    if (w == 0.0) continue;
    const auto* pv = vs[k].data();
    for (std::size_t i = 0; i < dim; ++i) acc[i] += w * pv[i];
  }
  Hypervector out(dim);
  auto* po = out.data();
  for (std::size_t i = 0; i < dim; ++i) {
    po[i] = static_cast<Hypervector::value_type>(std::lround(scale * acc[i]));
  }
  return out;
}

}  // namespace factorhd::hdc
