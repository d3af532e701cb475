#include "hdc/kernels/plane.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/row_blocks.hpp"

namespace factorhd::hdc::kernels {

std::optional<PackedQuery> PackedQuery::pack(const Hypervector& v) {
  return pack(v, dispatched_simd_level());
}

std::optional<PackedQuery> PackedQuery::pack(const Hypervector& v,
                                             SimdLevel level) {
  const std::size_t dim = v.dim();
  if (dim == 0) return std::nullopt;
  PackedQuery q;
  q.dim = dim;
  const std::size_t words = plane_words(dim);
  q.sign.resize(words);
  q.nonzero.resize(words);
  // The tier's fused packer: comparison masks OR-ed into register-resident
  // words (no per-component branches), bailing out of integer bundles on the
  // first out-of-range component. Every tier emits identical planes.
  bool any_zero = false;
  if (!dot_kernels(level).pack_planes(v.data(), dim, q.sign.data(),
                                      q.nonzero.data(), &any_zero)) {
    return std::nullopt;  // integer bundle: scalar path
  }
  q.bipolar = !any_zero;
  return q;
}

namespace {

// Packing reads 256 bytes of int32 components per plane word, 64x what a
// scan reads, so it crosses the spawn+join break-even at a far smaller
// codebook: 2^20 components (4 MB of int32) take just under a millisecond
// on one AVX-512 core (2^28 took 0.16-0.20 s). The taxonomy codebooks of
// the paper experiments (M <= a few hundred, D <= 8192) pack sequentially.
constexpr std::size_t kParallelPackMinComponents = std::size_t{1} << 20;

// Unpacking is bound by first-touch page faults on the new rows, not by the
// kernel: 768 rows of 2048 dims (6 MB) took about 3 ms on one thread of a
// 4-vCPU AVX-512 host when the pages were fresh, and 0.4 ms when the
// allocator handed back pages it had already touched. Spreading the faults
// over the scan pool pays for its spawn and join (tens of microseconds)
// from about 256 KB of rows.
constexpr std::size_t kParallelUnpackMinComponents = std::size_t{1} << 16;

}  // namespace

// Each row packs independently into its own plane slice, so the planes are
// byte-identical for any worker count. The nonzero plane is allocated only
// once some row holds a zero, so a bipolar codebook never holds a second
// plane: until then each worker packs nonzero words into a one-row scratch.
// The first zero row allocates the plane pre-filled with all-nonzero rows
// (what the packer emits for a zero-free row); from then on that worker
// packs straight into it.
bool pack_rows(std::span<const Hypervector> rows, std::size_t dim,
               std::vector<std::uint64_t>& sign,
               std::vector<std::uint64_t>& nonzero) {
  const std::size_t size = rows.size();
  const std::size_t words = plane_words(dim);
  const DotKernels& kernels = dot_kernels(dispatched_simd_level());
  sign.assign(size * words, 0);
  nonzero.clear();
  std::vector<std::uint64_t> full_row(words, ~0ULL);
  if (const std::size_t tail = dim % kWordBits; tail != 0) {
    full_row.back() = (1ULL << tail) - 1;
  }
  std::once_flag nonzero_once;
  std::atomic<bool> invalid{false};
  const auto pack_range = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t> scratch(words);
    bool have_plane = false;
    for (std::size_t row = begin; row < end; ++row) {
      if (invalid.load(std::memory_order_relaxed)) return;
      std::uint64_t* nz = have_plane ? &nonzero[row * words] : scratch.data();
      bool any_zero = false;
      if (!kernels.pack_planes(rows[row].data(), dim, &sign[row * words], nz,
                               &any_zero)) {
        invalid.store(true, std::memory_order_relaxed);
        return;
      }
      if (any_zero && !have_plane) {
        std::call_once(nonzero_once, [&] {
          nonzero.reserve(size * words);
          for (std::size_t r = 0; r < size; ++r) {
            nonzero.insert(nonzero.end(), full_row.begin(), full_row.end());
          }
        });
        have_plane = true;
        std::copy(scratch.begin(), scratch.end(), &nonzero[row * words]);
      }
    }
  };
  const bool parallel =
      !scan_nesting_active() && size * dim >= kParallelPackMinComponents;
  run_row_blocks(size, parallel ? scan_pool_width() : 1, pack_range);
  return !invalid.load();
}

std::vector<Hypervector> unpack_rows(std::size_t size, std::size_t dim,
                                     const std::uint64_t* sign,
                                     const std::uint64_t* nonzero) {
  const std::size_t words = plane_words(dim);
  const DotKernels& kernels = dot_kernels(dispatched_simd_level());
  std::vector<Hypervector> rows(size);
  const auto unpack_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      rows[r] = Hypervector(dim);
      kernels.accumulate_planes(rows[r].data(), dim, sign + r * words,
                                nonzero != nullptr ? nonzero + r * words
                                                   : nullptr);
    }
  };
  const bool parallel = size * dim >= kParallelUnpackMinComponents;
  run_row_blocks(size, parallel ? scan_pool_width() : 1, unpack_range);
  return rows;
}

std::int64_t dot_bipolar_bipolar(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words, std::size_t dim) noexcept {
  // Canonical tails XOR to zero, so no trailing mask is needed.
  std::int64_t hamming = 0;
  for (std::size_t w = 0; w < words; ++w) {
    hamming += std::popcount(a[w] ^ b[w]);
  }
  return static_cast<std::int64_t>(dim) - 2 * hamming;
}

std::int64_t dot_bipolar_ternary(const std::uint64_t* bip,
                                 const std::uint64_t* nz,
                                 const std::uint64_t* sg,
                                 std::size_t words) noexcept {
  std::int64_t acc = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t differ = (bip[w] ^ sg[w]) & nz[w];
    // dot = |support| - 2 * disagreements over the support.
    acc += std::popcount(nz[w]) - 2 * std::popcount(differ);
  }
  return acc;
}

std::int64_t dot_ternary_ternary(const std::uint64_t* a_nz,
                                 const std::uint64_t* a_sg,
                                 const std::uint64_t* b_nz,
                                 const std::uint64_t* b_sg,
                                 std::size_t words) noexcept {
  std::int64_t acc = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t active = a_nz[w] & b_nz[w];
    const std::uint64_t differ = (a_sg[w] ^ b_sg[w]) & active;
    acc += std::popcount(active) - 2 * std::popcount(differ);
  }
  return acc;
}

}  // namespace factorhd::hdc::kernels
