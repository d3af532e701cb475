// Google-benchmark microbenchmarks of the HDC kernels every experiment is
// built from: bundling, binding, dot-product similarity (int32 and packed
// bit-level), whole-codebook similarity scans (scalar vs the hdc/kernels/
// packed word-plane backend), encoding, and one-pass factorization. These
// quantify the per-operation costs behind the Fig. 4 timing sweeps.
//
// The BM_Scan* pairs and the BM_Cleanup* rows are consumed by
// scripts/bench.sh, which parses the
// --benchmark_format=json output into BENCH_kernels.json including the
// packed-over-scalar speedup per (M, D) point and the blocked-scan Q=64 over
// Q=1 ratio per BM_ScanBlockPacked (M, D) sweep (see README "Kernel
// benchmarks"). Keep their names and argument orders (M, D) / (M, D, Q)
// stable.
//
// Besides the scalar-vs-dispatched pairs, main() registers one
// BM_Scan{Best,Dots}Packed<Level> row per SIMD tier available on this CPU
// (Words = forced scalar-word loops, then AVX2/AVX512/NEON), so the v2 JSON
// records the whole dispatch ladder; the dispatched level itself is exported
// through the benchmark context (factorhd_simd_level).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/factorhd.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/packed.hpp"

namespace {

using namespace factorhd;

void BM_Bind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(1);
  const hdc::Hypervector a = hdc::random_bipolar(dim, rng);
  const hdc::Hypervector b = hdc::random_bipolar(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::bind(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bind)->Arg(750)->Arg(1500)->Arg(8192);

void BM_Bundle(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(2);
  const hdc::Hypervector a = hdc::random_bipolar(dim, rng);
  hdc::Hypervector acc(dim);
  for (auto _ : state) {
    hdc::accumulate(acc, a);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bundle)->Arg(750)->Arg(1500)->Arg(8192);

void BM_DotInt32(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  const hdc::Hypervector a = hdc::random_bipolar(dim, rng);
  const hdc::Hypervector b = hdc::random_bipolar(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotInt32)->Arg(750)->Arg(1500)->Arg(8192);

void BM_DotPackedBipolar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(4);
  const hdc::PackedBipolar a{hdc::random_bipolar(dim, rng)};
  const hdc::PackedBipolar b{hdc::random_bipolar(dim, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.dot(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotPackedBipolar)->Arg(750)->Arg(1500)->Arg(8192);

void BM_DotPackedTernary(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  const hdc::PackedTernary a{hdc::random_ternary(dim, 0.5, rng)};
  const hdc::PackedTernary b{hdc::random_ternary(dim, 0.5, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.dot(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotPackedTernary)->Arg(750)->Arg(1500)->Arg(8192);

// --- Whole-codebook similarity scans: scalar vs packed backend -------------
// Arguments: (M = codebook size, D = dimension). The query is a noisy item
// (bipolar), the shape of every cleanup scan in Algorithm 1. The M=64,
// D=8192 point is the perf-trajectory headline tracked in BENCH_kernels.json.

struct ScanFixture {
  ScanFixture(std::size_t m, std::size_t dim, hdc::ScanBackend backend)
      : rng(11), cb(dim, m, rng), memory(cb, backend),
        query(hdc::flip_noise(cb.item(m / 2), 0.2, rng)) {}
  util::Xoshiro256 rng;
  hdc::Codebook cb;
  hdc::ItemMemory memory;
  hdc::Hypervector query;
};

void scan_args(benchmark::internal::Benchmark* b) {
  b->Args({64, 63})->Args({64, 256})->Args({64, 1000})->Args({64, 8192});
}

void scan_counters(benchmark::State& state, std::size_t m, std::size_t dim) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) *
                          static_cast<std::int64_t>(dim));
}

void BM_ScanBestScalar(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, hdc::ScanBackend::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.memory.best(fx.query));
  }
  scan_counters(state, m, dim);
}
BENCHMARK(BM_ScanBestScalar)->Apply(scan_args);

void BM_ScanBestPacked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, hdc::ScanBackend::kPacked);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.memory.best(fx.query));
  }
  scan_counters(state, m, dim);
}
BENCHMARK(BM_ScanBestPacked)->Apply(scan_args);

void BM_ScanDotsScalar(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, hdc::ScanBackend::kScalar);
  std::vector<std::int64_t> out(m);
  for (auto _ : state) {
    fx.memory.dots(fx.query, out);
    benchmark::DoNotOptimize(out.data());
  }
  scan_counters(state, m, dim);
}
BENCHMARK(BM_ScanDotsScalar)->Apply(scan_args);

void BM_ScanDotsPacked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, hdc::ScanBackend::kPacked);
  std::vector<std::int64_t> out(m);
  for (auto _ : state) {
    fx.memory.dots(fx.query, out);
    benchmark::DoNotOptimize(out.data());
  }
  scan_counters(state, m, dim);
}
BENCHMARK(BM_ScanDotsPacked)->Apply(scan_args);

// --- Multi-query blocked scans: the Q-sweep behind the block-speedup table --
// Arguments: (M, D, Q). Each iteration scans one block of Q pre-packed noisy
// queries through PackedItemMemory::best_block; Q = 1 is the degenerate
// single-query block, the baseline of the BENCH_kernels.json v3
// block_speedup entries. Items = Q * M * D per iteration, so
// items_per_second is per-query scan throughput and the Q=64 over Q=1 ratio
// measures how well the blocked kernels amortize one codebook stream across
// the block (the >= 3x acceptance bound at M=4096, D=8192).
//
// The memory scans a generated codebook's sign planes, 32 MB at the
// 65536 x 4096 point. A noisy
// query is a row with 20% of its signs flipped: bipolar, with most of its
// mass past the first 512-dimension slab, so neither step of the pruned
// argmax's bound drops rows and the scan finishes on its full fallback
// pass.

struct BlockScanFixture {
  enum class Queries {
    kNoisy,  ///< bipolar row with 20% of its signs flipped
    kFlip,   ///< bipolar row with 5% of its signs flipped
    kRep1,   ///< unbound Rep-1 query: the row on a random 1/8 of the dims
  };
  BlockScanFixture(std::size_t m, std::size_t dim, std::size_t q,
                   Queries kind = Queries::kNoisy)
      : rng(12), codebook(dim, m, rng), memory(codebook) {
    const std::size_t words = memory.words_per_row();
    queries.reserve(q);
    for (std::size_t i = 0; i < q; ++i) {
      const std::uint64_t* row = memory.row_sign(i % m).data();
      hdc::kernels::PackedQuery pq;
      pq.dim = dim;
      pq.bipolar = kind != Queries::kRep1;
      pq.sign.assign(row, row + words);
      if (kind == Queries::kRep1) pq.nonzero.assign(words, 0);
      const double flip = kind == Queries::kNoisy ? 0.2 : 0.05;
      for (std::size_t d = 0; d < dim; ++d) {
        const std::uint64_t bit = 1ULL << (d % 64);
        if (kind == Queries::kRep1) {
          if (rng.uniform_double() < 0.125) pq.nonzero[d / 64] |= bit;
        } else if (rng.uniform_double() < flip) {
          pq.sign[d / 64] ^= bit;
        }
      }
      if (kind == Queries::kRep1) {
        for (std::size_t w = 0; w < words; ++w) pq.sign[w] &= pq.nonzero[w];
      }
      queries.push_back(std::move(pq));
    }
  }
  util::Xoshiro256 rng;
  hdc::Codebook codebook;
  hdc::kernels::PackedItemMemory memory;
  std::vector<hdc::kernels::PackedQuery> queries;
};

void block_args(benchmark::internal::Benchmark* b) {
  // The smoke pair first (tiny dims, exercised by scripts/bench.sh --smoke),
  // then the tracked M x Q sweep at the headline dimension, then the
  // noise-query twin of BM_CleanupRep1's shape.
  for (long q : {1, 64}) b->Args({64, 256, q});
  for (long m : {64, 4096}) {
    for (long q : {1, 2, 3, 8, 33, 64}) b->Args({m, 8192, q});
  }
  b->Args({65536, 4096, 16});
}

void block_counters(benchmark::State& state, std::size_t m, std::size_t dim,
                    std::size_t q) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q) *
                          static_cast<std::int64_t>(m) *
                          static_cast<std::int64_t>(dim));
}

void BM_ScanBlockPacked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto q = static_cast<std::size_t>(state.range(2));
  BlockScanFixture fx(m, dim, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.memory.best_block(fx.queries));
  }
  block_counters(state, m, dim, q);
}
BENCHMARK(BM_ScanBlockPacked)->Apply(block_args);

// --- Large-codebook cleanup: both sides of the pruned argmax's step choice
// Arguments: (M, D, Q) = (65536, 4096, 16), the tiered_large class-0 shape.
// BM_CleanupRep1's queries are unbound Rep-1 queries: zero on 7/8 of the
// dims and equal to their true row elsewhere, so the first step's 128-dim
// bound drops every other row. BM_CleanupFlip's are 5%-flip bipolar
// queries, dense and highly similar: 128 dims cannot separate them, so they
// take the 512-dim step alone, which drops every other row. Compare both with
// BM_ScanBlockPacked/65536/4096/16, the same scan on noisy queries that
// keep every row.

void cleanup_bench(benchmark::State& state, BlockScanFixture::Queries kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto q = static_cast<std::size_t>(state.range(2));
  BlockScanFixture fx(m, dim, q, kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.memory.best_block(fx.queries));
  }
  block_counters(state, m, dim, q);
}

void BM_CleanupRep1(benchmark::State& state) {
  cleanup_bench(state, BlockScanFixture::Queries::kRep1);
}
BENCHMARK(BM_CleanupRep1)->Args({65536, 4096, 16});

void BM_CleanupFlip(benchmark::State& state) {
  cleanup_bench(state, BlockScanFixture::Queries::kFlip);
}
BENCHMARK(BM_CleanupFlip)->Args({65536, 4096, 16});

// Forced-tier variants, registered from main() only for tiers this CPU can
// execute (a forced ItemMemory construction throws otherwise).

void BM_ScanBestForced(benchmark::State& state, hdc::ScanBackend backend) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.memory.best(fx.query));
  }
  scan_counters(state, m, dim);
}

void BM_ScanDotsForced(benchmark::State& state, hdc::ScanBackend backend) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  ScanFixture fx(m, dim, backend);
  std::vector<std::int64_t> out(m);
  for (auto _ : state) {
    fx.memory.dots(fx.query, out);
    benchmark::DoNotOptimize(out.data());
  }
  scan_counters(state, m, dim);
}

struct Fixture {
  Fixture(std::size_t dim, std::size_t f, std::size_t m)
      : rng(7), taxonomy(f, {m}), books(taxonomy, dim, rng), encoder(books),
        factorizer(encoder), obj(tax::random_object(taxonomy, rng)),
        target(encoder.encode_object(obj)) {}
  util::Xoshiro256 rng;
  tax::Taxonomy taxonomy;
  tax::TaxonomyCodebooks books;
  core::Encoder encoder;
  core::Factorizer factorizer;
  tax::Object obj;
  hdc::Hypervector target;
};

void BM_EncodeObject(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)), 3, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.encoder.encode_object(fx.obj));
  }
}
BENCHMARK(BM_EncodeObject)->Arg(750)->Arg(1500);

void BM_FactorizeRep1(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)), 3, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.factorizer.factorize(fx.target, {}));
  }
}
BENCHMARK(BM_FactorizeRep1)->Arg(750)->Arg(1500);

void BM_FactorizeRep3TwoObjects(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(8);
  const tax::Taxonomy taxonomy(3, {10});
  const tax::TaxonomyCodebooks books(taxonomy, dim, rng);
  const core::Encoder encoder(books);
  const core::Factorizer factorizer(encoder);
  const tax::Scene scene = tax::random_scene(
      taxonomy, rng, {.num_objects = 2, .object = {}, .allow_duplicates = false});
  const hdc::Hypervector target = encoder.encode_scene(scene);
  core::FactorizeOptions opts;
  opts.multi_object = true;
  opts.num_objects_hint = 2;
  opts.max_objects = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(factorizer.factorize(target, opts));
  }
}
BENCHMARK(BM_FactorizeRep3TwoObjects)->Arg(2000)->Arg(4000);

}  // namespace

int main(int argc, char** argv) {
  namespace kernels = factorhd::hdc::kernels;
  using factorhd::hdc::ScanBackend;
  using kernels::SimdLevel;

  // One row pair per SIMD tier available here; "Words" is the forced
  // scalar-word tier (the packed baseline every vector tier is measured
  // against in the v2 speedup table).
  const std::tuple<ScanBackend, SimdLevel, const char*> tiers[] = {
      {ScanBackend::kPackedWords, SimdLevel::kScalarWords, "Words"},
      {ScanBackend::kPackedAVX2, SimdLevel::kAVX2, "AVX2"},
      {ScanBackend::kPackedAVX512, SimdLevel::kAVX512, "AVX512"},
      {ScanBackend::kPackedNEON, SimdLevel::kNEON, "NEON"},
  };
  for (const auto& [backend, level, suffix] : tiers) {
    if (!kernels::simd_level_available(level)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_ScanBestPacked") + suffix).c_str(), BM_ScanBestForced,
        backend)
        ->Apply(scan_args);
    benchmark::RegisterBenchmark(
        (std::string("BM_ScanDotsPacked") + suffix).c_str(), BM_ScanDotsForced,
        backend)
        ->Apply(scan_args);
  }

  // Provenance for bench_json.py: which tier kPacked/kAuto scans dispatched
  // to in this run, and what the CPU would support.
  benchmark::AddCustomContext("factorhd_simd_level",
                              kernels::to_string(kernels::dispatched_simd_level()));
  benchmark::AddCustomContext("factorhd_simd_detected",
                              kernels::to_string(kernels::detect_simd_level()));

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
