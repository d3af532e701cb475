// Seeded randomized differential fuzzer over the similarity-scan backends.
//
// For ~200 random (dim, codebook size, alphabet, query representation)
// configurations, every packed backend — the scalar-word tier and each SIMD
// tier available on this CPU — must agree *exactly* with the scalar int32
// reference on the full scan surface: best / best_among / above /
// above_among / top_k / dots. "Exactly" means bit-identical index,
// similarity, and ordering (ties resolved by hdc::match_order), which is the
// contract that lets ScanBackend be a pure performance knob.
//
// The configuration stream deliberately over-samples the hard cases:
// dimensions straddling the 64-bit word and 256/512-bit vector boundaries
// (63/64/65/255/256/257) and tie-heavy codebooks built from a handful of
// distinct rows, where any backend that broke tie ordering would diverge.
//
// The multi-query blocked scans (PackedItemMemory::*_block and
// hdc::ItemMemory::best_block) ride the same differential with a block-size
// axis: at every block size Q in {1, 2, 3, 8, 33, 64} the blocked result
// must be bit-identical to Q independent single-query scans, on every SIMD
// tier, including tie-heavy codebooks and blocks whose queries force the
// per-query fallback (integer bundles).
//
// The tiered index's bucket-contiguous stage 2 gets its own differential:
// TieredItemMemory::best_block (bucket-major over a query block) must equal
// per-query best() in result and accounting at every block size, tier,
// probing mode and row layout, including degenerate clusterings with empty
// buckets; and the contiguous best/above/top_k must equal the row-at-a-time
// gather over the member lists they replaced (kept here as the oracle).
//
// The slab axis pins the bound-pruned argmax of PackedItemMemory::best /
// best_block to the unpruned blocked scan (argmax over dots_block) on every
// tier: planted ties below the first visited row, duplicates, all-zero
// queries, an empty first slab, dense queries that take the 512-dim second
// step (bipolar ones alone, ternary ones after the 128-dim first step
// cannot separate them), Rep-1 queries with no or little
// support in the first step's dims, noise queries that take the fallback,
// a stop inside the candidate walk of each step, memories smaller than one
// query group and spanning three chunks, dims 63/65/100/129/513/1000, and
// the threaded path of a memory at the pool threshold. The slab kernel
// itself is checked against the scalar loop at every word count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedQuery;
using kernels::SimdLevel;

// Word- and vector-boundary dimensions every fuzz run must cover.
const std::size_t kBoundaryDims[] = {63, 64, 65, 255, 256, 257};

// Block sizes the blocked-scan differential covers: the degenerate
// single-query block, sizes below/at/above the AVX-512 2-query register
// tile, a straddle of the ternary kernel's 64-query support-hoist group
// (33), and one full group (64).
const std::size_t kBlockSizes[] = {1, 2, 3, 8, 33, 64};

// Every SIMD tier this CPU can execute, scalar-word tier first.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalarWords};
  for (SimdLevel l : {SimdLevel::kAVX2, SimdLevel::kAVX512, SimdLevel::kNEON}) {
    if (kernels::simd_level_available(l)) levels.push_back(l);
  }
  return levels;
}

// Every packed backend this CPU can execute, scalar-word tier first.
std::vector<ScanBackend> packed_backends() {
  std::vector<ScanBackend> backends{ScanBackend::kPackedWords};
  if (kernels::simd_level_available(SimdLevel::kAVX2)) {
    backends.push_back(ScanBackend::kPackedAVX2);
  }
  if (kernels::simd_level_available(SimdLevel::kAVX512)) {
    backends.push_back(ScanBackend::kPackedAVX512);
  }
  if (kernels::simd_level_available(SimdLevel::kNEON)) {
    backends.push_back(ScanBackend::kPackedNEON);
  }
  backends.push_back(ScanBackend::kPacked);  // the dispatched default
  return backends;
}

const char* backend_name(ScanBackend b) {
  switch (b) {
    case ScanBackend::kPacked:
      return "kPacked";
    case ScanBackend::kPackedWords:
      return "kPackedWords";
    case ScanBackend::kPackedAVX2:
      return "kPackedAVX2";
    case ScanBackend::kPackedAVX512:
      return "kPackedAVX512";
    case ScanBackend::kPackedNEON:
      return "kPackedNEON";
    default:
      return "?";
  }
}

struct FuzzConfig {
  std::size_t dim = 0;
  std::size_t size = 0;
  bool ternary = false;
  bool tie_heavy = false;

  std::string describe() const {
    return "dim=" + std::to_string(dim) + " size=" + std::to_string(size) +
           (ternary ? " ternary" : " bipolar") +
           (tie_heavy ? " tie-heavy" : "");
  }
};

Hypervector random_entry(const FuzzConfig& cfg, Xoshiro256& rng) {
  if (cfg.ternary) {
    // Vary the density so supports of different sizes are exercised.
    const double density = 0.2 + 0.6 * (rng.uniform_double());
    return random_ternary(cfg.dim, density, rng);
  }
  return random_bipolar(cfg.dim, rng);
}

Codebook make_codebook(const FuzzConfig& cfg, Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(cfg.size);
  if (cfg.tie_heavy) {
    // A handful of distinct rows repeated in random order: guaranteed exact
    // similarity ties at every threshold, the case that breaks any backend
    // whose ordering is not exactly hdc::match_order.
    const std::size_t distinct = 1 + rng.uniform(3);
    std::vector<Hypervector> base;
    for (std::size_t i = 0; i < distinct; ++i) {
      base.push_back(random_entry(cfg, rng));
    }
    for (std::size_t i = 0; i < cfg.size; ++i) {
      items.push_back(base[rng.uniform(distinct)]);
    }
  } else {
    for (std::size_t i = 0; i < cfg.size; ++i) {
      items.push_back(random_entry(cfg, rng));
    }
  }
  return Codebook(std::move(items));
}

// Query representations: bipolar, ternary, an exact codebook hit, the
// clipped single-object bundle, the integer multi-object residual (which
// must take the scalar fallback inside packed memories), and all-zero.
std::vector<Hypervector> make_queries(const FuzzConfig& cfg, const Codebook& cb,
                                      Xoshiro256& rng) {
  std::vector<Hypervector> qs;
  qs.push_back(random_bipolar(cfg.dim, rng));
  qs.push_back(random_ternary(cfg.dim, 0.5, rng));
  qs.push_back(cb.item(rng.uniform(cb.size())));
  qs.push_back(clip_ternary(
      bundle(cb.item(rng.uniform(cb.size())), random_bipolar(cfg.dim, rng))));
  qs.push_back(bundle(bundle(cb.item(0), random_bipolar(cfg.dim, rng)),
                      random_bipolar(cfg.dim, rng)));
  qs.push_back(Hypervector(cfg.dim));
  return qs;
}

void expect_same_matches(const std::vector<Match>& ref,
                         const std::vector<Match>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].index, got[i].index) << "position " << i;
    EXPECT_EQ(ref[i].similarity, got[i].similarity) << "position " << i;
  }
}

// Random index subset (with duplicates and arbitrary order) for the *_among
// scans; always non-empty and in range.
std::vector<std::size_t> random_subset(std::size_t size, Xoshiro256& rng) {
  const std::size_t n = 1 + rng.uniform(size);
  std::vector<std::size_t> subset;
  subset.reserve(n);
  for (std::size_t i = 0; i < n; ++i) subset.push_back(rng.uniform(size));
  return subset;
}

void check_one_query(const Codebook& cb, const ItemMemory& scalar,
                     const ItemMemory& packed, const Hypervector& query,
                     Xoshiro256& rng) {
  const Match ref_best = scalar.best(query);
  const Match got_best = packed.best(query);
  EXPECT_EQ(ref_best.index, got_best.index);
  EXPECT_EQ(ref_best.similarity, got_best.similarity);

  // Thresholds: everything / nothing / exact-boundary (exclusive) / mid.
  for (double th :
       {-2.0, 1.5, ref_best.similarity, ref_best.similarity / 2.0, 0.0}) {
    expect_same_matches(scalar.above(query, th), packed.above(query, th));
  }

  for (std::size_t k : {std::size_t{1}, cb.size() / 2, cb.size(),
                        cb.size() + 5}) {
    if (k == 0) continue;
    expect_same_matches(scalar.top_k(query, k), packed.top_k(query, k));
  }

  const std::vector<std::size_t> subset = random_subset(cb.size(), rng);
  const Match ref_among = scalar.best_among(query, subset);
  const Match got_among = packed.best_among(query, subset);
  EXPECT_EQ(ref_among.index, got_among.index);
  EXPECT_EQ(ref_among.similarity, got_among.similarity);
  expect_same_matches(scalar.above_among(query, ref_best.similarity / 2.0, subset),
                      packed.above_among(query, ref_best.similarity / 2.0, subset));

  std::vector<std::int64_t> ref_dots(cb.size()), got_dots(cb.size());
  scalar.dots(query, ref_dots);
  packed.dots(query, got_dots);
  EXPECT_EQ(ref_dots, got_dots);
}

// Shard counts of the scatter-gather axis: the degenerate single shard,
// small counts that rarely divide the codebook size, and counts that
// exceed the 1..45-row codebooks entirely (clamped to one row per shard).
const std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

void run_config(const FuzzConfig& cfg, const std::vector<ScanBackend>& backends,
                Xoshiro256& rng) {
  SCOPED_TRACE(cfg.describe());
  const Codebook cb = make_codebook(cfg, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  std::vector<ItemMemory> packed;
  std::vector<std::string> names;
  packed.reserve(backends.size() + 3 +
                 sizeof(kShardCounts) / sizeof(kShardCounts[0]));
  for (ScanBackend b : backends) {
    packed.emplace_back(cb, b);
    names.emplace_back(backend_name(b));
  }
  // A full-coverage tiered memory (nprobe = all buckets) rides the same
  // differential: the verification bound says it is indistinguishable from
  // the exact backends on every scan surface.
  packed.emplace_back(
      cb, ScanBackend::kTiered,
      kernels::TieredConfig{.clusters = 1 + rng.uniform(cb.size()),
                            .nprobe = cb.size()});
  names.emplace_back("kTiered(nprobe=all)");
  // The scatter-gather axis: exact sharded memories at every count —
  // including counts that do not divide the size and counts above it —
  // must merge to the same bit-identical results, and so must a sharded
  // memory whose shards each carry a full-coverage tier.
  for (const std::size_t n : kShardCounts) {
    packed.emplace_back(cb, ScanBackend::kSharded, std::nullopt, nullptr,
                        kernels::ShardedConfig{.shards = n});
    names.emplace_back("kSharded(n=" + std::to_string(n) + ")");
  }
  packed.emplace_back(
      cb, ScanBackend::kSharded,
      kernels::TieredConfig{.clusters = 1 + rng.uniform(cb.size()),
                            .nprobe = cb.size()},
      nullptr, kernels::ShardedConfig{.shards = 1 + rng.uniform(5)});
  names.emplace_back("kSharded(tiered,nprobe=all)");
  for (const Hypervector& q : make_queries(cfg, cb, rng)) {
    for (std::size_t i = 0; i < packed.size(); ++i) {
      SCOPED_TRACE(names[i]);
      check_one_query(cb, scalar, packed[i], q, rng);
    }
  }
}

TEST(KernelFuzz, DifferentialAcrossBackendsAndLevels) {
  const std::vector<ScanBackend> backends = packed_backends();
  Xoshiro256 rng(20260728);

  std::vector<FuzzConfig> configs;
  // Deterministic hard cases first: every boundary dim x alphabet x tie mode.
  for (std::size_t dim : kBoundaryDims) {
    for (bool ternary : {false, true}) {
      for (bool tie_heavy : {false, true}) {
        configs.push_back({dim, 5 + rng.uniform(20), ternary, tie_heavy});
      }
    }
  }
  // Randomized remainder up to ~200 configurations.
  while (configs.size() < 200) {
    FuzzConfig cfg;
    cfg.dim = 1 + rng.uniform(700);
    cfg.size = 1 + rng.uniform(40);
    cfg.ternary = rng.uniform(2) == 1;
    cfg.tie_heavy = rng.uniform(4) == 0;
    configs.push_back(cfg);
  }

  for (const FuzzConfig& cfg : configs) run_config(cfg, backends, rng);
}

TEST(KernelFuzz, AllLevelsPackIdenticalPlanes) {
  // Query packing is part of the dispatch surface too: every tier must emit
  // byte-identical sign/nonzero planes and the same bipolar classification.
  Xoshiro256 rng(424242);
  const std::vector<SimdLevel> levels = available_levels();
  for (std::size_t dim : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{255}, std::size_t{256}, std::size_t{257},
                          std::size_t{1000}}) {
    for (const Hypervector& v :
         {random_bipolar(dim, rng), random_ternary(dim, 0.5, rng),
          Hypervector(dim)}) {
      const std::optional<PackedQuery> ref =
          PackedQuery::pack(v, SimdLevel::kScalarWords);
      ASSERT_TRUE(ref.has_value());
      for (SimdLevel l : levels) {
        SCOPED_TRACE(kernels::to_string(l));
        const std::optional<PackedQuery> got = PackedQuery::pack(v, l);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(ref->dim, got->dim);
        EXPECT_EQ(ref->bipolar, got->bipolar);
        EXPECT_EQ(ref->sign, got->sign);
        EXPECT_EQ(ref->nonzero, got->nonzero);
      }
    }
    // Integer bundles are rejected identically by every tier.
    Hypervector bundle_like(dim);
    bundle_like[dim / 2] = 3;
    for (SimdLevel l : levels) {
      EXPECT_FALSE(PackedQuery::pack(bundle_like, l).has_value())
          << kernels::to_string(l);
    }
  }
}

TEST(KernelFuzz, TieredNprobeAllBitIdenticalOnEveryLevel) {
  // The tiered verification bound, pinned per SIMD tier: with nprobe
  // covering every bucket, TieredItemMemory must reproduce the
  // PackedItemMemory scans bit-for-bit (index, similarity, ordering) at
  // each tier this CPU can execute — so the tier index is a pure routing
  // structure with no arithmetic of its own.
  using kernels::PackedItemMemory;
  using kernels::TieredConfig;
  using kernels::TieredItemMemory;
  const std::vector<SimdLevel> levels = available_levels();
  Xoshiro256 rng(20260729);
  for (int round = 0; round < 24; ++round) {
    FuzzConfig cfg;
    cfg.dim = kBoundaryDims[rng.uniform(
        sizeof(kBoundaryDims) / sizeof(kBoundaryDims[0]))];
    cfg.size = 1 + rng.uniform(40);
    cfg.ternary = rng.uniform(2) == 1;
    cfg.tie_heavy = rng.uniform(3) == 0;
    SCOPED_TRACE(cfg.describe());
    const Codebook cb = make_codebook(cfg, rng);
    const TieredConfig tiered_cfg{.clusters = 1 + rng.uniform(cfg.size),
                                  .nprobe = cfg.size};
    for (SimdLevel level : levels) {
      SCOPED_TRACE(kernels::to_string(level));
      const PackedItemMemory ref(cb, level);
      const TieredItemMemory tiered(cb, tiered_cfg, level);
      EXPECT_TRUE(tiered.exact());
      EXPECT_EQ(tiered.simd_level(), level);
      for (const Hypervector& q : make_queries(cfg, cb, rng)) {
        const auto pq = PackedQuery::pack(q, level);
        if (!pq) continue;  // integer bundles have no packed reference
        const Match rb = ref.best(*pq);
        const Match tb = tiered.best(*pq);
        EXPECT_EQ(rb.index, tb.index);
        EXPECT_EQ(rb.similarity, tb.similarity);
        for (double th : {-2.0, rb.similarity, rb.similarity / 2.0}) {
          expect_same_matches(ref.above(*pq, th), tiered.above(*pq, th));
        }
        expect_same_matches(ref.top_k(*pq, 1 + cfg.size / 2),
                            tiered.top_k(*pq, 1 + cfg.size / 2));
      }
    }
  }
}

// Packable query block for a codebook: the make_queries representations
// minus the integer bundle (which cannot pack), cycled to block size `q`.
std::vector<PackedQuery> make_packed_block(const FuzzConfig& cfg,
                                           const Codebook& cb, SimdLevel level,
                                           std::size_t q, Xoshiro256& rng) {
  const std::vector<Hypervector> pool = make_queries(cfg, cb, rng);
  std::vector<PackedQuery> block;
  block.reserve(q);
  std::size_t i = 0;
  while (block.size() < q) {
    auto packed = PackedQuery::pack(pool[i++ % pool.size()], level);
    if (packed) block.push_back(std::move(*packed));
  }
  return block;
}

TEST(KernelFuzz, BlockedScansMatchPerQueryAtEveryBlockSize) {
  // The tentpole contract: PackedItemMemory's blocked scans are bit-identical
  // to per-query scans at every block size, on every tier this CPU has,
  // through every surface (best_block / top_k_block / dots_block) — so block
  // size, like ScanBackend, is a pure performance knob.
  using kernels::PackedItemMemory;
  const std::vector<SimdLevel> levels = available_levels();
  Xoshiro256 rng(20260806);
  std::size_t round = 0;
  for (std::size_t q : kBlockSizes) {
    for (bool ternary : {false, true}) {
      FuzzConfig cfg;
      cfg.dim = kBoundaryDims[round % (sizeof(kBoundaryDims) /
                                       sizeof(kBoundaryDims[0]))];
      cfg.size = 1 + rng.uniform(40);
      cfg.ternary = ternary;
      cfg.tie_heavy = round % 2 == 0;
      ++round;
      SCOPED_TRACE(cfg.describe() + " block=" + std::to_string(q));
      const Codebook cb = make_codebook(cfg, rng);
      for (SimdLevel level : levels) {
        SCOPED_TRACE(kernels::to_string(level));
        const PackedItemMemory pm(cb, level);
        const std::vector<PackedQuery> block =
            make_packed_block(cfg, cb, level, q, rng);

        const std::vector<Match> best = pm.best_block(block);
        ASSERT_EQ(best.size(), q);
        for (std::size_t i = 0; i < q; ++i) {
          const Match ref = pm.best(block[i]);
          EXPECT_EQ(ref.index, best[i].index) << "query " << i;
          EXPECT_EQ(ref.similarity, best[i].similarity) << "query " << i;
        }

        for (std::size_t k : {std::size_t{0}, std::size_t{1},
                              cfg.size / 2 + 1, cfg.size + 3}) {
          const std::vector<std::vector<Match>> lists = pm.top_k_block(block, k);
          ASSERT_EQ(lists.size(), q);
          for (std::size_t i = 0; i < q; ++i) {
            SCOPED_TRACE("query " + std::to_string(i) +
                         " k=" + std::to_string(k));
            if (k == 0) {
              EXPECT_TRUE(lists[i].empty());
              continue;
            }
            expect_same_matches(pm.top_k(block[i], k), lists[i]);
          }
        }

        std::vector<std::int64_t> blocked(q * cfg.size);
        pm.dots_block(block, blocked);
        std::vector<std::int64_t> single(cfg.size);
        for (std::size_t i = 0; i < q; ++i) {
          pm.dots(block[i], single);
          EXPECT_TRUE(std::equal(single.begin(), single.end(),
                                 blocked.begin() +
                                     static_cast<std::ptrdiff_t>(i * cfg.size)))
              << "query " << i;
        }
      }
    }
  }
}

TEST(KernelFuzz, ItemMemoryBestBlockMatchesPerQueryOnEveryBackend) {
  // The routing layer above the kernels: ItemMemory::best_block must match
  // per-query best() — result AND deterministic measurement count — on every
  // backend and mode, including blocks that mix packable queries with the
  // integer bundle (forcing the per-query fallback mid-block) and tiered
  // memories, whose default mode takes the tier's bucket-major block scan.
  Xoshiro256 rng(20260807);
  for (std::size_t q : kBlockSizes) {
    FuzzConfig cfg;
    cfg.dim = kBoundaryDims[rng.uniform(sizeof(kBoundaryDims) /
                                        sizeof(kBoundaryDims[0]))];
    cfg.size = 2 + rng.uniform(30);
    cfg.ternary = rng.uniform(2) == 1;
    cfg.tie_heavy = rng.uniform(2) == 0;
    SCOPED_TRACE(cfg.describe() + " block=" + std::to_string(q));
    const Codebook cb = make_codebook(cfg, rng);
    // make_queries includes the integer residual bundle, so cycling the pool
    // plants unpackable queries inside every block of size >= 5.
    const std::vector<Hypervector> pool = make_queries(cfg, cb, rng);
    std::vector<Hypervector> block;
    block.reserve(q);
    for (std::size_t i = 0; i < q; ++i) block.push_back(pool[i % pool.size()]);

    const ItemMemory scalar(cb, ScanBackend::kScalar);
    const ItemMemory packed(cb, ScanBackend::kPacked);
    const ItemMemory tiered(
        cb, ScanBackend::kTiered,
        kernels::TieredConfig{.clusters = 1 + rng.uniform(cfg.size),
                              .nprobe = 1});
    struct Case {
      const ItemMemory* memory;
      ScanMode mode;
      const char* name;
    };
    const Case cases[] = {
        {&scalar, ScanMode::kDefault, "kScalar"},
        {&packed, ScanMode::kDefault, "kPacked"},
        {&packed, ScanMode::kExact, "kPacked/exact"},
        {&tiered, ScanMode::kDefault, "kTiered"},
        {&tiered, ScanMode::kExact, "kTiered/exact"},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      std::vector<std::uint64_t> scanned_block(q, ~std::uint64_t{0});
      std::vector<std::uint64_t> probes_block(q, ~std::uint64_t{0});
      const std::vector<Match> got = c.memory->best_block(
          block, c.mode, scanned_block.data(), probes_block.data());
      ASSERT_EQ(got.size(), q);
      for (std::size_t i = 0; i < q; ++i) {
        std::uint64_t scanned_one = ~std::uint64_t{0};
        std::uint64_t probes_one = ~std::uint64_t{0};
        const Match ref =
            c.memory->best(block[i], c.mode, &scanned_one, &probes_one);
        EXPECT_EQ(ref.index, got[i].index) << "query " << i;
        EXPECT_EQ(ref.similarity, got[i].similarity) << "query " << i;
        EXPECT_EQ(scanned_one, scanned_block[i]) << "query " << i;
        EXPECT_EQ(probes_one, probes_block[i]) << "query " << i;
      }
    }
    // The empty block is a no-op on every backend.
    EXPECT_TRUE(scalar.best_block({}).empty());
    EXPECT_TRUE(packed.best_block({}).empty());
    EXPECT_TRUE(tiered.best_block({}).empty());
  }
}

// --- Tiered stage 2: bucket-contiguous and bucket-major scans -------------

// Block sizes of the tiered block differential: the single-query block,
// sizes around the kernels' register tiles, a straddle of the ternary
// kernel's 64-query group (33), and the 128-target chunks a two-worker
// factorize_all hands each worker on large batches.
const std::size_t kTieredBlockSizes[] = {1, 2, 3, 8, 33, 128};

// Tiered codebook: `size` random rows (bipolar or ternary) over which a
// k-means clustering forms real buckets of uneven size.
Codebook tiered_codebook(std::size_t dim, std::size_t size, bool ternary,
                         Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    items.push_back(ternary ? random_ternary(dim, 0.5, rng)
                            : random_bipolar(dim, rng));
  }
  return Codebook(std::move(items));
}

// Mixed bipolar/ternary query pool for tiered scans: noisy cleanup hits
// (which probe their own bucket first), exact rows (every codebook row
// ties with its duplicates), clipped bundles, random queries of both
// alphabets, and the all-zero vector (every dot ties at 0).
std::vector<Hypervector> tiered_queries(const Codebook& cb, std::size_t n,
                                        Xoshiro256& rng) {
  std::vector<Hypervector> qs;
  qs.reserve(n);
  for (std::size_t i = 0; qs.size() < n; ++i) {
    const Hypervector& row = cb.item(rng.uniform(cb.size()));
    switch (i % 6) {
      case 0:
        qs.push_back(flip_noise(sign_bipolar(row), 0.2, rng));
        break;
      case 1:
        qs.push_back(row);
        break;
      case 2:
        qs.push_back(clip_ternary(
            bundle(row, random_bipolar(cb.dim(), rng))));
        break;
      case 3:
        qs.push_back(random_bipolar(cb.dim(), rng));
        break;
      case 4:
        qs.push_back(random_ternary(cb.dim(), 0.3, rng));
        break;
      default:
        qs.push_back(Hypervector(cb.dim()));
        break;
    }
  }
  return qs;
}

std::vector<PackedQuery> pack_all(const std::vector<Hypervector>& qs,
                                  SimdLevel level) {
  std::vector<PackedQuery> out;
  out.reserve(qs.size());
  for (const Hypervector& q : qs) {
    std::optional<PackedQuery> p = PackedQuery::pack(q, level);
    EXPECT_TRUE(p.has_value());
    out.push_back(std::move(*p));
  }
  return out;
}

// The probing configurations of the tiered differentials: fixed nprobe,
// and adaptive margin-rule probing between a floor and a ceiling.
struct TierShape {
  kernels::TieredConfig config;
  const char* name;
};
const TierShape kTierShapes[] = {
    {{.clusters = 12, .nprobe = 3}, "fixed"},
    {{.clusters = 12, .nprobe = 3, .nprobe_min = 1, .nprobe_max = 8},
     "adaptive"},
};

void expect_same_stats(const kernels::TieredItemMemory::ScanStats& ref,
                       const kernels::TieredItemMemory::ScanStats& got) {
  EXPECT_EQ(ref.centroid_dots, got.centroid_dots);
  EXPECT_EQ(ref.row_dots, got.row_dots);
  EXPECT_EQ(ref.probes, got.probes);
}

// best_block over `block` against per-query best(): index, similarity and
// every ScanStats field.
void expect_block_matches_best(const kernels::TieredItemMemory& tier,
                               const std::vector<PackedQuery>& block) {
  using Stats = kernels::TieredItemMemory::ScanStats;
  std::vector<Stats> stats(block.size());
  const std::vector<Match> got = tier.best_block(block, stats.data());
  ASSERT_EQ(got.size(), block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    Stats ref_stats;
    const Match ref = tier.best(block[i], &ref_stats);
    EXPECT_EQ(ref.index, got[i].index);
    EXPECT_EQ(ref.similarity, got[i].similarity);
    expect_same_stats(ref_stats, stats[i]);
  }
}

TEST(KernelFuzz, TieredBestBlockMatchesPerQueryBest) {
  using kernels::TieredItemMemory;
  Xoshiro256 rng(20261019);
  std::size_t round = 0;
  for (bool ternary : {false, true}) {
    for (const TierShape& shape : kTierShapes) {
      // Off-word dims exercise the tail masking of every kernel.
      const std::size_t dim = round++ % 2 == 0 ? 257 : 1000;
      const Codebook cb = tiered_codebook(dim, 240, ternary, rng);
      const std::vector<Hypervector> pool = tiered_queries(cb, 128, rng);
      for (SimdLevel level : available_levels()) {
        SCOPED_TRACE(std::string(ternary ? "ternary" : "bipolar") +
                     " rows, " + shape.name + ", dim=" + std::to_string(dim) +
                     ", " + kernels::to_string(level));
        const TieredItemMemory tier(cb, shape.config, level);
        ASSERT_FALSE(tier.exact());
        const std::vector<PackedQuery> packed = pack_all(pool, level);
        for (std::size_t q : kTieredBlockSizes) {
          SCOPED_TRACE("block=" + std::to_string(q));
          // A rotating window keeps each block's alphabet mix different.
          std::vector<PackedQuery> block;
          for (std::size_t i = 0; i < q; ++i) {
            block.push_back(packed[(i + q) % packed.size()]);
          }
          expect_block_matches_best(tier, block);
        }
        EXPECT_TRUE(tier.best_block({}).empty());
      }
    }
  }
}

TEST(KernelFuzz, TieredBestBlockFallsBackOnEmptyBuckets) {
  // A hand-built degenerate clustering: rows live in buckets 0 and 2,
  // buckets 1, 3 and 4 are empty. Queries equal to an empty bucket's
  // centroid probe nothing but empty rows with nprobe = 1 and must take the
  // exact fallback, charged as a full scan — per query, inside a block
  // whose other queries scan normally.
  using kernels::PackedItemMemory;
  using kernels::TieredItemMemory;
  Xoshiro256 rng(20261020);
  for (bool ternary : {false, true}) {
    const Codebook cb = tiered_codebook(200, 60, ternary, rng);
    const Codebook centroids_cb(200, 5, rng);
    for (SimdLevel level : available_levels()) {
      SCOPED_TRACE(std::string(ternary ? "ternary" : "bipolar") + ", " +
                   kernels::to_string(level));
      auto rows = std::make_shared<const PackedItemMemory>(cb, level);
      auto centroids =
          std::make_shared<const PackedItemMemory>(centroids_cb, level);
      // Bucket 0 holds the even rows below 50, bucket 2 every other row.
      std::vector<std::size_t> member, rest;
      for (std::size_t r = 0; r < cb.size(); ++r) {
        (r % 2 == 0 && r < 50 ? member : rest).push_back(r);
      }
      member.insert(member.end(), rest.begin(), rest.end());
      const TieredItemMemory tier(rows, centroids, 1, member,
                                  {0, 25, 25, 60, 60, 60});
      std::vector<Hypervector> qs;
      for (std::size_t c = 0; c < 5; ++c) qs.push_back(centroids_cb.item(c));
      for (const Hypervector& q : tiered_queries(cb, 9, rng)) qs.push_back(q);
      const std::vector<PackedQuery> block = pack_all(qs, level);
      expect_block_matches_best(tier, block);
      // The empty-bucket queries really did fall back.
      std::vector<TieredItemMemory::ScanStats> stats(block.size());
      (void)tier.best_block(block, stats.data());
      for (const std::size_t c : {1u, 3u, 4u}) {
        EXPECT_EQ(stats[c].row_dots, cb.size()) << "centroid " << c;
      }
    }
  }
}

// The stage 2 the bucket-ordered planes replaced, kept as the oracle: the
// probed buckets are the first `probes` centroids in match_order, and every
// member row is reached through member_rows() in the original-order row
// memory, one exact restricted-scan dot per row. Returns every candidate,
// sorted by match_order.
std::vector<Match> gather_candidates(const kernels::TieredItemMemory& tier,
                                     const PackedQuery& q,
                                     std::size_t probes) {
  const auto members = tier.member_rows();
  const auto begins = tier.cluster_begins();
  std::vector<std::size_t> rows;
  for (const Match& c : tier.centroid_memory().top_k(q, probes)) {
    rows.insert(rows.end(), members.begin() + begins[c.index],
                members.begin() + begins[c.index + 1]);
  }
  return tier.rows().above_among(q, -2.0, rows);
}

TEST(KernelFuzz, TieredContiguousScansMatchGatherOracle) {
  using kernels::TieredItemMemory;
  Xoshiro256 rng(20261021);
  for (bool ternary : {false, true}) {
    for (const TierShape& shape : kTierShapes) {
      const Codebook cb = tiered_codebook(ternary ? 320 : 190, 200, ternary,
                                          rng);
      const std::vector<Hypervector> qs = tiered_queries(cb, 24, rng);
      for (SimdLevel level : available_levels()) {
        SCOPED_TRACE(std::string(ternary ? "ternary" : "bipolar") + " rows, " +
                     shape.name + ", " + kernels::to_string(level));
        const TieredItemMemory tier(cb, shape.config, level);
        for (const PackedQuery& q : pack_all(qs, level)) {
          TieredItemMemory::ScanStats stats;
          const Match best = tier.best(q, &stats);
          const std::vector<Match> cand =
              gather_candidates(tier, q, stats.probes);
          ASSERT_FALSE(cand.empty());  // k-means leaves no bucket empty here
          EXPECT_EQ(stats.row_dots, cand.size());
          EXPECT_EQ(best.index, cand.front().index);
          EXPECT_EQ(best.similarity, cand.front().similarity);
          for (double th : {-2.0, 0.0, cand.front().similarity / 2.0}) {
            std::vector<Match> want;
            for (const Match& m : cand) {
              if (m.similarity > th) want.push_back(m);
            }
            expect_same_matches(want, tier.above(q, th));
          }
          for (std::size_t k : {std::size_t{1}, std::size_t{7},
                                cand.size() + 3}) {
            const std::vector<Match> want(
                cand.begin(),
                cand.begin() +
                    static_cast<std::ptrdiff_t>(std::min(k, cand.size())));
            expect_same_matches(want, tier.top_k(q, k));
          }
        }
      }
    }
  }
}

TEST(KernelFuzz, TieredBestBlockAtFullCoverageEqualsPacked) {
  // The verification bound through the block path: with nprobe = K the
  // bucket-major block scan is an exact scan, bit-identical to the packed
  // blocked and single-query scans at every tier.
  using kernels::PackedItemMemory;
  using kernels::TieredItemMemory;
  Xoshiro256 rng(20261022);
  for (bool ternary : {false, true}) {
    const Codebook cb = tiered_codebook(129, 90, ternary, rng);
    const std::vector<Hypervector> qs = tiered_queries(cb, 33, rng);
    for (SimdLevel level : available_levels()) {
      SCOPED_TRACE(std::string(ternary ? "ternary" : "bipolar") + ", " +
                   kernels::to_string(level));
      const PackedItemMemory ref(cb, level);
      const TieredItemMemory tier(cb, {.clusters = 7, .nprobe = 7}, level);
      ASSERT_TRUE(tier.exact());
      const std::vector<PackedQuery> block = pack_all(qs, level);
      const std::vector<Match> want = ref.best_block(block);
      const std::vector<Match> got = tier.best_block(block);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < block.size(); ++i) {
        const Match one = ref.best(block[i]);
        EXPECT_EQ(one.index, want[i].index) << "query " << i;
        EXPECT_EQ(want[i].index, got[i].index) << "query " << i;
        EXPECT_EQ(want[i].similarity, got[i].similarity) << "query " << i;
      }
    }
  }
}

TEST(KernelFuzz, ForcedUnavailableLevelThrows) {
  Xoshiro256 rng(7);
  const Codebook cb(128, 4, rng);
  const std::pair<ScanBackend, SimdLevel> forced[] = {
      {ScanBackend::kPackedWords, SimdLevel::kScalarWords},
      {ScanBackend::kPackedAVX2, SimdLevel::kAVX2},
      {ScanBackend::kPackedAVX512, SimdLevel::kAVX512},
      {ScanBackend::kPackedNEON, SimdLevel::kNEON},
  };
  for (const auto& [backend, level] : forced) {
    if (kernels::simd_level_available(level)) {
      const ItemMemory memory(cb, backend);
      EXPECT_EQ(memory.backend(), ScanBackend::kPacked);
      ASSERT_TRUE(memory.simd_level().has_value());
      EXPECT_EQ(*memory.simd_level(), level);
    } else {
      EXPECT_THROW(ItemMemory(cb, backend), std::invalid_argument)
          << kernels::to_string(level);
    }
  }
}

TEST(KernelFuzz, SimdLevelNamesRoundTrip) {
  for (SimdLevel l : {SimdLevel::kScalarWords, SimdLevel::kAVX2,
                      SimdLevel::kAVX512, SimdLevel::kNEON}) {
    const auto parsed = kernels::parse_simd_level(kernels::to_string(l));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, l);
  }
  EXPECT_EQ(kernels::parse_simd_level("words"), SimdLevel::kScalarWords);
  EXPECT_FALSE(kernels::parse_simd_level("auto").has_value());
  EXPECT_FALSE(kernels::parse_simd_level("sse9").has_value());
}

TEST(KernelFuzz, EnvClampSelectsOnlyAvailableLevels) {
  using kernels::clamp_simd_level;
  // Unset / auto / garbage keep the detected level.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, ""), SimdLevel::kAVX512);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "auto"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kNEON, "bogus"), SimdLevel::kNEON);
  // Scalar can always be requested.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, "scalar"),
            SimdLevel::kScalarWords);
  // Downgrade within the x86 family is honored; upgrades past the CPU and
  // cross-family requests fall back to the detected level.
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX512, "avx2"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "avx512"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kAVX2, "neon"), SimdLevel::kAVX2);
  EXPECT_EQ(clamp_simd_level(SimdLevel::kNEON, "avx2"), SimdLevel::kNEON);
  // The dispatched level is always executable on this CPU.
  EXPECT_TRUE(kernels::simd_level_available(kernels::dispatched_simd_level()));
}

// --- Pruned argmax: the slab axis ------------------------------------------
// PackedItemMemory::best / best_block prune with the slab bound on
// bipolar-layout memories. Every shape below must give exactly what the
// unpruned blocked scan gives: index, similarity and tie order.

// The unpruned blocked oracle: argmax over dots_block (one pass over every
// full row, no bound), first maximum wins.
std::vector<Match> unpruned_best(const kernels::PackedItemMemory& pm,
                                 std::span<const PackedQuery> block) {
  std::vector<std::int64_t> dots(block.size() * pm.size());
  pm.dots_block(block, dots);
  std::vector<Match> out;
  for (std::size_t q = 0; q < block.size(); ++q) {
    const std::int64_t* d = dots.data() + q * pm.size();
    std::size_t best = 0;
    for (std::size_t r = 1; r < pm.size(); ++r) {
      if (d[r] > d[best]) best = r;
    }
    out.push_back({best, static_cast<double>(d[best]) /
                             static_cast<double>(pm.dim())});
  }
  return out;
}

// `row` kept on a random support of density `keep`, zero elsewhere: the
// shape of an unbound Rep-1 query, which equals its true row wherever the
// other classes' clauses leave it nonzero.
Hypervector rep1_query(const Hypervector& row, double keep, Xoshiro256& rng) {
  Hypervector q(row.dim());
  for (std::size_t i = 0; i < row.dim(); ++i) {
    if (rng.uniform_double() < keep) q[i] = row[i];
  }
  return q;
}

// Negates the first `count` components of [begin, end) of `v` (all of them
// when `count` is 0).
Hypervector flip_range(Hypervector v, std::size_t begin, std::size_t end,
                       std::size_t count) {
  for (std::size_t i = begin, n = 0; i < end && (count == 0 || n < count);
       ++i, ++n) {
    v[i] = -v[i];
  }
  return v;
}

constexpr std::size_t kSlabDims = kernels::kSlabWords * kernels::kWordBits;
// Dims the pruned argmax's first step scores.
constexpr std::size_t kStepDims =
    kernels::kSlabStepWords * kernels::kWordBits;

// `q` with its support cut to `keep` nonzero dims inside the first step's
// dims, zero elsewhere there; past them it is unchanged.
Hypervector thin_first_step(Hypervector q, std::size_t keep) {
  for (std::size_t i = 0, n = 0; i < std::min(q.dim(), kStepDims); ++i) {
    if (q[i] != 0 && n++ >= keep) q[i] = 0;
  }
  return q;
}

// A bipolar codebook with duplicate rows and a planted tie: rows `low` <
// `high` have the same dot with `tie_query`, but the lower row's slab
// partial is smaller, so the descending-partial walk meets it second.
struct SlabCase {
  Codebook codebook;
  Hypervector tie_query;
  std::size_t low = 0;
  std::size_t high = 0;
};

SlabCase make_slab_case(std::size_t dim, std::size_t size, Xoshiro256& rng) {
  std::vector<Hypervector> rows;
  for (std::size_t i = 0; i < size; ++i) {
    // Every fourth row duplicates an earlier one.
    rows.push_back(i >= 4 && i % 4 == 0 ? rows[rng.uniform(i)]
                                        : random_bipolar(dim, rng));
  }
  SlabCase c{Codebook(std::vector<Hypervector>(rows)), random_bipolar(dim, rng),
             0, 0};
  if (size >= 2) {
    c.low = rng.uniform(size - 1);
    c.high = c.low + 1 + rng.uniform(size - 1 - c.low);
    const std::size_t slab = std::min(dim, kSlabDims);
    // Two flips inside the slab for the low row; two flips past it for the
    // high row when the rows are wider than one slab, else also inside.
    rows[c.low] = flip_range(c.tie_query, 0, slab, 2);
    rows[c.high] = dim > kSlabDims + 2
                       ? flip_range(c.tie_query, dim - 2, dim, 0)
                       : flip_range(c.tie_query, slab - 2, slab, 0);
    c.codebook = Codebook(std::move(rows));
  }
  return c;
}

// The slab-axis query pool over `cb`.
std::vector<Hypervector> slab_queries(const SlabCase& sc, Xoshiro256& rng) {
  const Codebook& cb = sc.codebook;
  const std::size_t dim = cb.dim();
  std::vector<Hypervector> qs;
  const auto row = [&] { return cb.item(rng.uniform(cb.size())); };
  qs.push_back(rep1_query(row(), 0.125, rng));       // unbound Rep-1
  qs.push_back(rep1_query(row(), 0.5, rng));         // denser clause mask
  qs.push_back(flip_noise(row(), 0.05, rng));        // bipolar, high sim
  qs.push_back(row());                               // exact hit
  qs.push_back(random_bipolar(dim, rng));            // noise: fallback
  qs.push_back(random_ternary(dim, 0.5, rng));       // ternary noise
  qs.push_back(Hypervector(dim));                    // all zero: row 0
  Hypervector late = rep1_query(row(), 0.25, rng);   // empty first slab
  for (std::size_t i = 0; i < std::min(dim, kSlabDims); ++i) late[i] = 0;
  qs.push_back(std::move(late));
  // No support past the first slab, on row 4, which (size >= 5) duplicates
  // an earlier row: the top partial repeats and the lower row must win.
  Hypervector early =
      rep1_query(cb.item(std::min<std::size_t>(4, cb.size() - 1)), 0.25, rng);
  for (std::size_t i = kSlabDims; i < dim; ++i) early[i] = 0;
  qs.push_back(std::move(early));
  // Dense and high-similarity with one zero dim, so ternary: step one's
  // 128 dims cannot separate it, and it escalates to the full slab (step
  // two) and prunes there. (The bipolar 5%-flip query above takes step two
  // alone.)
  Hypervector dense = flip_noise(row(), 0.05, rng);
  dense[dim - 1] = 0;
  qs.push_back(std::move(dense));
  // Rep-1 with no support in the first step's dims: every step-one partial
  // is 0, so the first step keeps every row.
  qs.push_back(thin_first_step(rep1_query(row(), 0.125, rng), 0));
  // Rep-1 with 2 nonzero dims there: about size() / 4 rows tie at the top
  // step-one partial, past the first step's cap.
  qs.push_back(thin_first_step(rep1_query(row(), 0.125, rng), 2));
  qs.push_back(sc.tie_query);                        // tie below the seed
  return qs;
}

TEST(KernelFuzz, PrunedArgmaxMatchesUnprunedOracleOnEveryLevel) {
  Xoshiro256 rng(20261020);
  // 63, 65 and 100 hold at most two words, so the first step scores the
  // whole slab; 129 is one dim past the first step.
  for (std::size_t dim :
       {std::size_t{63}, std::size_t{65}, std::size_t{100}, std::size_t{129},
        std::size_t{513}, std::size_t{1000}, std::size_t{2048}}) {
    // Fewer rows than one query group, one chunk, two chunks, and three
    // chunks with a ragged last one.
    for (std::size_t size : {std::size_t{5}, std::size_t{40},
                             std::size_t{300}, std::size_t{700}}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " size=" + std::to_string(size));
      const SlabCase sc = make_slab_case(dim, size, rng);
      const std::vector<Hypervector> pool = slab_queries(sc, rng);
      // Blocks of one group, of more than one group, and a ragged tail.
      std::vector<Hypervector> qs;
      for (std::size_t i = 0; i < 37; ++i) qs.push_back(pool[i % pool.size()]);
      const ItemMemory scalar(sc.codebook, ScanBackend::kScalar);
      for (SimdLevel level : available_levels()) {
        SCOPED_TRACE(kernels::to_string(level));
        const kernels::PackedItemMemory pm(sc.codebook, level);
        ASSERT_EQ(pm.layout(), kernels::PackedItemMemory::Layout::kBipolar);
        const std::vector<PackedQuery> block = pack_all(qs, level);
        const std::vector<Match> want = unpruned_best(pm, block);
        const std::vector<Match> got = pm.best_block(block);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < block.size(); ++i) {
          SCOPED_TRACE("query " + std::to_string(i % pool.size()));
          EXPECT_EQ(want[i].index, got[i].index);
          EXPECT_EQ(want[i].similarity, got[i].similarity);
          const Match one = pm.best(block[i]);
          EXPECT_EQ(want[i].index, one.index);
          EXPECT_EQ(want[i].similarity, one.similarity);
          const Match ref = scalar.best(qs[i]);
          EXPECT_EQ(ref.index, got[i].index);
          EXPECT_EQ(ref.similarity, got[i].similarity);
        }
        // The planted tie resolves to the lower row; the zero query to row 0.
        const std::size_t tie = pool.size() - 1;
        if (size >= 2) {
          EXPECT_EQ(got[tie].index, sc.low);
        }
        EXPECT_EQ(got[6].index, 0u);
        EXPECT_EQ(got[6].similarity, 0.0);
      }
    }
  }
}

TEST(KernelFuzz, PrunedWalkStopsAtTheBound) {
  // The walk's stop inside a candidate list, in each step: row `top` has
  // the highest partial but a poor full dot, row `win` the best dot, and
  // row `cut` a partial just too low to reach `win` once it is scored.
  // The query is bipolar but for its last dim, so it takes step one. With
  // the rows planted over the full slab, the first step's walk meets too
  // many noise rows after `top` and the query goes on to step two, which
  // stops in its list; planted over the first step's dims, the first
  // step's own walk stops in its list.
  Xoshiro256 rng(20261025);
  for (std::size_t dim : {std::size_t{1000}, std::size_t{2048}}) {
    for (std::size_t scored : {kSlabDims, kStepDims}) {
      Hypervector q = random_bipolar(dim, rng);
      q[dim - 1] = 0;  // support S = D - 1
      std::vector<Hypervector> rows;
      for (std::size_t i = 0; i < 64; ++i) {
        rows.push_back(random_bipolar(dim, rng));
      }
      // Rows equal q's signs; the last dim, where q is zero, stays +1.
      const auto planted = [&](std::size_t begin, std::size_t end,
                               std::size_t count) {
        Hypervector r = flip_range(q, begin, end, count);
        r[dim - 1] = 1;
        return r;
      };
      const std::size_t top = 40, win = 41, cut = 7;
      // Over the first step's dims, `top`'s dot leaves a cut of
      // 128 - 2 * 30 = 68 that no noise row's 128-dim partial reaches.
      const bool slab = scored == kSlabDims;
      rows[top] = planted(scored, dim, slab ? 60 : 30);  // S-120, S-60
      rows[win] = planted(0, scored, 2);                 // dot S-4
      rows[cut] = slab ? flip_range(planted(0, scored, 4), scored, dim,
                                    30)                  // dot S-68
                       : planted(0, scored, 4);          // dot S-8
      const Codebook cb(std::move(rows));
      for (SimdLevel level : available_levels()) {
        SCOPED_TRACE("dim=" + std::to_string(dim) + " scored=" +
                     std::to_string(scored) + " " + kernels::to_string(level));
        const kernels::PackedItemMemory pm(cb, level);
        const std::vector<PackedQuery> block = pack_all({q}, level);
        ASSERT_FALSE(block[0].bipolar);
        const Match got = pm.best(block[0]);
        EXPECT_EQ(got.index, win);
        EXPECT_EQ(got.index, unpruned_best(pm, block)[0].index);
        EXPECT_EQ(got.similarity,
                  static_cast<double>(dim - 5) / static_cast<double>(dim));
      }
    }
  }
}

TEST(KernelFuzz, PrunedItemMemoryKeepsScanAccountingAndScalarRoute) {
  // Through ItemMemory: every forced tier returns the scalar backend's
  // answer with scanned == size() per query (the paper's
  // similarity-measurement unit does not shrink with the bound), and an
  // integer bundle — which does not pack — still takes the scalar loop.
  Xoshiro256 rng(20261021);
  const SlabCase sc = make_slab_case(1000, 70, rng);
  std::vector<Hypervector> qs = slab_queries(sc, rng);
  const Hypervector bundle3 = bundle(
      bundle(sc.codebook.item(3), sc.codebook.item(9)), sc.codebook.item(11));
  ASSERT_FALSE(PackedQuery::pack(bundle3).has_value());
  qs.push_back(bundle3);
  const ItemMemory scalar(sc.codebook, ScanBackend::kScalar);
  for (ScanBackend backend : packed_backends()) {
    SCOPED_TRACE(backend_name(backend));
    const ItemMemory packed(sc.codebook, backend);
    std::vector<std::uint64_t> scanned(qs.size(), 0);
    const std::vector<Match> got =
        packed.best_block(qs, ScanMode::kDefault, scanned.data());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      std::uint64_t one = 0;
      const Match ref = scalar.best(qs[i], ScanMode::kDefault, &one);
      EXPECT_EQ(ref.index, got[i].index) << "query " << i;
      EXPECT_EQ(ref.similarity, got[i].similarity) << "query " << i;
      EXPECT_EQ(scanned[i], sc.codebook.size()) << "query " << i;
      EXPECT_EQ(one, sc.codebook.size()) << "query " << i;
    }
  }
}

TEST(KernelFuzz, SlabKernelMatchesScalarOnEveryLevel) {
  // QueryBlockKernels::slab_rows at every tier against the scalar loop and
  // against DotKernels over the same words: every word count the kernel
  // takes (1 .. kSlabWords, including the first step's kSlabStepWords),
  // full and partial row blocks, query counts straddling the AVX-512
  // 16-query group.
  Xoshiro256 rng(20261023);
  const SimdLevel ref_level = SimdLevel::kScalarWords;
  constexpr std::size_t lanes = kernels::kSlabLanes;
  constexpr std::size_t slab_words = kernels::kSlabWords;
  for (std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{256}}) {
    const std::size_t blocks = (count + lanes - 1) / lanes;
    std::vector<std::uint64_t> slab(blocks * lanes * slab_words);
    for (std::uint64_t& w : slab) w = rng();
    for (std::size_t nq : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
      std::vector<std::uint64_t> nz(nq * slab_words);
      std::vector<std::uint64_t> sg(nq * slab_words);
      for (std::size_t i = 0; i < nz.size(); ++i) {
        nz[i] = i % 3 == 0 ? ~0ULL : rng() & rng();  // bipolar and sparse
        sg[i] = rng();
      }
      for (std::size_t words = 1; words <= slab_words; ++words) {
        SCOPED_TRACE("count=" + std::to_string(count) + " nq=" +
                     std::to_string(nq) + " words=" + std::to_string(words));
        std::vector<std::int16_t> want(nq * count), want_max(nq);
        kernels::query_block_kernels(ref_level)
            .slab_rows(nz.data(), sg.data(), nq, slab.data(), count, words,
                       want.data(), count, want_max.data());
        for (std::size_t q = 0; q < nq; ++q) {
          std::int16_t m = INT16_MIN;
          for (std::size_t i = 0; i < count; ++i) {
            // Row i's word w: block i / lanes, word-major, lane i % lanes.
            std::uint64_t row[slab_words];
            for (std::size_t w = 0; w < words; ++w) {
              row[w] = slab[(i / lanes) * lanes * slab_words + w * lanes +
                            i % lanes];
            }
            const std::int64_t d = kernels::dot_bipolar_ternary(
                row, &nz[q * slab_words], &sg[q * slab_words], words);
            EXPECT_EQ(d, want[q * count + i]);
            m = std::max<std::int16_t>(m, static_cast<std::int16_t>(d));
          }
          EXPECT_EQ(m, want_max[q]);
        }
        for (SimdLevel level : available_levels()) {
          SCOPED_TRACE(kernels::to_string(level));
          // Padded output stride: each query writes only its own row span.
          const std::size_t stride = count + 5;
          std::vector<std::int16_t> got(nq * stride, 12345), got_max(nq);
          kernels::query_block_kernels(level).slab_rows(
              nz.data(), sg.data(), nq, slab.data(), count, words, got.data(),
              stride, got_max.data());
          for (std::size_t q = 0; q < nq; ++q) {
            for (std::size_t i = 0; i < count; ++i) {
              EXPECT_EQ(want[q * count + i], got[q * stride + i]);
            }
            for (std::size_t i = count; i < stride; ++i) {
              EXPECT_EQ(got[q * stride + i], 12345);
            }
            EXPECT_EQ(want_max[q], got_max[q]);
          }
        }
      }
    }
  }
}

TEST(KernelFuzz, PartialArgmaxFindsTheFirstMaximumOnEveryLevel) {
  // QueryBlockKernels::partial_argmax, the fallback's merge of slab
  // partials with suffix dots: the maximum of partial + suffix and its
  // lowest index, at counts straddling every vector width and unroll, with
  // narrow value ranges so the maximum repeats, and with a planted unique
  // maximum at the first and the last index.
  Xoshiro256 rng(20261024);
  for (std::size_t count :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{255}, std::size_t{256}}) {
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("count=" + std::to_string(count) +
                   " shape=" + std::to_string(shape));
      std::vector<std::int16_t> partial(count);
      std::vector<std::int64_t> suffix(count);
      const std::uint64_t span = shape == 0 ? 1 : 7;  // shape 0: all equal
      for (std::size_t i = 0; i < count; ++i) {
        partial[i] = static_cast<std::int16_t>(rng.uniform(span)) - 512;
        suffix[i] = static_cast<std::int64_t>(rng.uniform(span)) - 3000;
      }
      if (shape == 2) suffix.front() += 100;
      if (shape == 3) suffix.back() += 100;
      std::int64_t want = INT64_MIN;
      std::size_t want_at = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (partial[i] + suffix[i] > want) {
          want = partial[i] + suffix[i];
          want_at = i;
        }
      }
      for (SimdLevel level : available_levels()) {
        SCOPED_TRACE(kernels::to_string(level));
        std::int64_t got = 0;
        std::size_t got_at = count;
        kernels::query_block_kernels(level).partial_argmax(
            partial.data(), suffix.data(), count, &got, &got_at);
        EXPECT_EQ(want, got);
        EXPECT_EQ(want_at, got_at);
      }
    }
  }
}

TEST(PrunedScanThreads, ThreadedPrunedArgmaxMatchesOracle) {
  // A memory large enough that best / best_block split the slab pass and
  // the fallback pass across the scan pool (at or above the SIMD tiers'
  // parallel-scan threshold of 2^20 plane words) on a thread that is not a
  // batch worker. Planes are adopted directly so the test never holds an
  // int32 codebook of this size.
  Xoshiro256 rng(20261024);
  const std::size_t dim = 4096;
  const std::size_t words = kernels::plane_words(dim);
  const std::size_t size = (std::size_t{1} << 20) / words;
  auto planes = std::make_shared<std::vector<std::uint64_t>>(size * words);
  for (std::uint64_t& w : *planes) w = rng();
  // Duplicate a few rows so ties occur across the pool's row blocks.
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t from = rng.uniform(size / 2);
    const std::size_t to = size / 2 + rng.uniform(size / 2);
    std::copy_n(planes->data() + from * words, words,
                planes->data() + to * words);
  }
  const auto row_hv = [&](std::size_t row) {
    Hypervector v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = ((*planes)[row * words + i / 64] >> (i % 64)) & 1 ? 1 : -1;
    }
    return v;
  };
  std::vector<Hypervector> qs;
  for (std::size_t i = 0; i < 6; ++i) {
    qs.push_back(rep1_query(row_hv(rng.uniform(size)), 0.125, rng));
  }
  qs.push_back(random_bipolar(dim, rng));     // noise: threaded fallback
  qs.push_back(random_ternary(dim, 0.5, rng));
  qs.push_back(Hypervector(dim));
  qs.push_back(flip_noise(row_hv(rng.uniform(size)), 0.2, rng));
  // Dense queries that take the threaded step two and prune there (the
  // bipolar ones alone, the ternary ones after step one), and Rep-1
  // queries whose first step keeps too many rows.
  for (std::size_t i = 0; i < 3; ++i) {
    qs.push_back(flip_noise(row_hv(rng.uniform(size)), 0.05, rng));
    Hypervector dense = flip_noise(row_hv(rng.uniform(size)), 0.05, rng);
    dense[dim - 1] = 0;
    qs.push_back(std::move(dense));
    qs.push_back(
        thin_first_step(rep1_query(row_hv(rng.uniform(size)), 0.125, rng), i));
  }
  // A second noise query in the block, so the fallback merges two.
  qs.push_back(random_bipolar(dim, rng));
  // The same planes as the sign plane of a ternary layout (nonzero plane
  // random), which keeps the plain threaded argmax.
  auto nonzero = std::make_shared<std::vector<std::uint64_t>>(size * words);
  for (std::uint64_t& w : *nonzero) w = rng() | rng();
  std::vector<std::uint64_t> ternary_sign(*planes);
  for (std::size_t i = 0; i < ternary_sign.size(); ++i) {
    ternary_sign[i] &= (*nonzero)[i];  // canonical: sign only where nonzero
  }
  for (SimdLevel level : available_levels()) {
    SCOPED_TRACE(kernels::to_string(level));
    const kernels::PackedItemMemory pm(
        kernels::PackedItemMemory::Layout::kBipolar, dim, size,
        planes->data(), nullptr, planes, level);
    const std::vector<PackedQuery> block = pack_all(qs, level);
    const std::vector<Match> want = unpruned_best(pm, block);
    const std::vector<Match> got = pm.best_block(block);
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(want[i].index, got[i].index) << "query " << i;
      EXPECT_EQ(want[i].similarity, got[i].similarity) << "query " << i;
      const Match one = pm.best(block[i]);
      EXPECT_EQ(want[i].index, one.index) << "query " << i;
    }
    const kernels::PackedItemMemory ternary(
        kernels::PackedItemMemory::Layout::kTernary, dim, size,
        ternary_sign.data(), nonzero->data(), nonzero, level);
    const std::vector<Match> want_t = unpruned_best(ternary, block);
    for (std::size_t i = 0; i < block.size(); ++i) {
      const Match one = ternary.best(block[i]);
      EXPECT_EQ(want_t[i].index, one.index) << "ternary query " << i;
      EXPECT_EQ(want_t[i].similarity, one.similarity) << "ternary query " << i;
    }
  }
}

}  // namespace
