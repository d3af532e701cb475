// TieredItemMemory: the two-stage (coarse-then-exact) scan index.
//
// Covers the ISSUE 5 contract from both sides:
//  * quality — a seeded recall regression: at the default auto
//    configuration, noisy cleanup queries over a 4096-row codebook must
//    find the exact argmax with recall@1 >= 0.99 while scanning a fraction
//    of the rows;
//  * exactness — nprobe >= clusters is bit-identical to the scalar backend
//    on every scan surface, ScanMode::kExact bypasses the tier per call,
//    kAuto only tiers above the FACTORHD_TIERED_MIN_ROWS threshold, and
//    the Factorizer's multi-object loop re-scans stalled rounds exactly
//    (so convergence is never an approximation artifact);
//  * concurrency — the bucket-major best_block on one shared tier from
//    several threads (run under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/random.hpp"
#include "taxonomy/codebooks.hpp"
#include "taxonomy/generator.hpp"
#include "taxonomy/object.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::TieredConfig;
using kernels::TieredItemMemory;

/// Scoped environment override; restores the previous value on destruction
/// (the tiered knobs are read per call, never cached, precisely so tests
/// and operators can retune without process restarts).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) previous_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

void expect_same_matches(const std::vector<Match>& ref,
                         const std::vector<Match>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].index, got[i].index) << "position " << i;
    EXPECT_EQ(ref[i].similarity, got[i].similarity) << "position " << i;
  }
}

TEST(TieredMemory, SeededRecallRegressionAtDefaultConfig) {
  // Fixed codebook, fixed noise: this is a regression bound, not a
  // statistical test — any change to the build or probe logic that drops
  // recall below 0.99 at the default configuration fails deterministically.
  // D/bucket-size sized like the BENCH_scale.json operating points (the
  // coarse-centroid signal scales with sqrt(D / bucket rows); D = 1024
  // at this M measures ~0.98 — below the regime this index is for).
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kDim = 2048;
  constexpr std::size_t kQueries = 300;
  Xoshiro256 rng(20260728);
  const Codebook cb(kDim, kRows, rng);
  const TieredItemMemory tiered(cb);
  EXPECT_EQ(tiered.clusters(), 4 * 64u);  // auto: 4 * ceil(sqrt(4096))
  EXPECT_EQ(tiered.nprobe(), tiered.clusters() / 16);
  EXPECT_FALSE(tiered.exact());

  const ItemMemory scalar(cb, ScanBackend::kScalar);
  std::size_t hits = 0;
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const Hypervector q = flip_noise(cb.item(rng.uniform(kRows)), 0.05, rng);
    TieredItemMemory::ScanStats stats;
    const Match got = tiered.best(q, &stats);
    const Match ref = scalar.best(q);
    hits += got.index == ref.index ? 1 : 0;
    ops += stats.centroid_dots + stats.row_dots;
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(kQueries);
  EXPECT_GE(recall, 0.99) << hits << "/" << kQueries;
  // The point of the tier: a query must touch far fewer rows than M.
  EXPECT_LT(ops / kQueries, kRows / 4);
}

TEST(TieredMemory, NprobeAllBitIdenticalToScalarBackend) {
  Xoshiro256 rng(99);
  for (const std::size_t dim : {std::size_t{63}, std::size_t{257}}) {
    const Codebook cb(dim, 50, rng);
    const ItemMemory scalar(cb, ScanBackend::kScalar);
    // 7 buckets, all probed: exact coverage through the tiered path.
    const TieredItemMemory tiered(cb, {.clusters = 7, .nprobe = 7});
    EXPECT_TRUE(tiered.exact());
    const std::vector<Hypervector> queries = {
        random_bipolar(dim, rng), random_ternary(dim, 0.5, rng),
        cb.item(rng.uniform(cb.size())), Hypervector(dim)};
    for (const Hypervector& q : queries) {
      const Match ref = scalar.best(q);
      const Match got = tiered.best(q);
      EXPECT_EQ(ref.index, got.index);
      EXPECT_EQ(ref.similarity, got.similarity);
      expect_same_matches(scalar.above(q, ref.similarity / 2.0),
                          tiered.above(q, ref.similarity / 2.0));
      expect_same_matches(scalar.top_k(q, 9), tiered.top_k(q, 9));
    }
  }
}

TEST(TieredMemory, ItemMemoryTieredBackendExactCoverage) {
  Xoshiro256 rng(7);
  const Codebook cb(128, 40, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory tiered(cb, ScanBackend::kTiered,
                          TieredConfig{.clusters = 5, .nprobe = 40});
  EXPECT_EQ(tiered.backend(), ScanBackend::kTiered);
  ASSERT_NE(tiered.tiered(), nullptr);
  EXPECT_TRUE(tiered.tiered()->exact());
  for (const Hypervector& q :
       {random_bipolar(128, rng), random_ternary(128, 0.4, rng)}) {
    const Match ref = scalar.best(q);
    const Match got = tiered.best(q);
    EXPECT_EQ(ref.index, got.index);
    EXPECT_EQ(ref.similarity, got.similarity);
    expect_same_matches(scalar.above(q, 0.0), tiered.above(q, 0.0));
    expect_same_matches(scalar.top_k(q, 11), tiered.top_k(q, 11));
    // The index-restricted scans and dots are exact on every backend.
    const std::vector<std::size_t> subset{3, 1, 17, 3};
    const Match ra = scalar.best_among(q, subset);
    const Match ga = tiered.best_among(q, subset);
    EXPECT_EQ(ra.index, ga.index);
    EXPECT_EQ(ra.similarity, ga.similarity);
    std::vector<std::int64_t> rd(cb.size()), gd(cb.size());
    scalar.dots(q, rd);
    tiered.dots(q, gd);
    EXPECT_EQ(rd, gd);
  }
}

TEST(TieredMemory, ScanModeExactOverrideAndOpsAccounting) {
  Xoshiro256 rng(3);
  const Codebook cb(256, 64, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  // Deliberately bad approximation (one probed bucket of many) so the
  // override is observable.
  const ItemMemory tiered(cb, ScanBackend::kTiered,
                          TieredConfig{.clusters = 16, .nprobe = 1});
  for (int i = 0; i < 20; ++i) {
    const Hypervector q = flip_noise(cb.item(rng.uniform(64)), 0.1, rng);
    std::uint64_t scanned_exact = 0;
    const Match ref = scalar.best(q);
    const Match exact = tiered.best(q, ScanMode::kExact, &scanned_exact);
    EXPECT_EQ(ref.index, exact.index);
    EXPECT_EQ(ref.similarity, exact.similarity);
    EXPECT_EQ(scanned_exact, cb.size());
    std::uint64_t scanned_tiered = 0;
    (void)tiered.best(q, ScanMode::kDefault, &scanned_tiered);
    EXPECT_LT(scanned_tiered, cb.size());  // centroids + 1 bucket < M
    expect_same_matches(scalar.above(q, 0.1, ScanMode::kExact),
                        tiered.above(q, 0.1, ScanMode::kExact));
    expect_same_matches(scalar.top_k(q, 5),
                        tiered.top_k(q, 5, ScanMode::kExact));
  }
}

TEST(TieredMemory, AutoBackendTiersOnlyAboveRowThreshold) {
  Xoshiro256 rng(11);
  const Codebook small(64, 32, rng);
  EXPECT_EQ(ItemMemory(small).backend(), ScanBackend::kPacked);
  {
    ScopedEnv min_rows("FACTORHD_TIERED_MIN_ROWS", "16");
    EXPECT_EQ(ItemMemory(small).backend(), ScanBackend::kTiered);
    // FACTORHD_TIERED_CLUSTERS/NPROBE shape the auto-built index.
    ScopedEnv clusters("FACTORHD_TIERED_CLUSTERS", "4");
    ScopedEnv nprobe("FACTORHD_TIERED_NPROBE", "2");
    const ItemMemory mem(small);
    ASSERT_NE(mem.tiered(), nullptr);
    EXPECT_EQ(mem.tiered()->clusters(), 4u);
    EXPECT_EQ(mem.tiered()->nprobe(), 2u);
  }
  {
    ScopedEnv off("FACTORHD_TIERED_MIN_ROWS", "0");
    EXPECT_EQ(ItemMemory(small).backend(), ScanBackend::kPacked);
  }
  // An explicit config forces the tier regardless of the threshold.
  EXPECT_EQ(ItemMemory(small, ScanBackend::kAuto,
                       TieredConfig{.clusters = 3, .nprobe = 3})
                .backend(),
            ScanBackend::kTiered);
}

TEST(TieredMemory, ConstructionErrors) {
  Xoshiro256 rng(5);
  const Codebook cb(64, 8, rng);
  EXPECT_THROW(ItemMemory(cb, ScanBackend::kScalar, TieredConfig{}),
               std::invalid_argument);
  EXPECT_THROW(ItemMemory(cb, ScanBackend::kPacked, TieredConfig{}),
               std::invalid_argument);
  EXPECT_THROW(TieredItemMemory(nullptr, TieredConfig{}),
               std::invalid_argument);
  // Integer (non-packable) codebooks cannot tier.
  Hypervector bundle_like(64);
  bundle_like[5] = 3;
  const Codebook unpackable({bundle_like});
  EXPECT_THROW(ItemMemory(unpackable, ScanBackend::kTiered),
               std::invalid_argument);
  // kAuto + an explicit config promises a tier: never dropped silently.
  EXPECT_THROW(ItemMemory(unpackable, ScanBackend::kAuto,
                          TieredConfig{.clusters = 1, .nprobe = 1}),
               std::invalid_argument);
  // Plain kAuto still degrades gracefully to the scalar backend.
  EXPECT_EQ(ItemMemory(unpackable).backend(), ScanBackend::kScalar);
  // Dimension mismatches surface as invalid_argument, like every backend.
  const TieredItemMemory tiered(cb, {.clusters = 2, .nprobe = 2});
  EXPECT_THROW((void)tiered.best(random_bipolar(63, rng)),
               std::invalid_argument);
}

TEST(TieredMemory, FactorizerExactScanOptionMatchesScalarBitForBit) {
  // Auto-tier every level-1 codebook (threshold lowered via env), then
  // check the per-call accuracy override: exact_scan=true must reproduce
  // the scalar-backend factorization exactly, counters included.
  ScopedEnv min_rows("FACTORHD_TIERED_MIN_ROWS", "32");
  ScopedEnv nprobe("FACTORHD_TIERED_NPROBE", "1");
  Xoshiro256 rng(123);
  const tax::Taxonomy taxonomy(3, {64});
  const tax::TaxonomyCodebooks books(taxonomy, 2048, rng);
  const core::Encoder encoder(books);
  const core::Factorizer tiered(encoder);
  const core::Factorizer scalar(encoder, ScanBackend::kScalar);
  ASSERT_TRUE(tiered.tiered());
  EXPECT_EQ(tiered.scan_backend(), ScanBackend::kTiered);

  core::FactorizeOptions exact;
  exact.exact_scan = true;
  core::FactorizeOptions exact_multi = exact;
  exact_multi.multi_object = true;
  exact_multi.num_objects_hint = 2;
  for (int i = 0; i < 5; ++i) {
    const tax::Object obj = tax::random_object(taxonomy, rng);
    const Hypervector single = encoder.encode_object(obj);
    EXPECT_EQ(tiered.factorize(single, exact), scalar.factorize(single, exact));

    const tax::Scene scene = tax::random_scene(
        taxonomy, rng, {.num_objects = 2, .object = {},
                        .allow_duplicates = false});
    const Hypervector multi = encoder.encode_scene(scene);
    const core::FactorizeResult a = tiered.factorize(multi, exact_multi);
    const core::FactorizeResult b = scalar.factorize(multi, exact_multi);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.exact_rescans, 0u);
  }
}

TEST(TieredMemory, FactorizerRescansStalledRoundsExactly) {
  // nprobe=1 over many buckets makes tiered candidate collection miss
  // almost everything; the stall-triggered exact re-scan must still
  // recover the scene and record that it fired.
  ScopedEnv min_rows("FACTORHD_TIERED_MIN_ROWS", "32");
  ScopedEnv nprobe("FACTORHD_TIERED_NPROBE", "1");
  Xoshiro256 rng(4242);
  const tax::Taxonomy taxonomy(3, {64});
  const tax::TaxonomyCodebooks books(taxonomy, 2048, rng);
  const core::Encoder encoder(books);
  const core::Factorizer factorizer(encoder);
  ASSERT_TRUE(factorizer.tiered());

  core::FactorizeOptions opts;
  opts.multi_object = true;
  opts.num_objects_hint = 2;
  std::uint64_t total_rescans = 0;
  for (int i = 0; i < 5; ++i) {
    const tax::Scene scene = tax::random_scene(
        taxonomy, rng, {.num_objects = 2, .object = {},
                        .allow_duplicates = false});
    const Hypervector target = encoder.encode_scene(scene);
    const core::FactorizeResult result = factorizer.factorize(target, opts);
    EXPECT_TRUE(result.converged);
    tax::Scene recovered;
    for (const auto& o : result.objects) {
      recovered.push_back(o.to_object(taxonomy.num_classes()));
    }
    EXPECT_TRUE(tax::same_multiset(recovered, scene)) << "trial " << i;
    total_rescans += result.exact_rescans;
  }
  EXPECT_GT(total_rescans, 0u);
}

TEST(TieredMemory, TieredKnobsRegistered) {
  bool clusters = false, min_rows = false, nprobe = false;
  for (const util::EnvKnob& k : util::env_knobs()) {
    const std::string name = k.name;
    clusters |= name == "FACTORHD_TIERED_CLUSTERS";
    min_rows |= name == "FACTORHD_TIERED_MIN_ROWS";
    nprobe |= name == "FACTORHD_TIERED_NPROBE";
  }
  EXPECT_TRUE(clusters && min_rows && nprobe);
}

TEST(TieredBlockConcurrency, SharedTierServesFourThreadsBitIdentically) {
  // Four threads run best_block on one shared tier — two through the
  // TieredItemMemory surface, two through an ItemMemory that routes its
  // default-mode blocks there — and every answer and every per-query count
  // must equal the single-threaded reference. The tier is immutable after
  // construction, so this is also the data-race check for the
  // bucket-ordered planes and the per-call scratch.
  using kernels::PackedQuery;
  Xoshiro256 rng(20261019);
  const Codebook cb(512, 1500, rng);
  const TieredConfig config{.clusters = 24, .nprobe = 4};
  const TieredItemMemory tier(cb, config);
  const ItemMemory memory(cb, ScanBackend::kTiered, config);
  std::vector<Hypervector> queries;
  std::vector<PackedQuery> packed;
  for (std::size_t i = 0; i < 48; ++i) {
    queries.push_back(i % 3 == 2 ? random_ternary(cb.dim(), 0.4, rng)
                                 : flip_noise(cb.item(rng.uniform(cb.size())),
                                              0.2, rng));
    packed.push_back(*PackedQuery::pack(queries.back()));
  }
  std::vector<TieredItemMemory::ScanStats> ref_stats(packed.size());
  const std::vector<Match> ref = tier.best_block(packed, ref_stats.data());

  std::atomic<std::size_t> mismatches{0};
  const auto tier_worker = [&] {
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<TieredItemMemory::ScanStats> stats(packed.size());
      const std::vector<Match> got = tier.best_block(packed, stats.data());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].index != ref[i].index ||
            got[i].similarity != ref[i].similarity ||
            stats[i].row_dots != ref_stats[i].row_dots ||
            stats[i].probes != ref_stats[i].probes) {
          ++mismatches;
        }
      }
    }
  };
  const auto memory_worker = [&] {
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<std::uint64_t> scanned(queries.size());
      std::vector<std::uint64_t> probes(queries.size());
      const std::vector<Match> got = memory.best_block(
          queries, ScanMode::kDefault, scanned.data(), probes.data());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].index != ref[i].index ||
            scanned[i] != ref_stats[i].centroid_dots + ref_stats[i].row_dots ||
            probes[i] != ref_stats[i].probes) {
          ++mismatches;
        }
      }
    }
  };
  const std::uint64_t ops_before = memory.similarity_ops();
  std::vector<std::thread> pool;
  pool.emplace_back(tier_worker);
  pool.emplace_back(memory_worker);
  pool.emplace_back(tier_worker);
  pool.emplace_back(memory_worker);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  std::uint64_t per_pass = 0;
  for (const auto& st : ref_stats) per_pass += st.centroid_dots + st.row_dots;
  EXPECT_EQ(memory.similarity_ops() - ops_before, 2 * 3 * per_pass);
}

}  // namespace
