// Kernel/scalar equivalence suite: hdc::ItemMemory on the packed word-plane
// backend must return bit-identical results (index, similarity, ordering) to
// the scalar backend, for bipolar and ternary codebooks, at dimensions that
// are and are not multiples of 64, including tie and empty-result cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"
#include "hdc/similarity.hpp"
#include "taxonomy/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedItemMemory;
using kernels::PackedQuery;

// Dimensions straddling the 64-bit word boundary plus a larger odd size.
const std::size_t kDims[] = {63, 64, 65, 1000};

Codebook make_bipolar_codebook(std::size_t dim, std::size_t size,
                               Xoshiro256& rng) {
  return Codebook(dim, size, rng);
}

Codebook make_ternary_codebook(std::size_t dim, std::size_t size,
                               Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(size);
  for (std::size_t j = 0; j < size; ++j) {
    items.push_back(random_ternary(dim, 0.4, rng));
  }
  return Codebook(std::move(items));
}

// Queries covering every packed-eligible alphabet plus the scalar fallback.
std::vector<Hypervector> make_queries(std::size_t dim, Xoshiro256& rng,
                                      const Codebook& cb) {
  std::vector<Hypervector> qs;
  qs.push_back(random_bipolar(dim, rng));
  qs.push_back(random_ternary(dim, 0.3, rng));
  qs.push_back(cb.item(0));  // exact hit
  // Clipped bundle of two items (the FactorHD single-object query shape).
  qs.push_back(clip_ternary(bundle(cb.item(1), cb.item(2 % cb.size()))));
  // Integer bundle (multi-object residual shape): forces the scalar
  // fallback inside the packed-backend memory — results must still match.
  qs.push_back(bundle(bundle(cb.item(0), cb.item(1)), random_bipolar(dim, rng)));
  qs.push_back(Hypervector(dim));  // all-zero (ternary, zero similarity)
  return qs;
}

void expect_same_matches(const std::vector<Match>& a,
                         const std::vector<Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "position " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].similarity, b[i].similarity) << "position " << i;
  }
}

void check_equivalence(const Codebook& cb, const Hypervector& query) {
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);
  ASSERT_EQ(scalar.backend(), ScanBackend::kScalar);
  ASSERT_EQ(packed.backend(), ScanBackend::kPacked);

  const Match bs = scalar.best(query);
  const Match bp = packed.best(query);
  EXPECT_EQ(bs.index, bp.index);
  EXPECT_EQ(bs.similarity, bp.similarity);

  // Thresholds spanning "everything", "some", "exact boundary", "nothing".
  const double mid = bs.similarity / 2.0;
  for (double th : {-2.0, -0.5, 0.0, mid, bs.similarity, 1.5}) {
    expect_same_matches(scalar.above(query, th), packed.above(query, th));
  }
  // `above` at the best similarity is exclusive, so the best entry itself
  // must be absent from both backends.
  for (const Match& m : packed.above(query, bs.similarity)) {
    EXPECT_LT(m.similarity, bs.similarity + 1e-12);
    EXPECT_GT(m.similarity, bs.similarity - 1.0);  // sanity: finite
  }
  EXPECT_TRUE(packed.above(query, 1.5).empty());
  EXPECT_TRUE(scalar.above(query, 1.5).empty());

  for (std::size_t k : {std::size_t{1}, std::size_t{3}, cb.size(), cb.size() + 7}) {
    expect_same_matches(scalar.top_k(query, k), packed.top_k(query, k));
  }

  const std::vector<std::size_t> subset{0, cb.size() - 1, 1};
  const Match ss = scalar.best_among(query, subset);
  const Match sp = packed.best_among(query, subset);
  EXPECT_EQ(ss.index, sp.index);
  EXPECT_EQ(ss.similarity, sp.similarity);
  expect_same_matches(scalar.above_among(query, -2.0, subset),
                      packed.above_among(query, -2.0, subset));
  EXPECT_THROW((void)scalar.best_among(query, {}), std::invalid_argument);
  EXPECT_THROW((void)packed.best_among(query, {}), std::invalid_argument);

  std::vector<std::int64_t> ds(cb.size()), dp(cb.size());
  scalar.dots(query, ds);
  packed.dots(query, dp);
  EXPECT_EQ(ds, dp);
  for (std::size_t j = 0; j < cb.size(); ++j) {
    EXPECT_EQ(ds[j], dot(query, cb.item(j))) << "row " << j;
  }
}

TEST(KernelEquivalence, BipolarCodebooksAllDims) {
  Xoshiro256 rng(101);
  for (std::size_t dim : kDims) {
    SCOPED_TRACE(dim);
    const Codebook cb = make_bipolar_codebook(dim, 17, rng);
    for (const Hypervector& q : make_queries(dim, rng, cb)) {
      check_equivalence(cb, q);
    }
  }
}

TEST(KernelEquivalence, TernaryCodebooksAllDims) {
  Xoshiro256 rng(202);
  for (std::size_t dim : kDims) {
    SCOPED_TRACE(dim);
    const Codebook cb = make_ternary_codebook(dim, 17, rng);
    for (const Hypervector& q : make_queries(dim, rng, cb)) {
      check_equivalence(cb, q);
    }
  }
}

TEST(KernelEquivalence, TiedSimilaritiesOrderIdentically) {
  Xoshiro256 rng(303);
  // Duplicate entries guarantee exact similarity ties; the canonical
  // match_order tie-break (ascending index) must make both backends agree
  // on the full ordering, and `best` must keep the first maximum.
  const Hypervector a = random_bipolar(65, rng);
  const Hypervector b = random_bipolar(65, rng);
  const Codebook cb(std::vector<Hypervector>{a, b, a, b, a});
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);

  const Match ms = scalar.best(a);
  const Match mp = packed.best(a);
  EXPECT_EQ(ms.index, 0u);
  EXPECT_EQ(mp.index, 0u);
  EXPECT_EQ(ms.similarity, 1.0);
  EXPECT_EQ(mp.similarity, 1.0);

  const std::vector<Match> as = scalar.above(a, -2.0);
  const std::vector<Match> ap = packed.above(a, -2.0);
  ASSERT_EQ(as.size(), 5u);
  expect_same_matches(as, ap);
  // Ties resolved by ascending index: the three copies of `a` first.
  EXPECT_EQ(as[0].index, 0u);
  EXPECT_EQ(as[1].index, 2u);
  EXPECT_EQ(as[2].index, 4u);

  expect_same_matches(scalar.top_k(a, 4), packed.top_k(a, 4));
}

TEST(KernelEquivalence, AutoSelectsPackedForPackableCodebooks) {
  Xoshiro256 rng(404);
  const Codebook bipolar = make_bipolar_codebook(100, 4, rng);
  EXPECT_EQ(ItemMemory(bipolar).backend(), ScanBackend::kPacked);
  const Codebook ternary = make_ternary_codebook(100, 4, rng);
  EXPECT_EQ(ItemMemory(ternary).backend(), ScanBackend::kPacked);

  // Integer codebook: auto falls back to scalar, kPacked refuses.
  const Hypervector big = bundle(bundle(bipolar.item(0), bipolar.item(1)),
                                 bipolar.item(2));
  const Codebook integer(std::vector<Hypervector>{big, big});
  EXPECT_FALSE(PackedItemMemory::packable(integer));
  EXPECT_EQ(ItemMemory(integer).backend(), ScanBackend::kScalar);
  EXPECT_THROW(ItemMemory(integer, ScanBackend::kPacked),
               std::invalid_argument);
}

TEST(KernelEquivalence, PackedQueryClassifiesAlphabets) {
  Xoshiro256 rng(505);
  const auto bip = PackedQuery::pack(random_bipolar(63, rng));
  ASSERT_TRUE(bip.has_value());
  EXPECT_TRUE(bip->bipolar);
  const auto ter = PackedQuery::pack(random_ternary(63, 0.5, rng));
  ASSERT_TRUE(ter.has_value());
  EXPECT_FALSE(ter->bipolar);
  EXPECT_FALSE(PackedQuery::pack(Hypervector{2, 1, -1}).has_value());
  EXPECT_FALSE(PackedQuery::pack(Hypervector{}).has_value());
}

TEST(KernelEquivalence, PackedStorageBits) {
  Xoshiro256 rng(606);
  const Codebook bipolar = make_bipolar_codebook(65, 3, rng);
  EXPECT_EQ(PackedItemMemory(bipolar).storage_bits(), 3u * 65u);
  const Codebook ternary = make_ternary_codebook(65, 3, rng);
  EXPECT_EQ(PackedItemMemory(ternary).storage_bits(), 2u * 3u * 65u);
  EXPECT_EQ(PackedItemMemory(bipolar).words_per_row(), 2u);
}

TEST(KernelEquivalence, FactorizerBackendsAgreeEndToEnd) {
  // The whole Algorithm 1 pipeline — single-object argmax and the
  // multi-object thresholded loop (whose residual queries exercise the
  // scalar fallback) — must produce identical results on both backends.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    const tax::Taxonomy taxonomy(3, {8, 4});
    const tax::TaxonomyCodebooks books(taxonomy, 1000, rng);
    const core::Encoder encoder(books);
    const core::Factorizer scalar(encoder, ScanBackend::kScalar);
    const core::Factorizer packed(encoder, ScanBackend::kPacked);
    ASSERT_EQ(scalar.scan_backend(), ScanBackend::kScalar);
    ASSERT_EQ(packed.scan_backend(), ScanBackend::kPacked);

    const tax::Object obj = tax::random_object(taxonomy, rng);
    const Hypervector single = encoder.encode_object(obj);
    const auto rs = scalar.factorize(single, {});
    const auto rp = packed.factorize(single, {});
    ASSERT_EQ(rs.objects.size(), rp.objects.size());
    EXPECT_EQ(rs.similarity_ops, rp.similarity_ops);
    for (std::size_t o = 0; o < rs.objects.size(); ++o) {
      ASSERT_EQ(rs.objects[o].classes.size(), rp.objects[o].classes.size());
      for (std::size_t c = 0; c < rs.objects[o].classes.size(); ++c) {
        const auto& cs = rs.objects[o].classes[c];
        const auto& cp = rp.objects[o].classes[c];
        EXPECT_EQ(cs.present, cp.present);
        EXPECT_EQ(cs.path, cp.path);
        EXPECT_EQ(cs.level_similarities, cp.level_similarities);
      }
    }

    const tax::Scene scene = tax::random_scene(
        taxonomy, rng,
        {.num_objects = 2, .object = {}, .allow_duplicates = false});
    const Hypervector multi = encoder.encode_scene(scene);
    core::FactorizeOptions opts;
    opts.multi_object = true;
    opts.num_objects_hint = 2;
    const auto ms = scalar.factorize(multi, opts);
    const auto mp = packed.factorize(multi, opts);
    ASSERT_EQ(ms.objects.size(), mp.objects.size());
    EXPECT_EQ(ms.similarity_ops, mp.similarity_ops);
    EXPECT_EQ(ms.combinations_checked, mp.combinations_checked);
    EXPECT_EQ(ms.converged, mp.converged);
    for (std::size_t o = 0; o < ms.objects.size(); ++o) {
      EXPECT_EQ(ms.objects[o].match_similarity, mp.objects[o].match_similarity);
      EXPECT_EQ(ms.objects[o].to_object(3), mp.objects[o].to_object(3));
    }
  }
}

TEST(KernelEquivalence, SimilarityOpCountsMatchScalar) {
  Xoshiro256 rng(707);
  const Codebook cb = make_bipolar_codebook(128, 9, rng);
  const ItemMemory scalar(cb, ScanBackend::kScalar);
  const ItemMemory packed(cb, ScanBackend::kPacked);
  const Hypervector q = random_bipolar(128, rng);

  (void)scalar.best(q);
  (void)packed.best(q);
  (void)scalar.above(q, 0.5);
  (void)packed.above(q, 0.5);
  (void)scalar.best_among(q, {1, 2, 3});
  (void)packed.best_among(q, {1, 2, 3});
  (void)scalar.top_k(q, 2);
  (void)packed.top_k(q, 2);
  EXPECT_EQ(scalar.similarity_ops(), packed.similarity_ops());
  EXPECT_EQ(scalar.similarity_ops(), 9u + 9u + 3u + 9u);
}

TEST(KernelEquivalence, BatchDotKernelsMatchPerRowDotsAtEveryLevel) {
  // The parallel tier build's screened assignment runs on BatchDotKernels;
  // simd.hpp promises the exact same integers as calling the matching
  // DotKernels entry per row, bit-identical across levels — this is that
  // pin. Covers word-tail dims, counts hitting every remainder loop, and
  // the prefix-width (partial-plane) shape the k-means screen uses.
  Xoshiro256 rng(808);
  const kernels::SimdLevel levels[] = {
      kernels::SimdLevel::kScalarWords, kernels::SimdLevel::kAVX2,
      kernels::SimdLevel::kAVX512, kernels::SimdLevel::kNEON};
  for (const std::size_t dim : kDims) {
    const std::size_t words = kernels::plane_words(dim);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      // Contiguous row-major sign-plane buffer, as the build lays it out.
      std::vector<std::uint64_t> rows(count * words);
      for (std::size_t i = 0; i < count; ++i) {
        const auto packed = PackedQuery::pack(random_bipolar(dim, rng));
        ASSERT_TRUE(packed.has_value());
        std::copy(packed->sign.begin(), packed->sign.end(),
                  rows.begin() + static_cast<std::ptrdiff_t>(i * words));
      }
      const auto bq = PackedQuery::pack(random_bipolar(dim, rng));
      const auto tq = PackedQuery::pack(random_ternary(dim, 0.4, rng));
      ASSERT_TRUE(bq.has_value() && tq.has_value());

      std::vector<std::int64_t> ref_b(count), ref_t(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t* row = rows.data() + i * words;
        ref_b[i] = kernels::dot_bipolar_bipolar(bq->sign.data(), row, words, dim);
        ref_t[i] = kernels::dot_bipolar_ternary(row, tq->nonzero.data(),
                                                tq->sign.data(), words);
      }
      for (const kernels::SimdLevel level : levels) {
        if (!kernels::simd_level_available(level)) continue;
        const kernels::BatchDotKernels& batch = kernels::batch_dot_kernels(level);
        std::vector<std::int64_t> out(count, -12345);
        batch.bipolar_rows(bq->sign.data(), rows.data(), count, words, words,
                           dim, out.data());
        EXPECT_EQ(ref_b, out) << "bipolar_rows dim=" << dim << " count="
                              << count << " level=" << kernels::to_string(level);
        std::fill(out.begin(), out.end(), -12345);
        batch.ternary_rows(tq->nonzero.data(), tq->sign.data(), rows.data(),
                           count, words, words, out.data());
        EXPECT_EQ(ref_t, out) << "ternary_rows dim=" << dim << " count="
                              << count << " level=" << kernels::to_string(level);
      }

      // Prefix-width dots (the screen's partial planes): every prefix word
      // of a canonical plane is full, so dim_p = 64 * words_p.
      if (words < 2) continue;
      const std::size_t words_p = words / 2;
      const std::size_t dim_p = 64 * words_p;
      std::vector<std::uint64_t> prefix_rows(count * words_p);
      for (std::size_t i = 0; i < count; ++i) {
        std::copy_n(rows.data() + i * words, words_p,
                    prefix_rows.begin() + static_cast<std::ptrdiff_t>(i * words_p));
      }
      std::vector<std::int64_t> ref_p(count);
      for (std::size_t i = 0; i < count; ++i) {
        ref_p[i] = kernels::dot_bipolar_bipolar(
            bq->sign.data(), prefix_rows.data() + i * words_p, words_p, dim_p);
      }
      // The suffix words [words_p, words) read in place through the row
      // stride: partial dots over a column range of the full planes, which
      // add up with the prefix dots to the full dot.
      std::vector<std::int64_t> ref_sb(count), ref_st(count), ref_pt(count);
      for (std::size_t i = 0; i < count; ++i) {
        ref_sb[i] = ref_b[i] - ref_p[i];
        ref_pt[i] = kernels::dot_bipolar_ternary(
            prefix_rows.data() + i * words_p, tq->nonzero.data(),
            tq->sign.data(), words_p);
        ref_st[i] = ref_t[i] - ref_pt[i];
      }
      for (const kernels::SimdLevel level : levels) {
        if (!kernels::simd_level_available(level)) continue;
        SCOPED_TRACE(std::string("dim=") + std::to_string(dim) + " level=" +
                     kernels::to_string(level));
        const kernels::BatchDotKernels& batch = kernels::batch_dot_kernels(level);
        std::vector<std::int64_t> out(count, -12345);
        batch.bipolar_rows(bq->sign.data(), prefix_rows.data(), count, words_p,
                           words_p, dim_p, out.data());
        EXPECT_EQ(ref_p, out) << "prefix bipolar_rows";
        std::fill(out.begin(), out.end(), -12345);
        batch.bipolar_rows(bq->sign.data(), rows.data(), count, words_p, words,
                           dim_p, out.data());
        EXPECT_EQ(ref_p, out) << "strided prefix bipolar_rows";
        std::fill(out.begin(), out.end(), -12345);
        batch.ternary_rows(tq->nonzero.data(), tq->sign.data(), rows.data(),
                           count, words_p, words, out.data());
        EXPECT_EQ(ref_pt, out) << "strided prefix ternary_rows";
        std::fill(out.begin(), out.end(), -12345);
        batch.bipolar_rows(bq->sign.data() + words_p, rows.data() + words_p,
                           count, words - words_p, words, dim - dim_p,
                           out.data());
        EXPECT_EQ(ref_sb, out) << "strided suffix bipolar_rows";
        std::fill(out.begin(), out.end(), -12345);
        batch.ternary_rows(tq->nonzero.data() + words_p,
                           tq->sign.data() + words_p, rows.data() + words_p,
                           count, words - words_p, words, out.data());
        EXPECT_EQ(ref_st, out) << "strided suffix ternary_rows";
      }
    }
  }
}

// The per-component packing loop PackedItemMemory used before it packed
// through DotKernels::pack_planes, kept as the oracle over a codebook's
// source rows: nullopt for an entry outside {-1, 0, +1}, ternary layout as
// soon as any entry holds a zero (nonzero plane empty otherwise), one bit
// set per +1 / nonzero component.
struct OraclePlanes {
  PackedItemMemory::Layout layout = PackedItemMemory::Layout::kBipolar;
  std::vector<std::uint64_t> sign;
  std::vector<std::uint64_t> nonzero;
};

std::optional<OraclePlanes> oracle_pack(const std::vector<Hypervector>& items) {
  OraclePlanes out;
  for (const Hypervector& item : items) {
    for (std::size_t i = 0; i < item.dim(); ++i) {
      if (item[i] > 1 || item[i] < -1) return std::nullopt;
      if (item[i] == 0) out.layout = PackedItemMemory::Layout::kTernary;
    }
  }
  const bool ternary = out.layout == PackedItemMemory::Layout::kTernary;
  const std::size_t words = kernels::plane_words(items.front().dim());
  out.sign.assign(items.size() * words, 0);
  if (ternary) out.nonzero.assign(items.size() * words, 0);
  for (std::size_t row = 0; row < items.size(); ++row) {
    const Hypervector& item = items[row];
    for (std::size_t i = 0; i < item.dim(); ++i) {
      const std::uint64_t bit = 1ULL << (i % 64);
      if (item[i] == 0) continue;
      if (ternary) out.nonzero[row * words + i / 64] |= bit;
      if (item[i] > 0) out.sign[row * words + i / 64] |= bit;
    }
  }
  return out;
}

void expect_oracle_planes(const PackedItemMemory& mem, const OraclePlanes& want,
                          const std::string& what) {
  EXPECT_EQ(mem.layout(), want.layout) << what;
  const auto sign = mem.sign_plane();
  EXPECT_TRUE(std::equal(sign.begin(), sign.end(), want.sign.begin(),
                         want.sign.end()))
      << what << ": sign plane differs";
  const auto nz = mem.nonzero_plane();
  EXPECT_TRUE(std::equal(nz.begin(), nz.end(), want.nonzero.begin(),
                         want.nonzero.end()))
      << what << ": nonzero plane differs";
}

std::vector<kernels::SimdLevel> available_levels() {
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalarWords};
  for (kernels::SimdLevel l :
       {kernels::SimdLevel::kAVX2, kernels::SimdLevel::kAVX512,
        kernels::SimdLevel::kNEON}) {
    if (kernels::simd_level_available(l)) levels.push_back(l);
  }
  return levels;
}

// The packing cases: all bipolar; bipolar except a last row holding the
// codebook's only zero (the ternary layout must still switch on); bipolar
// and ternary rows interleaved; and bipolar with a 2 in the last row's last
// entry (must be rejected after every other row packed cleanly).
enum class PackCase { kBipolar, kZeroInLastRow, kMixed, kTwoInLastRow };

std::vector<Hypervector> make_pack_case(PackCase c, std::size_t dim,
                                        std::size_t rows, Xoshiro256& rng) {
  std::vector<Hypervector> items;
  items.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool ternary_row = c == PackCase::kMixed && r % 3 == 1;
    items.push_back(ternary_row ? random_ternary(dim, 0.4, rng)
                                : random_bipolar(dim, rng));
    if (ternary_row) items.back()[r % dim] = 0;  // at least one zero
  }
  if (c == PackCase::kZeroInLastRow) items.back()[dim / 2] = 0;
  if (c == PackCase::kTwoInLastRow) items.back()[dim - 1] = 2;
  return items;
}

const char* to_string(PackCase c) {
  switch (c) {
    case PackCase::kBipolar: return "bipolar";
    case PackCase::kZeroInLastRow: return "zero-in-last-row";
    case PackCase::kMixed: return "mixed";
    case PackCase::kTwoInLastRow: return "two-in-last-row";
  }
  return "?";
}

void check_pack_case(const Codebook& cb,
                     const std::optional<OraclePlanes>& want,
                     kernels::SimdLevel level, const std::string& what) {
  if (!want) {
    EXPECT_FALSE(PackedItemMemory::packable(cb)) << what;
    EXPECT_EQ(PackedItemMemory::try_pack(cb, level), nullptr) << what;
    EXPECT_THROW(PackedItemMemory(cb, level), std::invalid_argument) << what;
    return;
  }
  EXPECT_TRUE(PackedItemMemory::packable(cb)) << what;
  const PackedItemMemory mem(cb, level);
  EXPECT_EQ(mem.simd_level(), level) << what;
  expect_oracle_planes(mem, *want, what);
  const auto tried = PackedItemMemory::try_pack(cb, level);
  ASSERT_NE(tried, nullptr) << what;
  expect_oracle_planes(*tried, *want, what + " (try_pack)");
}

TEST(KernelEquivalence, CodebookPackingMatchesPerComponentOracle) {
  Xoshiro256 rng(909);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{1000}, std::size_t{4096}}) {
    for (const PackCase c : {PackCase::kBipolar, PackCase::kZeroInLastRow,
                             PackCase::kMixed, PackCase::kTwoInLastRow}) {
      const std::vector<Hypervector> items = make_pack_case(c, dim, 7, rng);
      const Codebook cb(items);
      const std::optional<OraclePlanes> want = oracle_pack(items);
      for (const kernels::SimdLevel level : available_levels()) {
        check_pack_case(cb, want, level,
                        std::string(to_string(c)) + " dim=" +
                            std::to_string(dim) + " level=" +
                            kernels::to_string(level));
      }
    }
  }
}

TEST(KernelEquivalence, CodebookPackingIsIdenticalForEveryWorkerCount) {
  // Codebooks of at least 2^20 components pack row-parallel over the scan
  // pool at construction (when the host has more than one hardware
  // thread); a ScanNestingGuard pins the same pack to one worker. The
  // zero-in-last-row case makes the last block allocate the nonzero plane
  // after the other blocks packed their rows into scratch.
  Xoshiro256 rng(1010);
  for (const auto& [dim, rows] : {std::pair<std::size_t, std::size_t>{4096, 300},
                                  {1000, 1100}}) {
    for (const PackCase c : {PackCase::kBipolar, PackCase::kZeroInLastRow,
                             PackCase::kMixed, PackCase::kTwoInLastRow}) {
      const std::vector<Hypervector> items = make_pack_case(c, dim, rows, rng);
      const Codebook cb(items);
      const std::optional<OraclePlanes> want = oracle_pack(items);
      for (const kernels::SimdLevel level : available_levels()) {
        const std::string what = std::string(to_string(c)) + " dim=" +
                                 std::to_string(dim) + " level=" +
                                 kernels::to_string(level);
        check_pack_case(cb, want, level, what);
        if (c == PackCase::kTwoInLastRow) continue;
        const PackedItemMemory parallel(cb, level);
        const kernels::ScanNestingGuard one_worker;
        const Codebook sequential_cb(items);
        const PackedItemMemory sequential(sequential_cb, level);
        EXPECT_EQ(parallel.layout(), sequential.layout()) << what;
        const auto ps = parallel.sign_plane();
        const auto ss = sequential.sign_plane();
        EXPECT_TRUE(std::equal(ps.begin(), ps.end(), ss.begin(), ss.end()))
            << what;
        const auto pn = parallel.nonzero_plane();
        const auto sn = sequential.nonzero_plane();
        EXPECT_TRUE(std::equal(pn.begin(), pn.end(), sn.begin(), sn.end()))
            << what;
      }
    }
  }
}

TEST(KernelEquivalence, AccumulatePlanesMatchesPerComponentOracleAtEveryLevel) {
  // Every tier's plane-accumulate kernel adds +1 / -1 / 0 per component,
  // exactly as a bit-at-a-time loop does, at dimensions around the 16-lane
  // and 64-bit word boundaries, into a non-zero accumulator.
  Xoshiro256 rng(1212);
  for (const std::size_t dim : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 100u,
                                1000u, 2048u}) {
    for (const bool ternary : {false, true}) {
      const Hypervector row =
          ternary ? random_ternary(dim, 0.3, rng) : random_bipolar(dim, rng);
      const auto q = PackedQuery::pack(row);
      ASSERT_TRUE(q.has_value());
      const Hypervector start = random_ternary(dim, 0.5, rng);
      Hypervector want = start;
      for (std::size_t d = 0; d < dim; ++d) want[d] += row[d];
      for (const kernels::SimdLevel level : available_levels()) {
        Hypervector got = start;
        kernels::dot_kernels(level).accumulate_planes(
            got.data(), dim, q->sign.data(),
            ternary ? q->nonzero.data() : nullptr);
        EXPECT_EQ(got, want) << "dim=" << dim << " ternary=" << ternary
                             << " level=" << kernels::to_string(level);
      }
    }
  }
}

// Taxonomy material whose level codebooks are plane-backed, plus what the
// int32-row tests below need to run Rep-1 and Rep-3 factorization on it.
struct RowsFixture {
  explicit RowsFixture(std::uint64_t seed)
      : rng(seed), books(tax::Taxonomy(3, {8, 4}), 1000, rng),
        encoder(books), factorizer(encoder) {}

  [[nodiscard]] std::vector<const Codebook*> level_codebooks() const {
    std::vector<const Codebook*> out;
    const tax::Taxonomy& t = books.taxonomy();
    for (std::size_t c = 0; c < t.num_classes(); ++c) {
      for (std::size_t l = 1; l <= t.depth(c); ++l) {
        out.push_back(&books.level_codebook(c, l));
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t materialized() const {
    std::size_t n = 0;
    for (const Codebook* cb : level_codebooks()) n += cb->rows_materialized();
    return n;
  }

  Xoshiro256 rng;
  tax::TaxonomyCodebooks books;
  core::Encoder encoder;
  core::Factorizer factorizer;
};

core::FactorizeOptions rep3_options() {
  core::FactorizeOptions opts;
  opts.multi_object = true;
  opts.num_objects_hint = 2;
  return opts;
}

std::vector<Hypervector> rep3_targets(RowsFixture& f, std::size_t n) {
  std::vector<Hypervector> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(f.encoder.encode_scene(tax::random_scene(
        f.books.taxonomy(), f.rng,
        {.num_objects = 2, .object = {}, .allow_duplicates = false})));
  }
  return out;
}

TEST(KernelEquivalence, CodebookPackingRep1NeverBuildsInt32Rows) {
  RowsFixture f(4242);
  for (const Codebook* cb : f.level_codebooks()) {
    ASSERT_TRUE(cb->has_planes());
    ASSERT_FALSE(cb->rows_materialized());
  }
  ASSERT_EQ(f.factorizer.scan_backend(), ScanBackend::kPacked);
  std::vector<Hypervector> targets;
  for (int i = 0; i < 6; ++i) {
    targets.push_back(f.encoder.encode_object(
        tax::random_object(f.books.taxonomy(), f.rng)));
  }
  for (const Hypervector& t : targets) (void)f.factorizer.factorize(t);
  (void)f.factorizer.factorize_block(targets);
  EXPECT_EQ(f.materialized(), 0u);
}

TEST(KernelEquivalence, CodebookPackingRep3BuildsRowsWithSameAnswers) {
  // The first integer-bundle scan builds the int32 view. Its answers equal
  // those of identical codebooks whose views were built up front, and a
  // second call on the built view.
  RowsFixture lazy(77), eager(77);
  const std::vector<Hypervector> targets = rep3_targets(lazy, 3);
  for (const Codebook* cb : eager.level_codebooks()) (void)cb->rows();
  ASSERT_EQ(lazy.materialized(), 0u);
  const core::FactorizeResult first =
      lazy.factorizer.factorize(targets[0], rep3_options());
  EXPECT_GT(lazy.materialized(), 0u);
  EXPECT_EQ(first, eager.factorizer.factorize(targets[0], rep3_options()));
  for (const Hypervector& t : targets) {
    EXPECT_EQ(lazy.factorizer.factorize(t, rep3_options()),
              eager.factorizer.factorize(t, rep3_options()));
  }
}

TEST(KernelEquivalence, CodebookPackingBatchWorkersRaceTheFirstRowsBuild) {
  // Four BatchFactorizer workers reach the unbuilt int32 view together;
  // call_once builds it once, and every answer matches a sequential run
  // over codebooks whose view was built up front.
  RowsFixture racing(91), eager(91);
  const std::vector<Hypervector> targets = rep3_targets(racing, 8);
  for (const Codebook* cb : eager.level_codebooks()) (void)cb->rows();
  ASSERT_EQ(racing.materialized(), 0u);
  const core::BatchFactorizer batch(racing.factorizer, {.num_threads = 4});
  ASSERT_EQ(batch.effective_threads(targets.size()), 4u);
  const std::vector<core::FactorizeResult> got =
      batch.factorize_all(targets, rep3_options());
  EXPECT_GT(racing.materialized(), 0u);
  ASSERT_EQ(got.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(got[i], eager.factorizer.factorize(targets[i], rep3_options()))
        << "target " << i;
  }
}

}  // namespace
