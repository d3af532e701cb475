// Unit tests for hdc::Codebook and hdc random generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"
#include "hdc/similarity.hpp"
#include "taxonomy/codebooks.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;

// The bit-at-a-time expansion random_bipolar used before its table-driven
// form, kept as the golden oracle: one draw per 64 components, low bit
// first, +1 for a set bit.
Hypervector bit_loop_bipolar(std::size_t dim, Xoshiro256& rng) {
  Hypervector out(dim);
  for (std::size_t i = 0; i < dim; i += 64) {
    std::uint64_t bits = rng();
    for (std::size_t k = 0; k < 64 && i + k < dim; ++k, bits >>= 1) {
      out[i + k] = (bits & 1u) != 0 ? 1 : -1;
    }
  }
  return out;
}

TEST(RandomBipolar, ProducesBipolarOfRequestedDim) {
  Xoshiro256 rng(1);
  for (std::size_t d : {1u, 63u, 64u, 65u, 1000u}) {
    const Hypervector v = random_bipolar(d, rng);
    EXPECT_EQ(v.dim(), d);
    EXPECT_TRUE(v.is_bipolar());
  }
}

TEST(RandomBipolar, IsBalanced) {
  Xoshiro256 rng(2);
  const Hypervector v = random_bipolar(100000, rng);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < v.dim(); ++i) sum += v[i];
  EXPECT_LT(std::abs(sum), 5 * static_cast<std::int64_t>(std::sqrt(100000.0)));
}

TEST(RandomTernary, RespectsSparsity) {
  Xoshiro256 rng(3);
  const Hypervector v = random_ternary(100000, 0.3, rng);
  EXPECT_TRUE(v.is_ternary());
  const double zero_frac =
      static_cast<double>(v.zero_count()) / static_cast<double>(v.dim());
  EXPECT_NEAR(zero_frac, 0.3, 0.01);
}

TEST(FlipNoise, FlipsExpectedFraction) {
  Xoshiro256 rng(4);
  const Hypervector v = random_bipolar(100000, rng);
  const Hypervector noisy = flip_noise(v, 0.1, rng);
  EXPECT_NEAR(normalized_hamming(v, noisy), 0.1, 0.01);
}

TEST(FlipNoise, ZeroProbabilityIsIdentity) {
  Xoshiro256 rng(5);
  const Hypervector v = random_bipolar(1024, rng);
  EXPECT_EQ(flip_noise(v, 0.0, rng), v);
}

TEST(Codebook, GeneratesRequestedShape) {
  Xoshiro256 rng(6);
  Codebook cb(500, 16, rng, "test");
  EXPECT_EQ(cb.size(), 16u);
  EXPECT_EQ(cb.dim(), 500u);
  EXPECT_EQ(cb.name(), "test");
  for (std::size_t j = 0; j < cb.size(); ++j) {
    EXPECT_TRUE(cb.item(j).is_bipolar());
  }
}

TEST(Codebook, ItemsArePairwiseQuasiOrthogonal) {
  Xoshiro256 rng(7);
  Codebook cb(4096, 8, rng);
  for (std::size_t i = 0; i < cb.size(); ++i) {
    for (std::size_t j = i + 1; j < cb.size(); ++j) {
      EXPECT_LT(std::abs(similarity(cb.item(i), cb.item(j))), 0.08)
          << "items " << i << "," << j;
    }
  }
}

TEST(Codebook, WrapConstructorValidates) {
  std::vector<Hypervector> items{{1, -1}, {1, 1}};
  Codebook cb(std::move(items));
  EXPECT_EQ(cb.size(), 2u);
  EXPECT_EQ(cb.dim(), 2u);

  std::vector<Hypervector> bad{{1, -1}, {1, 1, 1}};
  EXPECT_THROW(Codebook{std::move(bad)}, std::invalid_argument);
  EXPECT_THROW(Codebook{std::vector<Hypervector>{}}, std::invalid_argument);
}

TEST(Codebook, InvalidSpecsThrow) {
  Xoshiro256 rng(8);
  EXPECT_THROW(Codebook(0, 4, rng), std::invalid_argument);
  EXPECT_THROW(Codebook(128, 0, rng), std::invalid_argument);
}

TEST(Codebook, OutOfRangeAccessThrows) {
  Xoshiro256 rng(9);
  Codebook cb(64, 4, rng);
  EXPECT_THROW((void)cb.item(4), std::out_of_range);
}

TEST(Codebook, DeterministicGivenSeed) {
  Xoshiro256 rng1(10), rng2(10);
  Codebook a(128, 4, rng1);
  Codebook b(128, 4, rng2);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(a.item(j), b.item(j));
}

TEST(RandomBipolar, MatchesBitLoopOracle) {
  // Same draws, same components: every seed keeps generating the codebooks
  // it generated before the table-driven expansion.
  for (std::size_t d : {1u, 63u, 64u, 65u, 127u, 4096u}) {
    Xoshiro256 fast(77 + d), oracle(77 + d);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(random_bipolar(d, fast), bit_loop_bipolar(d, oracle))
          << "dim=" << d << " rep=" << rep;
    }
    EXPECT_EQ(fast(), oracle()) << "generator state diverged at dim=" << d;
  }
}

TEST(RandomBipolar, SeededTaxonomyCodebooksMatchBitLoopOracle) {
  // TaxonomyCodebooks draws the null HV, then per class its label followed
  // by each level's items in order; replaying that order through the oracle
  // must give the same items.
  const factorhd::tax::Taxonomy t(
      std::vector<std::vector<std::size_t>>{{5}, {3, 4}, {7}});
  for (std::size_t d : {65u, 1000u}) {
    Xoshiro256 rng(2024), oracle(2024);
    const factorhd::tax::TaxonomyCodebooks books(t, d, rng);
    EXPECT_EQ(books.null_hv(), bit_loop_bipolar(d, oracle));
    for (std::size_t c = 0; c < t.num_classes(); ++c) {
      EXPECT_EQ(books.label(c), bit_loop_bipolar(d, oracle)) << "class " << c;
      for (std::size_t l = 1; l <= t.depth(c); ++l) {
        const Codebook& cb = books.level_codebook(c, l);
        for (std::size_t j = 0; j < cb.size(); ++j) {
          EXPECT_EQ(cb.item(j), bit_loop_bipolar(d, oracle))
              << "class " << c << " level " << l << " item " << j;
        }
      }
    }
  }
}

TEST(Codebook, RowsMatchRandomBipolarDraws) {
  // The generating constructor writes each draw straight into the sign
  // plane; every row must be the HV random_bipolar draws from the same
  // stream, and the stream must end in the same state.
  for (const std::size_t d : {1u, 63u, 64u, 65u, 100u, 2048u}) {
    Xoshiro256 gen(500 + d), oracle(500 + d);
    const Codebook cb(d, 5, gen);
    ASSERT_TRUE(cb.has_planes()) << "dim=" << d;
    EXPECT_TRUE(cb.nonzero_plane().empty()) << "dim=" << d;
    EXPECT_EQ(cb.sign_plane().size(), 5 * ((d + 63) / 64)) << "dim=" << d;
    for (std::size_t j = 0; j < cb.size(); ++j) {
      EXPECT_EQ(cb.item(j), random_bipolar(d, oracle))
          << "dim=" << d << " row=" << j;
    }
    EXPECT_EQ(gen(), oracle()) << "generator state diverged at dim=" << d;
  }
}

TEST(Codebook, SignWordsHaveCanonicalTails) {
  Xoshiro256 rng(31);
  for (const std::size_t d : {1u, 63u, 65u, 100u}) {
    const Codebook cb(d, 3, rng);
    const std::size_t words = (d + 63) / 64;
    for (std::size_t j = 0; j < cb.size(); ++j) {
      const std::uint64_t last = cb.sign_plane()[j * words + words - 1];
      EXPECT_EQ(last >> (d % 64), 0u) << "dim=" << d << " row=" << j;
    }
  }
}

TEST(Codebook, ItemRoundTripsTernaryRowsWithZeros) {
  Xoshiro256 rng(32);
  for (const std::size_t d : {1u, 63u, 64u, 65u, 130u}) {
    std::vector<Hypervector> items;
    for (std::size_t j = 0; j < 4; ++j) {
      items.push_back(j == 1 ? random_bipolar(d, rng)
                             : random_ternary(d, 0.4, rng));
    }
    items[0][0] = 0;
    items[2][d - 1] = 0;
    if (d > 64) items[3][64] = 0;
    const Codebook cb(items);
    ASSERT_TRUE(cb.has_planes()) << "dim=" << d;
    ASSERT_FALSE(cb.nonzero_plane().empty()) << "dim=" << d;
    for (std::size_t j = 0; j < items.size(); ++j) {
      EXPECT_EQ(cb.item(j), items[j]) << "dim=" << d << " row=" << j;
      EXPECT_EQ(cb[j], items[j]) << "dim=" << d << " row=" << j;
    }
    EXPECT_FALSE(cb.rows_materialized());
    EXPECT_EQ(cb.rows(), items) << "dim=" << d;
    EXPECT_TRUE(cb.rows_materialized());
  }
}

TEST(Codebook, AccumulateItemAddsTheRow) {
  Xoshiro256 rng(33);
  std::vector<Hypervector> ternary;
  for (std::size_t j = 0; j < 3; ++j) {
    ternary.push_back(random_ternary(77, 0.3, rng));
  }
  const std::vector<Hypervector> zeros(2, Hypervector(77));
  const Codebook books[] = {Codebook(77, 3, rng), Codebook(ternary),
                            Codebook(zeros)};
  for (const Codebook& cb : books) {
    for (std::size_t j = 0; j < cb.size(); ++j) {
      Hypervector acc = random_ternary(77, 0.2, rng);
      Hypervector want = acc;
      accumulate(want, cb.item(j));
      cb.accumulate_item(j, acc);
      EXPECT_EQ(acc, want) << "row " << j;
    }
    Hypervector wrong(76);
    EXPECT_THROW(cb.accumulate_item(0, wrong), std::invalid_argument);
    EXPECT_THROW(cb.accumulate_item(cb.size(), wrong), std::out_of_range);
  }
}

TEST(Codebook, IntegerRowsStayInt32) {
  const std::vector<Hypervector> items{{2, -1, 0}, {1, 1, -3}};
  const Codebook cb(items);
  EXPECT_FALSE(cb.has_planes());
  EXPECT_TRUE(cb.sign_plane().empty());
  EXPECT_TRUE(cb.rows_materialized());
  EXPECT_EQ(cb.rows(), items);
  EXPECT_EQ(cb.item(1), items[1]);
}

TEST(Codebook, CopiesShareTheRowsView) {
  Xoshiro256 rng(34);
  const Codebook cb(200, 6, rng);
  const Codebook copy = cb;
  EXPECT_EQ(copy.sign_plane().data(), cb.sign_plane().data());
  EXPECT_FALSE(cb.rows_materialized());
  const std::vector<Hypervector>& rows = copy.rows();
  EXPECT_TRUE(cb.rows_materialized());
  EXPECT_EQ(&cb.rows(), &rows);
  for (std::size_t j = 0; j < cb.size(); ++j) EXPECT_EQ(rows[j], cb.item(j));
}

}  // namespace
