// Unit tests for binary serialization (hdc/io.hpp, taxonomy/io.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/factorizer.hpp"
#include "hdc/io.hpp"
#include "hdc/random.hpp"
#include "taxonomy/generator.hpp"
#include "taxonomy/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;

TEST(HdcIo, HypervectorRoundTrip) {
  util::Xoshiro256 rng(1);
  for (const std::size_t d : {1u, 64u, 1000u}) {
    const hdc::Hypervector v = hdc::random_bipolar(d, rng);
    std::stringstream ss;
    hdc::save_hypervector(ss, v);
    EXPECT_EQ(hdc::load_hypervector(ss), v);
  }
}

TEST(HdcIo, HypervectorWithLargeComponents) {
  hdc::Hypervector v{1000000, -1000000, 0, 42};
  std::stringstream ss;
  hdc::save_hypervector(ss, v);
  EXPECT_EQ(hdc::load_hypervector(ss), v);
}

TEST(HdcIo, CodebookRoundTripPreservesNameAndItems) {
  util::Xoshiro256 rng(2);
  const hdc::Codebook cb(256, 8, rng, "colors/level1");
  std::stringstream ss;
  hdc::save_codebook(ss, cb);
  const hdc::Codebook loaded = hdc::load_codebook(ss);
  EXPECT_EQ(loaded.name(), "colors/level1");
  ASSERT_EQ(loaded.size(), cb.size());
  for (std::size_t j = 0; j < cb.size(); ++j) {
    EXPECT_EQ(loaded.item(j), cb.item(j));
  }
}

// FNV-1a over a byte string: a fixed fingerprint of the on-disk format.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(HdcIo, SavedCodebookBytesMatchGoldenHash) {
  // The hashes were taken from the writer of the int32-row codebook, before
  // codebooks were stored as word planes: the bytes on disk must not move.
  {
    util::Xoshiro256 rng(2026);
    const hdc::Codebook cb(100, 7, rng, "golden/bipolar");
    std::stringstream ss;
    hdc::save_codebook(ss, cb);
    EXPECT_EQ(ss.str().size(), 2918u);
    EXPECT_EQ(fnv1a(ss.str()), 0x2aa49b325a4a9310ULL);
  }
  {
    util::Xoshiro256 rng(2027);
    std::vector<hdc::Hypervector> items;
    for (int j = 0; j < 5; ++j) {
      items.push_back(hdc::random_ternary(130, 0.3, rng));
    }
    const hdc::Codebook cb(std::move(items), "golden/ternary");
    ASSERT_FALSE(cb.nonzero_plane().empty());
    std::stringstream ss;
    hdc::save_codebook(ss, cb);
    EXPECT_EQ(ss.str().size(), 2694u);
    EXPECT_EQ(fnv1a(ss.str()), 0xa8ef5a949cd2e7acULL);
  }
}

TEST(HdcIo, RejectsBadMagicAndTruncation) {
  std::stringstream empty;
  EXPECT_THROW((void)hdc::load_hypervector(empty), std::runtime_error);

  std::stringstream garbage("not a hypervector at all");
  EXPECT_THROW((void)hdc::load_hypervector(garbage), std::runtime_error);

  util::Xoshiro256 rng(3);
  std::stringstream ss;
  hdc::save_hypervector(ss, hdc::random_bipolar(128, rng));
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);  // truncate the body
  std::stringstream truncated(bytes);
  EXPECT_THROW((void)hdc::load_hypervector(truncated), std::runtime_error);
}

TEST(HdcIo, EveryTruncationPointFailsCleanly) {
  // Fuzz-style check: a codebook blob cut at ANY byte boundary must raise
  // std::runtime_error from the loader — never crash, hang, or return a
  // partially-initialized codebook.
  util::Xoshiro256 rng(7);
  std::stringstream ss;
  hdc::save_codebook(ss, hdc::Codebook(16, 3, rng, "fuzz"));
  const std::string blob = ss.str();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::stringstream truncated(blob.substr(0, cut));
    EXPECT_THROW((void)hdc::load_codebook(truncated), std::runtime_error)
        << "cut at byte " << cut;
  }
  // The full blob loads.
  std::stringstream whole(blob);
  EXPECT_EQ(hdc::load_codebook(whole).size(), 3u);
}

TEST(HdcIo, CorruptedMagicByteIsRejected) {
  util::Xoshiro256 rng(8);
  std::stringstream ss;
  hdc::save_hypervector(ss, hdc::random_bipolar(32, rng));
  std::string blob = ss.str();
  blob[0] ^= 0x5a;
  std::stringstream corrupted(blob);
  EXPECT_THROW((void)hdc::load_hypervector(corrupted), std::runtime_error);
}

TEST(HdcIo, ImplausibleDimensionIsRejectedBeforeAllocation) {
  // Header claiming a 2^40-component hypervector must be rejected by the
  // sanity bound, not by attempting a 4 TiB allocation.
  std::stringstream ss;
  const std::uint32_t magic = 0x31564846;
  const std::uint64_t absurd = 1ULL << 40;
  ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ss.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  EXPECT_THROW((void)hdc::load_hypervector(ss), std::runtime_error);
}

TEST(HdcIo, OversizedCodebookNameLengthIsRejectedBeforeAllocation) {
  // A corrupt name_len header word used to be accepted up to 2^32, turning
  // 8 flipped bytes into a ~4 GiB string allocation before any read. The
  // bound is now 1 MiB: one byte past it must throw from the header check.
  util::Xoshiro256 rng(9);
  std::stringstream ss;
  hdc::save_codebook(ss, hdc::Codebook(32, 2, rng, "ok"));
  std::string blob = ss.str();
  const std::uint64_t absurd = (1ULL << 20) + 1;  // name_len at offset 12
  std::memcpy(blob.data() + 12, &absurd, sizeof(absurd));
  std::stringstream corrupted(blob);
  EXPECT_THROW((void)hdc::load_codebook(corrupted), std::runtime_error);
}

TEST(HdcIo, MixedDimensionCodebookIsRejectedWithIoError) {
  // Splice a 16-dim hypervector over the second item of a 32-dim codebook:
  // the loader must diagnose the dimension disagreement as a corrupt file
  // instead of deferring to a generic constructor error.
  util::Xoshiro256 rng(10);
  std::stringstream ss;
  hdc::save_codebook(ss, hdc::Codebook(32, 2, rng, ""));
  const std::string whole = ss.str();
  std::stringstream item;
  hdc::save_hypervector(item, hdc::random_bipolar(32, rng));
  const std::size_t item_bytes = item.str().size();
  std::stringstream spliced;
  spliced << whole.substr(0, whole.size() - item_bytes);
  hdc::save_hypervector(spliced, hdc::random_bipolar(16, rng));
  try {
    (void)hdc::load_codebook(spliced);
    FAIL() << "mixed-dim codebook loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("disagree on dimension"),
              std::string::npos)
        << e.what();
  }
}

TEST(TaxIo, TaxonomyRoundTrip) {
  const tax::Taxonomy uniform(3, {256, 10});
  const tax::Taxonomy hetero(
      std::vector<std::vector<std::size_t>>{{9}, {10}, {5, 6}});
  for (const tax::Taxonomy& t : {uniform, hetero}) {
    std::stringstream ss;
    tax::save_taxonomy(ss, t);
    EXPECT_EQ(tax::load_taxonomy(ss), t);
  }
}

TEST(TaxIo, CodebooksRoundTripPreservesFactorization) {
  util::Xoshiro256 rng(4);
  const tax::Taxonomy taxonomy(3, {8, 4});
  const tax::TaxonomyCodebooks books(taxonomy, 1024, rng);

  std::stringstream ss;
  tax::save_codebooks(ss, books);
  const tax::TaxonomyCodebooks loaded = tax::load_codebooks(ss);

  EXPECT_EQ(loaded.dim(), books.dim());
  EXPECT_EQ(loaded.null_hv(), books.null_hv());
  EXPECT_EQ(loaded.taxonomy(), books.taxonomy());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(loaded.label(c), books.label(c));
    EXPECT_EQ(loaded.other_labels_key(c), books.other_labels_key(c));
  }

  // An HV encoded with the original material factorizes with the loaded one.
  const core::Encoder enc_orig(books);
  const core::Encoder enc_loaded(loaded);
  const core::Factorizer fact_loaded(enc_loaded);
  const tax::Object obj = tax::random_object(taxonomy, rng);
  const auto target = enc_orig.encode_object(obj);
  EXPECT_EQ(fact_loaded.factorize_single(target).to_object(3), obj);
}

TEST(TaxIo, CodebookSetEveryTruncationPointFailsCleanly) {
  // The model files the serving registry loads are full codebook sets; a
  // blob cut at ANY byte boundary must raise std::runtime_error from the
  // loader — never crash, hang, or yield a partially-initialized model.
  util::Xoshiro256 rng(11);
  const tax::Taxonomy taxonomy(2, {3, 2});
  const tax::TaxonomyCodebooks books(taxonomy, 32, rng);
  std::stringstream ss;
  tax::save_codebooks(ss, books);
  const std::string blob = ss.str();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::stringstream truncated(blob.substr(0, cut));
    EXPECT_THROW((void)tax::load_codebooks(truncated), std::runtime_error)
        << "cut at byte " << cut;
  }
  std::stringstream whole(blob);
  EXPECT_EQ(tax::load_codebooks(whole).dim(), 32u);
}

TEST(TaxIo, FileRoundTrip) {
  util::Xoshiro256 rng(5);
  const tax::Taxonomy taxonomy(2, {4});
  const tax::TaxonomyCodebooks books(taxonomy, 128, rng);
  const std::string path = testing::TempDir() + "factorhd_model_test.bin";
  tax::save_codebooks_file(path, books);
  const tax::TaxonomyCodebooks loaded = tax::load_codebooks_file(path);
  EXPECT_EQ(loaded.null_hv(), books.null_hv());
  std::remove(path.c_str());
  EXPECT_THROW((void)tax::load_codebooks_file(path), std::runtime_error);
  EXPECT_THROW(tax::save_codebooks_file("/nonexistent_dir_xyz/m.bin", books),
               std::runtime_error);
}

TEST(TaxIo, FromPartsValidatesShapes) {
  util::Xoshiro256 rng(6);
  const tax::Taxonomy taxonomy(2, {4});
  const tax::TaxonomyCodebooks books(taxonomy, 128, rng);
  // Wrong class count.
  EXPECT_THROW(tax::TaxonomyCodebooks::from_parts(
                   taxonomy, hdc::random_bipolar(128, rng), {}),
               std::invalid_argument);
  // Wrong label dimension.
  std::vector<tax::ClassCodebooks> classes;
  for (std::size_t c = 0; c < 2; ++c) {
    tax::ClassCodebooks cc;
    cc.label = hdc::random_bipolar(64, rng);  // mismatched vs 128-dim NULL
    cc.levels.emplace_back(128, 4, rng);
    classes.push_back(std::move(cc));
  }
  EXPECT_THROW(tax::TaxonomyCodebooks::from_parts(
                   taxonomy, hdc::random_bipolar(128, rng), std::move(classes)),
               std::invalid_argument);
}

}  // namespace
