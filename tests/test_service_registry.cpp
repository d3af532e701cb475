// Tests for service::ModelRegistry / service::Model: the hdc::io /
// taxonomy::io loading path the serving runtime depends on, its error
// handling (missing file, truncation, corrupted magic), and the
// load→pack→scan equivalence of a registry-loaded model against in-memory
// construction.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/factorhd.hpp"
#include "service/service.hpp"
#include "taxonomy/io.hpp"

namespace {

using namespace factorhd;

class ServiceRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = util::Xoshiro256(77);
    books_ = std::make_unique<tax::TaxonomyCodebooks>(
        tax::Taxonomy(3, {8, 4}), 1024, rng_);
    // Tests run as concurrent ctest processes; the file name must be
    // unique per test case or a sibling's TearDown races this SetUp.
    path_ = testing::TempDir() + "factorhd_registry_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    tax::save_codebooks_file(path_, *books_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  util::Xoshiro256 rng_{77};
  std::unique_ptr<tax::TaxonomyCodebooks> books_;
  std::string path_;
};

TEST_F(ServiceRegistryTest, LoadPackScanEquivalence) {
  // A model loaded from disk must factorize bit-identically to a model
  // built from the same in-memory material — same packed planes, same
  // scans, same results (index, similarity, op counts).
  service::ModelRegistry registry;
  auto loaded = registry.load_file("m", path_);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->books().dim(), 1024u);
  EXPECT_EQ(loaded->factorizer().scan_backend(), hdc::ScanBackend::kPacked);

  auto direct = service::Model::make("direct", std::move(*books_));
  util::Xoshiro256 rng(5);
  const tax::Taxonomy& taxonomy = loaded->books().taxonomy();
  for (int i = 0; i < 8; ++i) {
    const tax::Object obj = tax::random_object(taxonomy, rng);
    const hdc::Hypervector target = direct->encoder().encode_object(obj);
    // The loaded encoder produces the same bits...
    EXPECT_EQ(loaded->encoder().encode_object(obj), target);
    // ...and the loaded (re-packed) factorizer the same result.
    EXPECT_TRUE(loaded->factorizer().factorize(target, {}) ==
                direct->factorizer().factorize(target, {}));
  }
}

TEST_F(ServiceRegistryTest, LoadedModelServesThroughTheEngine) {
  service::ModelRegistry registry;
  auto model = registry.load_file("m", path_);
  service::FactorizationEngine engine(model,
                                      {.max_batch = 4});
  util::Xoshiro256 rng(6);
  const tax::Object obj =
      tax::random_object(model->books().taxonomy(), rng);
  const hdc::Hypervector target = model->encoder().encode_object(obj);
  auto fut = engine.submit(target);
  EXPECT_TRUE(fut.get() == model->factorizer().factorize(target, {}));
}

TEST_F(ServiceRegistryTest, MissingFileThrows) {
  service::ModelRegistry registry;
  EXPECT_THROW((void)registry.load_file("m", path_ + ".does-not-exist"),
               std::runtime_error);
  EXPECT_EQ(registry.get("m"), nullptr) << "failed load must not register";
}

TEST_F(ServiceRegistryTest, TruncatedFileThrowsAtManyCutPoints) {
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  ASSERT_GT(blob.size(), 64u);
  service::ModelRegistry registry;
  const std::string cut_path = testing::TempDir() + "factorhd_cut_model.bin";
  // Representative truncation points: inside the magic, the taxonomy
  // header, the NULL HV, a codebook, and just shy of the end.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{2}, std::size_t{9}, std::size_t{40},
        blob.size() / 3, blob.size() / 2, blob.size() - 1}) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW((void)registry.load_file("m", cut_path), std::runtime_error)
        << "cut at byte " << cut;
  }
  std::remove(cut_path.c_str());
  EXPECT_EQ(registry.get("m"), nullptr);
}

TEST_F(ServiceRegistryTest, CorruptedMagicThrows) {
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string blob = buf.str();
  blob[0] = static_cast<char>(blob[0] ^ 0x5a);
  const std::string bad_path = testing::TempDir() + "factorhd_bad_magic.bin";
  std::ofstream out(bad_path, std::ios::binary);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();
  service::ModelRegistry registry;
  EXPECT_THROW((void)registry.load_file("m", bad_path), std::runtime_error);
  std::remove(bad_path.c_str());
}

TEST_F(ServiceRegistryTest, RegistryNamesGetEraseAndReplace) {
  service::ModelRegistry registry;
  EXPECT_TRUE(registry.names().empty());
  auto first = registry.load_file("a", path_);
  registry.add("b", std::move(*books_));
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(registry.get("a"), first);

  // Reload replaces the mapping; old holders keep their instance alive.
  auto second = registry.load_file("a", path_);
  EXPECT_NE(registry.get("a"), first);
  EXPECT_EQ(registry.get("a"), second);
  EXPECT_EQ(first->books().dim(), 1024u) << "old model stays valid";

  EXPECT_TRUE(registry.erase("a"));
  EXPECT_FALSE(registry.erase("a"));
  EXPECT_EQ(registry.get("a"), nullptr);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"b"}));
}

TEST_F(ServiceRegistryTest, ForcedBackendIsHonored) {
  service::ModelRegistry registry;
  auto scalar =
      registry.load_file("s", path_, hdc::ScanBackend::kPackedWords);
  EXPECT_EQ(scalar->factorizer().simd_level(),
            hdc::kernels::SimdLevel::kScalarWords);
  auto plain = registry.load_file("p", path_, hdc::ScanBackend::kScalar);
  EXPECT_EQ(plain->factorizer().scan_backend(), hdc::ScanBackend::kScalar);
}

}  // namespace
