// FTS1/FTX1 snapshot persistence (hdc/kernels/tiered_snapshot.hpp,
// service/model_snapshot.hpp) — the ISSUE 6 contract from both sides:
//
//  * fidelity — a saved tier index loads back bit-identical on every scan
//    surface (best/above/top_k, Hypervector and PackedQuery), through every
//    load path (stream, mmap, mmap-disabled) and at every SIMD level this
//    host has;
//  * integrity — EVERY single-byte flip and EVERY truncation point of a
//    snapshot throws at load (a snapshot can fail to load, but can never
//    mis-scan), and a forged-but-well-framed structure is still rejected
//    by the from-parts validation;
//  * determinism — the parallel clustering build emits byte-identical
//    snapshots at every thread count;
//  * degeneracy — above()/top_k()/best() fall back to the exact scan when
//    every probed bucket is empty (no surface returns nothing while M > 0);
//  * service — an FTX1 sidecar round trips through save_model_snapshots /
//    load_model_snapshots, verified records are adopted, mismatched ones
//    rejected with the model still correct, corrupt sidecars throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factorizer.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/kernels/tiered_snapshot.hpp"
#include "hdc/random.hpp"
#include "service/model_registry.hpp"
#include "service/model_snapshot.hpp"
#include "taxonomy/generator.hpp"
#include "taxonomy/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace factorhd;
using namespace factorhd::hdc;
using factorhd::util::Xoshiro256;
using kernels::PackedItemMemory;
using kernels::PackedQuery;
using kernels::SimdLevel;
using kernels::TieredConfig;
using kernels::TieredItemMemory;

/// Scoped environment override; restores the previous value on destruction.
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

/// Serializes `tier` to an in-memory byte string.
std::string snapshot_bytes(const TieredItemMemory& tier) {
  std::stringstream ss;
  kernels::save_tiered_index(ss, tier);
  return ss.str();
}

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + leaf;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

/// Deterministic query mix: noisy cleanup hits, random bipolar/ternary,
/// one exact item, the all-zero vector.
std::vector<Hypervector> make_queries(const Codebook& cb, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Hypervector> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(flip_noise(cb.item(rng.uniform(cb.size())), 0.05, rng));
    queries.push_back(random_bipolar(cb.dim(), rng));
    queries.push_back(random_ternary(cb.dim(), 0.4, rng));
  }
  queries.push_back(cb.item(0));
  queries.push_back(Hypervector(cb.dim()));
  return queries;
}

/// Every scan surface of `got`, compared bit-for-bit against `ref`
/// (geometry, results, and ScanStats accounting).
void expect_scans_bit_identical(const TieredItemMemory& ref,
                                const TieredItemMemory& got,
                                const std::vector<Hypervector>& queries) {
  ASSERT_EQ(ref.dim(), got.dim());
  ASSERT_EQ(ref.size(), got.size());
  ASSERT_EQ(ref.clusters(), got.clusters());
  ASSERT_EQ(ref.nprobe(), got.nprobe());
  for (const Hypervector& q : queries) {
    TieredItemMemory::ScanStats rs{}, gs{};
    const Match rb = ref.best(q, &rs);
    const Match gb = got.best(q, &gs);
    EXPECT_EQ(rb.index, gb.index);
    EXPECT_EQ(rb.similarity, gb.similarity);
    EXPECT_EQ(rs.centroid_dots, gs.centroid_dots);
    EXPECT_EQ(rs.row_dots, gs.row_dots);
    expect_same_matches(ref.above(q, 0.01), got.above(q, 0.01));
    expect_same_matches(ref.top_k(q, 7), got.top_k(q, 7));
    // The PackedQuery surface too (what the Factorizer's hot loop uses).
    const std::optional<PackedQuery> pq = PackedQuery::pack(q);
    ASSERT_TRUE(pq.has_value());
    const Match rpb = ref.best(*pq);
    const Match gpb = got.best(*pq);
    EXPECT_EQ(rpb.index, gpb.index);
    EXPECT_EQ(rpb.similarity, gpb.similarity);
    expect_same_matches(ref.top_k(*pq, 5), got.top_k(*pq, 5));
  }
  // The bucket-major block scan: an adopted tier rebuilds its bucket-ordered
  // planes from the snapshot's member lists and must stream them exactly
  // as the built tier does, accounting included.
  std::vector<PackedQuery> block;
  for (const Hypervector& q : queries) block.push_back(*PackedQuery::pack(q));
  std::vector<TieredItemMemory::ScanStats> rs(block.size()), gs(block.size());
  const std::vector<Match> rb = ref.best_block(block, rs.data());
  const std::vector<Match> gb = got.best_block(block, gs.data());
  ASSERT_EQ(rb.size(), gb.size());
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb[i].index, gb[i].index) << "query " << i;
    EXPECT_EQ(rb[i].similarity, gb[i].similarity) << "query " << i;
    EXPECT_EQ(rs[i].centroid_dots, gs[i].centroid_dots) << "query " << i;
    EXPECT_EQ(rs[i].row_dots, gs[i].row_dots) << "query " << i;
    EXPECT_EQ(rs[i].probes, gs[i].probes) << "query " << i;
  }
}

TEST(TieredSnapshot, RoundTripBitIdenticalThroughEveryLoadPath) {
  Xoshiro256 rng(20260806);
  const Codebook cb(1024, 2000, rng);
  const TieredItemMemory tier(cb, {.clusters = 32, .nprobe = 4});
  const std::vector<Hypervector> queries = make_queries(cb, 7);

  // In-memory stream round trip; the predicted size must be exact.
  const std::string bytes = snapshot_bytes(tier);
  EXPECT_EQ(bytes.size(), kernels::tiered_snapshot_bytes(tier));
  EXPECT_EQ(bytes.size() % 64, 0u);
  {
    std::stringstream ss(bytes);
    const auto loaded = kernels::load_tiered_index(ss);
    expect_scans_bit_identical(tier, *loaded, queries);
  }

  // File round trip, mmap (default) and stream-fallback paths.
  const std::string path = temp_path("factorhd_fts1_roundtrip.fts");
  kernels::save_tiered_index(path, tier);
  {
    const auto mapped = kernels::load_tiered_index(path);
    expect_scans_bit_identical(tier, *mapped, queries);
  }
  {
    ScopedEnv no_mmap("FACTORHD_SNAPSHOT_MMAP", "0");
    const auto streamed = kernels::load_tiered_index(path);
    expect_scans_bit_identical(tier, *streamed, queries);
  }

  // Header info reflects the saved geometry without reading the body.
  const kernels::TieredSnapshotInfo info = kernels::read_tiered_index_info(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.dim, tier.dim());
  EXPECT_EQ(info.rows, tier.size());
  EXPECT_EQ(info.clusters, tier.clusters());
  EXPECT_EQ(info.nprobe, tier.nprobe());
  EXPECT_FALSE(info.ternary);
  EXPECT_EQ(info.total_bytes, bytes.size());
  std::remove(path.c_str());
}

TEST(TieredSnapshot, RoundTripAtEveryAvailableSimdLevel) {
  Xoshiro256 rng(31);
  const Codebook cb(513, 300, rng);  // off-word dim: exercises tail masking
  const TieredItemMemory tier(cb, {.clusters = 8, .nprobe = 2});
  const std::string bytes = snapshot_bytes(tier);
  const std::vector<Hypervector> queries = make_queries(cb, 9);
  for (const SimdLevel level :
       {SimdLevel::kScalarWords, SimdLevel::kAVX2, SimdLevel::kAVX512,
        SimdLevel::kNEON}) {
    if (!kernels::simd_level_available(level)) continue;
    std::stringstream ss(bytes);
    const auto loaded = kernels::load_tiered_index(ss, level);
    EXPECT_EQ(loaded->simd_level(), level);
    expect_scans_bit_identical(tier, *loaded, queries);
  }
}

TEST(TieredSnapshot, TernaryRowsRoundTrip) {
  Xoshiro256 rng(47);
  std::vector<Hypervector> items;
  for (int i = 0; i < 200; ++i) {
    items.push_back(random_ternary(256, 0.4, rng));
  }
  const Codebook cb(std::move(items));
  const TieredItemMemory tier(cb, {.clusters = 6, .nprobe = 6});
  const std::string bytes = snapshot_bytes(tier);
  std::stringstream ss(bytes);
  const auto loaded = kernels::load_tiered_index(ss);
  expect_scans_bit_identical(tier, *loaded, make_queries(cb, 11));
  const std::string path = temp_path("factorhd_fts1_ternary.fts");
  write_file(path, bytes);
  const kernels::TieredSnapshotInfo info = kernels::read_tiered_index_info(path);
  EXPECT_TRUE(info.ternary);
  std::remove(path.c_str());
}

TEST(TieredSnapshot, StreamLoadEmbedsInEnclosingFormats) {
  // Two snapshots back to back plus a trailing payload in one stream: each
  // load must consume exactly its snapshot and leave the position at the
  // next byte (the property the FTX1 sidecar reader relies on).
  Xoshiro256 rng(53);
  const Codebook a(192, 64, rng);
  const Codebook b(320, 96, rng);
  const TieredItemMemory ta(a, {.clusters = 4, .nprobe = 4});
  const TieredItemMemory tb(b, {.clusters = 5, .nprobe = 2});
  std::stringstream ss;
  kernels::save_tiered_index(ss, ta);
  kernels::save_tiered_index(ss, tb);
  ss << "TRAILER";
  const auto la = kernels::load_tiered_index(ss);
  expect_scans_bit_identical(ta, *la, make_queries(a, 13));
  const auto lb = kernels::load_tiered_index(ss);
  expect_scans_bit_identical(tb, *lb, make_queries(b, 17));
  std::string tail(7, '\0');
  ss.read(tail.data(), 7);
  EXPECT_EQ(tail, "TRAILER");

  // A single-snapshot *file* load, by contrast, must reject trailing bytes
  // on both the mmap and the stream path.
  const std::string path = temp_path("factorhd_fts1_trailing.fts");
  write_file(path, snapshot_bytes(ta) + std::string(64, '\0'));
  EXPECT_THROW((void)kernels::load_tiered_index(path), std::runtime_error);
  {
    ScopedEnv no_mmap("FACTORHD_SNAPSHOT_MMAP", "0");
    EXPECT_THROW((void)kernels::load_tiered_index(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(TieredSnapshot, EveryTruncationPointThrows) {
  Xoshiro256 rng(61);
  const Codebook cb(128, 64, rng);
  const TieredItemMemory tier(cb, {.clusters = 8, .nprobe = 2});
  const std::string bytes = snapshot_bytes(tier);
  ASSERT_LT(bytes.size(), 4096u) << "keep the exhaustive sweep cheap";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream ss(bytes.substr(0, len));
    EXPECT_THROW((void)kernels::load_tiered_index(ss), std::runtime_error)
        << "truncation at byte " << len << " loaded";
  }
  // The mmap file path enforces the same bound (sampled: file I/O per case).
  const std::string path = temp_path("factorhd_fts1_trunc.fts");
  for (std::size_t len = 0; len < bytes.size(); len += 173) {
    write_file(path, bytes.substr(0, len));
    EXPECT_THROW((void)kernels::load_tiered_index(path), std::runtime_error)
        << "file truncation at byte " << len << " loaded";
  }
  std::remove(path.c_str());
}

TEST(TieredSnapshot, EveryByteFlipThrows) {
  // Flip the low bit of every byte — header words, digests, section data,
  // and alignment padding alike. Each corruption must throw: headers are
  // digest-pinned, sections are digest-pinned, padding is verified zero.
  Xoshiro256 rng(67);
  const Codebook cb(128, 64, rng);
  const TieredItemMemory tier(cb, {.clusters = 8, .nprobe = 2});
  const std::string bytes = snapshot_bytes(tier);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
    std::stringstream ss(corrupt);
    EXPECT_THROW((void)kernels::load_tiered_index(ss), std::runtime_error)
        << "flip at byte " << at << " loaded";
  }
  // Sampled high-bit flips and the mmap file path.
  const std::string path = temp_path("factorhd_fts1_flip.fts");
  for (std::size_t at = 0; at < bytes.size(); at += 131) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x80);
    write_file(path, corrupt);
    EXPECT_THROW((void)kernels::load_tiered_index(path), std::runtime_error)
        << "file flip at byte " << at << " loaded";
  }
  std::remove(path.c_str());
}

TEST(TieredSnapshot, ParallelBuildIsByteIdenticalAcrossThreadCounts) {
  // The build partitions rows into fixed contiguous blocks, so the
  // clustering — and therefore the serialized snapshot — must not depend
  // on worker count. Byte equality of the snapshots pins the whole
  // structure (planes, centroids, CSR, member order) in one comparison.
  Xoshiro256 rng(71);
  const Codebook cb(512, 3000, rng);
  std::optional<std::string> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0} /* auto: pool width */}) {
    const TieredItemMemory tier(
        cb, {.clusters = 64, .nprobe = 8, .build_threads = threads});
    const std::string bytes = snapshot_bytes(tier);
    if (!reference) {
      reference = bytes;
    } else {
      EXPECT_EQ(*reference, bytes) << "build_threads=" << threads;
    }
  }
  // The env knob routes to the same parameter (read per build, not cached).
  {
    ScopedEnv knob("FACTORHD_TIERED_BUILD_THREADS", "2");
    EXPECT_EQ(kernels::tiered_config_from_env().build_threads, 2u);
    const TieredItemMemory tier(
        cb, [] {
          TieredConfig c = kernels::tiered_config_from_env();
          c.clusters = 64;
          c.nprobe = 8;
          return c;
        }());
    EXPECT_EQ(*reference, snapshot_bytes(tier));
  }
}

TEST(TieredSnapshot, DegenerateClusteringFallsBackToExactScan) {
  // Hand-build (from-parts) a pathological clustering: every row lives in
  // bucket 0, buckets 1..3 are empty, and the query is bucket 1's own
  // centroid — so the probe (nprobe=1) selects an empty bucket. All three
  // surfaces must fall back to the full exact scan instead of returning
  // nothing (the ISSUE 6 above()/top_k() bugfix; best() already did).
  Xoshiro256 rng(79);
  const Codebook cb(256, 40, rng);
  const Codebook centroids_cb(256, 4, rng);
  auto rows = std::make_shared<const PackedItemMemory>(cb);
  auto centroids = std::make_shared<const PackedItemMemory>(centroids_cb);
  std::vector<std::size_t> member(40);
  for (std::size_t i = 0; i < member.size(); ++i) member[i] = i;
  const TieredItemMemory tier(rows, centroids, 1, std::move(member),
                              {0, 40, 40, 40, 40});
  ASSERT_EQ(tier.cluster_size(1), 0u);

  const ItemMemory exact(cb, ScanBackend::kScalar);
  const Hypervector q = centroids_cb.item(1);  // stage 1 picks empty bucket 1
  TieredItemMemory::ScanStats stats{};
  const Match got = tier.best(q, &stats);
  const Match ref = exact.best(q);
  EXPECT_EQ(got.index, ref.index);
  EXPECT_EQ(got.similarity, ref.similarity);
  EXPECT_EQ(stats.centroid_dots, 4u);
  EXPECT_EQ(stats.row_dots, 40u);  // fallback accounted as a full scan

  const std::vector<Match> all = tier.above(q, -2.0);
  EXPECT_EQ(all.size(), 40u);  // no surface returns nothing while M > 0
  expect_same_matches(exact.above(q, -2.0), all);
  expect_same_matches(exact.top_k(q, 5), tier.top_k(q, 5));

  // The degenerate structure round-trips through a snapshot unchanged.
  const std::string bytes = snapshot_bytes(tier);
  std::stringstream ss(bytes);
  const auto loaded = kernels::load_tiered_index(ss);
  expect_scans_bit_identical(tier, *loaded, make_queries(cb, 19));
}

TEST(TieredSnapshot, FromPartsRejectsForgedStructures) {
  // A forged-but-checksummed snapshot still cannot build an inconsistent
  // index: the from-parts validation (which the loader funnels through)
  // rejects broken CSR offsets and non-permutation member lists.
  Xoshiro256 rng(83);
  const Codebook cb(128, 16, rng);
  const Codebook centroids_cb(128, 4, rng);
  const auto rows = std::make_shared<const PackedItemMemory>(cb);
  const auto cents = std::make_shared<const PackedItemMemory>(centroids_cb);
  std::vector<std::size_t> member(16);
  for (std::size_t i = 0; i < member.size(); ++i) member[i] = i;

  // Decreasing CSR offsets.
  EXPECT_THROW(TieredItemMemory(rows, cents, 1, std::vector<std::size_t>(member),
                                {0, 12, 8, 16, 16}),
               std::invalid_argument);
  // CSR not ending at M.
  EXPECT_THROW(TieredItemMemory(rows, cents, 1, std::vector<std::size_t>(member),
                                {0, 4, 8, 12, 15}),
               std::invalid_argument);
  // Duplicate member (not a permutation).
  std::vector<std::size_t> dup = member;
  dup[3] = dup[2];
  EXPECT_THROW(TieredItemMemory(rows, cents, 1, std::move(dup),
                                {0, 4, 8, 12, 16}),
               std::invalid_argument);
  // Centroid dimension disagrees with the rows.
  const Codebook wrong_dim(64, 4, rng);
  EXPECT_THROW(TieredItemMemory(
                   rows, std::make_shared<const PackedItemMemory>(wrong_dim),
                   1, std::vector<std::size_t>(member), {0, 4, 8, 12, 16}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Service layer: FTX1 sidecars through save/load_model_snapshots and
// Model::make adoption.
// ---------------------------------------------------------------------------

TEST(ModelSnapshot, SidecarRoundTripAdoptsEveryVerifiedRecord) {
  ScopedEnv min_rows("FACTORHD_TIERED_MIN_ROWS", "64");
  ScopedEnv clusters("FACTORHD_TIERED_CLUSTERS", "8");
  ScopedEnv nprobe("FACTORHD_TIERED_NPROBE", "8");  // exact: results comparable
  const tax::Taxonomy taxonomy(2, {96});
  Xoshiro256 rng_a(20260807);
  const auto reference = service::Model::make(
      "ref", tax::TaxonomyCodebooks(taxonomy, 512, rng_a));
  ASSERT_EQ(reference->factorizer().tier_snapshots().size(), 2u);
  EXPECT_EQ(reference->factorizer().snapshots_adopted(), 0u);

  const std::string path = temp_path("factorhd_model.fhm.tix");
  EXPECT_EQ(service::save_model_snapshots(path, *reference), 2u);
  const core::TierSnapshots snaps = service::load_model_snapshots(path);
  ASSERT_EQ(snaps.size(), 2u);

  // Same codebooks (same seed) + the loaded sidecar: every record verifies
  // and is adopted — no k-means build — and factorization is bit-identical.
  Xoshiro256 rng_b(20260807);
  const auto adopted = service::Model::make(
      "adopted", tax::TaxonomyCodebooks(taxonomy, 512, rng_b),
      ScanBackend::kAuto, &snaps);
  EXPECT_EQ(adopted->factorizer().snapshots_adopted(), 2u);
  EXPECT_EQ(adopted->factorizer().snapshots_rejected(), 0u);
  Xoshiro256 qrng(5);
  for (int i = 0; i < 10; ++i) {
    const tax::Object obj = tax::random_object(taxonomy, qrng);
    const Hypervector target = reference->encoder().encode_object(obj);
    const auto ra = reference->factorizer().factorize(target);
    const auto rb = adopted->factorizer().factorize(target);
    EXPECT_EQ(ra.objects, rb.objects);
  }

  // Different codebooks (different seed): every offer fails the plane
  // verification and is rejected — the model still builds and serves.
  Xoshiro256 rng_c(999);
  const auto mismatched = service::Model::make(
      "mismatched", tax::TaxonomyCodebooks(taxonomy, 512, rng_c),
      ScanBackend::kAuto, &snaps);
  EXPECT_EQ(mismatched->factorizer().snapshots_adopted(), 0u);
  EXPECT_EQ(mismatched->factorizer().snapshots_rejected(), 2u);
  const tax::Object obj = tax::random_object(taxonomy, qrng);
  const Hypervector t = mismatched->encoder().encode_object(obj);
  EXPECT_EQ(mismatched->factorizer().factorize_single(t).classes.size(), 2u);
  std::remove(path.c_str());
}

TEST(ModelSnapshot, CorruptSidecarsAlwaysThrowFromTheLoader) {
  ScopedEnv min_rows("FACTORHD_TIERED_MIN_ROWS", "64");
  ScopedEnv clusters("FACTORHD_TIERED_CLUSTERS", "4");
  const tax::Taxonomy taxonomy(1, {96});
  Xoshiro256 rng(89);
  const auto model = service::Model::make(
      "m", tax::TaxonomyCodebooks(taxonomy, 256, rng));
  const std::string path = temp_path("factorhd_corrupt.fhm.tix");
  ASSERT_EQ(service::save_model_snapshots(path, *model), 1u);

  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  // Missing file.
  EXPECT_THROW((void)service::load_model_snapshots(path + ".nope"),
               std::runtime_error);
  // Garbage that still leads with the magic.
  write_file(path, "FTX1 corrupt sidecar");
  EXPECT_THROW((void)service::load_model_snapshots(path), std::runtime_error);
  // Truncations: mid-framing and mid-blob alike.
  for (std::size_t len = 0; len < bytes.size(); len += 97) {
    write_file(path, bytes.substr(0, len));
    EXPECT_THROW((void)service::load_model_snapshots(path), std::runtime_error)
        << "sidecar truncation at byte " << len << " loaded";
  }
  // Flips inside the embedded FTS1 blob (after the two 64-byte headers)
  // trip the inner digests through the sidecar loader too.
  for (std::size_t at = 128; at < bytes.size(); at += 211) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
    write_file(path, corrupt);
    EXPECT_THROW((void)service::load_model_snapshots(path), std::runtime_error)
        << "sidecar flip at byte " << at << " loaded";
  }
  // The stream path enforces the same guarantees.
  {
    ScopedEnv no_mmap("FACTORHD_SNAPSHOT_MMAP", "0");
    write_file(path, bytes.substr(0, bytes.size() - 64));
    EXPECT_THROW((void)service::load_model_snapshots(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

}  // namespace
