// TieredItemMemory: a two-stage (coarse-then-exact) scan index over
// PackedItemMemory for codebooks far larger than the paper's.
//
// The packed word-plane scans made each similarity measurement cheap, but a
// whole-codebook scan still touches every row: O(M) per query. For the
// ROADMAP's million-item memories that linear wall is the remaining cost, so
// this class adds an IVF-style coarse quantization cascade on top of the
// exact kernels:
//
//   build:  k-means-cluster the codebook rows into K coarse buckets whose
//           centroids are bipolar HVs (elementwise majority of the members'
//           sign planes), packed into their own small PackedItemMemory;
//   query:  (1) scan the K centroids with the same SIMD DotKernels,
//           (2) keep the top-`nprobe` buckets,
//           (3) run the exact packed scan only over the surviving buckets'
//               rows (every row lives in exactly one bucket).
//
// Stage 2 streams instead of gathering: at construction (and at snapshot
// adoption) the index copies the row planes into bucket order, so every
// bucket is one contiguous plane range scanned with the batched kernels.
// The copy costs one more M x D/8 bytes (twice that for ternary rows); the
// shared row memory stays in original order for the exact scans and the
// snapshot writer, so the FTS1 format is unchanged. best_block() inverts
// the loop for a batch: one blocked centroid pass, then each probed bucket
// streams once through the QueryBlockKernels against every query that
// chose it.
//
// With the auto configuration (K ≈ 4·sqrt(M), nprobe = K/16) a query costs
// ~K + M/16 dot products instead of M — an O(sqrt(M))-flavoured coarse pass
// plus a small exact pass — at recall@1 ≥ 0.99 on noisy cleanup queries
// (bench/bench_ext_scale.cpp measures both; tests/test_tiered_memory.cpp
// pins a seeded regression bound).
//
// Verification bound: stage 2 only *selects* rows, never approximates their
// similarity — candidate rows always get the exact kernel dot, reductions
// use the canonical tie rules (argmax keeps the lowest index, sorted results
// use hdc::match_order). Therefore `nprobe >= clusters()` degenerates to a
// full exact scan that is bit-identical (index, similarity, ordering) to
// PackedItemMemory on every surface, at every SIMD tier — the property
// tests/test_kernel_fuzz.cpp asserts differentially. Approximation can only
// ever *miss* rows, never mis-rank the rows it scans, which is what makes
// the Factorizer's stall-triggered exact re-scan (core/factorizer.hpp) a
// sound fallback.
//
// Construction is deterministic: centroid seeding and the k-means sample are
// evenly spaced over the row index space, ties resolve to the lowest index,
// and the majority rule is fixed — the same codebook and config always build
// the same index, independent of timing, thread count, or platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc::kernels {

/// Build-time configuration of a TieredItemMemory. Zeros mean "auto": the
/// resolved values are deterministic functions of the codebook row count
/// (see resolve()). The FACTORHD_TIERED_CLUSTERS / FACTORHD_TIERED_NPROBE
/// env knobs pre-fill clusters/nprobe via tiered_config_from_env().
struct TieredConfig {
  /// Coarse bucket count K; 0 = auto: min(M, max(2, 4 * ceil(sqrt(M)))).
  std::size_t clusters = 0;
  /// Buckets probed per query; 0 = auto: max(1, K / 16). Values >= K make
  /// every scan exact (the verification bound).
  std::size_t nprobe = 0;
  /// Adaptive per-query probing floor/ceiling (0 = disabled). With
  /// nprobe_max > 0 the probe count is derived per query from the stage-1
  /// centroid-score margin: at least nprobe_min buckets are always probed,
  /// then every further centroid whose score sits within a few noise
  /// standard deviations (~3 * sqrt(dim) in dot units) of the best one, up
  /// to nprobe_max. Confident queries (a clear coarse winner) stop at the
  /// floor; ambiguous ones escalate toward the ceiling — toward exact when
  /// nprobe_max == K. nprobe_min of 0 means auto: max(1, resolved
  /// nprobe / 8); nprobe_min >= K forces every scan exact and bit-identical
  /// to PackedItemMemory, the same verification bound as nprobe >= K
  /// (tests/test_adaptive_nprobe.cpp pins it). Both are pre-filled from
  /// FACTORHD_TIERED_NPROBE_MIN / _MAX by tiered_config_from_env(). The
  /// fixed `nprobe` above is ignored while adaptive probing is enabled
  /// (except as the basis of the auto floor). Selection is a pure function
  /// of (index, query), so probe accounting stays deterministic.
  std::size_t nprobe_min = 0;
  std::size_t nprobe_max = 0;
  /// Lloyd iterations of the sampled k-means refinement.
  std::size_t kmeans_iters = 4;
  /// Rows sampled for the refinement; 0 = auto: min(M, 8 * K). The final
  /// assignment pass always places all M rows.
  std::size_t kmeans_sample = 0;
  /// Worker threads of the build's assignment passes; 0 = auto: the scan
  /// pool width (FACTORHD_SCAN_THREADS, see scan_pool_width()). Rows are
  /// partitioned into fixed contiguous blocks writing disjoint slices, so
  /// the built index is bit-identical for every value. Pre-filled from
  /// FACTORHD_TIERED_BUILD_THREADS by tiered_config_from_env().
  std::size_t build_threads = 0;
  /// Assign rows by scanning all K centroids at full width instead of the
  /// default prefix-screened scan (see build() — screening cuts the
  /// dominant O(M·K) assignment cost ~5-6x for large K). Both modes are
  /// deterministic and yield equally valid clusterings, but not always the
  /// same one; the exhaustive mode is the reference the build benchmark
  /// compares against.
  bool exhaustive_build = false;

  bool operator==(const TieredConfig&) const = default;
};

/// TieredConfig with clusters/nprobe pre-filled from the
/// FACTORHD_TIERED_CLUSTERS / FACTORHD_TIERED_NPROBE env knobs (0 = keep
/// auto). Read per call — not cached — so tests and operators can retune
/// between model loads.
[[nodiscard]] TieredConfig tiered_config_from_env();

/// Row-count threshold at/above which hdc::ItemMemory's kAuto backend builds
/// the tiered index: FACTORHD_TIERED_MIN_ROWS (default 0, which disables
/// auto-tiering so kAuto never approximates; the exact bound-pruned packed
/// argmax is as fast as the tier on factorization queries). Read per call,
/// not cached.
[[nodiscard]] std::size_t tiered_auto_min_rows();

class TieredItemMemory {
 public:
  /// Per-scan cost accounting in the paper's similarity-measurement unit,
  /// filled by the scan methods when a non-null pointer is passed (the hook
  /// hdc::ItemMemory's similarity_ops counter is fed from).
  struct ScanStats {
    std::uint64_t centroid_dots = 0;  ///< stage-1 coarse scan cost
    std::uint64_t row_dots = 0;       ///< stage-2 exact candidate cost
    /// Buckets stage 1 selected for this scan — nprobe() on fixed-probe
    /// indexes, the margin-derived per-query count in [nprobe_min(),
    /// nprobe_max()] on adaptive ones. A pure function of (index, query):
    /// deterministic under concurrent batch workers.
    std::uint64_t probes = 0;
  };

  /// Adopts `codebook`'s planes and builds the tier index over them.
  /// \param codebook Source codebook (bipolar or ternary entries); its
  ///   plane storage is kept alive by the index.
  /// \param config Cluster/probe configuration (zeros = auto).
  /// \param level SIMD tier for both scan stages; std::nullopt = dispatched.
  /// \throws std::invalid_argument When the codebook has no planes.
  explicit TieredItemMemory(const Codebook& codebook, TieredConfig config = {},
                            std::optional<SimdLevel> level = std::nullopt);

  /// Builds the tier index over an already-packed memory (shared, immutable;
  /// the path hdc::ItemMemory and service::Model take so exact and tiered
  /// scans share one set of row planes).
  /// \param rows Packed codebook rows; must be non-null.
  /// \param config Cluster/probe configuration (zeros = auto).
  /// \throws std::invalid_argument When `rows` is null.
  TieredItemMemory(std::shared_ptr<const PackedItemMemory> rows,
                   TieredConfig config = {});

  /// Adopts a prebuilt clustering without running k-means — the snapshot
  /// load path (tiered_snapshot.hpp). Validates every structural invariant
  /// the scans rely on; the caller (the snapshot loader) has already
  /// verified section digests, so a throw here means a semantically
  /// inconsistent (not just bit-corrupted) snapshot.
  /// \param rows Packed codebook rows (non-null).
  /// \param centroids Packed bipolar centroid memory (non-null, same dim
  ///   and SIMD tier as `rows`).
  /// \param nprobe Buckets probed per query; clamped to [1, K].
  /// \param member_rows Concatenated bucket member lists (a permutation of
  ///   0..M-1, ascending within each bucket).
  /// \param cluster_begin CSR offsets (K+1 entries, non-decreasing, first 0,
  ///   last M).
  /// \param nprobe_min Adaptive probing floor; meaningful only with
  ///   `nprobe_max` > 0, same resolution as TieredConfig::nprobe_min (0 =
  ///   auto). The snapshot loader passes neither (fixed probing); the bench
  ///   uses them to re-view an already-built clustering adaptively.
  /// \param nprobe_max Adaptive probing ceiling; 0 (the default) keeps
  ///   probing fixed, same semantics as TieredConfig::nprobe_max.
  /// \throws std::invalid_argument On any violated invariant.
  TieredItemMemory(std::shared_ptr<const PackedItemMemory> rows,
                   std::shared_ptr<const PackedItemMemory> centroids,
                   std::size_t nprobe, std::vector<std::size_t> member_rows,
                   std::vector<std::size_t> cluster_begin,
                   std::size_t nprobe_min = 0, std::size_t nprobe_max = 0);

  [[nodiscard]] std::size_t size() const noexcept { return rows_->size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return rows_->dim(); }
  /// \return Resolved coarse bucket count K (>= 1, <= size()).
  [[nodiscard]] std::size_t clusters() const noexcept {
    return centroids_->size();
  }
  /// \return Resolved buckets probed per query (>= 1, <= clusters()) when
  ///   probing is fixed; ignored while adaptive() (see nprobe_min/max()).
  [[nodiscard]] std::size_t nprobe() const noexcept { return nprobe_; }
  /// \return True when the per-query probe count is margin-derived
  ///   (TieredConfig::nprobe_max > 0) rather than fixed.
  [[nodiscard]] bool adaptive() const noexcept { return nprobe_max_ > 0; }
  /// \return Adaptive probing floor (0 when adaptive() is false).
  [[nodiscard]] std::size_t nprobe_min() const noexcept { return nprobe_min_; }
  /// \return Adaptive probing ceiling (0 when adaptive() is false).
  [[nodiscard]] std::size_t nprobe_max() const noexcept { return nprobe_max_; }
  /// \return True when every scan is exact: the fixed nprobe() — or the
  ///   adaptive floor, which lower-bounds every per-query count — covers
  ///   all clusters.
  [[nodiscard]] bool exact() const noexcept {
    return (adaptive() ? nprobe_min_ : nprobe_) >= centroids_->size();
  }
  /// \return The SIMD tier both stages execute at (the row memory's tier).
  [[nodiscard]] SimdLevel simd_level() const noexcept {
    return rows_->simd_level();
  }
  /// \return The exact packed row memory in original row order — the
  ///   exact-fallback surface (every PackedItemMemory query works on it)
  ///   and what the snapshot writer serializes. Stage 2 scans a
  ///   bucket-ordered copy of its planes.
  [[nodiscard]] const PackedItemMemory& rows() const noexcept {
    return *rows_;
  }
  /// \return Shared handle to the row memory (for consumers that outlive
  ///   this index, e.g. ItemMemory copies).
  [[nodiscard]] std::shared_ptr<const PackedItemMemory> shared_rows()
      const noexcept {
    return rows_;
  }
  /// \return Number of rows in bucket `c`. Precondition: c < clusters().
  [[nodiscard]] std::size_t cluster_size(std::size_t c) const noexcept {
    return cluster_begin_[c + 1] - cluster_begin_[c];
  }
  /// \return The packed centroid memory (stage 1; the snapshot writer
  ///   serializes its sign plane).
  [[nodiscard]] const PackedItemMemory& centroid_memory() const noexcept {
    return *centroids_;
  }
  /// \return Shared handle to the centroid memory — with shared_rows(),
  ///   member_rows(), and cluster_begins() enough to adopt this clustering
  ///   into another index (e.g. an adaptive-probing view of the same build).
  [[nodiscard]] std::shared_ptr<const PackedItemMemory> shared_centroids()
      const noexcept {
    return centroids_;
  }
  /// \return Concatenated bucket member lists (see cluster_begins()).
  [[nodiscard]] std::span<const std::size_t> member_rows() const noexcept {
    return member_rows_;
  }
  /// \return CSR bucket offsets: clusters()+1 entries; bucket c's rows are
  ///   member_rows()[cluster_begins()[c] .. cluster_begins()[c+1]).
  [[nodiscard]] std::span<const std::size_t> cluster_begins() const noexcept {
    return cluster_begin_;
  }

  // --- Tiered scans (approximate when nprobe() < clusters()) --------------
  // Candidate rows are always measured with the exact kernels and reduced
  // under the canonical tie rules, so nprobe >= clusters is bit-identical to
  // the PackedItemMemory scans. All methods throw std::invalid_argument on a
  // query dimension mismatch.

  /// Argmax over the probed buckets' rows; lowest index wins ties.
  [[nodiscard]] Match best(const PackedQuery& query,
                           ScanStats* stats = nullptr) const;
  /// best() for every query of the block, bucket-major: stage 1 scans the
  /// centroids for all queries in one blocked pass, then each probed bucket
  /// streams once through the QueryBlockKernels against the queries that
  /// chose it. Results, the empty-bucket exact fallback, and the per-query
  /// accounting are bit-identical to calling best() per query.
  /// \param queries Packed queries; each must match dim().
  /// \param stats When non-null, must point at queries.size() entries;
  ///   stats[q] accumulates query q's cost exactly as best() would.
  /// \return One Match per query, in query order.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const PackedQuery> queries, ScanStats* stats = nullptr) const;
  /// Matches above `threshold` among the probed buckets' rows, sorted by
  /// hdc::match_order.
  [[nodiscard]] std::vector<Match> above(const PackedQuery& query,
                                         double threshold,
                                         ScanStats* stats = nullptr) const;
  /// Top-k among the probed buckets' rows, sorted by hdc::match_order;
  /// k is clamped to the candidate count.
  [[nodiscard]] std::vector<Match> top_k(const PackedQuery& query,
                                         std::size_t k,
                                         ScanStats* stats = nullptr) const;

  // Convenience overloads that pack the query internally (same alphabet
  // contract as PackedItemMemory: bipolar/ternary queries only).
  [[nodiscard]] Match best(const Hypervector& query,
                           ScanStats* stats = nullptr) const;
  [[nodiscard]] std::vector<Match> above(const Hypervector& query,
                                         double threshold,
                                         ScanStats* stats = nullptr) const;
  [[nodiscard]] std::vector<Match> top_k(const Hypervector& query,
                                         std::size_t k,
                                         ScanStats* stats = nullptr) const;

 private:
  /// Deterministic k-means build: seed centroids at evenly spaced rows,
  /// refine on an evenly spaced sample, then assign every row once. The
  /// assignment passes run over fixed row blocks across
  /// TieredConfig::build_threads workers and, for large K, screen centroids
  /// by prefix dots before exact rescoring (see the .cpp) — both
  /// bit-identical for any thread count.
  void build(const TieredConfig& config);
  /// Exact dot of row `row` (possibly ternary) with bipolar centroid plane
  /// `cent` via the row memory's kernel table.
  [[nodiscard]] std::int64_t row_centroid_dot(
      std::size_t row, const std::uint64_t* cent) const noexcept;
  /// Index of the centroid (in `planes`, K rows of words each) nearest to
  /// `row`; lowest index wins ties.
  [[nodiscard]] std::size_t nearest_centroid(
      std::size_t row, const std::vector<std::uint64_t>& planes,
      std::size_t k) const noexcept;
  /// Screened variant: ranks all K centroids by the dot over the first
  /// `prefix_words` plane words (batch-scanned from `prefix_planes`, a
  /// contiguous K x prefix_words copy of the centroid prefixes), exactly
  /// rescores the top `keep`, and returns their argmax (lowest index on
  /// ties). `prefix_dot` is K-sized scratch, `hist` is a
  /// 2*prefix_words*64+1 sized dot histogram used to pick the survivor set
  /// deterministically under a strict total order (partial dot desc, index
  /// asc) in O(K) instead of a comparison select.
  [[nodiscard]] std::size_t nearest_centroid_screened(
      std::size_t row, const std::vector<std::uint64_t>& planes,
      const std::vector<std::uint64_t>& prefix_planes, std::size_t k,
      std::size_t prefix_words, std::size_t keep,
      std::span<std::int64_t> prefix_dot,
      std::span<std::uint32_t> hist) const noexcept;
  /// Copies the row planes into bucket order (bucket_sign_/_nonzero_).
  void order_planes();
  /// How many of the match_order-sorted centroid scores `top` to probe: all
  /// of them on fixed-probe indexes, the margin-rule prefix on adaptive ones.
  [[nodiscard]] std::size_t probe_count(
      std::span<const Match> top) const noexcept;
  /// The probed buckets for `query`: indices of the top-nprobe centroids.
  [[nodiscard]] std::vector<std::size_t> probe(const PackedQuery& query,
                                               ScanStats* stats) const;
  /// Exact dots of `query` with bucket-ordered rows [begin, end) into
  /// out[0 .. end - begin) — the same integers the row memory's scans
  /// compute for those rows.
  void range_dots(const PackedQuery& query, std::size_t begin,
                  std::size_t end, std::int64_t* out) const noexcept;
  /// Exact dots of `query` with every row of `buckets`, bucket by bucket in
  /// the given order, members in cluster-list order.
  [[nodiscard]] std::vector<std::int64_t> probed_dots(
      const PackedQuery& query, std::span<const std::size_t> buckets) const;
  [[nodiscard]] PackedQuery pack_query(const Hypervector& query) const;

  std::shared_ptr<const PackedItemMemory> rows_;
  /// Packed bipolar centroid memory (stage 1); never null, size K >= 1.
  std::shared_ptr<const PackedItemMemory> centroids_;
  std::size_t nprobe_ = 1;
  /// Adaptive probing bounds; both 0 (fixed probing) unless
  /// TieredConfig::nprobe_max — or the adoption ctor's nprobe_max — was set.
  /// The snapshot loader never sets them: loaded indexes probe fixed.
  std::size_t nprobe_min_ = 0;
  std::size_t nprobe_max_ = 0;
  /// CSR bucket membership: rows of bucket c are member_rows_[
  /// cluster_begin_[c] .. cluster_begin_[c+1]), ascending within a bucket.
  std::vector<std::size_t> member_rows_;
  std::vector<std::size_t> cluster_begin_;
  /// Row planes in bucket order: ordered row i is original row
  /// member_rows_[i], so bucket c is the contiguous range [cluster_begin_[c],
  /// cluster_begin_[c+1]). The nonzero copy is empty in bipolar layout.
  std::vector<std::uint64_t> bucket_sign_;
  std::vector<std::uint64_t> bucket_nonzero_;
};

}  // namespace factorhd::hdc::kernels
