#include "hdc/kernels/tiered_item_memory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "hdc/kernels/row_blocks.hpp"
#include "util/env.hpp"

namespace factorhd::hdc::kernels {

namespace {

// Screened assignment (see build()) engages once the centroid count makes
// the exhaustive O(K) scan clearly dearer than the prefix screen's
// ~K/8 + K/32 full-dot equivalents, and the planes are wide enough that a
// 1/8 prefix still carries a usable ranking signal. Both bounds are quality
// gates as much as cost gates: at small K or narrow planes the prefix
// ranking gets noisy enough to visibly dent recall (the seeded regression
// in tests/test_tiered_memory.cpp patrols the K=256 point).
constexpr std::size_t kScreenMinCentroids = 512;
constexpr std::size_t kScreenMinWords = 16;

// Assignment batches below this size stay sequential: one assignment costs
// on the order of 10 us, so smaller batches cannot amortize thread
// spawn+join.
constexpr std::size_t kParallelAssignMinRows = 1024;

// Adaptive probing margin, in units of the centroid-dot noise standard
// deviation sqrt(dim) (a random +-1 query against a random bipolar centroid
// has dot stddev sqrt(dim)). A centroid scoring within this many sigma of
// the stage-1 winner is still a plausible home for the true match, so its
// bucket is probed; everything further behind is dropped once the floor is
// satisfied. 3 sigma keeps the false-drop probability per bucket below
// ~1e-3 while letting confident queries stop at the floor.
constexpr double kAdaptiveMarginSigma = 3.0;

}  // namespace

TieredConfig tiered_config_from_env() {
  TieredConfig cfg;
  cfg.clusters =
      util::env_size_t("FACTORHD_TIERED_CLUSTERS", 0, 0, std::size_t{1} << 24);
  cfg.nprobe =
      util::env_size_t("FACTORHD_TIERED_NPROBE", 0, 0, std::size_t{1} << 24);
  cfg.nprobe_min = util::env_size_t("FACTORHD_TIERED_NPROBE_MIN", 0, 0,
                                    std::size_t{1} << 24);
  cfg.nprobe_max = util::env_size_t("FACTORHD_TIERED_NPROBE_MAX", 0, 0,
                                    std::size_t{1} << 24);
  cfg.build_threads =
      util::env_size_t("FACTORHD_TIERED_BUILD_THREADS", 0, 0, 256);
  return cfg;
}

std::size_t tiered_auto_min_rows() {
  return util::env_size_t("FACTORHD_TIERED_MIN_ROWS", 0, 0,
                          std::size_t{1} << 30);
}

TieredItemMemory::TieredItemMemory(const Codebook& codebook,
                                   TieredConfig config,
                                   std::optional<SimdLevel> level)
    : rows_(std::make_shared<const PackedItemMemory>(codebook, level)) {
  build(config);
}

TieredItemMemory::TieredItemMemory(
    std::shared_ptr<const PackedItemMemory> rows, TieredConfig config)
    : rows_(std::move(rows)) {
  if (!rows_) {
    throw std::invalid_argument("TieredItemMemory: null row memory");
  }
  build(config);
}

TieredItemMemory::TieredItemMemory(
    std::shared_ptr<const PackedItemMemory> rows,
    std::shared_ptr<const PackedItemMemory> centroids, std::size_t nprobe,
    std::vector<std::size_t> member_rows, std::vector<std::size_t> cluster_begin,
    std::size_t nprobe_min, std::size_t nprobe_max)
    : rows_(std::move(rows)),
      centroids_(std::move(centroids)),
      member_rows_(std::move(member_rows)),
      cluster_begin_(std::move(cluster_begin)) {
  if (!rows_ || !centroids_) {
    throw std::invalid_argument("TieredItemMemory: null memory adoption");
  }
  const std::size_t m = rows_->size();
  const std::size_t k = centroids_->size();
  if (centroids_->dim() != rows_->dim() ||
      centroids_->layout() != PackedItemMemory::Layout::kBipolar ||
      centroids_->simd_level() != rows_->simd_level()) {
    throw std::invalid_argument(
        "TieredItemMemory: centroid memory incompatible with row memory");
  }
  nprobe_ = std::clamp<std::size_t>(nprobe, 1, k);
  if (nprobe_max > 0) {
    // Same resolution as build(): floor <= ceiling, both in [1, K].
    nprobe_min_ = nprobe_min == 0 ? std::max<std::size_t>(1, nprobe_ / 8)
                                  : std::min(nprobe_min, k);
    nprobe_max_ =
        std::max(nprobe_min_, std::clamp<std::size_t>(nprobe_max, 1, k));
  }
  if (cluster_begin_.size() != k + 1 || cluster_begin_.front() != 0 ||
      cluster_begin_.back() != m) {
    throw std::invalid_argument("TieredItemMemory: malformed cluster offsets");
  }
  if (member_rows_.size() != m) {
    throw std::invalid_argument("TieredItemMemory: malformed member list");
  }
  // The CSR structure the scans walk blind: offsets non-decreasing, members
  // ascending within each bucket, and the whole list a permutation of the
  // row indices (each checked row is marked seen exactly once).
  std::vector<bool> seen(m, false);
  for (std::size_t c = 0; c < k; ++c) {
    if (cluster_begin_[c] > cluster_begin_[c + 1]) {
      throw std::invalid_argument(
          "TieredItemMemory: cluster offsets not non-decreasing");
    }
    for (std::size_t i = cluster_begin_[c]; i < cluster_begin_[c + 1]; ++i) {
      const std::size_t row = member_rows_[i];
      if (row >= m || seen[row] ||
          (i > cluster_begin_[c] && member_rows_[i - 1] >= row)) {
        throw std::invalid_argument(
            "TieredItemMemory: member list is not an ascending partition of "
            "the rows");
      }
      seen[row] = true;
    }
  }
  order_planes();
}

void TieredItemMemory::order_planes() {
  const std::size_t words = rows_->words_per_row();
  const std::size_t m = member_rows_.size();
  const bool ternary = rows_->layout() == PackedItemMemory::Layout::kTernary;
  bucket_sign_.resize(m * words);
  bucket_nonzero_.resize(ternary ? m * words : 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t row = member_rows_[i];
    std::ranges::copy(rows_->row_sign(row), &bucket_sign_[i * words]);
    if (ternary) {
      std::ranges::copy(rows_->row_nonzero(row), &bucket_nonzero_[i * words]);
    }
  }
}

std::int64_t TieredItemMemory::row_centroid_dot(
    std::size_t row, const std::uint64_t* cent) const noexcept {
  const DotKernels& k = dot_kernels(rows_->simd_level());
  const std::size_t words = rows_->words_per_row();
  const std::uint64_t* sign = rows_->row_sign(row).data();
  if (rows_->layout() == PackedItemMemory::Layout::kBipolar) {
    return k.bipolar_bipolar(sign, cent, words, rows_->dim());
  }
  return k.bipolar_ternary(cent, rows_->row_nonzero(row).data(), sign, words);
}

std::size_t TieredItemMemory::nearest_centroid(
    std::size_t row, const std::vector<std::uint64_t>& planes,
    std::size_t k) const noexcept {
  const std::size_t words = rows_->words_per_row();
  std::size_t best = 0;
  std::int64_t best_dot = row_centroid_dot(row, planes.data());
  for (std::size_t c = 1; c < k; ++c) {
    const std::int64_t d = row_centroid_dot(row, &planes[c * words]);
    if (d > best_dot) {  // strict: ties keep the lowest centroid index
      best_dot = d;
      best = c;
    }
  }
  return best;
}

std::size_t TieredItemMemory::nearest_centroid_screened(
    std::size_t row, const std::vector<std::uint64_t>& planes,
    const std::vector<std::uint64_t>& prefix_planes, std::size_t k,
    std::size_t prefix_words, std::size_t keep,
    std::span<std::int64_t> prefix_dot,
    std::span<std::uint32_t> hist) const noexcept {
  const BatchDotKernels& batch = batch_dot_kernels(rows_->simd_level());
  const std::size_t words = rows_->words_per_row();
  const std::uint64_t* sign = rows_->row_sign(row).data();
  // Partial dots over the plane prefix — exact dots of the first
  // prefix_words*64 dimensions (prefix_words < words, so no tail masking).
  const std::size_t prefix_dim = prefix_words * kWordBits;
  if (rows_->layout() == PackedItemMemory::Layout::kBipolar) {
    batch.bipolar_rows(sign, prefix_planes.data(), k, prefix_words,
                       prefix_words, prefix_dim, prefix_dot.data());
  } else {
    batch.ternary_rows(rows_->row_nonzero(row).data(), sign,
                       prefix_planes.data(), k, prefix_words, prefix_words,
                       prefix_dot.data());
  }
  // Survivor selection by dot histogram: prefix dots live in
  // [-prefix_dim, prefix_dim], so bucket counts give the keep-th largest
  // value (the threshold t) in one O(K) pass plus a bounded walk — the same
  // survivor set a comparison select under (dot desc, index asc) yields:
  // every centroid above t plus the lowest-indexed ones exactly at t.
  std::fill(hist.begin(), hist.end(), 0);
  const auto bias = static_cast<std::int64_t>(prefix_dim);
  for (std::size_t c = 0; c < k; ++c) {
    ++hist[static_cast<std::size_t>(prefix_dot[c] + bias)];
  }
  std::size_t t = hist.size();
  std::size_t above = 0;  // survivors strictly above the threshold
  for (std::size_t cum = 0; t-- > 0;) {
    cum += hist[t];
    if (cum >= keep) {
      above = cum - hist[t];
      break;
    }
  }
  std::size_t at_threshold = keep - above;
  // Exact rescoring of the survivors, in ascending centroid order — strict
  // improvement gives the canonical lowest-index tie rule for free.
  const auto threshold = static_cast<std::int64_t>(t) - bias;
  std::size_t best = k;
  std::int64_t best_dot = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (prefix_dot[c] < threshold) continue;
    if (prefix_dot[c] == threshold) {
      if (at_threshold == 0) continue;
      --at_threshold;
    }
    const std::int64_t d = row_centroid_dot(row, &planes[c * words]);
    if (best == k || d > best_dot) {
      best = c;
      best_dot = d;
    }
  }
  return best;
}

void TieredItemMemory::build(const TieredConfig& config) {
  const std::size_t m = rows_->size();
  const std::size_t dim = rows_->dim();
  const std::size_t words = rows_->words_per_row();

  // Resolve the configuration deterministically from the row count. The
  // auto K ≈ 4·sqrt(M) balances the two stages (K centroid dots vs
  // nprobe·M/K candidate dots) while keeping buckets small enough that the
  // member–centroid correlation ~ sqrt(2/(π·M/K)) stays a usable signal.
  std::size_t k = config.clusters;
  if (k == 0) {
    const auto root = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(m))));
    k = std::max<std::size_t>(2, 4 * root);
  }
  k = std::clamp<std::size_t>(k, 1, m);
  nprobe_ = config.nprobe == 0 ? std::max<std::size_t>(1, k / 16)
                               : std::min(config.nprobe, k);
  if (config.nprobe_max > 0) {
    // Adaptive probing: resolve floor <= ceiling, both in [1, K]. An auto
    // floor of nprobe/8 keeps confident queries ~8x cheaper than the fixed
    // default while the margin rule escalates ambiguous ones. A floor of K
    // (the ceiling is raised to meet it) makes every scan exact — the same
    // verification bound as nprobe >= K.
    nprobe_min_ = config.nprobe_min == 0
                      ? std::max<std::size_t>(1, nprobe_ / 8)
                      : std::min(config.nprobe_min, k);
    nprobe_max_ =
        std::max(nprobe_min_, std::clamp<std::size_t>(config.nprobe_max, 1, k));
  }

  // Seed centroids from evenly spaced rows (deterministic, duplicate-safe:
  // a duplicated seed just yields an empty bucket after assignment).
  std::vector<std::uint64_t> cent(k * words);
  for (std::size_t c = 0; c < k; ++c) {
    const auto sign = rows_->row_sign(c * m / k);
    std::copy(sign.begin(), sign.end(), cent.begin() + c * words);
  }

  // Sampled Lloyd refinement: assign an evenly spaced row sample to its
  // nearest centroid, then replace each centroid with the elementwise
  // majority sign of its members (ties -> +1; empty buckets keep their old
  // centroid). Ternary rows contribute their sign plane with zeros counted
  // as -1 — clustering is a routing structure, exactness never depends on it.
  std::size_t sample = config.kmeans_sample == 0
                           ? std::min(m, 8 * k)
                           : std::min(config.kmeans_sample, m);
  sample = std::max(sample, std::min(m, k));
  std::vector<std::size_t> srows(sample);
  for (std::size_t j = 0; j < sample; ++j) srows[j] = j * m / sample;

  // Assignment machinery. The assign passes dominate the build (O(M·K) dots
  // exhaustively), so two orthogonal accelerations apply, both preserving
  // the determinism contract of the header:
  //
  //  - Prefix screening: for large K, score every centroid on the first
  //    words/8 plane words only (~K/8 full-dot equivalents), keep the
  //    top-K/32 by that partial dot, and rescore the survivors with exact
  //    full-width dots. The survivor *set* is deterministic (the selection
  //    order is a strict total order: partial dot desc, index asc) and the
  //    final argmax uses the canonical lowest-index tie rule, so screening
  //    is bit-stable; it can at worst place a row in a near-best bucket.
  //    config.exhaustive_build forces the all-K reference scan instead.
  //  - Fixed-block threading: rows are partitioned into contiguous blocks
  //    across the build workers; each element of the output depends only on
  //    its own row, so any worker count produces identical bits.
  const bool screened = !config.exhaustive_build &&
                        k >= kScreenMinCentroids && words >= kScreenMinWords;
  const std::size_t screen_words = screened ? words / 8 : 0;
  const std::size_t screen_keep =
      screened ? std::min(k, std::max<std::size_t>(64, k / 32)) : 0;
  const std::size_t build_workers =
      config.build_threads != 0 ? config.build_threads : scan_pool_width();

  // Fills out[j] with the cluster of row idx[j] (or row j when `idx` is
  // empty) against the current centroid planes.
  std::vector<std::uint64_t> prefix_planes(screened ? k * screen_words : 0);
  const auto assign_pass = [&](const std::vector<std::uint64_t>& cent,
                               std::span<const std::size_t> idx,
                               std::span<std::size_t> out) {
    const std::size_t n = out.size();
    const std::size_t workers =
        n >= kParallelAssignMinRows ? build_workers : 1;
    if (screened) {
      // Contiguous copy of the centroid prefixes, so the per-row batch scan
      // streams K*prefix_words sequential words instead of striding through
      // the full planes (shared read-only across the workers).
      for (std::size_t c = 0; c < k; ++c) {
        std::copy_n(&cent[c * words], screen_words,
                    &prefix_planes[c * screen_words]);
      }
    }
    run_row_blocks(n, workers, [&](std::size_t begin, std::size_t end) {
      if (screened) {
        // Per-worker scratch, reused across the block's rows.
        std::vector<std::int64_t> prefix_dot(k);
        std::vector<std::uint32_t> hist(2 * screen_words * kWordBits + 1);
        for (std::size_t j = begin; j < end; ++j) {
          out[j] = nearest_centroid_screened(idx.empty() ? j : idx[j], cent,
                                             prefix_planes, k, screen_words,
                                             screen_keep, prefix_dot, hist);
        }
      } else {
        for (std::size_t j = begin; j < end; ++j) {
          out[j] = nearest_centroid(idx.empty() ? j : idx[j], cent, k);
        }
      }
    });
  };

  std::vector<std::size_t> assign(sample);
  std::vector<std::size_t> bucket_count(k);
  std::vector<std::size_t> bucket_cursor(k + 1);
  std::vector<std::size_t> by_bucket(sample);
  std::vector<std::uint32_t> ones(dim);
  for (std::size_t iter = 0; iter < config.kmeans_iters; ++iter) {
    assign_pass(cent, srows, assign);
    // Counting-sort the sample by bucket so each update pass is contiguous.
    std::fill(bucket_count.begin(), bucket_count.end(), 0);
    for (std::size_t j = 0; j < sample; ++j) ++bucket_count[assign[j]];
    bucket_cursor[0] = 0;
    for (std::size_t c = 0; c < k; ++c) {
      bucket_cursor[c + 1] = bucket_cursor[c] + bucket_count[c];
    }
    std::vector<std::size_t> cursor(bucket_cursor.begin(),
                                    bucket_cursor.end() - 1);
    for (std::size_t j = 0; j < sample; ++j) {
      by_bucket[cursor[assign[j]]++] = srows[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t members = bucket_count[c];
      if (members == 0) continue;
      std::fill(ones.begin(), ones.end(), 0);
      for (std::size_t i = bucket_cursor[c]; i < bucket_cursor[c + 1]; ++i) {
        const auto sign = rows_->row_sign(by_bucket[i]);
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = sign[w];
          while (bits != 0) {
            const int b = std::countr_zero(bits);
            ++ones[w * kWordBits + static_cast<std::size_t>(b)];
            bits &= bits - 1;
          }
        }
      }
      std::uint64_t* plane = &cent[c * words];
      std::fill(plane, plane + words, 0);
      for (std::size_t d = 0; d < dim; ++d) {
        if (2 * ones[d] >= members) {
          plane[d / kWordBits] |= (1ULL << (d % kWordBits));
        }
      }
    }
  }

  // Final assignment pass places every row exactly once; counting sort in
  // row order keeps each bucket's member list ascending, so candidate scans
  // visit rows in a canonical order.
  std::vector<std::size_t> cluster_of(m);
  assign_pass(cent, {}, cluster_of);
  cluster_begin_.assign(k + 1, 0);
  for (std::size_t row = 0; row < m; ++row) {
    ++cluster_begin_[cluster_of[row] + 1];
  }
  for (std::size_t c = 0; c < k; ++c) {
    cluster_begin_[c + 1] += cluster_begin_[c];
  }
  member_rows_.resize(m);
  std::vector<std::size_t> cursor(cluster_begin_.begin(),
                                  cluster_begin_.end() - 1);
  for (std::size_t row = 0; row < m; ++row) {
    member_rows_[cursor[cluster_of[row]]++] = row;
  }

  // Give the centroid planes their own storage (cent dies with this call)
  // and wrap them in a small memory so stage 1 runs on the same SIMD kernel
  // tables as stage 2.
  auto plane_copy = std::make_shared<const std::vector<std::uint64_t>>(cent);
  centroids_ = std::make_shared<const PackedItemMemory>(
      PackedItemMemory::Layout::kBipolar, dim, k, plane_copy->data(), nullptr,
      plane_copy, rows_->simd_level());
  order_planes();
}

std::size_t TieredItemMemory::probe_count(
    std::span<const Match> top) const noexcept {
  std::size_t take = top.size();
  if (adaptive() && take > nprobe_min_) {
    // Margin rule: keep every centroid whose score trails the winner by at
    // most kAdaptiveMarginSigma noise sigmas (sqrt(dim) in dot units,
    // /dim here because Match carries similarity). top is match_order
    // sorted, so the kept set is always a prefix; the floor is
    // unconditional. Pure function of (index, query) — no RNG, no timing.
    const double cut =
        top.front().similarity -
        kAdaptiveMarginSigma / std::sqrt(static_cast<double>(dim()));
    take = nprobe_min_;
    while (take < top.size() && top[take].similarity >= cut) ++take;
  }
  return take;
}

std::vector<std::size_t> TieredItemMemory::probe(const PackedQuery& query,
                                                 ScanStats* stats) const {
  const std::vector<Match> top =
      centroids_->top_k(query, adaptive() ? nprobe_max_ : nprobe_);
  const std::size_t take = probe_count(top);
  if (stats != nullptr) {
    stats->centroid_dots += centroids_->size();
    stats->probes += take;
  }
  std::vector<std::size_t> buckets;
  buckets.reserve(take);
  for (std::size_t i = 0; i < take; ++i) buckets.push_back(top[i].index);
  return buckets;
}

void TieredItemMemory::range_dots(const PackedQuery& query, std::size_t begin,
                                  std::size_t end,
                                  std::int64_t* out) const noexcept {
  const std::size_t words = rows_->words_per_row();
  const std::size_t count = end - begin;
  const std::uint64_t* sign = bucket_sign_.data() + begin * words;
  if (rows_->layout() == PackedItemMemory::Layout::kBipolar) {
    const BatchDotKernels& batch = batch_dot_kernels(simd_level());
    if (query.bipolar) {
      batch.bipolar_rows(query.sign.data(), sign, count, words, words, dim(),
                         out);
    } else {
      batch.ternary_rows(query.nonzero.data(), query.sign.data(), sign, count,
                         words, words, out);
    }
    return;
  }
  // Ternary rows have no batched kernel; the per-row kernels still stream
  // the contiguous range, in the operand order PackedItemMemory::row_dot
  // uses.
  const DotKernels& k = dot_kernels(simd_level());
  const std::uint64_t* nz = bucket_nonzero_.data() + begin * words;
  for (std::size_t i = 0; i < count; ++i, sign += words, nz += words) {
    out[i] = query.bipolar
                 ? k.bipolar_ternary(query.sign.data(), nz, sign, words)
                 : k.ternary_ternary(nz, sign, query.nonzero.data(),
                                     query.sign.data(), words);
  }
}

std::vector<std::int64_t> TieredItemMemory::probed_dots(
    const PackedQuery& query, std::span<const std::size_t> buckets) const {
  std::size_t total = 0;
  for (const std::size_t c : buckets) total += cluster_size(c);
  std::vector<std::int64_t> dots(total);
  std::int64_t* out = dots.data();
  for (const std::size_t c : buckets) {
    range_dots(query, cluster_begin_[c], cluster_begin_[c + 1], out);
    out += cluster_size(c);
  }
  return dots;
}

namespace {

void require_dim(const PackedQuery& query, std::size_t dim) {
  if (query.dim != dim) {
    throw std::invalid_argument("TieredItemMemory: query dimension mismatch");
  }
}

// Rows per stage-2 chunk of best_block(): bounds the dots scratch to
// queries * 2 KiB, as PackedItemMemory's blocked scans do.
constexpr std::size_t kBlockChunkRows = 256;

// Canonical argmax step over rows that arrive in bucket order, not row
// order: a dot tie goes to the lowest original row index, exactly the
// scalar scan's first-maximum rule, whatever order the buckets come in.
// INT64_MIN is below every dot, so the first candidate always wins.
void fold_best(std::int64_t d, std::size_t row, std::int64_t& best_dot,
               std::size_t& best_row) noexcept {
  if (d > best_dot || (d == best_dot && row < best_row)) {
    best_dot = d;
    best_row = row;
  }
}

}  // namespace

Match TieredItemMemory::best(const PackedQuery& query,
                             ScanStats* stats) const {
  require_dim(query, dim());
  const std::vector<std::size_t> buckets = probe(query, stats);
  const std::vector<std::int64_t> dots = probed_dots(query, buckets);
  if (stats != nullptr) stats->row_dots += dots.size();
  if (dots.empty()) {
    // Every probed bucket was empty (possible only under degenerate
    // clusterings with nprobe < clusters). Fall back to the exact scan
    // rather than inventing an answer.
    if (stats != nullptr) stats->row_dots += rows_->size();
    return rows_->best(query);
  }
  std::int64_t best_dot = INT64_MIN;
  std::size_t best_row = 0;
  const std::int64_t* d = dots.data();
  for (const std::size_t c : buckets) {
    for (std::size_t i = cluster_begin_[c]; i < cluster_begin_[c + 1]; ++i) {
      fold_best(*d++, member_rows_[i], best_dot, best_row);
    }
  }
  return {best_row,
          static_cast<double>(best_dot) / static_cast<double>(dim())};
}

std::vector<Match> TieredItemMemory::best_block(
    std::span<const PackedQuery> queries, ScanStats* stats) const {
  for (const PackedQuery& q : queries) require_dim(q, dim());
  const std::size_t nq = queries.size();
  std::vector<Match> out(nq);
  if (nq == 0) return out;
  const std::size_t k = clusters();

  // Stage 1: every query's centroid ranking in one blocked pass (identical
  // to the per-query top_k), cut to its probe prefix, then inverted into a
  // CSR of the queries probing each bucket, ascending query index.
  const std::vector<std::vector<Match>> tops =
      centroids_->top_k_block(queries, adaptive() ? nprobe_max_ : nprobe_);
  std::vector<std::size_t> take(nq);
  std::vector<std::size_t> prober_begin(k + 1, 0);
  for (std::size_t q = 0; q < nq; ++q) {
    take[q] = probe_count(tops[q]);
    for (std::size_t i = 0; i < take[q]; ++i) {
      ++prober_begin[tops[q][i].index + 1];
    }
  }
  for (std::size_t c = 0; c < k; ++c) prober_begin[c + 1] += prober_begin[c];
  std::vector<std::size_t> probers(prober_begin[k]);
  {
    std::vector<std::size_t> cursor(prober_begin.begin(),
                                    prober_begin.end() - 1);
    for (std::size_t q = 0; q < nq; ++q) {
      for (std::size_t i = 0; i < take[q]; ++i) {
        probers[cursor[tops[q][i].index]++] = q;
      }
    }
  }

  // Stage 2, bucket-major: each probed bucket's contiguous rows stream
  // once, in row chunks, against the queries that chose it — grouped by
  // alphabet (bipolar slots first) for the QueryBlockKernels, or per query
  // on ternary-layout rows — and every dot folds into its query's argmax.
  const bool bipolar_rows =
      rows_->layout() == PackedItemMemory::Layout::kBipolar;
  const QueryBlockKernels& kernels = query_block_kernels(simd_level());
  const std::size_t words = rows_->words_per_row();
  std::vector<std::int64_t> best_dot(nq, INT64_MIN);
  std::vector<std::size_t> best_row(nq, 0);
  std::vector<std::uint64_t> visited(nq, 0);
  std::vector<std::int64_t> scratch;
  std::vector<const std::uint64_t*> bip_sg, ter_nz, ter_sg;
  std::vector<std::size_t> slot_query;
  for (std::size_t c = 0; c < k; ++c) {
    const std::span<const std::size_t> who(
        probers.data() + prober_begin[c], prober_begin[c + 1] - prober_begin[c]);
    const std::size_t rows_in = cluster_size(c);
    if (who.empty() || rows_in == 0) continue;
    bip_sg.clear();
    ter_nz.clear();
    ter_sg.clear();
    slot_query.clear();
    for (const std::size_t q : who) {
      visited[q] += rows_in;
      if (queries[q].bipolar) {
        bip_sg.push_back(queries[q].sign.data());
        slot_query.push_back(q);
      }
    }
    for (const std::size_t q : who) {
      if (!queries[q].bipolar) {
        ter_nz.push_back(queries[q].nonzero.data());
        ter_sg.push_back(queries[q].sign.data());
        slot_query.push_back(q);
      }
    }
    const std::size_t slots = slot_query.size();
    scratch.resize(std::max(scratch.size(),
                            slots * std::min(rows_in, kBlockChunkRows)));
    for (std::size_t begin = cluster_begin_[c]; begin < cluster_begin_[c + 1];
         begin += kBlockChunkRows) {
      const std::size_t end = std::min(cluster_begin_[c + 1],
                                       begin + kBlockChunkRows);
      const std::size_t count = end - begin;
      if (bipolar_rows) {
        const std::uint64_t* plane = bucket_sign_.data() + begin * words;
        if (!bip_sg.empty()) {
          kernels.bipolar_rows(bip_sg.data(), bip_sg.size(), plane, count,
                               words, words, dim(), scratch.data());
        }
        if (!ter_nz.empty()) {
          kernels.ternary_rows(ter_nz.data(), ter_sg.data(), ter_nz.size(),
                               plane, count, words, words,
                               scratch.data() + bip_sg.size() * count);
        }
      } else {
        for (std::size_t t = 0; t < slots; ++t) {
          range_dots(queries[slot_query[t]], begin, end,
                     scratch.data() + t * count);
        }
      }
      for (std::size_t t = 0; t < slots; ++t) {
        const std::size_t q = slot_query[t];
        const std::int64_t* d = scratch.data() + t * count;
        std::int64_t bd = best_dot[q];
        std::size_t br = best_row[q];
        for (std::size_t i = 0; i < count; ++i) {
          fold_best(d[i], member_rows_[begin + i], bd, br);
        }
        best_dot[q] = bd;
        best_row[q] = br;
      }
    }
  }

  for (std::size_t q = 0; q < nq; ++q) {
    if (stats != nullptr) {
      stats[q].centroid_dots += k;
      stats[q].probes += take[q];
      stats[q].row_dots += visited[q];
    }
    if (visited[q] == 0) {
      // Every probed bucket was empty: the same exact fallback as best().
      if (stats != nullptr) stats[q].row_dots += rows_->size();
      out[q] = rows_->best(queries[q]);
      continue;
    }
    out[q] = {best_row[q],
              static_cast<double>(best_dot[q]) / static_cast<double>(dim())};
  }
  return out;
}

std::vector<Match> TieredItemMemory::above(const PackedQuery& query,
                                           double threshold,
                                           ScanStats* stats) const {
  require_dim(query, dim());
  const std::vector<std::size_t> buckets = probe(query, stats);
  const std::vector<std::int64_t> dots = probed_dots(query, buckets);
  if (stats != nullptr) stats->row_dots += dots.size();
  if (dots.empty()) {
    // Every probed bucket was empty — the same degenerate clustering best()
    // guards against. An empty result here would be indistinguishable from
    // "nothing above threshold", so fall back to the exact scan.
    if (stats != nullptr) stats->row_dots += rows_->size();
    return rows_->above(query, threshold);
  }
  const auto d_dim = static_cast<double>(dim());
  std::vector<Match> out;
  const std::int64_t* d = dots.data();
  for (const std::size_t c : buckets) {
    for (std::size_t i = cluster_begin_[c]; i < cluster_begin_[c + 1]; ++i) {
      const double s = static_cast<double>(*d++) / d_dim;
      if (s > threshold) out.push_back({member_rows_[i], s});
    }
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> TieredItemMemory::top_k(const PackedQuery& query,
                                           std::size_t k,
                                           ScanStats* stats) const {
  require_dim(query, dim());
  // k == 0 can return nothing without probing anything — in particular it
  // must not reach the empty-candidate exact-scan fallback below, which
  // would charge a full-memory scan for an empty answer.
  if (k == 0) return {};
  const std::vector<std::size_t> buckets = probe(query, stats);
  const std::vector<std::int64_t> dots = probed_dots(query, buckets);
  if (stats != nullptr) stats->row_dots += dots.size();
  if (dots.empty()) {
    // Empty probed buckets (degenerate clustering): a short/empty result
    // would silently underfill k, so fall back to the exact scan like
    // best() does.
    if (stats != nullptr) stats->row_dots += rows_->size();
    return rows_->top_k(query, k);
  }
  const auto d_dim = static_cast<double>(dim());
  std::vector<Match> all;
  all.reserve(dots.size());
  const std::int64_t* d = dots.data();
  for (const std::size_t c : buckets) {
    for (std::size_t i = cluster_begin_[c]; i < cluster_begin_[c + 1]; ++i) {
      all.push_back({member_rows_[i], static_cast<double>(*d++) / d_dim});
    }
  }
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    match_order);
  all.resize(keep);
  return all;
}

PackedQuery TieredItemMemory::pack_query(const Hypervector& query) const {
  std::optional<PackedQuery> q = PackedQuery::pack(query, simd_level());
  if (!q) {
    throw std::invalid_argument(
        "TieredItemMemory: query is not bipolar/ternary (use the scalar "
        "ItemMemory path for integer bundles)");
  }
  return std::move(*q);
}

Match TieredItemMemory::best(const Hypervector& query,
                             ScanStats* stats) const {
  return best(pack_query(query), stats);
}

std::vector<Match> TieredItemMemory::above(const Hypervector& query,
                                           double threshold,
                                           ScanStats* stats) const {
  return above(pack_query(query), threshold, stats);
}

std::vector<Match> TieredItemMemory::top_k(const Hypervector& query,
                                           std::size_t k,
                                           ScanStats* stats) const {
  return top_k(pack_query(query), k, stats);
}

}  // namespace factorhd::hdc::kernels
