// PackedItemMemory: whole-codebook similarity scans over bit-packed planes.
//
// Packs an entire codebook once into contiguous, row-major 64-bit word
// planes — bipolar codebooks into a single sign plane, ternary codebooks
// into nonzero + sign planes — and answers the same scan queries as the
// scalar hdc::ItemMemory (best / best_among / above / above_among / top_k)
// with XOR+popcount plane arithmetic: 64 dimensions per word operation
// instead of one int32 multiply-add per dimension.
//
// Results are bit-identical to the scalar path. Dot products over the
// {-1,0,+1} alphabets are exact integers either way, the similarity is the
// same double division dot/D, argmax keeps the first (lowest-index) maximum,
// and sorted results use the shared hdc::match_order comparator, so index,
// similarity, and ordering all match. The equivalence suite
// (tests/test_kernel_equivalence.cpp) asserts this across alphabets and at
// dimensions that are not multiples of 64.
//
// The argmax (best / best_block) on bipolar codebooks is bound-pruned: it
// scores every row's first 512 dimensions from a contiguous slab plane and
// finishes only the rows that can still win (see best()). It stays exact;
// the slab axis of tests/test_kernel_fuzz.cpp pins it to the unpruned scan.
//
// Word arithmetic runs on a runtime-dispatched SIMD tier (simd.hpp): the
// scalar 64-bit word loops, AVX2, AVX-512, or NEON, selected per memory at
// construction (CPUID-detected by default, overridable via FACTORHD_SIMD or
// an explicit level). Large scans are additionally partitioned across a
// small worker pool (FACTORHD_SCAN_THREADS) in fixed row blocks, so results
// stay independent of thread count. All tiers and thread counts produce
// bit-identical results.
//
// This class is the packing + kernel layer only; backend selection and the
// scalar fallback for integer-bundle queries live in hdc::ItemMemory, which
// dispatches here when both the codebook and the query admit plane packing.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc::kernels {

/// Width of the scan worker pool: FACTORHD_SCAN_THREADS when set (1 disables
/// threading), else min(hardware threads, 8). Cached on first use. Shared by
/// the full-codebook scans here and the tiered-index build's assignment
/// passes (tiered_item_memory.cpp).
[[nodiscard]] std::size_t scan_pool_width();

/// RAII marker for threads that are themselves workers of an outer pool
/// (core::BatchFactorizer installs one per worker): while any guard is
/// alive on the current thread, PackedItemMemory scans stay sequential, so
/// thread counts never multiply (batch workers x scan pool) and the scan
/// pool's spawn+join cost is not paid inside already-parallel loops.
/// Results are unaffected either way — the parallel partition is
/// bit-identical to the sequential scan.
class ScanNestingGuard {
 public:
  ScanNestingGuard() noexcept;
  ~ScanNestingGuard();
  ScanNestingGuard(const ScanNestingGuard&) = delete;
  ScanNestingGuard& operator=(const ScanNestingGuard&) = delete;
};

/// True while a ScanNestingGuard is alive on the current thread — i.e. this
/// thread is already a worker of an outer pool, so further scan-level
/// parallelism would multiply thread counts. ShardedItemMemory consults this
/// before scattering shards across the pool, for the same reason the packed
/// scans do.
[[nodiscard]] bool scan_nesting_active() noexcept;

class PackedItemMemory {
 public:
  /// Plane layout selected from the codebook's alphabet at pack time.
  enum class Layout {
    kBipolar,  ///< one sign plane per entry (all entries in {-1,+1}^D)
    kTernary,  ///< nonzero + sign planes per entry (entries in {-1,0,+1}^D)
  };

  /// Tests the precondition of the packing constructor by packing. Callers
  /// that go on to scan should call try_pack() and keep its result instead
  /// of reading the codebook twice.
  /// \param codebook Codebook to test.
  /// \return True when the codebook is non-empty with non-zero dimension and
  ///   every entry lies in {-1, 0, +1}^D. Bipolar and ternary entries may be
  ///   mixed; such a codebook packs in the ternary layout.
  [[nodiscard]] static bool packable(const Codebook& codebook);

  /// Packs `codebook` as the constructor does, but reports an unpackable
  /// codebook by returning null instead of throwing. This is the kAuto
  /// backend's single read of the codebook: validation and packing are one
  /// pass.
  /// \param codebook Source codebook of any alphabet.
  /// \param level As the packing constructor.
  /// \return The packed memory, or null when `packable(codebook)` is false.
  [[nodiscard]] static std::shared_ptr<const PackedItemMemory> try_pack(
      const Codebook& codebook, std::optional<SimdLevel> level = std::nullopt);

  /// Packs `codebook` into word planes. The codebook is only read during
  /// construction; the packed memory owns its planes and stays valid even if
  /// the codebook is later destroyed. Each row goes once through the
  /// memory's own tier's DotKernels::pack_planes, which validates and packs
  /// it in one pass; large codebooks split their rows across the scan pool
  /// in fixed contiguous blocks (sequential under a ScanNestingGuard). The
  /// planes are identical for every tier and worker count. The layout is
  /// kTernary as soon as any entry holds a zero, else kBipolar.
  /// \param codebook Source codebook (bipolar or ternary entries).
  /// \param level SIMD tier the scans run at; std::nullopt (the default)
  ///   selects the runtime-dispatched level (CPUID clamped by FACTORHD_SIMD).
  ///   An explicit level is used as given — callers gate on
  ///   simd_level_available() (hdc::ItemMemory throws for unavailable
  ///   forced levels).
  /// \throws std::invalid_argument When `packable(codebook)` is false.
  explicit PackedItemMemory(const Codebook& codebook,
                            std::optional<SimdLevel> level = std::nullopt);

  /// Adopts pre-packed planes without copying — the snapshot-load path
  /// (tiered_snapshot.hpp), where the planes live in an mmap'd file or a
  /// deserialized buffer owned by `keepalive`.
  ///
  /// The planes must be row-major with plane_words(dim) words per row and
  /// the canonical-tail invariant (bits >= dim in the last word zero); the
  /// snapshot loader verifies this before constructing. `keepalive` is held
  /// for the memory's lifetime, so one mapping can back many memories.
  /// \param layout Plane layout the planes were packed with.
  /// \param dim Hypervector dimension.
  /// \param size Number of rows.
  /// \param sign Row-major sign planes, `size * plane_words(dim)` words.
  /// \param nonzero Row-major nonzero planes for kTernary layout; must be
  ///   nullptr for kBipolar.
  /// \param keepalive Owner of the plane storage (kept alive by this memory).
  /// \param level As the packing constructor.
  /// \throws std::invalid_argument On zero size/dim, a null `sign`, or a
  ///   `nonzero` inconsistent with `layout`.
  PackedItemMemory(Layout layout, std::size_t dim, std::size_t size,
                   const std::uint64_t* sign, const std::uint64_t* nonzero,
                   std::shared_ptr<const void> keepalive,
                   std::optional<SimdLevel> level = std::nullopt);

  // The plane pointers alias the owned vectors on the packing path, so the
  // defaulted copies would dangle. Scans share one memory via shared_ptr.
  PackedItemMemory(const PackedItemMemory&) = delete;
  PackedItemMemory& operator=(const PackedItemMemory&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] Layout layout() const noexcept { return layout_; }
  /// \return The SIMD tier this memory's scans execute at.
  [[nodiscard]] SimdLevel simd_level() const noexcept { return level_; }
  /// \return Words per packed codebook row (one plane's worth).
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_; }
  /// \return Total packed storage in bits (the §IV-A fair-comparison unit):
  ///   size * dim for bipolar layout, 2 * size * dim for ternary.
  [[nodiscard]] std::size_t storage_bits() const noexcept;

  // --- Scans over a pre-packed query (the ItemMemory hot path) ------------

  /// Argmax scan over the full codebook; first (lowest-index) maximum wins.
  ///
  /// On the bipolar layout the scan is bound-pruned and still exact. Every
  /// row component is ±1, so a row's dot is at most its partial dot over
  /// the first kSlabWords words (512 dims) plus rest = Σ|q_d| over the
  /// other dims. Every row's partial is scored from the slab plane; rows
  /// are then finished in descending partial order, stopping at the first
  /// whose partial + rest is below the best dot found. Ties stay in, so the
  /// result is the plain argmax. A query with no support past the slab
  /// takes the top partial directly. A query whose bound would keep more
  /// than size() / 8 rows (a noisy bipolar query) finishes on one blocked
  /// pass over the remaining words of every row instead, at the cost of a
  /// plain scan. Ternary-layout memories scan every row.
  /// \param query Packed query planes; `query.dim` must equal dim().
  /// \return Best match (index + similarity = dot / D).
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] Match best(const PackedQuery& query) const;

  /// Argmax scan restricted to `indices`.
  /// \param query Packed query planes.
  /// \param indices Codebook rows to scan, in the order given.
  /// \return Best match among `indices`.
  /// \throws std::invalid_argument On dimension mismatch or empty `indices`.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] Match best_among(const PackedQuery& query,
                                 std::span<const std::size_t> indices) const;

  /// All matches with similarity strictly above `threshold`, sorted by
  /// hdc::match_order (descending similarity, ascending index).
  /// \param query Packed query planes.
  /// \param threshold Exclusive similarity lower bound.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] std::vector<Match> above(const PackedQuery& query,
                                         double threshold) const;

  /// Restricted variant of `above`.
  /// \param query Packed query planes.
  /// \param threshold Exclusive similarity lower bound.
  /// \param indices Codebook rows to scan.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On query dimension mismatch.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] std::vector<Match> above_among(
      const PackedQuery& query, double threshold,
      std::span<const std::size_t> indices) const;

  /// Top-k matches sorted by hdc::match_order; k is clamped to size().
  /// \param query Packed query planes.
  /// \param k Maximum number of matches to return.
  /// \return min(k, size()) matches in canonical order.
  /// \throws std::invalid_argument On query dimension mismatch.
  [[nodiscard]] std::vector<Match> top_k(const PackedQuery& query,
                                         std::size_t k) const;

  /// Raw integer dot products of the query with every codebook row (the
  /// batched attention primitive of the resonator/IMC baselines).
  /// \param query Packed query planes.
  /// \param out Destination; `out.size()` must equal size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots(const PackedQuery& query, std::span<std::int64_t> out) const;

  // --- Multi-query blocked scans (the micro-batch hot path) ---------------
  // Scan a whole block of packed queries in one pass over the codebook via
  // the QueryBlockKernels loop nest (simd.hpp): row blocks stay
  // cache-resident while every query of the block visits them, so a grouped
  // batch streams the planes once per block instead of once per query.
  // best_block runs the pruned argmax of best(): one slab pass per group of
  // kPruneGroup (16) queries, and one fallback pass for the whole block.
  // Queries are grouped by alphabet internally (one kernel pass per
  // alphabet), so mixed blocks amortize too; ternary-layout codebooks fall
  // back to per-query scans (same results, no amortization). Results are
  // bit-identical to calling the single-query overloads per query — same
  // argmax tie rule, same hdc::match_order ordering — at any block size.

  /// best() for every query of the block.
  /// \param queries Packed queries; each must match dim().
  /// \return One Match per query, in query order.
  /// \throws std::invalid_argument On any query dimension mismatch.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const PackedQuery> queries) const;

  /// top_k() for every query of the block; k is clamped to size().
  /// \param queries Packed queries; each must match dim().
  /// \param k Maximum number of matches per query (0 returns empty lists
  ///   without scanning).
  /// \return One canonical-order match list per query, in query order.
  /// \throws std::invalid_argument On any query dimension mismatch.
  [[nodiscard]] std::vector<std::vector<Match>> top_k_block(
      std::span<const PackedQuery> queries, std::size_t k) const;

  /// dots() for every query of the block, query-major.
  /// \param queries Packed queries; each must match dim().
  /// \param out Destination; out[q * size() + row] = dot(query q, row).
  ///   `out.size()` must equal queries.size() * size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots_block(std::span<const PackedQuery> queries,
                  std::span<std::int64_t> out) const;

  // --- Plane views (the TieredItemMemory build and snapshot surface) -----

  /// Read-only view of row `row`'s sign plane: words_per_row() words with
  /// the canonical-tail invariant. Precondition: `row < size()`.
  [[nodiscard]] std::span<const std::uint64_t> row_sign(
      std::size_t row) const noexcept {
    return {sign_ + row * words_, words_};
  }

  /// Row `row`'s nonzero plane; the empty span in bipolar layout (where
  /// every dimension is nonzero). Precondition: `row < size()`.
  [[nodiscard]] std::span<const std::uint64_t> row_nonzero(
      std::size_t row) const noexcept {
    if (layout_ == Layout::kBipolar) return {};
    return {nonzero_ + row * words_, words_};
  }

  /// The whole contiguous sign plane: size() * words_per_row() words. Used
  /// by the snapshot writer and the snapshot-adoption plane comparison.
  [[nodiscard]] std::span<const std::uint64_t> sign_plane() const noexcept {
    return {sign_, size_ * words_};
  }

  /// The whole contiguous nonzero plane; empty in bipolar layout.
  [[nodiscard]] std::span<const std::uint64_t> nonzero_plane() const noexcept {
    if (layout_ == Layout::kBipolar) return {};
    return {nonzero_, size_ * words_};
  }

  // --- Convenience overloads that pack the query internally ---------------
  // Each packs `query` once and forwards to the PackedQuery overload.
  // \throws std::invalid_argument when `query` is not bipolar/ternary (use
  //   the scalar ItemMemory path for integer bundles) or on dim mismatch.

  [[nodiscard]] Match best(const Hypervector& query) const;
  [[nodiscard]] Match best_among(const Hypervector& query,
                                 std::span<const std::size_t> indices) const;
  [[nodiscard]] std::vector<Match> above(const Hypervector& query,
                                         double threshold) const;
  [[nodiscard]] std::vector<Match> above_among(
      const Hypervector& query, double threshold,
      std::span<const std::size_t> indices) const;
  [[nodiscard]] std::vector<Match> top_k(const Hypervector& query,
                                         std::size_t k) const;
  void dots(const Hypervector& query, std::span<std::int64_t> out) const;

 private:
  /// Tag of the packing constructor that leaves sign_ null instead of
  /// throwing when the codebook is empty or unpackable (try_pack's path).
  struct Unchecked {};
  PackedItemMemory(const Codebook& codebook, std::optional<SimdLevel> level,
                   Unchecked);
  /// Packs every codebook row into owned_sign_ (and owned_nonzero_, which
  /// stays empty unless some entry holds a zero).
  /// \return False when an entry lies outside {-1, 0, +1}.
  bool pack_rows(const Codebook& codebook);

  /// Query block regrouped by alphabet for the QueryBlockKernels loop nest:
  /// one plane-pointer array per alphabet plus the original query index of
  /// each subgroup entry, so reductions map kernel output back to query
  /// order.
  struct BlockView {
    std::vector<const std::uint64_t*> bip;  ///< bipolar sign planes
    std::vector<std::size_t> bip_idx;       ///< their original query indices
    std::vector<const std::uint64_t*> ter_nz;  ///< ternary nonzero planes
    std::vector<const std::uint64_t*> ter_sg;  ///< ternary sign planes
    std::vector<std::size_t> ter_idx;          ///< their original indices
  };
  [[nodiscard]] BlockView make_block_view(
      std::span<const PackedQuery> queries) const;
  /// Per-thread buffers of the bound-pruned argmax (defined with it).
  struct PruneScratch;
  /// Slab pass and candidate walk of the bound-pruned argmax (bipolar
  /// layout) for the group of at most kPruneGroup queries starting at block
  /// index `first`: sets out[i] for every query i whose walk finishes, and
  /// appends each other query's block index to scratch.fallback, keeping
  /// its size() slab partials in the partial slot of the same position, for
  /// finish_fallback.
  void best_group(std::span<const PackedQuery> block, std::size_t first,
                  Match* out, PruneScratch& scratch) const;
  /// The plain argmax of the block's fallback queries, partial + suffix
  /// dot, in one blocked pass over every row: out[scratch.fallback[f]] for
  /// each fallback slot f.
  void finish_fallback(std::span<const PackedQuery> queries,
                       PruneScratch& scratch, Match* out) const;
  /// Dimensions the slab holds: min(dim(), kSlabWords * 64).
  [[nodiscard]] std::size_t slab_dim() const noexcept {
    return std::min(dim_, slab_words_ * kWordBits);
  }
  /// Σ|q_d| over the dimensions past the slab: the most any row's suffix
  /// dot can add to its slab partial (every |row_d| <= 1).
  [[nodiscard]] std::int64_t rest_support(
      const PackedQuery& query) const noexcept;
  /// Sets slab_words_ and, in bipolar layout, builds slab_ and slab_mask_.
  /// Called by both constructors once sign_ and layout_ are final.
  void build_slab();
  /// Runs the query-block kernels for rows [begin, end): fills
  /// scratch[t * (end - begin) + (row - begin)] for subgroup slot `t`
  /// (bipolar slots first, then ternary), mirroring BlockView order.
  /// `scratch` must hold queries.size() * (end - begin) entries.
  void block_dots_range(const BlockView& view, std::size_t begin,
                        std::size_t end, std::int64_t* scratch) const;

  /// Exact integer dot of codebook row `row` with the packed query.
  [[nodiscard]] std::int64_t row_dot(std::size_t row,
                                     const PackedQuery& query) const noexcept;
  /// Fills `out[row]` = row_dot(row) for every row, partitioning the scan
  /// across the worker pool in fixed contiguous row blocks when it is large
  /// enough to amortize thread startup (deterministic: block boundaries
  /// depend only on size, never on timing). `out.size()` must equal size().
  void compute_dots(const PackedQuery& query,
                    std::span<std::int64_t> out) const;
  /// Worker count a full scan of this memory would use (1 = sequential).
  [[nodiscard]] std::size_t scan_workers() const noexcept;
  /// similarity = dot / D with the same double arithmetic as the scalar path.
  [[nodiscard]] double to_similarity(std::int64_t dot) const noexcept {
    return static_cast<double>(dot) / static_cast<double>(dim_);
  }
  void require_query(const PackedQuery& query) const;
  [[nodiscard]] PackedQuery pack_query(const Hypervector& query) const;

  std::size_t size_ = 0;
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  SimdLevel level_ = SimdLevel::kScalarWords;
  /// Kernel table of level_ (static storage inside simd.cpp, never null).
  const DotKernels* kernels_ = nullptr;
  Layout layout_ = Layout::kBipolar;
  /// Row-major sign planes: sign_[row * words_ + w]. Points into owned_sign_
  /// on the packing path, or into `keepalive_`-owned storage (an mmap'd
  /// snapshot or a deserialized buffer) on the adoption path.
  const std::uint64_t* sign_ = nullptr;
  /// Row-major nonzero planes; nullptr in bipolar layout.
  const std::uint64_t* nonzero_ = nullptr;
  /// Plane storage built by the packing constructor (empty when adopted).
  std::vector<std::uint64_t> owned_sign_;
  std::vector<std::uint64_t> owned_nonzero_;
  /// Words of each row the slab pass scores: min(kSlabWords, words_).
  std::size_t slab_words_ = 0;
  /// The slab plane (simd.hpp kSlabLanes layout): every row's first
  /// slab_words_ words, zero-padded to kSlabWords words and a whole block.
  /// Both the packing and the adoption path build it, size() * 64 bytes;
  /// empty in ternary layout, which has no pruned scan.
  std::vector<std::uint64_t> slab_;
  /// Nonzero plane of a bipolar query over the slab: ones on the
  /// dimensions the slab holds.
  std::array<std::uint64_t, kSlabWords> slab_mask_{};
  /// Owner of adopted plane storage; null on the packing path.
  std::shared_ptr<const void> keepalive_;
};

}  // namespace factorhd::hdc::kernels
