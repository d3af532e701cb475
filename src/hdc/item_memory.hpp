// ItemMemory: associative ("cleanup") memory over a codebook.
//
// Given a noisy query HV, finds the codebook entries most similar to it under
// the paper's dot-product similarity. This is the primitive that every
// factorizer (FactorHD and all baselines) spends its time in, so the class
// also counts similarity measurements — the unit in which the paper states
// its O(N_M) vs M^F efficiency claims.
//
// Scans run on one of two backends:
//
//  * scalar  — int32 dot products over Codebook::rows() (works for any
//    query and any codebook alphabet). On a bipolar/ternary codebook that
//    int32 view is built from the planes on the first scalar scan;
//  * packed  — the hdc/kernels/ word-plane scans over the codebook's own
//    64-bit sign/nonzero planes (adopted, not copied): each scan is
//    XOR+popcount arithmetic, 64 dimensions per word operation.
//    Bit-identical results (index, similarity, ordering) to the scalar
//    backend.
//
// With the default kAuto selection, a bipolar or ternary codebook gets the
// packed backend and every bipolar/ternary query runs on it; integer-bundle
// queries (e.g. the multi-object residual) transparently fall back to the
// scalar loop per call. Copies share the immutable packed memory.
//
// The packed argmax (best / best_block) is bound-pruned on bipolar
// codebooks: rows whose partial dot over the first 128 (or, for queries
// 128 dims cannot separate, 512) dimensions plus the query's remaining
// support cannot reach the best are never finished. It stays exact, so it
// is not a separate backend; an unbound Rep-1 query over a 65536-row
// codebook finishes a few rows.
//
// A third, *approximate* backend exists for codebooks far beyond the paper's
// sizes: kTiered routes full-codebook scans (best / above / top_k) through
// kernels::TieredItemMemory, a two-stage coarse-quantization cascade that
// scans cluster centroids first and runs the exact packed scan only over the
// top-nprobe buckets. kAuto upgrades to it only at/above a nonzero
// FACTORHD_TIERED_MIN_ROWS (default 0, never, so kAuto stays bit-exact at
// every size). Tiered scans can miss rows but never mis-rank the rows they
// scan; per call, ScanMode::kExact forces the exact packed path (the
// Factorizer's stall fallback), and the index-restricted scans
// (best_among / above_among) and dots are always exact. Query blocks
// (best_block) take a blocked route on both: the pruned argmax for exact
// scans, the tier's bucket-major TieredItemMemory::best_block for tiered
// default scans.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/sharded_item_memory.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/match.hpp"

namespace factorhd::hdc {

namespace kernels {
class PackedItemMemory;
}  // namespace kernels

/// Similarity-scan backend selection for ItemMemory.
///
/// The packed backend runs its word-plane arithmetic on a runtime-dispatched
/// SIMD tier (kernels::SimdLevel): kAuto/kPacked use the CPUID-detected
/// level (clamped by the FACTORHD_SIMD env var), while the kPacked* variants
/// force one specific tier — the knob the cross-backend differential tests
/// and per-level benchmarks are built on. Every tier returns bit-identical
/// results; forcing a tier the CPU cannot execute throws instead of
/// degrading silently.
enum class ScanBackend {
  kAuto,    ///< packed when the codebook is bipolar/ternary, else scalar;
            ///< additionally tiered at/above a nonzero
            ///< FACTORHD_TIERED_MIN_ROWS (default 0: never)
  kScalar,  ///< always the int32 dot-product loops
  kPacked,  ///< word-plane kernels at the dispatched SIMD level
  kPackedWords,   ///< word-plane kernels, forced scalar 64-bit word loops
  kPackedAVX2,    ///< word-plane kernels, forced AVX2 tier
  kPackedAVX512,  ///< word-plane kernels, forced AVX-512 tier
  kPackedNEON,    ///< word-plane kernels, forced NEON tier
  kTiered,  ///< two-stage coarse-then-exact scans (kernels::TieredItemMemory)
            ///< at the dispatched SIMD level; approximate unless nprobe
            ///< covers every cluster
  kSharded,  ///< scatter-gather scans over a row-partitioned codebook
             ///< (kernels::ShardedItemMemory) at the dispatched SIMD level;
             ///< bit-identical to the unsharded scan when the shards scan
             ///< exact (no per-shard tiers, or tiers probing every cluster)
};

/// Per-call accuracy selection for the full-codebook scans of a tiered
/// ItemMemory. On the scalar/packed backends both modes are identical.
enum class ScanMode {
  kDefault,  ///< the memory's backend as configured (tiered when built)
  kExact,    ///< force the exact full scan (packed kernels or scalar loop)
};

class ItemMemory {
 public:
  /// Non-owning view over a codebook; the codebook must outlive the memory.
  /// With kAuto (the default) a bipolar/ternary codebook's word planes are
  /// adopted at construction (no copy; only the pruned argmax's slab plane
  /// is built, 64 bytes per row), and the tiered index is built on top when
  /// the codebook has at least kernels::tiered_auto_min_rows() rows (or when
  /// `tiered` is given).
  /// \param codebook Codebook to scan; must outlive this object.
  /// \param backend Backend selection policy (see ScanBackend).
  /// \param tiered Explicit tier configuration. With kTiered it overrides
  ///   the FACTORHD_TIERED_* env defaults; with kAuto it additionally forces
  ///   the tiered index regardless of the row-count threshold (the hook the
  ///   differential tests and benches configure exact-coverage indexes
  ///   through). Invalid with every other backend.
  /// \throws std::invalid_argument When `backend` is kPacked/kTiered (or a
  ///   forced kPacked* level) but the codebook has an entry outside
  ///   {-1, 0, +1} or is empty, when a forced SIMD level is not available on
  ///   this CPU (kernels::simd_level_available), or when `tiered` is given
  ///   with a backend that never builds the tier index.
  ///
  /// \param snapshot Optional pre-built tier index (a loaded FTS1 snapshot,
  ///   see hdc/kernels/tiered_snapshot.hpp) offered in place of the k-means
  ///   build. It is adopted only where this constructor would build a tier
  ///   index anyway, and only after its packed row planes are verified
  ///   bit-equal to `codebook`'s own planes — a snapshot of the wrong or a
  ///   stale codebook is silently rejected and the tier is rebuilt, so scans
  ///   are bit-identical either way. On adoption the memory's exact scans
  ///   also run off the snapshot's (possibly mmap-shared) planes. Check
  ///   adoption via tiered() pointer identity. A whole-codebook snapshot is
  ///   never adopted while sharding is active (the partition needs
  ///   per-shard indexes — see kernels::load_sharded_index()).
  ///
  /// \param sharded Shard configuration (kernels::ShardedConfig). With
  ///   kSharded it is the partition spec (shards of 0 resolve from
  ///   FACTORHD_SHARDS); with kAuto an explicit config forces the partition
  ///   regardless of the FACTORHD_SHARD_MIN_ROWS threshold, while a purely
  ///   env-requested shard count only applies at/above it. Sharded memories
  ///   build per-shard tier indexes exactly where the unsharded constructor
  ///   would have built one tier (the `tiered` config then resolves per
  ///   shard row count). Invalid with any backend other than kAuto/kSharded.
  explicit ItemMemory(
      const Codebook& codebook, ScanBackend backend = ScanBackend::kAuto,
      std::optional<kernels::TieredConfig> tiered = std::nullopt,
      std::shared_ptr<const kernels::TieredItemMemory> snapshot = nullptr,
      std::optional<kernels::ShardedConfig> sharded = std::nullopt);

  [[nodiscard]] const Codebook& codebook() const noexcept { return *codebook_; }
  [[nodiscard]] std::size_t size() const noexcept { return codebook_->size(); }

  /// \return The backend scans resolve to: kSharded when the codebook was
  ///   partitioned (full scans scatter-gather across the shards), kTiered
  ///   when the tier index was built (full scans are then approximate by
  ///   default), kPacked when the codebook was packed (bipolar/ternary
  ///   queries use the kernels; integer-bundle queries still fall back to
  ///   scalar per call), kScalar otherwise.
  [[nodiscard]] ScanBackend backend() const noexcept {
    if (sharded_) return ScanBackend::kSharded;
    if (tiered_) return ScanBackend::kTiered;
    return packed_ ? ScanBackend::kPacked : ScanBackend::kScalar;
  }

  /// \return The tier index, or nullptr on the scalar/packed backends.
  [[nodiscard]] const kernels::TieredItemMemory* tiered() const noexcept {
    return tiered_.get();
  }

  /// \return The sharded scatter-gather memory, or nullptr when unsharded.
  [[nodiscard]] const kernels::ShardedItemMemory* sharded() const noexcept {
    return sharded_.get();
  }

  /// \return Shared ownership of the sharded memory (null when unsharded) —
  ///   what kernels::save_sharded_index() persists per shard.
  [[nodiscard]] std::shared_ptr<const kernels::ShardedItemMemory>
  shared_sharded() const noexcept {
    return sharded_;
  }

  /// \return Shared ownership of the tier index (null on exact backends) —
  ///   what the snapshot writer serializes (hdc/kernels/tiered_snapshot.hpp).
  [[nodiscard]] std::shared_ptr<const kernels::TieredItemMemory>
  shared_tiered() const noexcept {
    return tiered_;
  }

  /// \return The SIMD tier packed scans execute at; std::nullopt on the
  ///   scalar backend.
  [[nodiscard]] std::optional<kernels::SimdLevel> simd_level() const noexcept;

  /// Best match over the full codebook (argmax of similarity; the first
  /// maximum wins on ties). On the tiered backend this scans only the
  /// probed buckets unless `mode` is ScanMode::kExact.
  /// \param query Query HV of the codebook's dimension.
  /// \param mode Per-call accuracy override (tiered backend only).
  /// \param scanned When non-null, receives the number of similarity
  ///   measurements this call performed — a pure function of (memory,
  ///   query), safe for deterministic per-result accounting where reading
  ///   the shared similarity_ops() counter would race under concurrent
  ///   batch workers.
  /// \param probes When non-null, receives the tiered coarse-stage bucket
  ///   count this call probed (TieredItemMemory::ScanStats::probes, summed
  ///   across shards on the sharded backend) — 0 on every exact route. Like
  ///   `scanned`, a pure function of (memory, query, mode).
  /// \return Index and similarity (dot / D) of the best entry.
  /// \throws std::invalid_argument On dimension mismatch.
  /// \throws std::out_of_range On an empty codebook.
  [[nodiscard]] Match best(const Hypervector& query,
                           ScanMode mode = ScanMode::kDefault,
                           std::uint64_t* scanned = nullptr,
                           std::uint64_t* probes = nullptr) const;

  /// Blocked variant of best(): one Match per query, in input order, each
  /// bit-identical (index, similarity, tie order — and the per-query
  /// measurement and probe counts) to the matching best(query, mode) call.
  /// When the codebook is packed and every query's alphabet packs, the
  /// block takes a blocked route: an exact full scan (no tier index, or
  /// `mode` is ScanMode::kExact) runs in ONE pass over the codebook planes
  /// through kernels::QueryBlockKernels, and a tiered default scan runs
  /// kernels::TieredItemMemory::best_block — one blocked centroid pass,
  /// then each probed bucket streamed once for all queries that chose it.
  /// Either way the planes stream from memory once per block instead of
  /// once per query. Any other shape (integer-bundle queries, the scalar
  /// backend, sharded memories with tiered shards in default mode) falls
  /// back to per-query best(), so routing here is purely a performance
  /// decision.
  /// \param queries Query HVs of the codebook's dimension.
  /// \param mode Per-call accuracy override (tiered backend only).
  /// \param scanned When non-null, must point at queries.size() entries;
  ///   scanned[q] receives the measurement count of query q (exactly what
  ///   best() would report for it).
  /// \param probes When non-null, must point at queries.size() entries;
  ///   probes[q] receives query q's tiered probe count (exactly what best()
  ///   would report for it; 0 on the one-pass exact block route).
  /// \return One Match per query, in input order.
  /// \throws std::invalid_argument On a dimension mismatch.
  /// \throws std::out_of_range On an empty codebook.
  [[nodiscard]] std::vector<Match> best_block(
      std::span<const Hypervector> queries,
      ScanMode mode = ScanMode::kDefault,
      std::uint64_t* scanned = nullptr,
      std::uint64_t* probes = nullptr) const;

  /// Best match over a subset of indices (used for hierarchy-restricted
  /// searches: "only children of the already-factorized parent item").
  /// \param query Query HV of the codebook's dimension.
  /// \param indices Codebook indices to scan.
  /// \return Best match among `indices`.
  /// \throws std::invalid_argument On dimension mismatch or empty `indices`.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] Match best_among(const Hypervector& query,
                                 const std::vector<std::size_t>& indices) const;

  /// All matches with similarity strictly above `threshold`, sorted by
  /// match_order — descending similarity, ascending index on ties (the
  /// TH-based multi-object candidate selection). On the tiered backend this
  /// scans only the probed buckets unless `mode` is ScanMode::kExact.
  /// \param query Query HV of the codebook's dimension.
  /// \param threshold Exclusive similarity lower bound.
  /// \param mode Per-call accuracy override (tiered backend only).
  /// \param scanned As in best(): deterministic measurement count out-param.
  /// \param probes As in best(): deterministic tiered probe-count out-param.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On dimension mismatch.
  [[nodiscard]] std::vector<Match> above(
      const Hypervector& query, double threshold,
      ScanMode mode = ScanMode::kDefault,
      std::uint64_t* scanned = nullptr,
      std::uint64_t* probes = nullptr) const;

  /// Restricted variant of `above`.
  /// \param query Query HV of the codebook's dimension.
  /// \param threshold Exclusive similarity lower bound.
  /// \param indices Codebook indices to scan.
  /// \return Possibly empty sorted match list.
  /// \throws std::invalid_argument On dimension mismatch.
  /// \throws std::out_of_range When an index is >= size().
  [[nodiscard]] std::vector<Match> above_among(
      const Hypervector& query, double threshold,
      const std::vector<std::size_t>& indices) const;

  /// Top-k matches sorted by match_order; k is clamped to size(). On the
  /// tiered backend this ranks only the probed buckets' rows unless `mode`
  /// is ScanMode::kExact.
  /// \param query Query HV of the codebook's dimension.
  /// \param k Maximum number of matches to return.
  /// \param mode Per-call accuracy override (tiered backend only).
  /// \param scanned As in best(): deterministic measurement count out-param.
  /// \param probes As in best(): deterministic tiered probe-count out-param.
  /// \return At most min(k, size()) matches in canonical order.
  /// \throws std::invalid_argument On dimension mismatch.
  [[nodiscard]] std::vector<Match> top_k(
      const Hypervector& query, std::size_t k,
      ScanMode mode = ScanMode::kDefault,
      std::uint64_t* scanned = nullptr,
      std::uint64_t* probes = nullptr) const;

  /// Raw integer dot products of the query with every codebook entry — the
  /// batched attention primitive of the resonator/IMC baselines. Counts
  /// size() similarity measurements.
  /// \param query Query HV of the codebook's dimension.
  /// \param out Destination; `out.size()` must equal size().
  /// \throws std::invalid_argument On dimension or output-size mismatch.
  void dots(const Hypervector& query, std::span<std::int64_t> out) const;

  /// Number of similarity measurements performed since construction /
  /// last reset. Mutable bookkeeping (atomic so concurrent factorization of
  /// independent targets through core::BatchFactorizer stays race-free);
  /// reads are logically const.
  /// \return Measurement count in codebook-entry units.
  [[nodiscard]] std::uint64_t similarity_ops() const noexcept {
    return similarity_ops_.load(std::memory_order_relaxed);
  }
  void reset_similarity_ops() noexcept {
    similarity_ops_.store(0, std::memory_order_relaxed);
  }

  // std::atomic pins down copy/move; counters transfer by value and the
  // immutable packed planes / tier index are shared between copies.
  ItemMemory(const ItemMemory& other) noexcept
      : codebook_(other.codebook_),
        packed_(other.packed_),
        tiered_(other.tiered_),
        sharded_(other.sharded_),
        similarity_ops_(other.similarity_ops()) {}
  ItemMemory& operator=(const ItemMemory& other) noexcept {
    codebook_ = other.codebook_;
    packed_ = other.packed_;
    tiered_ = other.tiered_;
    sharded_ = other.sharded_;
    similarity_ops_.store(other.similarity_ops(), std::memory_order_relaxed);
    return *this;
  }

 private:
  void count(std::uint64_t n) const noexcept {
    similarity_ops_.fetch_add(n, std::memory_order_relaxed);
  }

  const Codebook* codebook_;
  /// Scans over the codebook's word planes; null on the scalar backend.
  /// Shared (immutable after construction) so ItemMemory copies stay cheap.
  std::shared_ptr<const kernels::PackedItemMemory> packed_;
  /// Two-stage tier index over packed_; null unless backend() is kTiered.
  /// Shares packed_'s row planes (immutable after construction).
  std::shared_ptr<const kernels::TieredItemMemory> tiered_;
  /// Scatter-gather partition over packed_; null unless backend() is
  /// kSharded. Shares packed_'s row planes (zero-copy shard views). The
  /// full-codebook scans route here; best_among / above_among / integer-
  /// bundle queries keep the packed_/scalar routes (their given-order tie
  /// contract does not partition).
  std::shared_ptr<const kernels::ShardedItemMemory> sharded_;
  mutable std::atomic<std::uint64_t> similarity_ops_{0};
};

}  // namespace factorhd::hdc
