#include "hdc/item_memory.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/similarity.hpp"

namespace factorhd::hdc {

namespace {

using kernels::PackedItemMemory;
using kernels::PackedQuery;
using kernels::ShardedConfig;
using kernels::ShardedItemMemory;
using kernels::SimdLevel;
using kernels::TieredConfig;
using kernels::TieredItemMemory;

// The SIMD tier a forced kPacked* backend names; nullopt for every backend
// that dispatches (kAuto/kPacked/kTiered) or never packs (kScalar).
std::optional<SimdLevel> forced_simd_level(ScanBackend backend) noexcept {
  switch (backend) {
    case ScanBackend::kPackedWords:
      return SimdLevel::kScalarWords;
    case ScanBackend::kPackedAVX2:
      return SimdLevel::kAVX2;
    case ScanBackend::kPackedAVX512:
      return SimdLevel::kAVX512;
    case ScanBackend::kPackedNEON:
      return SimdLevel::kNEON;
    default:
      return std::nullopt;
  }
}

// A loaded snapshot is adopted only when its packed rows are bit-equal to
// a fresh packing of the codebook: same geometry, same SIMD tier, and
// plane-for-plane identical words. Anything else — a snapshot of a
// different codebook, a stale save, a different dimension — is rejected
// and the caller rebuilds, so adoption can never change a scan result.
bool snapshot_matches(const TieredItemMemory& snapshot,
                      const PackedItemMemory& fresh) noexcept {
  const PackedItemMemory& rows = snapshot.rows();
  if (rows.layout() != fresh.layout() || rows.dim() != fresh.dim() ||
      rows.size() != fresh.size() ||
      rows.simd_level() != fresh.simd_level()) {
    return false;
  }
  const auto sign_a = rows.sign_plane();
  const auto sign_b = fresh.sign_plane();
  if (!std::equal(sign_a.begin(), sign_a.end(), sign_b.begin(),
                  sign_b.end())) {
    return false;
  }
  const auto nz_a = rows.nonzero_plane();
  const auto nz_b = fresh.nonzero_plane();
  return std::equal(nz_a.begin(), nz_a.end(), nz_b.begin(), nz_b.end());
}

}  // namespace

ItemMemory::ItemMemory(const Codebook& codebook, ScanBackend backend,
                       std::optional<TieredConfig> tiered,
                       std::shared_ptr<const TieredItemMemory> snapshot,
                       std::optional<ShardedConfig> sharded)
    : codebook_(&codebook) {
  if (tiered.has_value() && backend != ScanBackend::kAuto &&
      backend != ScanBackend::kTiered && backend != ScanBackend::kSharded) {
    throw std::invalid_argument(
        "ItemMemory: a TieredConfig requires the kAuto, kTiered, or "
        "kSharded backend");
  }
  if (sharded.has_value() && backend != ScanBackend::kAuto &&
      backend != ScanBackend::kSharded) {
    throw std::invalid_argument(
        "ItemMemory: a ShardedConfig requires the kAuto or kSharded backend");
  }
  // Adopt the offered snapshot after verification, or pay the k-means
  // build. On adoption packed_ switches to the snapshot's planes so exact
  // and tiered scans read the same (possibly mmap-shared) memory and the
  // verification packing is freed.
  const auto build_tier = [&] {
    if (snapshot != nullptr && snapshot_matches(*snapshot, *packed_)) {
      packed_ = snapshot->shared_rows();
      tiered_ = std::move(snapshot);
      return;
    }
    tiered_ = std::make_shared<const TieredItemMemory>(
        packed_, tiered.value_or(kernels::tiered_config_from_env()));
  };
  // Partition packed_ into the configured shard count, with per-shard tier
  // indexes exactly where the unsharded constructor would have built one
  // tier. A whole-codebook `snapshot` cannot back a partition (per-shard
  // snapshots go through the ShardedItemMemory constructor directly) and is
  // treated as rejected.
  const auto build_sharded = [&](ShardedConfig config, bool want_tier) {
    if (want_tier && !config.tiered.has_value()) {
      config.tiered = tiered.value_or(kernels::tiered_config_from_env());
    }
    sharded_ = std::make_shared<const ShardedItemMemory>(packed_, config);
  };
  switch (backend) {
    case ScanBackend::kScalar:
      break;
    case ScanBackend::kPacked:
      // Throws std::invalid_argument when the codebook is not packable.
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      break;
    case ScanBackend::kTiered:
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      build_tier();
      break;
    case ScanBackend::kSharded: {
      packed_ = std::make_shared<const PackedItemMemory>(codebook);
      const std::size_t min_rows = kernels::tiered_auto_min_rows();
      const bool want_tier =
          tiered.has_value() || (min_rows > 0 && codebook.size() >= min_rows);
      build_sharded(sharded.value_or(kernels::sharded_config_from_env()),
                    want_tier);
      break;
    }
    case ScanBackend::kAuto:
      // One read of the codebook validates and packs it; null means an
      // entry outside {-1, 0, +1} (or an empty codebook), which stays
      // scalar.
      packed_ = PackedItemMemory::try_pack(codebook);
      if (!packed_ && tiered.has_value()) {
        // An explicit config promises a tier index; never drop it silently.
        throw std::invalid_argument(
            "ItemMemory: TieredConfig given but the codebook is not "
            "packable (entries outside {-1, 0, +1})");
      }
      if (!packed_ && sharded.has_value()) {
        throw std::invalid_argument(
            "ItemMemory: ShardedConfig given but the codebook is not "
            "packable (entries outside {-1, 0, +1})");
      }
      if (packed_) {
        // Auto-upgrade to the tiered index for very large codebooks (an
        // explicit config forces it regardless of the threshold; min_rows
        // of 0 disables the upgrade so kAuto stays exact everywhere).
        const std::size_t min_rows = kernels::tiered_auto_min_rows();
        const bool want_tier =
            tiered.has_value() || (min_rows > 0 && codebook.size() >= min_rows);
        // Partition when explicitly configured with 2+ shards, or when the
        // FACTORHD_SHARDS env knob asks for 2+ and the codebook clears the
        // FACTORHD_SHARD_MIN_ROWS threshold (below it the scatter-gather
        // bookkeeping costs more than the scan saves).
        ShardedConfig shard_cfg =
            sharded.value_or(kernels::sharded_config_from_env());
        if (shard_cfg.shards == 0) {
          shard_cfg.shards = kernels::sharded_config_from_env().shards;
        }
        const std::size_t shard_min = kernels::sharded_auto_min_rows();
        const bool want_shards =
            shard_cfg.shards >= 2 &&
            (sharded.has_value() ||
             (shard_min > 0 && codebook.size() >= shard_min));
        if (want_shards) {
          build_sharded(std::move(shard_cfg), want_tier);
        } else if (want_tier) {
          build_tier();
        }
      }
      break;
    case ScanBackend::kPackedWords:
    case ScanBackend::kPackedAVX2:
    case ScanBackend::kPackedAVX512:
    case ScanBackend::kPackedNEON: {
      const SimdLevel level = *forced_simd_level(backend);
      // A forced level must run exactly as requested — the differential
      // fuzz suite and the per-level benchmarks rely on never degrading.
      if (!kernels::simd_level_available(level)) {
        throw std::invalid_argument(
            std::string("ItemMemory: forced SIMD level '") +
            kernels::to_string(level) + "' is not available on this CPU");
      }
      packed_ = std::make_shared<const PackedItemMemory>(codebook, level);
      break;
    }
  }
}

std::optional<SimdLevel> ItemMemory::simd_level() const noexcept {
  if (!packed_) return std::nullopt;
  return packed_->simd_level();
}

// Packs `query` for the kernels when the packed backend is active and the
// query's alphabet and dimension admit plane arithmetic; nullopt routes the
// call to the scalar loop (integer bundles, dimension mismatches — the
// latter so the scalar path raises its usual error). Packing runs at the
// memory's own SIMD tier so forced kPacked* backends pin the whole scan,
// packing included.
static std::optional<PackedQuery> packed_route(
    const std::shared_ptr<const PackedItemMemory>& packed,
    const Hypervector& query) {
  if (!packed || query.dim() != packed->dim()) return std::nullopt;
  return PackedQuery::pack(query, packed->simd_level());
}

Match ItemMemory::best(const Hypervector& query, ScanMode mode,
                       std::uint64_t* scanned, std::uint64_t* probes) const {
  if (probes != nullptr) *probes = 0;
  if (auto q = packed_route(packed_, query)) {
    if (sharded_) {
      TieredItemMemory::ScanStats stats;
      const Match m =
          sharded_->best(*q, mode == ScanMode::kExact, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return m;
    }
    if (tiered_ && mode == ScanMode::kDefault) {
      TieredItemMemory::ScanStats stats;
      const Match m = tiered_->best(*q, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return m;
    }
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return packed_->best(*q);
  }
  Match m{0, similarity(query, codebook_->item(0))};
  count(1);
  for (std::size_t j = 1; j < codebook_->size(); ++j) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > m.similarity) m = {j, s};
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  return m;
}

std::vector<Match> ItemMemory::best_block(std::span<const Hypervector> queries,
                                          ScanMode mode,
                                          std::uint64_t* scanned,
                                          std::uint64_t* probes) const {
  if (queries.empty()) return {};
  // The blocked kernels need the packed planes and a packable alphabet for
  // every query. Exact scans (no tier index, or `mode` is kExact) run in
  // one pass over the codebook planes; tiered default scans run the tier's
  // bucket-major best_block. Everything else takes the per-query path
  // below — bit-identical by the kernels' contract, so this routing never
  // changes a result. A sharded memory runs the blocked kernels per shard
  // (scatter-gather) only when its scans are exact; per-shard tiers in
  // default mode stay per query.
  const bool blocked_ok = !sharded_ || !sharded_->tiered_shards() ||
                          mode == ScanMode::kExact;
  if (packed_ && blocked_ok) {
    std::vector<PackedQuery> packed;
    packed.reserve(queries.size());
    for (const Hypervector& query : queries) {
      auto q = packed_route(packed_, query);
      if (!q) break;
      packed.push_back(std::move(*q));
    }
    if (packed.size() == queries.size()) {
      if (tiered_ && mode == ScanMode::kDefault) {
        std::vector<TieredItemMemory::ScanStats> stats(queries.size());
        std::vector<Match> out = tiered_->best_block(packed, stats.data());
        std::uint64_t total = 0;
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const std::uint64_t n = stats[q].centroid_dots + stats[q].row_dots;
          total += n;
          if (scanned != nullptr) scanned[q] = n;
          if (probes != nullptr) probes[q] = stats[q].probes;
        }
        count(total);
        return out;
      }
      count(queries.size() * packed_->size());
      if (scanned != nullptr) {
        std::fill_n(scanned, queries.size(), packed_->size());
      }
      // The one-pass route is always an exact scan: no buckets probed.
      if (probes != nullptr) std::fill_n(probes, queries.size(), 0);
      if (sharded_) {
        return sharded_->best_block(packed, mode == ScanMode::kExact);
      }
      return packed_->best_block(packed);
    }
  }
  std::vector<Match> out;
  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out.push_back(best(queries[q], mode,
                       scanned != nullptr ? scanned + q : nullptr,
                       probes != nullptr ? probes + q : nullptr));
  }
  return out;
}

Match ItemMemory::best_among(const Hypervector& query,
                             const std::vector<std::size_t>& indices) const {
  if (indices.empty()) {
    throw std::invalid_argument("ItemMemory::best_among: empty index set");
  }
  if (auto q = packed_route(packed_, query)) {
    count(indices.size());
    return packed_->best_among(*q, indices);
  }
  Match m{indices[0], similarity(query, codebook_->item(indices[0]))};
  count(1);
  for (std::size_t k = 1; k < indices.size(); ++k) {
    const double s = similarity(query, codebook_->item(indices[k]));
    count(1);
    if (s > m.similarity) m = {indices[k], s};
  }
  return m;
}

std::vector<Match> ItemMemory::above(const Hypervector& query,
                                     double threshold, ScanMode mode,
                                     std::uint64_t* scanned,
                                     std::uint64_t* probes) const {
  if (probes != nullptr) *probes = 0;
  if (auto q = packed_route(packed_, query)) {
    if (sharded_) {
      TieredItemMemory::ScanStats stats;
      std::vector<Match> out =
          sharded_->above(*q, threshold, mode == ScanMode::kExact, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return out;
    }
    if (tiered_ && mode == ScanMode::kDefault) {
      TieredItemMemory::ScanStats stats;
      std::vector<Match> out = tiered_->above(*q, threshold, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return out;
    }
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return packed_->above(*q, threshold);
  }
  std::vector<Match> out;
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > threshold) out.push_back({j, s});
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> ItemMemory::above_among(
    const Hypervector& query, double threshold,
    const std::vector<std::size_t>& indices) const {
  if (auto q = packed_route(packed_, query)) {
    count(indices.size());
    return packed_->above_among(*q, threshold, indices);
  }
  std::vector<Match> out;
  for (std::size_t j : indices) {
    const double s = similarity(query, codebook_->item(j));
    count(1);
    if (s > threshold) out.push_back({j, s});
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> ItemMemory::top_k(const Hypervector& query, std::size_t k,
                                     ScanMode mode, std::uint64_t* scanned,
                                     std::uint64_t* probes) const {
  if (probes != nullptr) *probes = 0;
  if (k == 0) {
    // Nothing was asked for: answer without scanning (on every backend —
    // the tiered path would otherwise risk its empty-bucket exact-scan
    // fallback and charge a full-memory scan for an empty result).
    if (scanned != nullptr) *scanned = 0;
    return {};
  }
  if (auto q = packed_route(packed_, query)) {
    if (sharded_) {
      TieredItemMemory::ScanStats stats;
      std::vector<Match> out =
          sharded_->top_k(*q, k, mode == ScanMode::kExact, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return out;
    }
    if (tiered_ && mode == ScanMode::kDefault) {
      TieredItemMemory::ScanStats stats;
      std::vector<Match> out = tiered_->top_k(*q, k, &stats);
      count(stats.centroid_dots + stats.row_dots);
      if (scanned != nullptr) *scanned = stats.centroid_dots + stats.row_dots;
      if (probes != nullptr) *probes = stats.probes;
      return out;
    }
    count(packed_->size());
    if (scanned != nullptr) *scanned = packed_->size();
    return packed_->top_k(*q, k);
  }
  std::vector<Match> all;
  all.reserve(codebook_->size());
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    all.push_back({j, similarity(query, codebook_->item(j))});
    count(1);
  }
  if (scanned != nullptr) *scanned = codebook_->size();
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    match_order);
  all.resize(keep);
  return all;
}

void ItemMemory::dots(const Hypervector& query,
                      std::span<std::int64_t> out) const {
  if (out.size() != codebook_->size()) {
    throw std::invalid_argument("ItemMemory::dots: output size mismatch");
  }
  if (auto q = packed_route(packed_, query)) {
    count(packed_->size());
    if (sharded_) {
      sharded_->dots(*q, out);  // bit-identical, scattered across shards
      return;
    }
    packed_->dots(*q, out);
    return;
  }
  for (std::size_t j = 0; j < codebook_->size(); ++j) {
    out[j] = dot(query, codebook_->item(j));
    count(1);
  }
}

}  // namespace factorhd::hdc
