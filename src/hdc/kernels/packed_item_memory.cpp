#include "hdc/kernels/packed_item_memory.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "hdc/kernels/row_blocks.hpp"
#include "util/env.hpp"

namespace factorhd::hdc::kernels {

namespace {

// A scan is worth threading only when its sequential time comfortably
// exceeds the std::thread spawn+join overhead (tens of microseconds). That
// break-even point depends on the SIMD tier: the scalar word loop retires a
// few ns per plane word, the vector tiers 10-30x less, so their threshold
// sits 16x higher (measured on AVX-512: a 2^16-word scan runs ~15 us
// sequentially — well below spawn cost). The taxonomy codebooks of the
// paper experiments (M <= a few hundred, D <= 8192) stay sequential;
// million-entry codebooks partition across the pool.
constexpr std::size_t parallel_scan_min_words(SimdLevel level) noexcept {
  return level == SimdLevel::kScalarWords ? (std::size_t{1} << 16)
                                          : (std::size_t{1} << 20);
}

// Depth of outer worker pools on this thread (see ScanNestingGuard).
thread_local int scan_nesting_depth = 0;

}  // namespace

// Worker-pool width: FACTORHD_SCAN_THREADS when set (1 disables threading),
// else min(hardware threads, 8) — a small pool, matching the BatchFactorizer
// idiom of per-call spawn+join std::threads. Registered in util::env_knobs().
std::size_t scan_pool_width() {
  static const std::size_t width = [] {
    const std::size_t env = util::env_size_t("FACTORHD_SCAN_THREADS", 0, 0, 256);
    if (env > 0) return env;
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return std::min<std::size_t>(hw, 8);
  }();
  return width;
}

ScanNestingGuard::ScanNestingGuard() noexcept { ++scan_nesting_depth; }
ScanNestingGuard::~ScanNestingGuard() { --scan_nesting_depth; }

bool scan_nesting_active() noexcept { return scan_nesting_depth > 0; }

namespace {

// Packing reads 256 bytes of int32 components per plane word, 64x what a
// scan reads, so it crosses the spawn+join break-even at a far smaller
// codebook: 2^20 components (4 MB of int32) take just under a millisecond
// on one AVX-512 core (2^28 took 0.16-0.20 s). The taxonomy codebooks of
// the paper experiments (M <= a few hundred, D <= 8192) pack sequentially.
constexpr std::size_t kParallelPackMinComponents = std::size_t{1} << 20;

}  // namespace

bool PackedItemMemory::packable(const Codebook& codebook) {
  return try_pack(codebook) != nullptr;
}

std::shared_ptr<const PackedItemMemory> PackedItemMemory::try_pack(
    const Codebook& codebook, std::optional<SimdLevel> level) {
  std::shared_ptr<const PackedItemMemory> mem(
      new PackedItemMemory(codebook, level, Unchecked{}));
  if (mem->sign_ == nullptr) return nullptr;
  return mem;
}

PackedItemMemory::PackedItemMemory(const Codebook& codebook,
                                   std::optional<SimdLevel> level)
    : PackedItemMemory(codebook, level, Unchecked{}) {
  if (size_ == 0 || dim_ == 0) {
    throw std::invalid_argument("PackedItemMemory: empty codebook");
  }
  if (sign_ == nullptr) {
    throw std::invalid_argument(
        "PackedItemMemory: codebook entry outside {-1,0,+1}");
  }
}

PackedItemMemory::PackedItemMemory(const Codebook& codebook,
                                   std::optional<SimdLevel> level, Unchecked)
    : size_(codebook.size()),
      dim_(codebook.dim()),
      words_(plane_words(codebook.dim())),
      level_(level.value_or(dispatched_simd_level())),
      kernels_(&dot_kernels(level_)) {
  if (size_ == 0 || dim_ == 0 || !pack_rows(codebook)) return;
  sign_ = owned_sign_.data();
  if (!owned_nonzero_.empty()) {
    layout_ = Layout::kTernary;
    nonzero_ = owned_nonzero_.data();
  }
  build_slab();
}

// The slab plane holds each bipolar row's first kSlabWords words (zero past
// the row's width), interleaved kSlabLanes rows per block so the slab
// kernel scores eight rows per vector without horizontal sums. It is a
// contiguous copy: a strided read of the same words from the row-major
// planes ran 1.4x slower.
void PackedItemMemory::build_slab() {
  slab_words_ = std::min(kSlabWords, words_);
  if (layout_ != Layout::kBipolar) return;
  const std::size_t blocks = (size_ + kSlabLanes - 1) / kSlabLanes;
  slab_.assign(blocks * kSlabLanes * kSlabWords, 0);
  for (std::size_t row = 0; row < size_; ++row) {
    std::uint64_t* dst = slab_.data() + (row / kSlabLanes) * kSlabLanes *
                                            kSlabWords +
                         row % kSlabLanes;
    for (std::size_t w = 0; w < slab_words_; ++w) {
      dst[w * kSlabLanes] = sign_[row * words_ + w];
    }
  }
  // A bipolar query is nonzero on every dimension the slab holds.
  slab_mask_.fill(0);
  for (std::size_t w = 0; w < slab_words_; ++w) {
    const std::size_t bits = std::min(kWordBits, dim_ - w * kWordBits);
    slab_mask_[w] = bits == kWordBits ? ~0ULL : (1ULL << bits) - 1;
  }
}

// One read of each entry through the tier's fused packer validates it,
// packs its sign plane and reports its zeros. Each row packs independently
// into its own plane slice, so the planes are byte-identical for any worker
// count. The nonzero plane is allocated only once some row holds a zero, so
// a bipolar codebook never holds a second plane: until then each worker
// packs nonzero words into a one-row scratch. The first zero row allocates
// the plane pre-filled with all-nonzero rows (what the packer emits for a
// zero-free row); from then on that worker packs straight into it.
bool PackedItemMemory::pack_rows(const Codebook& codebook) {
  owned_sign_.assign(size_ * words_, 0);
  std::vector<std::uint64_t> full_row(words_, ~0ULL);
  if (const std::size_t tail = dim_ % kWordBits; tail != 0) {
    full_row.back() = (1ULL << tail) - 1;
  }
  std::once_flag nonzero_once;
  std::atomic<bool> invalid{false};
  const auto pack_range = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t> scratch(words_);
    bool have_plane = false;
    for (std::size_t row = begin; row < end; ++row) {
      if (invalid.load(std::memory_order_relaxed)) return;
      std::uint64_t* nz =
          have_plane ? &owned_nonzero_[row * words_] : scratch.data();
      bool any_zero = false;
      if (!kernels_->pack_planes(codebook.item(row).data(), dim_,
                                 &owned_sign_[row * words_], nz, &any_zero)) {
        invalid.store(true, std::memory_order_relaxed);
        return;
      }
      if (any_zero && !have_plane) {
        std::call_once(nonzero_once, [&] {
          owned_nonzero_.reserve(size_ * words_);
          for (std::size_t r = 0; r < size_; ++r) {
            owned_nonzero_.insert(owned_nonzero_.end(), full_row.begin(),
                                  full_row.end());
          }
        });
        have_plane = true;
        std::copy(scratch.begin(), scratch.end(),
                  &owned_nonzero_[row * words_]);
      }
    }
  };
  const bool parallel = !scan_nesting_active() &&
                        size_ * dim_ >= kParallelPackMinComponents;
  run_row_blocks(size_, parallel ? scan_pool_width() : 1, pack_range);
  return !invalid.load();
}

PackedItemMemory::PackedItemMemory(Layout layout, std::size_t dim,
                                   std::size_t size, const std::uint64_t* sign,
                                   const std::uint64_t* nonzero,
                                   std::shared_ptr<const void> keepalive,
                                   std::optional<SimdLevel> level)
    : size_(size),
      dim_(dim),
      words_(plane_words(dim)),
      level_(level.value_or(dispatched_simd_level())),
      kernels_(&dot_kernels(level_)),
      layout_(layout),
      sign_(sign),
      nonzero_(nonzero),
      keepalive_(std::move(keepalive)) {
  if (size_ == 0 || dim_ == 0) {
    throw std::invalid_argument("PackedItemMemory: empty plane adoption");
  }
  if (sign_ == nullptr) {
    throw std::invalid_argument("PackedItemMemory: null sign plane");
  }
  if ((layout_ == Layout::kTernary) != (nonzero_ != nullptr)) {
    throw std::invalid_argument(
        "PackedItemMemory: nonzero plane inconsistent with layout");
  }
  build_slab();
}

std::size_t PackedItemMemory::storage_bits() const noexcept {
  return (layout_ == Layout::kTernary ? 2 : 1) * size_ * dim_;
}

std::int64_t PackedItemMemory::row_dot(std::size_t row,
                                       const PackedQuery& query) const noexcept {
  const std::uint64_t* rs = &sign_[row * words_];
  if (layout_ == Layout::kBipolar) {
    if (query.bipolar) {
      return kernels_->bipolar_bipolar(rs, query.sign.data(), words_, dim_);
    }
    return kernels_->bipolar_ternary(rs, query.nonzero.data(),
                                     query.sign.data(), words_);
  }
  const std::uint64_t* rnz = &nonzero_[row * words_];
  if (query.bipolar) {
    return kernels_->bipolar_ternary(query.sign.data(), rnz, rs, words_);
  }
  return kernels_->ternary_ternary(rnz, rs, query.nonzero.data(),
                                   query.sign.data(), words_);
}

std::size_t PackedItemMemory::scan_workers() const noexcept {
  if (scan_nesting_depth > 0) return 1;  // already inside an outer pool
  if (size_ * words_ < parallel_scan_min_words(level_)) return 1;
  return std::min(scan_pool_width(), size_);
}

void PackedItemMemory::compute_dots(const PackedQuery& query,
                                    std::span<std::int64_t> out) const {
  run_row_blocks(size_, scan_workers(),
                 [this, &query, out](std::size_t begin, std::size_t end) {
                   for (std::size_t row = begin; row < end; ++row) {
                     out[row] = row_dot(row, query);
                   }
                 });
}

void PackedItemMemory::require_query(const PackedQuery& query) const {
  if (query.dim != dim_) {
    throw std::invalid_argument("PackedItemMemory: query dimension mismatch");
  }
}

PackedQuery PackedItemMemory::pack_query(const Hypervector& query) const {
  std::optional<PackedQuery> q = PackedQuery::pack(query, level_);
  if (!q) {
    throw std::invalid_argument(
        "PackedItemMemory: query is not bipolar/ternary (use the scalar "
        "ItemMemory path for integer bundles)");
  }
  return std::move(*q);
}

Match PackedItemMemory::best(const PackedQuery& query) const {
  require_query(query);
  if (layout_ == Layout::kBipolar) return best_block({&query, 1}).front();
  // Ternary-layout rows: the plain argmax. Strict > keeps the first
  // (lowest-index) maximum, exactly like the scalar argmax loop; integer
  // dots make the comparison tie-exact.
  if (scan_workers() > 1) {
    // Parallel path: materialize the dots (disjoint slices per worker), then
    // reduce sequentially in row order — same argmax, any thread count.
    std::vector<std::int64_t> all(size_);
    compute_dots(query, all);
    std::int64_t best_dot = all[0];
    std::size_t best_row = 0;
    for (std::size_t row = 1; row < size_; ++row) {
      if (all[row] > best_dot) {
        best_dot = all[row];
        best_row = row;
      }
    }
    return {best_row, to_similarity(best_dot)};
  }
  std::int64_t best_dot = row_dot(0, query);
  std::size_t best_row = 0;
  for (std::size_t row = 1; row < size_; ++row) {
    const std::int64_t d = row_dot(row, query);
    if (d > best_dot) {
      best_dot = d;
      best_row = row;
    }
  }
  return {best_row, to_similarity(best_dot)};
}

Match PackedItemMemory::best_among(const PackedQuery& query,
                                   std::span<const std::size_t> indices) const {
  require_query(query);
  if (indices.empty()) {
    throw std::invalid_argument("PackedItemMemory::best_among: empty index set");
  }
  Match m{indices[0], 0.0};
  std::int64_t best_dot = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t row = indices[k];
    if (row >= size_) {
      throw std::out_of_range("PackedItemMemory::best_among: index out of range");
    }
    const std::int64_t d = row_dot(row, query);
    if (k == 0 || d > best_dot) {
      best_dot = d;
      m.index = row;
    }
  }
  m.similarity = to_similarity(best_dot);
  return m;
}

std::vector<Match> PackedItemMemory::above(const PackedQuery& query,
                                           double threshold) const {
  require_query(query);
  std::vector<Match> out;
  if (scan_workers() > 1) {
    std::vector<std::int64_t> ds(size_);
    compute_dots(query, ds);
    for (std::size_t row = 0; row < size_; ++row) {
      const double s = to_similarity(ds[row]);
      if (s > threshold) out.push_back({row, s});
    }
  } else {
    for (std::size_t row = 0; row < size_; ++row) {
      const double s = to_similarity(row_dot(row, query));
      if (s > threshold) out.push_back({row, s});
    }
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> PackedItemMemory::above_among(
    const PackedQuery& query, double threshold,
    std::span<const std::size_t> indices) const {
  require_query(query);
  std::vector<Match> out;
  for (std::size_t row : indices) {
    if (row >= size_) {
      throw std::out_of_range(
          "PackedItemMemory::above_among: index out of range");
    }
    const double s = to_similarity(row_dot(row, query));
    if (s > threshold) out.push_back({row, s});
  }
  std::sort(out.begin(), out.end(), match_order);
  return out;
}

std::vector<Match> PackedItemMemory::top_k(const PackedQuery& query,
                                           std::size_t k) const {
  require_query(query);
  if (k == 0) return {};  // don't pay a full scan for an empty answer
  std::vector<std::int64_t> ds(size_);
  compute_dots(query, ds);
  std::vector<Match> all;
  all.reserve(size_);
  for (std::size_t row = 0; row < size_; ++row) {
    all.push_back({row, to_similarity(ds[row])});
  }
  const std::size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                    match_order);
  all.resize(keep);
  return all;
}

void PackedItemMemory::dots(const PackedQuery& query,
                            std::span<std::int64_t> out) const {
  require_query(query);
  if (out.size() != size_) {
    throw std::invalid_argument("PackedItemMemory::dots: output size mismatch");
  }
  compute_dots(query, out);
}

namespace {

// Rows per blocked-scan chunk: bounds the per-chunk dots scratch to
// queries * 2 KiB while leaving the QueryBlockKernels register tiles plenty
// of rows to amortize each query visit over. The pruned argmax also keeps
// one maximum partial per query and chunk, so its candidate walk skips
// every chunk whose maximum is below the cut.
constexpr std::size_t kBlockChunkRows = 256;

// Queries per slab pass of the pruned argmax. A group keeps its int16
// partials (group * size() * 2 bytes) cache-resident between the slab pass
// and the candidate walk: at M = 65536 a 16-query group holds 2 MB, while
// 128-query groups (16 MB) spilled the cache and ran ~2x slower per query.
constexpr std::size_t kPruneGroup = 16;

}  // namespace

// Buffers of the bound-pruned argmax, one set per thread that calls
// best_block, kept between calls so that scans of a given shape allocate
// nothing after the first; each is rewritten before it is read.
//
// `part` holds partial slots of size() int16 each. Slots [0, nf) keep the
// slab partials of the block's nf fallback queries so far, in fallback
// order; a group's slab pass writes the slots after them, and its walk moves
// each new fallback query down to the next free slot (a no-op when a whole
// group falls back). The buffer grows only when a group needs more slots:
// kPruneGroup slots (2 MB at M = 65536) while queries prune, up to one slot
// per query of the largest all-noise block seen.
struct PackedItemMemory::PruneScratch {
  // One entry of a query's candidate walk.
  struct Candidate {
    std::int16_t partial;
    std::uint32_t row;
  };
  std::unique_ptr<std::int16_t[]> part;
  std::size_t part_capacity = 0;        ///< entries of `part`
  std::vector<std::size_t> fallback;    ///< block index per fallback slot
  std::vector<std::int16_t> chunk_max;  ///< a group's (chunk, query) maxima
  std::vector<Candidate> cand;
  // finish_fallback:
  std::vector<std::size_t> order;  ///< kernel slot -> fallback slot
  std::vector<const std::uint64_t*> fb_bip, fb_nz, fb_sg;
  std::vector<std::int64_t> dots;  ///< per row block: suffix dots of a chunk
  std::vector<std::int64_t> chunk_dot;
  std::vector<std::size_t> chunk_row;
};

PackedItemMemory::BlockView PackedItemMemory::make_block_view(
    std::span<const PackedQuery> queries) const {
  BlockView view;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const PackedQuery& pq = queries[q];
    if (pq.bipolar) {
      view.bip.push_back(pq.sign.data());
      view.bip_idx.push_back(q);
    } else {
      view.ter_nz.push_back(pq.nonzero.data());
      view.ter_sg.push_back(pq.sign.data());
      view.ter_idx.push_back(q);
    }
  }
  return view;
}

void PackedItemMemory::block_dots_range(const BlockView& view,
                                        std::size_t begin, std::size_t end,
                                        std::int64_t* scratch) const {
  const std::size_t count = end - begin;
  const QueryBlockKernels& kernels = query_block_kernels(level_);
  const std::uint64_t* rows = sign_ + begin * words_;
  if (!view.bip.empty()) {
    kernels.bipolar_rows(view.bip.data(), view.bip.size(), rows, count, words_,
                         words_, dim_, scratch);
  }
  if (!view.ter_nz.empty()) {
    kernels.ternary_rows(view.ter_nz.data(), view.ter_sg.data(),
                         view.ter_nz.size(), rows, count, words_, words_,
                         scratch + view.bip.size() * count);
  }
}

std::int64_t PackedItemMemory::rest_support(
    const PackedQuery& query) const noexcept {
  if (query.bipolar) return static_cast<std::int64_t>(dim_ - slab_dim());
  std::int64_t support = 0;
  for (std::size_t w = slab_words_; w < words_; ++w) {
    support += std::popcount(query.nonzero[w]);
  }
  return support;
}

// The exact bound-pruned argmax (see best() in the header), in three
// passes:
//   1. Slab pass, per group of kPruneGroup queries (best_group):
//      QueryBlockKernels::slab_rows streams the slab plane once for the
//      group, storing each partial dot as int16 and each (chunk, query)
//      maximum.
//   2. Candidate walk, per query (best_group): every |row_d| <= 1, so a
//      row's dot is at most partial + rest, rest = Σ|q_d| over the dims past
//      the slab. Rows are visited in descending partial order and each full
//      dot raises the best; the walk stops at the first row whose
//      partial + rest is below it — every row not yet visited is then
//      strictly worse. Ties (d == best, lower row) are kept, so the
//      lowest-index maximum wins as in the plain argmax. With rest = 0
//      every dot is its partial, and the first top-partial row is taken.
//   3. Fallback, once per block (finish_fallback): a query whose walk would
//      visit more than size() / 8 rows (noise) keeps its partials in its
//      slot and finishes on one blocked pass over words
//      [slab_words_, words_) of every row — the plain argmax at the cost of
//      a plain scan, with the rows streamed once for all such queries.
// Passes 1 and 3 split their row chunks across the scan pool; each chunk
// writes its own output slots and the merges run in row order, so the
// results are the same at every worker count.
void PackedItemMemory::best_group(std::span<const PackedQuery> block,
                                  std::size_t first, Match* out,
                                  PruneScratch& scratch) const {
  const std::span<const PackedQuery> queries =
      block.subspan(first, std::min(kPruneGroup, block.size() - first));
  const std::size_t nq = queries.size();
  const QueryBlockKernels& kernels = query_block_kernels(level_);
  const std::size_t chunks = (size_ + kBlockChunkRows - 1) / kBlockChunkRows;

  // The group's partials go to the slots after the kept fallback slots.
  const std::size_t kept = scratch.fallback.size() * size_;
  if (kept + nq * size_ > scratch.part_capacity) {
    const std::size_t capacity =
        std::max(kept + nq * size_, 2 * scratch.part_capacity);
    auto grown = std::make_unique_for_overwrite<std::int16_t[]>(capacity);
    std::copy_n(scratch.part.get(), kept, grown.get());
    scratch.part = std::move(grown);
    scratch.part_capacity = capacity;
  }
  std::int16_t* const part = scratch.part.get() + kept;

  // Pass 1: int16 partials, query-major, and per-chunk maxima, chunk-major.
  std::array<std::uint64_t, kPruneGroup * kSlabWords> q_nz{};
  std::array<std::uint64_t, kPruneGroup * kSlabWords> q_sg{};
  for (std::size_t q = 0; q < nq; ++q) {
    const PackedQuery& query = queries[q];
    std::copy_n(query.sign.data(), slab_words_, &q_sg[q * kSlabWords]);
    std::copy_n(query.bipolar ? slab_mask_.data() : query.nonzero.data(),
                slab_words_, &q_nz[q * kSlabWords]);
  }
  scratch.chunk_max.resize(std::max(scratch.chunk_max.size(), chunks * nq));
  std::int16_t* const chunk_max = scratch.chunk_max.data();
  run_row_blocks(chunks, scan_workers(), [&](std::size_t c_begin,
                                             std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      const std::size_t begin = c * kBlockChunkRows;
      kernels.slab_rows(q_nz.data(), q_sg.data(), nq,
                        slab_.data() + begin * kSlabWords,
                        std::min(size_ - begin, kBlockChunkRows),
                        part + begin, size_, chunk_max + c * nq);
    }
  });

  // Pass 2: per-query candidate walk.
  const std::size_t limit = std::max<std::size_t>(1, size_ / 8);
  std::vector<PruneScratch::Candidate>& cand = scratch.cand;
  for (std::size_t q = 0; q < nq; ++q) {
    const PackedQuery& query = queries[q];
    const std::int64_t rest = rest_support(query);
    const std::int16_t* p = part + q * size_;
    // Rows with a partial in [cut, hi) are collected next; every row at or
    // above hi has been visited already.
    std::int64_t cut = INT16_MIN;
    for (std::size_t c = 0; c < chunks; ++c) {
      cut = std::max<std::int64_t>(cut, chunk_max[c * nq + q]);
    }
    if (rest == 0) {
      // No support past the slab (every dim is in it, or the query is zero
      // there): each dot is its partial, so the first row at the top
      // partial is the argmax.
      std::size_t row = 0;
      while (chunk_max[row / kBlockChunkRows * nq + q] != cut) {
        row += kBlockChunkRows;
      }
      while (p[row] != cut) ++row;
      out[first + q] = {row, to_similarity(cut)};
      continue;
    }
    std::int64_t hi = INT64_MAX;
    std::int64_t best_dot = INT64_MIN;
    std::size_t best_row = 0;
    std::size_t visited = 0;
    bool too_many = false;
    for (;;) {
      cand.clear();
      for (std::size_t c = 0; c < chunks && !too_many; ++c) {
        if (chunk_max[c * nq + q] < cut) continue;
        const std::size_t end = std::min(size_, (c + 1) * kBlockChunkRows);
        for (std::size_t row = c * kBlockChunkRows; row < end; ++row) {
          if (p[row] >= cut && p[row] < hi) {
            cand.push_back({p[row], static_cast<std::uint32_t>(row)});
          }
        }
        too_many = visited + cand.size() > limit;
      }
      if (too_many) break;
      std::sort(cand.begin(), cand.end(),
                [](const PruneScratch::Candidate& a,
                   const PruneScratch::Candidate& b) {
                  return a.partial != b.partial ? a.partial > b.partial
                                                : a.row < b.row;
                });
      bool stopped = false;
      for (const PruneScratch::Candidate& k : cand) {
        if (k.partial + rest < best_dot) {
          stopped = true;
          break;
        }
        const std::int64_t d = row_dot(k.row, query);
        if (d > best_dot || (d == best_dot && k.row < best_row)) {
          best_dot = d;
          best_row = k.row;
        }
      }
      visited += cand.size();
      if (stopped) break;
      // Every row at or above `cut` is visited; a row below best - rest
      // cannot reach the best.
      const std::int64_t next = best_dot - rest;
      if (next >= cut) break;
      if (next <= -static_cast<std::int64_t>(slab_dim()) &&
          size_ - visited > limit) {
        // No partial is below the new cut (noise: rest dwarfs the slab), so
        // every unvisited row is a candidate; skip collecting them.
        too_many = true;
        break;
      }
      hi = cut;
      cut = next;
    }
    if (too_many) {
      // Keep the partials in the next fallback slot; slots only move down,
      // so this never overwrites a later query's partials.
      std::int16_t* const slot =
          scratch.part.get() + scratch.fallback.size() * size_;
      if (slot != p) std::copy_n(p, size_, slot);
      scratch.fallback.push_back(first + q);
    } else {
      out[first + q] = {best_row, to_similarity(best_dot)};
    }
  }
}

void PackedItemMemory::finish_fallback(std::span<const PackedQuery> queries,
                                       PruneScratch& scratch,
                                       Match* out) const {
  // Kernel slots: bipolar queries first, as the output layout wants; kernel
  // slot s is fallback slot order[s].
  const std::vector<std::size_t>& fallback = scratch.fallback;
  const std::size_t nf = fallback.size();
  std::vector<std::size_t>& order = scratch.order;
  order.resize(nf);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(), [&](std::size_t f) {
    return queries[fallback[f]].bipolar;
  });
  const QueryBlockKernels& kernels = query_block_kernels(level_);
  const std::size_t chunks = (size_ + kBlockChunkRows - 1) / kBlockChunkRows;
  const std::size_t chunk_rows = std::min(size_, kBlockChunkRows);
  // A query with no support past the slab never falls back (best_group
  // takes its top partial), so there are always suffix words to score.
  const std::size_t rest_words = words_ - slab_words_;
  scratch.fb_bip.clear();
  scratch.fb_nz.clear();
  scratch.fb_sg.clear();
  for (const std::size_t f : order) {
    const PackedQuery& query = queries[fallback[f]];
    if (query.bipolar) {
      scratch.fb_bip.push_back(query.sign.data() + slab_words_);
    } else {
      scratch.fb_nz.push_back(query.nonzero.data() + slab_words_);
      scratch.fb_sg.push_back(query.sign.data() + slab_words_);
    }
  }
  const std::size_t nfb = scratch.fb_bip.size();
  const std::size_t workers = scan_workers();
  const std::size_t per_block = nf * chunk_rows;
  scratch.dots.resize(std::max(scratch.dots.size(),
                               row_block_count(chunks, workers) * per_block));
  scratch.chunk_dot.resize(std::max(scratch.chunk_dot.size(), chunks * nf));
  scratch.chunk_row.resize(std::max(scratch.chunk_row.size(), chunks * nf));
  const std::int16_t* const fallback_part = scratch.part.get();
  std::int64_t* const chunk_dot = scratch.chunk_dot.data();
  std::size_t* const chunk_row = scratch.chunk_row.data();
  run_row_blocks(chunks, workers, [&](std::size_t block, std::size_t c_begin,
                                      std::size_t c_end) {
    std::int64_t* const dots = scratch.dots.data() + block * per_block;
    for (std::size_t c = c_begin; c < c_end; ++c) {
      const std::size_t begin = c * kBlockChunkRows;
      const std::size_t count = std::min(size_ - begin, kBlockChunkRows);
      const std::uint64_t* rows = sign_ + begin * words_ + slab_words_;
      if (nfb > 0) {
        kernels.bipolar_rows(scratch.fb_bip.data(), nfb, rows, count,
                             rest_words, words_, dim_ - slab_dim(), dots);
      }
      if (nf > nfb) {
        kernels.ternary_rows(scratch.fb_nz.data(), scratch.fb_sg.data(),
                             nf - nfb, rows, count, rest_words, words_,
                             dots + nfb * count);
      }
      for (std::size_t f = 0; f < nf; ++f) {
        std::size_t at = 0;
        kernels.partial_argmax(fallback_part + order[f] * size_ + begin,
                               dots + f * count, count, &chunk_dot[c * nf + f],
                               &at);
        chunk_row[c * nf + f] = begin + at;
      }
    }
  });
  for (std::size_t f = 0; f < nf; ++f) {
    std::int64_t bd = INT64_MIN;
    std::size_t br = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      if (chunk_dot[c * nf + f] > bd) {
        bd = chunk_dot[c * nf + f];
        br = chunk_row[c * nf + f];
      }
    }
    out[fallback[order[f]]] = {br, to_similarity(bd)};
  }
}

std::vector<Match> PackedItemMemory::best_block(
    std::span<const PackedQuery> queries) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  std::vector<Match> out(nq);
  if (layout_ != Layout::kBipolar) {
    // Ternary-layout rows have no query-block kernel; the per-query scans
    // produce the same results without the amortization.
    for (std::size_t q = 0; q < nq; ++q) out[q] = best(queries[q]);
    return out;
  }
  thread_local PruneScratch scratch;
  scratch.fallback.clear();
  for (std::size_t first = 0; first < nq; first += kPruneGroup) {
    best_group(queries, first, out.data(), scratch);
  }
  if (!scratch.fallback.empty()) finish_fallback(queries, scratch, out.data());
  return out;
}

std::vector<std::vector<Match>> PackedItemMemory::top_k_block(
    std::span<const PackedQuery> queries, std::size_t k) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  std::vector<std::vector<Match>> out(nq);
  if (nq == 0 || k == 0) return out;  // k = 0: nothing to scan for
  if (layout_ != Layout::kBipolar) {
    for (std::size_t q = 0; q < nq; ++q) out[q] = top_k(queries[q], k);
    return out;
  }
  const std::size_t keep = std::min(k, size_);
  const BlockView view = make_block_view(queries);
  const auto orig_index = [&view](std::size_t slot) {
    return slot < view.bip_idx.size()
               ? view.bip_idx[slot]
               : view.ter_idx[slot - view.bip_idx.size()];
  };
  // Candidate lists pruned to `keep` by the canonical match_order after
  // every chunk: selection by a total order, so the survivors — and their
  // final sorted order — are identical to the single-query materialize +
  // partial_sort at any chunking or thread count.
  const auto prune = [keep](std::vector<Match>& cand) {
    if (cand.size() <= keep) return;
    std::partial_sort(cand.begin(),
                      cand.begin() + static_cast<std::ptrdiff_t>(keep),
                      cand.end(), match_order);
    cand.resize(keep);
  };
  const auto reduce_range = [this, &view, nq, &prune](
                                std::size_t range_begin, std::size_t range_end,
                                std::vector<std::vector<Match>>& cand) {
    std::vector<std::int64_t> scratch(
        nq * std::min<std::size_t>(kBlockChunkRows, range_end - range_begin));
    for (std::size_t begin = range_begin; begin < range_end;
         begin += kBlockChunkRows) {
      const std::size_t end = std::min(range_end, begin + kBlockChunkRows);
      const std::size_t count = end - begin;
      block_dots_range(view, begin, end, scratch.data());
      for (std::size_t t = 0; t < nq; ++t) {
        const std::int64_t* d = scratch.data() + t * count;
        for (std::size_t i = 0; i < count; ++i) {
          cand[t].push_back({begin + i, to_similarity(d[i])});
        }
        prune(cand[t]);
      }
    }
  };
  // Each row block prunes its own lists, then appends them to the shared
  // ones; the final selection is by the same total order, so the arrival
  // order of the blocks cannot change the answer.
  std::vector<std::vector<Match>> cand(nq);
  std::mutex merge;
  run_row_blocks(size_, scan_workers(),
                 [&](std::size_t begin, std::size_t end) {
                   std::vector<std::vector<Match>> local(nq);
                   reduce_range(begin, end, local);
                   const std::lock_guard<std::mutex> lock(merge);
                   for (std::size_t t = 0; t < nq; ++t) {
                     cand[t].insert(cand[t].end(), local[t].begin(),
                                    local[t].end());
                   }
                 });
  for (std::size_t t = 0; t < nq; ++t) {
    std::sort(cand[t].begin(), cand[t].end(), match_order);
    cand[t].resize(std::min(keep, cand[t].size()));
    out[orig_index(t)] = std::move(cand[t]);
  }
  return out;
}

void PackedItemMemory::dots_block(std::span<const PackedQuery> queries,
                                  std::span<std::int64_t> out) const {
  for (const PackedQuery& q : queries) require_query(q);
  const std::size_t nq = queries.size();
  if (out.size() != nq * size_) {
    throw std::invalid_argument(
        "PackedItemMemory::dots_block: output size mismatch");
  }
  if (nq == 0) return;
  if (layout_ != Layout::kBipolar) {
    for (std::size_t q = 0; q < nq; ++q) {
      compute_dots(queries[q], out.subspan(q * size_, size_));
    }
    return;
  }
  const BlockView view = make_block_view(queries);
  const bool uniform = view.bip.empty() || view.ter_nz.empty();
  const std::size_t workers = scan_workers();
  if (workers <= 1 && uniform) {
    // One alphabet in query order: the kernel's query-major layout with
    // count = size() is exactly `out` — no scratch, no copy.
    block_dots_range(view, 0, size_, out.data());
    return;
  }
  const auto orig_index = [&view](std::size_t slot) {
    return slot < view.bip_idx.size()
               ? view.bip_idx[slot]
               : view.ter_idx[slot - view.bip_idx.size()];
  };
  // Mixed alphabets or a threaded scan: per-range scratch in the kernel's
  // (slot, range) layout, copied out to each slot's query-order row span.
  const auto fill_range = [this, &view, nq, out, &orig_index](
                              std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    std::vector<std::int64_t> scratch(nq * count);
    block_dots_range(view, begin, end, scratch.data());
    for (std::size_t t = 0; t < nq; ++t) {
      std::copy_n(scratch.data() + t * count, count,
                  out.data() + orig_index(t) * size_ + begin);
    }
  };
  run_row_blocks(size_, workers, fill_range);
}

Match PackedItemMemory::best(const Hypervector& query) const {
  return best(pack_query(query));
}

Match PackedItemMemory::best_among(const Hypervector& query,
                                   std::span<const std::size_t> indices) const {
  return best_among(pack_query(query), indices);
}

std::vector<Match> PackedItemMemory::above(const Hypervector& query,
                                           double threshold) const {
  return above(pack_query(query), threshold);
}

std::vector<Match> PackedItemMemory::above_among(
    const Hypervector& query, double threshold,
    std::span<const std::size_t> indices) const {
  return above_among(pack_query(query), threshold, indices);
}

std::vector<Match> PackedItemMemory::top_k(const Hypervector& query,
                                           std::size_t k) const {
  return top_k(pack_query(query), k);
}

void PackedItemMemory::dots(const Hypervector& query,
                            std::span<std::int64_t> out) const {
  dots(pack_query(query), out);
}

}  // namespace factorhd::hdc::kernels
