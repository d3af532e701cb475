// Extension bench: tiered (two-stage) codebook scanning at scale — the
// M-sweep behind the "million-item memories" ROADMAP claim.
//
// For each codebook size M the sweep builds one random bipolar codebook,
// packs it (hdc/kernels/PackedItemMemory), builds the tiered index
// (hdc/kernels/TieredItemMemory, auto configuration: K ≈ 4·sqrt(M) coarse
// buckets, nprobe = K/16), and measures noisy cleanup queries — codebook
// rows with a 2% bit-flip — both ways:
//
//   exact    PackedItemMemory::best   (every row, the PR 2-3 kernels)
//   tiered   TieredItemMemory::best   (centroid scan -> top-nprobe buckets
//                                      -> exact scan of survivors)
//
// reporting per-query wall time, the speedup, recall@1 (tiered argmax ==
// exact argmax), and the similarity-measurement counts (the paper's
// efficiency unit). The acceptance row (ISSUE 5): at M = 262144, tiered
// must be >= 5x faster than exact at recall@1 >= 0.99.
//
// Since ISSUE 6 each point also measures the *build* both ways — the
// default screened/threaded assignment vs the single-threaded exhaustive
// reference (`TieredConfig::exhaustive_build`, skipped above the headline
// M to bound wall time) — and round-trips the built index through an FTS1
// snapshot file (hdc/kernels/tiered_snapshot.hpp), recording the load
// time. Acceptance (ISSUE 6): build_speedup >= 4x at M = 262144 and a
// sub-second snapshot load at the largest M.
//
// Since ISSUE 7 each point also re-views the built clustering through the
// adaptive-probing adoption ctor (floor = auto nprobe/8, ceiling =
// nprobe/2) and measures the adaptive scan's recall@1 plus the mean
// buckets actually probed per query — the centroid-score margin rule
// stopping early on confident queries. Acceptance (ISSUE 7): at
// M = 262144, adaptive recall@1 >= 0.99 with mean probes <= 0.5 * K/16.
//
// Since ISSUE 8 each point also sweeps the scatter-gather partition
// (hdc/kernels/ShardedItemMemory) over shard counts {1, 2, 4}: the packed
// rows are partitioned into contiguous range shards, each shard gets its
// own auto-configured tier, and the merged scan is measured against the
// same queries (speedup is vs the exact full scan — the same baseline as
// every other `speedup` field). The 4-shard point also round-trips the
// per-shard indexes through FTS1 shard files (save/load_sharded_index).
// Acceptance (ISSUE 8): sharded aggregate scan throughput >= 3x the exact
// scan at 4 shards and the largest M.
//
// `--json FILE` additionally writes the machine-readable sweep in the
// factorhd.bench_scale.v4 schema (validated by scripts/bench_json.py
// --check; the committed baseline is BENCH_scale.json). `--smoke` runs a
// tiny configuration and re-verifies the nprobe=all bound — a
// full-coverage tiered index must be bit-identical to PackedItemMemory on
// best/above/top_k — plus the sharding bound — an exact sharded memory
// must be bit-identical to PackedItemMemory at every shard count —
// exiting 1 on any mismatch (the CI hook).
//
// FACTORHD_BENCH_SCALE=full extends the sweep to M = 1048576;
// FACTORHD_TRIALS overrides the query count; FACTORHD_SEED the seed.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/sharded_item_memory.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/kernels/tiered_snapshot.hpp"
#include "hdc/random.hpp"

namespace {

using namespace factorhd;
using hdc::kernels::PackedItemMemory;
using hdc::kernels::PackedQuery;
using hdc::kernels::ShardedConfig;
using hdc::kernels::ShardedItemMemory;
using hdc::kernels::TieredConfig;
using hdc::kernels::TieredItemMemory;

// The acceptance-criterion codebook size; also the repeat normalizer so
// every sweep point spends comparable wall time.
constexpr std::size_t kHeadlineM = 262144;

/// One shard count of a point's scatter-gather sweep.
struct ShardPoint {
  std::size_t shards = 0;
  double build_seconds = 0.0;  ///< per-shard tier builds, total
  double sharded_us = 0.0;     ///< per query, merged scan
  double speedup = 0.0;        ///< exact_us / sharded_us (full-scan baseline)
  double recall = 0.0;         ///< merged argmax == exact argmax
  std::uint64_t sim_ops = 0;   ///< mean similarity measurements per query
};

struct PointResult {
  std::size_t m = 0;
  std::size_t clusters = 0;
  std::size_t nprobe = 0;
  double build_seconds = 0.0;      ///< default (screened, pooled) build
  double build_ref_seconds = 0.0;  ///< exhaustive 1-thread build; 0 = skipped
  double build_speedup = 0.0;      ///< ref / default; 0 when ref skipped
  double snap_load_seconds = 0.0;  ///< FTS1 file round-trip load (mmap)
  double exact_us = 0.0;           ///< per query
  double tiered_us = 0.0;          ///< per query
  double speedup = 0.0;
  double recall = 0.0;
  std::uint64_t exact_ops = 0;   ///< similarity measurements per query
  std::uint64_t tiered_ops = 0;  ///< mean, rounded
  std::size_t adaptive_min = 0;  ///< adaptive probing floor (resolved)
  std::size_t adaptive_max = 0;  ///< adaptive probing ceiling (resolved)
  double mean_probes = 0.0;      ///< mean buckets probed by the adaptive scan
  double adaptive_recall = 0.0;  ///< adaptive recall@1 vs the exact argmax
  std::vector<ShardPoint> shard_sweep;  ///< scatter-gather shard counts
};

PointResult run_point(std::size_t m, std::size_t dim, std::size_t queries,
                      double flip, std::uint64_t seed) {
  util::Xoshiro256 rng(seed + m);
  PointResult r;
  r.m = m;

  // Generate the codebook and derive the query set inside one scope; the
  // packed memory keeps the codebook's planes alive past it.
  std::shared_ptr<const PackedItemMemory> packed;
  std::vector<PackedQuery> qs;
  qs.reserve(queries);
  {
    const hdc::Codebook cb(dim, m, rng);
    packed = std::make_shared<const PackedItemMemory>(cb);
    for (std::size_t i = 0; i < queries; ++i) {
      const hdc::Hypervector q =
          hdc::flip_noise(cb.item(rng.uniform(m)), flip, rng);
      qs.push_back(*PackedQuery::pack(q, packed->simd_level()));
    }
  }

  util::Stopwatch build_sw;
  const TieredItemMemory tiered(packed, TieredConfig{});
  r.build_seconds = build_sw.elapsed_ms() / 1e3;
  r.clusters = tiered.clusters();
  r.nprobe = tiered.nprobe();

  // The build is deterministic, so repeated builds do identical work; the
  // min over a second repetition discards transient host noise (the same
  // rationale as min-over-trials query timing). Only worth the time at
  // the acceptance-relevant sizes.
  if (m <= kHeadlineM) {
    util::Stopwatch rebuild_sw;
    const TieredItemMemory rebuilt(packed, TieredConfig{});
    r.build_seconds = std::min(r.build_seconds, rebuild_sw.elapsed_ms() / 1e3);
  }

  // The exhaustive single-threaded build is the reference the screened
  // parallel build is measured against (ISSUE 6: >= 4x at the headline M).
  // Skipped above the headline M — it alone would add minutes per point.
  if (m <= kHeadlineM) {
    util::Stopwatch ref_sw;
    const TieredItemMemory reference(
        packed, TieredConfig{.build_threads = 1, .exhaustive_build = true});
    r.build_ref_seconds = ref_sw.elapsed_ms() / 1e3;
    r.build_speedup =
        r.build_seconds > 0 ? r.build_ref_seconds / r.build_seconds : 0.0;
  }

  // FTS1 round trip: persist the built index and time the (mmap) load —
  // the cost a ModelRegistry::load_file pays instead of the build.
  {
    const std::string snap_path = "bench_scale_snapshot.fts.tmp";
    hdc::kernels::save_tiered_index(snap_path, tiered);
    util::Stopwatch load_sw;
    const auto loaded = hdc::kernels::load_tiered_index(snap_path);
    r.snap_load_seconds = load_sw.elapsed_ms() / 1e3;
    const hdc::Match a = tiered.best(qs[0]);
    const hdc::Match b = loaded->best(qs[0]);
    if (a.index != b.index || a.similarity != b.similarity) {
      std::cerr << "bench_ext_scale: snapshot round trip mismatch at m=" << m
                << "\n";
      std::exit(1);
    }
    std::remove(snap_path.c_str());
  }

  const std::size_t reps = std::max<std::size_t>(1, kHeadlineM / m);

  std::vector<std::size_t> truth(queries);
  util::Stopwatch exact_sw;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < queries; ++i) {
      truth[i] = packed->best(qs[i]).index;
    }
  }
  r.exact_us = exact_sw.elapsed_us() / static_cast<double>(reps * queries);
  r.exact_ops = m;

  std::size_t hits = 0;
  std::uint64_t ops = 0;
  util::Stopwatch tiered_sw;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < queries; ++i) {
      TieredItemMemory::ScanStats stats;
      const hdc::Match got = tiered.best(qs[i], &stats);
      if (rep == 0) {
        hits += got.index == truth[i] ? 1 : 0;
        ops += stats.centroid_dots + stats.row_dots;
      }
    }
  }
  r.tiered_us = tiered_sw.elapsed_us() / static_cast<double>(reps * queries);
  r.speedup = r.tiered_us > 0 ? r.exact_us / r.tiered_us : 0.0;
  r.recall = static_cast<double>(hits) / static_cast<double>(queries);
  r.tiered_ops = ops / queries;

  // Adaptive probing over the *same* clustering: the adoption ctor re-views
  // the built buckets with a floor (auto: nprobe/8) and a ceiling (nprobe/2)
  // so no second k-means run is paid. The margin rule stops at the floor on
  // confident queries and escalates toward the ceiling on ambiguous ones;
  // the ceiling keeps worst-case recall while mean probes stay below the
  // fixed nprobe.
  {
    const TieredItemMemory adaptive(
        tiered.shared_rows(), tiered.shared_centroids(), tiered.nprobe(),
        std::vector<std::size_t>(tiered.member_rows().begin(),
                                 tiered.member_rows().end()),
        std::vector<std::size_t>(tiered.cluster_begins().begin(),
                                 tiered.cluster_begins().end()),
        0, std::max<std::size_t>(1, tiered.nprobe() / 2));
    r.adaptive_min = adaptive.nprobe_min();
    r.adaptive_max = adaptive.nprobe_max();
    std::size_t adaptive_hits = 0;
    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < queries; ++i) {
      TieredItemMemory::ScanStats stats;
      const hdc::Match got = adaptive.best(qs[i], &stats);
      adaptive_hits += got.index == truth[i] ? 1 : 0;
      probes += stats.probes;
    }
    r.mean_probes =
        static_cast<double>(probes) / static_cast<double>(queries);
    r.adaptive_recall =
        static_cast<double>(adaptive_hits) / static_cast<double>(queries);
  }

  // Scatter-gather shard sweep over the same packed rows and queries: each
  // shard count partitions the codebook into contiguous ranges, builds one
  // auto-configured tier per shard, and scans through the merged interface.
  // speedup is vs the exact full scan — the same baseline every other
  // `speedup` field in this bench uses — so it composes tier pruning with
  // the partition rather than isolating thread parallelism.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    ShardPoint p;
    ShardedConfig cfg;
    cfg.shards = shards;
    cfg.tiered = TieredConfig{};  // auto per shard row count
    util::Stopwatch shard_build_sw;
    const ShardedItemMemory sharded(packed, cfg);
    p.build_seconds = shard_build_sw.elapsed_ms() / 1e3;
    p.shards = sharded.shards();

    std::size_t shard_hits = 0;
    std::uint64_t shard_ops = 0;
    util::Stopwatch sharded_sw;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < queries; ++i) {
        TieredItemMemory::ScanStats stats;
        const hdc::Match got = sharded.best(qs[i], /*exact=*/false, &stats);
        if (rep == 0) {
          shard_hits += got.index == truth[i] ? 1 : 0;
          shard_ops += stats.centroid_dots + stats.row_dots;
        }
      }
    }
    p.sharded_us =
        sharded_sw.elapsed_us() / static_cast<double>(reps * queries);
    p.speedup = p.sharded_us > 0 ? r.exact_us / p.sharded_us : 0.0;
    p.recall = static_cast<double>(shard_hits) / static_cast<double>(queries);
    p.sim_ops = shard_ops / queries;

    // FTS1 per-shard round trip at the acceptance shard count: every shard
    // file must verify and be adopted, and the rebuilt memory must scan
    // identically.
    if (shards == 4) {
      const std::string prefix = "bench_scale_sharded.fts.tmp";
      hdc::kernels::save_sharded_index(prefix, sharded);
      const auto snaps = hdc::kernels::load_sharded_index(prefix, shards);
      const ShardedItemMemory reloaded(packed, cfg, snaps);
      const hdc::Match a = sharded.best(qs[0]);
      const hdc::Match b = reloaded.best(qs[0]);
      if (reloaded.snapshots_adopted() != sharded.shards() ||
          a.index != b.index || a.similarity != b.similarity) {
        std::cerr << "bench_ext_scale: sharded snapshot round trip mismatch "
                     "at m=" << m << "\n";
        std::exit(1);
      }
      for (std::size_t s = 0; s < shards; ++s) {
        std::remove(hdc::kernels::sharded_shard_path(prefix, s).c_str());
      }
    }
    r.shard_sweep.push_back(p);
  }
  return r;
}

// The sharding verification bound, re-checked in CI: an exact (untiered)
// scatter-gather memory must be bit-identical to PackedItemMemory on
// best/above/top_k/dots at every shard count — including counts that do
// not divide M and counts above M.
bool verify_sharded_bound(std::size_t m, std::size_t dim, std::size_t queries,
                          double flip, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0xdeca1ULL);
  const hdc::Codebook cb(dim, m, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
        m + 1}) {
    ShardedConfig cfg;
    cfg.shards = shards;
    const ShardedItemMemory sharded(packed, cfg);
    std::vector<std::int64_t> ref_dots(m);
    std::vector<std::int64_t> got_dots(m);
    for (std::size_t i = 0; i < queries; ++i) {
      const hdc::Hypervector q =
          hdc::flip_noise(cb.item(rng.uniform(m)), flip, rng);
      const auto pq = *PackedQuery::pack(q, packed->simd_level());
      const hdc::Match ref = packed->best(pq);
      const hdc::Match got = sharded.best(pq);
      if (ref.index != got.index || ref.similarity != got.similarity) {
        std::cerr << "MISMATCH sharded best: m=" << m << " shards=" << shards
                  << " query " << i << "\n";
        return false;
      }
      const auto ref_above = packed->above(pq, ref.similarity / 2.0);
      const auto got_above = sharded.above(pq, ref.similarity / 2.0);
      const auto ref_top = packed->top_k(pq, 10);
      const auto got_top = sharded.top_k(pq, 10);
      if (ref_above.size() != got_above.size() ||
          ref_top.size() != got_top.size()) {
        std::cerr << "MISMATCH sharded sizes: m=" << m << " shards=" << shards
                  << " query " << i << "\n";
        return false;
      }
      for (std::size_t j = 0; j < ref_above.size(); ++j) {
        if (ref_above[j].index != got_above[j].index ||
            ref_above[j].similarity != got_above[j].similarity) {
          std::cerr << "MISMATCH sharded above: m=" << m
                    << " shards=" << shards << " query " << i << "\n";
          return false;
        }
      }
      for (std::size_t j = 0; j < ref_top.size(); ++j) {
        if (ref_top[j].index != got_top[j].index ||
            ref_top[j].similarity != got_top[j].similarity) {
          std::cerr << "MISMATCH sharded top_k: m=" << m
                    << " shards=" << shards << " query " << i << "\n";
          return false;
        }
      }
      packed->dots(pq, ref_dots);
      sharded.dots(pq, got_dots);
      if (ref_dots != got_dots) {
        std::cerr << "MISMATCH sharded dots: m=" << m << " shards=" << shards
                  << " query " << i << "\n";
        return false;
      }
    }
  }
  return true;
}

// The nprobe=all verification bound, re-checked in CI: full-coverage tiered
// scans must be bit-identical to PackedItemMemory on best/above/top_k.
bool verify_exact_bound(std::size_t m, std::size_t dim, std::size_t queries,
                        double flip, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0x5ca1eULL);
  const hdc::Codebook cb(dim, m, rng);
  const auto packed = std::make_shared<const PackedItemMemory>(cb);
  const TieredItemMemory all(
      packed, TieredConfig{.clusters = 0, .nprobe = m, .kmeans_iters = 2});
  for (std::size_t i = 0; i < queries; ++i) {
    const hdc::Hypervector q =
        hdc::flip_noise(cb.item(rng.uniform(m)), flip, rng);
    const auto pq = *PackedQuery::pack(q, packed->simd_level());
    const hdc::Match ref = packed->best(pq);
    const hdc::Match got = all.best(pq);
    if (ref.index != got.index || ref.similarity != got.similarity) {
      std::cerr << "MISMATCH best: m=" << m << " query " << i << "\n";
      return false;
    }
    const auto ref_above = packed->above(pq, ref.similarity / 2.0);
    const auto got_above = all.above(pq, ref.similarity / 2.0);
    const auto ref_top = packed->top_k(pq, 10);
    const auto got_top = all.top_k(pq, 10);
    if (ref_above.size() != got_above.size() ||
        ref_top.size() != got_top.size()) {
      std::cerr << "MISMATCH sizes: m=" << m << " query " << i << "\n";
      return false;
    }
    for (std::size_t j = 0; j < ref_above.size(); ++j) {
      if (ref_above[j].index != got_above[j].index ||
          ref_above[j].similarity != got_above[j].similarity) {
        std::cerr << "MISMATCH above: m=" << m << " query " << i << "\n";
        return false;
      }
    }
    for (std::size_t j = 0; j < ref_top.size(); ++j) {
      if (ref_top[j].index != got_top[j].index ||
          ref_top[j].similarity != got_top[j].similarity) {
        std::cerr << "MISMATCH top_k: m=" << m << " query " << i << "\n";
        return false;
      }
    }
  }
  return true;
}

std::string fmt_num(double v, int precision = 3) {
  std::string s = util::fmt_double(v, precision);
  return s;
}

void write_json(const std::string& path, bool smoke, std::size_t dim,
                std::size_t queries, double flip, std::uint64_t seed,
                const std::vector<PointResult>& sweep) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_ext_scale: cannot write " << path << "\n";
    std::exit(1);
  }
  namespace hk = hdc::kernels;
  out << "{\n"
      << "  \"schema\": \"factorhd.bench_scale.v4\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"context\": {\n"
      << "    \"dim\": " << dim << ",\n"
      << "    \"queries\": " << queries << ",\n"
      << "    \"flip_rate\": " << fmt_num(flip) << ",\n"
      << "    \"seed\": " << seed << ",\n"
      << "    \"simd_level\": \""
      << hk::to_string(hk::dispatched_simd_level()) << "\",\n"
      << "    \"simd_detected\": \""
      << hk::to_string(hk::detect_simd_level()) << "\"\n"
      << "  },\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& r = sweep[i];
    out << "    {\"m\": " << r.m << ", \"clusters\": " << r.clusters
        << ", \"nprobe\": " << r.nprobe << ", \"build_seconds\": "
        << fmt_num(r.build_seconds) << ", \"build_reference_seconds\": "
        << fmt_num(r.build_ref_seconds) << ", \"build_speedup\": "
        << fmt_num(r.build_speedup) << ", \"snapshot_load_seconds\": "
        << fmt_num(r.snap_load_seconds, 7) << ", \"exact_us_per_query\": "
        << fmt_num(r.exact_us)
        << ", \"tiered_us_per_query\": "
        << fmt_num(r.tiered_us) << ", \"speedup\": "
        << fmt_num(r.speedup) << ", \"recall_at_1\": "
        << fmt_num(r.recall, 4) << ", \"exact_sim_ops\": "
        << r.exact_ops << ", \"tiered_sim_ops\": " << r.tiered_ops
        << ", \"adaptive_nprobe_min\": " << r.adaptive_min
        << ", \"adaptive_nprobe_max\": " << r.adaptive_max
        << ", \"mean_probes\": " << fmt_num(r.mean_probes, 2)
        << ", \"adaptive_recall_at_1\": " << fmt_num(r.adaptive_recall, 4)
        << ", \"shard_sweep\": [";
    for (std::size_t s = 0; s < r.shard_sweep.size(); ++s) {
      const ShardPoint& p = r.shard_sweep[s];
      out << (s == 0 ? "" : ", ") << "{\"shards\": " << p.shards
          << ", \"build_seconds\": " << fmt_num(p.build_seconds)
          << ", \"sharded_us_per_query\": " << fmt_num(p.sharded_us)
          << ", \"speedup\": " << fmt_num(p.speedup)
          << ", \"recall_at_1\": " << fmt_num(p.recall, 4)
          << ", \"sharded_sim_ops\": " << p.sim_ops << "}";
    }
    out << "]}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  // headline mirrors the largest-M row; build_speedup comes from the
  // headline (acceptance) M, where the exhaustive reference is measured;
  // shard_speedup is the largest-M 4-shard aggregate (vs the exact scan).
  const PointResult& head = sweep.back();
  double head_build_speedup = 0.0;
  for (const PointResult& r : sweep) {
    if (r.m == kHeadlineM) head_build_speedup = r.build_speedup;
  }
  double head_shard_speedup = 0.0;
  for (const ShardPoint& p : head.shard_sweep) {
    if (p.shards == 4) head_shard_speedup = p.speedup;
  }
  out << "  ],\n"
      << "  \"headline\": {\"m\": " << head.m << ", \"speedup\": "
      << fmt_num(head.speedup) << ", \"recall_at_1\": "
      << fmt_num(head.recall, 4) << ", \"snapshot_load_seconds\": "
      << fmt_num(head.snap_load_seconds, 7) << ", \"build_speedup\": "
      << fmt_num(head_build_speedup) << ", \"shard_speedup\": "
      << fmt_num(head_shard_speedup) << "}\n"
      << "}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_ext_scale [--smoke] [--json FILE]\n";
      return 2;
    }
  }

  std::cout << "==============================================================\n"
            << "Extension: tiered two-stage codebook scanning at scale\n"
            << "==============================================================\n";
  const std::uint64_t seed = util::experiment_seed();
  const std::size_t dim = smoke ? 256 : 8192;
  const double flip = 0.02;
  const std::size_t queries =
      bench::trials_or_default(smoke ? 25 : 200, 200);

  std::vector<std::size_t> ms;
  if (smoke) {
    ms = {256, 1024};
  } else {
    ms = {1024, 4096, 16384, 65536, 262144};
    if (util::bench_full_scale()) ms.push_back(1048576);
  }
  std::cout << "D=" << dim << ", " << queries
            << " noisy cleanup queries/point (2% bit flip), seed " << seed
            << "\nauto tier config: K = 4*sqrt(M) buckets, nprobe = K/16\n\n";

  std::vector<PointResult> sweep;
  util::TextTable table({"M", "K", "nprobe", "build", "bld-spdup", "snap-load",
                         "exact/q", "tiered/q", "speedup", "recall@1",
                         "sim-ops exact/tiered", "adpt-probe",
                         "adpt-recall@1", "shard4/q", "shard4-spdup"});
  for (const std::size_t m : ms) {
    const PointResult r = run_point(m, dim, queries, flip, seed);
    table.add_row({std::to_string(r.m), std::to_string(r.clusters),
                   std::to_string(r.nprobe),
                   util::fmt_double(r.build_seconds, 2) + " s",
                   r.build_ref_seconds > 0
                       ? util::fmt_double(r.build_speedup, 2) + "x"
                       : std::string("-"),
                   util::fmt_double(r.snap_load_seconds * 1e3, 1) + " ms",
                   util::fmt_double(r.exact_us, 1) + " us",
                   util::fmt_double(r.tiered_us, 1) + " us",
                   util::fmt_double(r.speedup, 2) + "x",
                   util::fmt_double(r.recall, 4),
                   std::to_string(r.exact_ops) + " / " +
                       std::to_string(r.tiered_ops),
                   util::fmt_double(r.mean_probes, 1) + " [" +
                       std::to_string(r.adaptive_min) + "," +
                       std::to_string(r.adaptive_max) + "]",
                   util::fmt_double(r.adaptive_recall, 4),
                   util::fmt_double(r.shard_sweep.back().sharded_us, 1) +
                       " us",
                   util::fmt_double(r.shard_sweep.back().speedup, 2) + "x"});
    sweep.push_back(r);
  }
  table.print(std::cout);

  if (smoke) {
    // CI correctness hooks: both verification bounds must hold bit-exactly.
    if (!verify_exact_bound(512, dim, queries, flip, seed)) return 1;
    std::cout << "\nnprobe=all differential vs PackedItemMemory: exact "
                 "(best/above/top_k bit-identical)\n";
    if (!verify_sharded_bound(512, dim, queries, flip, seed)) return 1;
    std::cout << "sharded differential vs PackedItemMemory: exact "
                 "(best/above/top_k/dots bit-identical at every shard "
                 "count)\n";
  }

  if (json_path) {
    write_json(*json_path, smoke, dim, queries, flip, seed, sweep);
  }
  return 0;
}
