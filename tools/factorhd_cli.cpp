// factorhd — command-line front end for the library's planning utilities.
//
// Subcommands:
//   capacity  --classes F --items M[,M2,...] [--target ACC]
//       Analytic capacity report: predicted accuracy across dimensions and
//       the minimum D meeting the accuracy target.
//   calibrate --classes F --items M --objects N --dim D [--trials T]
//       Empirical TH* grid search for a Rep-3 problem, with the Eq. 2
//       prediction for comparison.
//   demo      [--seed S]
//       One end-to-end encode/factorize round trip, printed step by step.
//   index build --model PATH [--out PATH] [--min-rows N] [--clusters K]
//               [--nprobe P] [--threads T]
//       Build the tiered scan indexes of a model file offline and persist
//       them as a snapshot sidecar (default `PATH.tix`), so later loads
//       skip the k-means build (service/model_snapshot.hpp).
//   index info  --snapshot PATH
//       Validate a snapshot (single FTS1 index or FTX1 sidecar) and print
//       its geometry.
//   info | version
//       Build/version report: compiler and build flags, detected and
//       dispatched SIMD scan tier, the observability configuration, the
//       FACTORHD_* env-knob registry, and a serving-engine self-test (one
//       traced micro-batch through service::FactorizationEngine, metrics
//       and trace-ring occupancy printed).
//   trace     [--seed S] [--requests N] [--sample K] [--out PATH]
//       Self-contained traced serving session: spins up an engine with
//       1-in-K deterministic sampling, runs N requests (with repeats to
//       exercise the cache-hit path), and dumps the sampled traces as
//       Chrome trace-event JSON — load the file in Perfetto or
//       chrome://tracing to see the per-stage spans.
//
// Exit status: 0 on success, 1 on bad usage or a failed demo round trip.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factorhd.hpp"
#include "hdc/kernels/plane.hpp"
#include "hdc/kernels/sharded_item_memory.hpp"
#include "hdc/kernels/simd.hpp"
#include "hdc/kernels/tiered_item_memory.hpp"
#include "hdc/kernels/tiered_snapshot.hpp"
#include "service/model_snapshot.hpp"
#include "service/service.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#ifndef FACTORHD_VERSION_STRING
#define FACTORHD_VERSION_STRING "unknown"
#endif

namespace {

using namespace factorhd;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: factorhd <command> [options]\n"
      "  capacity  --classes F --items M[,M2,...] [--target ACC]\n"
      "  calibrate --classes F --items M --objects N --dim D [--trials T]\n"
      "  demo      [--seed S]\n"
      "  index build --model PATH [--out PATH] [--min-rows N]\n"
      "              [--clusters K] [--nprobe P] [--threads T]\n"
      "  index info  --snapshot PATH\n"
      "  info      (also: version) build flags, SIMD tiers, env knobs\n"
      "  trace     [--seed S] [--requests N] [--sample K] [--out PATH]\n"
      "            traced serving session -> Chrome trace-event JSON\n";
  std::exit(1);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("expected --flag");
    key = key.substr(2);
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    flags[key] = argv[++i];
  }
  return flags;
}

long flag_int(const std::map<std::string, std::string>& flags,
              const std::string& key, long fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return std::strtol(it->second.c_str(), nullptr, 10);
}

double flag_double(const std::map<std::string, std::string>& flags,
                   const std::string& key, double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::size_t> parse_items(const std::string& spec) {
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ',')) {
    const long v = std::strtol(part.c_str(), nullptr, 10);
    if (v <= 0) usage("items must be positive integers");
    out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) usage("empty --items list");
  return out;
}

int cmd_capacity(const std::map<std::string, std::string>& flags) {
  core::CapacityProblem p;
  p.num_classes = static_cast<std::size_t>(flag_int(flags, "classes", 3));
  p.branching = parse_items(
      flags.count("items") ? flags.at("items") : std::string("16"));
  const double target = flag_double(flags, "target", 0.99);

  std::cout << "capacity report: F=" << p.num_classes << ", branching {";
  for (std::size_t i = 0; i < p.branching.size(); ++i) {
    std::cout << (i ? "," : "") << p.branching[i];
  }
  std::cout << "}\n\n";
  util::TextTable table({"D", "predicted accuracy"});
  for (std::size_t d = 64; d <= 8192; d *= 2) {
    p.dim = d;
    table.add_row({std::to_string(d),
                   util::fmt_percent(core::predicted_object_accuracy(p))});
  }
  table.print(std::cout);
  const std::size_t need = core::required_dimension(p, target);
  std::cout << "\nminimum D for " << util::fmt_percent(target, 1)
            << " accuracy: " << need << "\n";
  return 0;
}

int cmd_calibrate(const std::map<std::string, std::string>& flags) {
  core::ThresholdProblem p;
  p.num_classes = static_cast<std::size_t>(flag_int(flags, "classes", 3));
  p.codebook_size = static_cast<std::size_t>(flag_int(flags, "items", 10));
  p.num_objects = static_cast<std::size_t>(flag_int(flags, "objects", 2));
  p.dim = static_cast<std::size_t>(flag_int(flags, "dim", 2000));
  core::CalibrationOptions opts;
  opts.trials_per_point =
      static_cast<std::size_t>(flag_int(flags, "trials", 24));

  std::cout << "calibrating TH for N=" << p.num_objects << " F="
            << p.num_classes << " M=" << p.codebook_size << " D=" << p.dim
            << " (" << opts.trials_per_point << " trials/point)\n\n";
  const core::CalibrationResult r = core::calibrate_threshold(p, opts);
  util::TextTable table({"TH", "accuracy"});
  for (const auto& pt : r.sweep) {
    table.add_row({util::fmt_double(pt.threshold, 3),
                   util::fmt_percent(pt.accuracy)});
  }
  table.print(std::cout);
  std::cout << "\nempirical TH* (plateau mid): "
            << util::fmt_double(r.best_threshold, 3) << "  plateau ["
            << util::fmt_double(r.plateau_lo, 3) << ", "
            << util::fmt_double(r.plateau_hi, 3) << "]\n"
            << "Eq. 2 prediction:            "
            << util::fmt_double(core::predicted_threshold(p), 3) << "\n";
  return 0;
}

int cmd_demo(const std::map<std::string, std::string>& flags) {
  const auto seed = static_cast<std::uint64_t>(flag_int(flags, "seed", 1));
  util::Xoshiro256 rng(seed);
  const tax::Taxonomy taxonomy(3, {8, 4});
  const tax::TaxonomyCodebooks books(taxonomy, 2048, rng);
  const core::Encoder encoder(books);
  const core::Factorizer factorizer(encoder);

  const tax::Scene scene = tax::random_scene(
      taxonomy, rng,
      {.num_objects = 2, .object = {}, .allow_duplicates = false});
  std::cout << "scene: " << scene[0].to_string() << " + "
            << scene[1].to_string() << "\n";
  const hdc::Hypervector target = encoder.encode_scene(scene);
  std::cout << "encoded into Z^" << target.dim()
            << " bundle (max |component| " << target.max_abs() << ")\n";

  core::FactorizeOptions opts;
  opts.multi_object = true;
  opts.num_objects_hint = 2;
  opts.collect_trace = true;
  const auto result = factorizer.factorize(target, opts);
  std::cout << "factorized " << result.objects.size() << " objects in "
            << result.trace.size() << " rounds, " << result.similarity_ops
            << " similarity ops, " << result.combinations_checked
            << " combination checks:\n";
  tax::Scene recovered;
  for (const auto& o : result.objects) {
    recovered.push_back(o.to_object(3));
    std::cout << "  " << recovered.back().to_string() << " (match "
              << util::fmt_double(o.match_similarity, 3) << ")\n";
  }
  const bool ok = tax::same_multiset(recovered, scene);
  std::cout << (ok ? "round trip OK" : "ROUND TRIP FAILED") << "\n";
  return ok ? 0 : 1;
}

// `index build` steers the tiered build through the same env knobs a
// serving process would read, so the persisted index is exactly what that
// process would have built itself (the adoption check verifies it anyway).
void override_env(const std::map<std::string, std::string>& flags,
                  const std::string& flag, const char* knob) {
  const auto it = flags.find(flag);
  if (it != flags.end()) ::setenv(knob, it->second.c_str(), 1);
}

int cmd_index_build(const std::map<std::string, std::string>& flags) {
  const auto model_it = flags.find("model");
  if (model_it == flags.end()) usage("index build requires --model PATH");
  const std::string& model_path = model_it->second;
  const std::string out = flags.count("out")
                              ? flags.at("out")
                              : service::model_snapshot_path(model_path);
  override_env(flags, "min-rows", "FACTORHD_TIERED_MIN_ROWS");
  override_env(flags, "clusters", "FACTORHD_TIERED_CLUSTERS");
  override_env(flags, "nprobe", "FACTORHD_TIERED_NPROBE");
  override_env(flags, "threads", "FACTORHD_TIERED_BUILD_THREADS");

  util::Stopwatch sw;
  auto model = service::Model::make("index-build",
                                    tax::load_codebooks_file(model_path));
  const double build_s = sw.elapsed_seconds();
  const std::size_t records = service::save_model_snapshots(out, *model);

  const core::TierSnapshots tiers = model->factorizer().tier_snapshots();
  util::TextTable table({"class", "level", "rows", "clusters", "nprobe",
                         "bytes"});
  for (const auto& [key, tier] : tiers) {
    table.add_row({std::to_string(key.first), std::to_string(key.second),
                   std::to_string(tier->size()),
                   std::to_string(tier->clusters()),
                   std::to_string(tier->nprobe()),
                   std::to_string(hdc::kernels::tiered_snapshot_bytes(*tier))});
  }
  table.print(std::cout);
  std::cout << "\nbuilt " << records << " tier index"
            << (records == 1 ? "" : "es") << " in "
            << util::fmt_double(build_s, 2) << " s -> " << out << "\n";
  if (records == 0) {
    std::cout << "note: no codebook met the tiering threshold "
                 "(FACTORHD_TIERED_MIN_ROWS / --min-rows); the sidecar is "
                 "valid but empty\n";
  }
  return 0;
}

int cmd_index_info(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("snapshot");
  if (it == flags.end()) usage("index info requires --snapshot PATH");
  const std::string& path = it->second;

  util::TextTable table({"class", "level", "dim", "rows", "clusters",
                         "nprobe", "layout", "bytes"});
  // Route on the magic so a corrupt file of either format reports its own
  // format's error instead of the other's "bad magic".
  std::uint32_t magic = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    probe.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    if (!probe) throw std::runtime_error("cannot read '" + path + "'");
  }
  if (magic == 0x31535446) {  // 'FTS1': one bare tier index
    const auto info = hdc::kernels::read_tiered_index_info(path);
    table.add_row({"-", "-", std::to_string(info.dim),
                   std::to_string(info.rows), std::to_string(info.clusters),
                   std::to_string(info.nprobe),
                   info.ternary ? "ternary" : "bipolar",
                   std::to_string(info.total_bytes)});
    table.print(std::cout);
    std::cout << "\nok: FTS1 snapshot v" << info.version << "\n";
    return 0;
  }
  const core::TierSnapshots tiers = service::load_model_snapshots(path);
  for (const auto& [key, tier] : tiers) {
    table.add_row({std::to_string(key.first), std::to_string(key.second),
                   std::to_string(tier->dim()), std::to_string(tier->size()),
                   std::to_string(tier->clusters()),
                   std::to_string(tier->nprobe()),
                   tier->rows().layout() ==
                           hdc::kernels::PackedItemMemory::Layout::kTernary
                       ? "ternary"
                       : "bipolar",
                   std::to_string(hdc::kernels::tiered_snapshot_bytes(*tier))});
  }
  table.print(std::cout);
  std::cout << "\nok: FTX1 sidecar, " << tiers.size() << " record"
            << (tiers.size() == 1 ? "" : "s") << " (all digests verified)\n";
  return 0;
}

int cmd_info() {
  namespace hk = hdc::kernels;
  std::cout << "factorhd " << FACTORHD_VERSION_STRING << "\n"
            << "compiler:   " << __VERSION__ << "\n"
            << "build:      "
#ifdef NDEBUG
            << "optimized (NDEBUG)"
#else
            << "debug (assertions on)"
#endif
            << ", C++" << (__cplusplus / 100 % 100) << "\n\n";

  const hk::SimdLevel detected = hk::detect_simd_level();
  const hk::SimdLevel dispatched = hk::dispatched_simd_level();
  std::cout << "simd detected:   " << hk::to_string(detected) << "\n"
            << "simd dispatched: " << hk::to_string(dispatched)
            << "  (FACTORHD_SIMD=" << util::env_string("FACTORHD_SIMD", "auto")
            << ")\n";
  std::cout << "available tiers: ";
  bool first = true;
  for (const hk::SimdLevel level :
       {hk::SimdLevel::kScalarWords, hk::SimdLevel::kAVX2,
        hk::SimdLevel::kAVX512, hk::SimdLevel::kNEON}) {
    if (!hk::simd_level_available(level)) continue;
    std::cout << (first ? "" : ", ") << hk::to_string(level);
    first = false;
  }
  std::cout << "\n";

  // The exact argmax, and the tiered (two-stage) scan configuration as the
  // env knobs resolve it.
  std::cout << "exact argmax:    bound-pruned after a "
            << hk::kSlabStepWords * hk::kWordBits << "-dim, then a "
            << hk::kSlabWords * hk::kWordBits
            << "-dim slab on bipolar codebooks\n";
  const std::size_t tier_min = hk::tiered_auto_min_rows();
  const hk::TieredConfig tier_cfg = hk::tiered_config_from_env();
  std::cout << "tiered scans:    ";
  if (tier_min == 0) {
    std::cout << "auto-tiering off, scans exact (FACTORHD_TIERED_MIN_ROWS=0)";
  } else {
    std::cout << "auto at >= " << tier_min << " rows (approximate)";
  }
  std::cout << ", clusters="
            << (tier_cfg.clusters != 0 ? std::to_string(tier_cfg.clusters)
                                       : std::string("auto(4*sqrt(M))"))
            << ", nprobe="
            << (tier_cfg.nprobe != 0 ? std::to_string(tier_cfg.nprobe)
                                     : std::string("auto(K/16)"))
            << "\n";

  // Scatter-gather shard configuration as the env knobs resolve it.
  const hk::ShardedConfig shard_cfg = hk::sharded_config_from_env();
  const std::size_t shard_min = hk::sharded_auto_min_rows();
  std::cout << "sharded scans:   ";
  if (shard_cfg.shards < 2) {
    std::cout << "off (FACTORHD_SHARDS=" << shard_cfg.shards << ")";
  } else if (shard_min == 0) {
    std::cout << shard_cfg.shards
              << " shards requested, auto-sharding off "
                 "(FACTORHD_SHARD_MIN_ROWS=0)";
  } else {
    std::cout << shard_cfg.shards << " shards at >= " << shard_min << " rows";
  }
  std::cout << "\n";

  // Observability configuration as the env knobs resolve it.
  const service::TraceConfig trace_cfg = service::trace_config_from_env();
  std::cout << "observability:   trace sample ";
  if (trace_cfg.sample_every == 0) {
    std::cout << "off (FACTORHD_TRACE_SAMPLE=0)";
  } else {
    std::cout << "1-in-" << trace_cfg.sample_every;
  }
  std::cout << ", ring " << trace_cfg.ring_capacity << " slots, slow-query ";
  if (trace_cfg.slow_query_us == 0) {
    std::cout << "off (FACTORHD_SLOW_QUERY_US=0)";
  } else {
    std::cout << ">= " << trace_cfg.slow_query_us << " us";
  }
  std::cout << "\n";

  std::cout << "\nenvironment knobs:\n";
  util::TextTable table({"knob", "values", "default", "effect"});
  for (const util::EnvKnob& k : util::env_knobs()) {
    table.add_row({k.name, k.values, k.default_str, k.description});
  }
  table.print(std::cout);

  // Serving-engine self-test: one micro-batch through the full service
  // stack (registry -> engine -> BatchFactorizer -> cache), which also
  // reports the scan tier the packed codebooks actually resolved to.
  util::Xoshiro256 rng(1);
  const tax::Taxonomy taxonomy(2, {8});
  auto model = service::Model::make(
      "self-test", tax::TaxonomyCodebooks(taxonomy, 256, rng));
  std::cout << "\nscan backend:    "
            << (model->factorizer().scan_backend() == hdc::ScanBackend::kPacked
                    ? "packed"
                    : "scalar");
  if (const auto level = model->factorizer().simd_level()) {
    std::cout << " @ " << hk::to_string(*level);
  }
  std::cout << "\n\nengine self-test (D=256, 4 requests + 1 cached repeat, "
               "traced 1-in-1):\n";
  service::FactorizationEngine engine(model,
                                      {.max_batch = 4, .trace_sample = 1});
  const tax::Object obj = tax::random_object(taxonomy, rng);
  const hdc::Hypervector target = model->encoder().encode_object(obj);
  std::vector<std::future<core::FactorizeResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(engine.submit(model->encoder().encode_object(
        tax::random_object(taxonomy, rng))));
  }
  futures.push_back(engine.submit(target));
  for (auto& f : futures) (void)f.get();
  // target's result is cached now, so the repeat exercises the hit path.
  (void)engine.submit(target).get();
  engine.stop();
  std::cout << engine.metrics().to_string() << "\n";
  const auto& ring = engine.trace_ring();
  std::cout << "trace:    ring " << ring.occupancy() << "/" << ring.capacity()
            << " traces, " << ring.dropped() << " dropped (`factorhd trace` "
            << "dumps a Chrome/Perfetto-loadable session)\n";
  return 0;
}

int cmd_trace(const std::map<std::string, std::string>& flags) {
  const auto seed = static_cast<std::uint64_t>(flag_int(flags, "seed", 1));
  const auto requests =
      static_cast<std::size_t>(flag_int(flags, "requests", 64));
  const auto sample = static_cast<std::size_t>(flag_int(flags, "sample", 1));
  const std::string out = flags.count("out") ? flags.at("out") : "";
  if (requests == 0) usage("--requests must be >= 1");

  util::Xoshiro256 rng(seed);
  const tax::Taxonomy taxonomy(3, {8, 4});
  auto model = service::Model::make("trace-demo",
                                    tax::TaxonomyCodebooks(taxonomy, 512, rng));
  service::ServiceOptions opts;
  opts.max_batch = 16;
  opts.trace_sample = sample;
  opts.trace_ring = std::max<std::size_t>(requests, std::size_t{64});
  service::FactorizationEngine engine(model, opts);

  // A burst of single-object scenes; every 8th repeats the first target so
  // the dump also shows the short cache-hit span shape.
  std::vector<hdc::Hypervector> targets;
  targets.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i != 0 && i % 8 == 0) {
      targets.push_back(targets.front());
      continue;
    }
    targets.push_back(model->encoder().encode_object(
        tax::random_object(taxonomy, rng)));
  }
  std::vector<std::future<core::FactorizeResult>> futures;
  futures.reserve(requests);
  for (const auto& t : targets) futures.push_back(engine.submit(t));
  for (auto& f : futures) (void)f.get();
  engine.stop();

  const auto samples = engine.trace_samples();
  const std::string json = service::chrome_trace_json(samples);
  if (out.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "error: cannot open " << out << "\n";
      return 1;
    }
    file << json << "\n";
  }
  std::cerr << "traced " << requests << " requests (1-in-" << sample
            << " sampled): " << samples.size() << " traces, "
            << engine.trace_ring().dropped() << " dropped"
            << (out.empty() ? "" : " -> " + out)
            << "\nload in Perfetto (ui.perfetto.dev) or chrome://tracing\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "info" || cmd == "version") {
    if (argc != 2) usage("info takes no options");
    return cmd_info();
  }
  if (cmd == "index") {
    if (argc < 3) usage("index requires a subcommand (build | info)");
    const std::string sub = argv[2];
    const auto flags = parse_flags(argc, argv, 3);
    try {
      if (sub == "build") return cmd_index_build(flags);
      if (sub == "info") return cmd_index_info(flags);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    usage(("unknown index subcommand " + sub).c_str());
  }
  const auto flags = parse_flags(argc, argv, 2);
  if (cmd == "capacity") return cmd_capacity(flags);
  if (cmd == "calibrate") return cmd_calibrate(flags);
  if (cmd == "demo") return cmd_demo(flags);
  if (cmd == "trace") return cmd_trace(flags);
  usage(("unknown command " + cmd).c_str());
}
