// factorhd_serve — line-protocol serving front end over the
// service::FactorizationEngine (src/service/).
//
// Reads one command per line from stdin, writes payload lines followed by a
// terminating "ok ..." or "err: ..." line to stdout — a protocol trivially
// driven by a human, a pipe, or a socket wrapper (e.g. `socat
// TCP-LISTEN:9999,fork EXEC:factorhd_serve`). Commands:
//
//   model gen NAME F M1[,M2,...] D [SEED]   generate an in-memory model
//   model load NAME PATH                     load a model file (taxonomy/io)
//   model save NAME PATH                     persist a model to a file
//   model list                               registered model names
//   serve NAME [MAX_BATCH]                   start serving a model
//   reshard NAME SHARDS                      rebuild NAME with a SHARDS-way
//                                            scatter-gather partition (1 =
//                                            unshard) and hot-swap it —
//                                            zero downtime, results are
//                                            bit-identical at any count
//   factorize [multi] C0,C1,...,C(D-1)       submit a raw target vector
//   roundtrip [N]                            random N-object scene: encode,
//                                            submit, verify (demo + smoke)
//   burst COUNT [N]                          COUNT concurrent roundtrips —
//                                            exercises micro-batching
//   listen [PORT]                            start the binary TCP front end
//                                            (src/net/) on 127.0.0.1; PORT 0 or
//                                            absent = FACTORHD_NET_PORT (0 =
//                                            ephemeral, printed). The stdin
//                                            protocol keeps running alongside.
//   listen stop                              drain and stop the TCP front end
//   stats                                    engine metrics snapshot: counters,
//                                            per-stage p50/p99/p99.9, per-shard
//                                            scan counts, per-dispatcher lines
//                                            (+ net/admission lines while
//                                            listening)
//   stats prom [FILE]                        Prometheus text exposition (to
//                                            FILE when given, else inline)
//   stats reset                              zero the counters/histograms for
//                                            a fresh epoch (engine keeps
//                                            serving; trace ring untouched)
//   trace dump [FILE]                        sampled request traces as Chrome
//                                            trace-event JSON (Perfetto /
//                                            chrome://tracing loadable)
//   quit                                     drain and exit (EOF works too)
//
// Service defaults come from the FACTORHD_SERVE_* env knobs (see
// util::env_knobs); observability from FACTORHD_TRACE_SAMPLE /
// FACTORHD_TRACE_RING / FACTORHD_SLOW_QUERY_US; the `serve` argument
// overrides FACTORHD_SERVE_MAX_BATCH. Exit status 0 on clean shutdown, 1 on
// a malformed invocation.
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/factorhd.hpp"
#include "net/net.hpp"
#include "service/model_snapshot.hpp"
#include "service/service.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace factorhd;

struct ServerState {
  util::Xoshiro256 rng{util::experiment_seed()};
  service::ModelRegistry registry;
  std::shared_ptr<const service::Model> model;
  std::unique_ptr<service::FactorizationEngine> engine;
  /// TCP front end over `engine` (declared after it: destroyed — drained —
  /// first, so the engine it references is still alive).
  std::unique_ptr<net::NetServer> net_server;
};

/// Stops and discards the TCP listener if one is running. The engine-swap
/// commands call this first — the listener holds a reference to the engine
/// being torn down. \return True when a listener was actually stopped.
bool stop_listener(ServerState& st) {
  if (!st.net_server) return false;
  st.net_server->stop();
  st.net_server.reset();
  return true;
}

service::ServiceOptions env_service_options() {
  service::ServiceOptions opts;
  opts.max_batch = util::env_size_t("FACTORHD_SERVE_MAX_BATCH", 64, 1, 4096);
  opts.queue_capacity =
      util::env_size_t("FACTORHD_SERVE_QUEUE_CAP", 1024, 1, 1 << 20);
  opts.cache_capacity =
      util::env_size_t("FACTORHD_SERVE_CACHE_CAP", 4096, 0, 1 << 24);
  const service::TraceConfig trace = service::trace_config_from_env();
  opts.trace_sample = trace.sample_every;
  opts.trace_ring = trace.ring_capacity;
  opts.slow_query_us = trace.slow_query_us;
  return opts;
}

std::vector<std::string> split_words(const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> words;
  std::string w;
  while (ss >> w) words.push_back(w);
  return words;
}

std::size_t parse_size(const std::string& s, const char* what) {
  std::size_t pos = 0;
  const long long v = std::stoll(s, &pos);
  if (pos != s.size() || v < 0) {
    throw std::invalid_argument(std::string(what) + ": bad number '" + s + "'");
  }
  return static_cast<std::size_t>(v);
}

std::vector<std::size_t> parse_size_list(const std::string& spec,
                                         const char* what) {
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, ',')) out.push_back(parse_size(part, what));
  if (out.empty()) throw std::invalid_argument(std::string(what) + ": empty");
  return out;
}

void cmd_model(ServerState& st, const std::vector<std::string>& args,
               std::ostream& os) {
  if (args.empty()) throw std::invalid_argument("model: missing subcommand");
  if (args[0] == "list") {
    for (const auto& n : st.registry.names()) os << n << "\n";
    os << "ok " << st.registry.names().size() << " models\n";
    return;
  }
  if (args[0] == "gen") {
    if (args.size() < 5 || args.size() > 6) {
      throw std::invalid_argument(
          "usage: model gen NAME F M1[,M2,...] D [SEED]");
    }
    const std::string& name = args[1];
    const std::size_t classes = parse_size(args[2], "F");
    const auto branching = parse_size_list(args[3], "branching");
    const std::size_t dim = parse_size(args[4], "D");
    util::Xoshiro256 rng(args.size() == 6 ? parse_size(args[5], "SEED")
                                          : util::experiment_seed());
    const tax::Taxonomy taxonomy(classes, branching);
    st.registry.add(name, tax::TaxonomyCodebooks(taxonomy, dim, rng));
    os << "ok model " << name << " F=" << classes << " D=" << dim << "\n";
    return;
  }
  if (args[0] == "load" || args[0] == "save") {
    if (args.size() != 3) {
      throw std::invalid_argument("usage: model " + args[0] + " NAME PATH");
    }
    if (args[0] == "load") {
      auto m = st.registry.load_file(args[1], args[2]);
      os << "ok loaded " << args[1] << " (D=" << m->books().dim() << ", "
         << m->num_classes() << " classes";
      // Surface what the snapshot sidecar bought (or cost): adopted
      // records skipped their k-means build, rejected ones were rebuilt.
      const auto& f = m->factorizer();
      if (f.snapshots_adopted() + f.snapshots_rejected() > 0) {
        os << ", snapshots " << f.snapshots_adopted() << " adopted";
        if (f.snapshots_rejected() > 0) {
          os << " / " << f.snapshots_rejected() << " rejected";
        }
      }
      os << ")\n";
    } else {
      auto m = st.registry.get(args[1]);
      if (!m) throw std::invalid_argument("unknown model " + args[1]);
      tax::save_codebooks_file(args[2], m->books());
      os << "ok saved " << args[1] << " to " << args[2];
      // Persist the tier indexes alongside, so the next `model load` of
      // this file starts in milliseconds instead of re-clustering.
      if (m->factorizer().tiered()) {
        const std::string sidecar = service::model_snapshot_path(args[2]);
        const std::size_t n = service::save_model_snapshots(sidecar, *m);
        os << " (+" << n << " tier snapshot" << (n == 1 ? "" : "s") << " -> "
           << sidecar << ")";
      }
      os << "\n";
    }
    return;
  }
  throw std::invalid_argument("model: unknown subcommand " + args[0]);
}

void cmd_serve(ServerState& st, const std::vector<std::string>& args,
               std::ostream& os) {
  if (args.empty() || args.size() > 2) {
    throw std::invalid_argument("usage: serve NAME [MAX_BATCH]");
  }
  auto m = st.registry.get(args[0]);
  if (!m) throw std::invalid_argument("unknown model " + args[0]);
  service::ServiceOptions opts = env_service_options();
  if (args.size() == 2) opts.max_batch = parse_size(args[1], "MAX_BATCH");
  // Construct (and validate) the replacement before draining the current
  // engine, so a bad `serve` command leaves the running session intact.
  auto fresh = std::make_unique<service::FactorizationEngine>(m, opts);
  const bool listener_stopped = stop_listener(st);
  st.engine.reset();  // drain the previous engine
  st.model = m;
  st.engine = std::move(fresh);
  os << "ok serving " << m->name() << " (max_batch=" << opts.max_batch
     << ", cache=" << opts.cache_capacity
     << ", shards=" << m->factorizer().shards()
     << ", dispatchers=" << st.engine->options().dispatchers << ")"
     << (listener_stopped ? " (listener stopped - rerun `listen`)" : "")
     << "\n";
}

void cmd_reshard(ServerState& st, const std::vector<std::string>& args,
                 std::ostream& os) {
  if (args.size() != 2) {
    throw std::invalid_argument("usage: reshard NAME SHARDS");
  }
  const std::size_t shards = parse_size(args[1], "SHARDS");
  if (shards == 0 || shards > 1024) {
    throw std::invalid_argument("SHARDS must be in 1..1024 (1 = unshard)");
  }
  // Rebuild + swap in the registry first (zero-downtime: the rebuild runs
  // on a codebook copy outside the registry lock, and sharded scans are
  // bit-identical, so nothing observable changes but throughput).
  auto m = st.registry.reshard(args[0], shards);
  if (!m) throw std::invalid_argument("unknown model " + args[0]);
  os << "ok resharded " << args[0] << " to " << m->factorizer().shards()
     << " shard" << (m->factorizer().shards() == 1 ? "" : "s");
  // If this model is being served, hot-swap the engine the same way a
  // repeated `serve` does: build the replacement over the new partition
  // with the current options, then drain the old engine. In-flight
  // requests complete on the old model; nothing is dropped.
  if (st.engine && st.model && st.model->name() == args[0]) {
    service::ServiceOptions opts = st.engine->options();
    auto fresh = std::make_unique<service::FactorizationEngine>(m, opts);
    const bool listener_stopped = stop_listener(st);
    st.engine.reset();  // drain the previous engine
    st.model = m;
    st.engine = std::move(fresh);
    os << " (engine hot-swapped, dispatchers="
       << st.engine->options().dispatchers << ")"
       << (listener_stopped ? " (listener stopped - rerun `listen`)" : "");
  }
  os << "\n";
}

service::FactorizationEngine& require_engine(ServerState& st) {
  if (!st.engine) {
    throw std::invalid_argument("no engine — run `serve NAME` first");
  }
  return *st.engine;
}

void cmd_listen(ServerState& st, const std::vector<std::string>& args,
                std::ostream& os) {
  if (args.size() == 1 && args[0] == "stop") {
    if (!stop_listener(st)) throw std::invalid_argument("not listening");
    os << "ok listen stopped\n";
    return;
  }
  if (args.size() > 1) {
    throw std::invalid_argument("usage: listen [PORT] | listen stop");
  }
  if (st.net_server) {
    throw std::invalid_argument("already listening on port " +
                                std::to_string(st.net_server->port()));
  }
  require_engine(st);
  net::ServerOptions opts = net::server_options_from_env();
  if (args.size() == 1) {
    const std::size_t port = parse_size(args[0], "PORT");
    if (port > 65535) throw std::invalid_argument("PORT must be 0..65535");
    opts.port = static_cast<std::uint16_t>(port);
  }
  auto server = std::make_unique<net::NetServer>(*st.engine, opts);
  server->start();
  st.net_server = std::move(server);
  os << "ok listening on 127.0.0.1:" << st.net_server->port() << " ("
     << st.net_server->poller_name() << ", admission depth "
     << opts.admission.depth << ", client quota " << opts.admission.client_quota
     << ")\n";
}

void print_result(const ServerState& st, const core::FactorizeResult& r,
                  std::ostream& os) {
  const std::size_t classes = st.model->num_classes();
  for (const auto& obj : r.objects) {
    os << "object " << obj.to_object(classes).to_string();
    if (obj.match_similarity != 0.0) {
      os << " (match " << obj.match_similarity << ")";
    }
    os << "\n";
  }
  os << "ok " << r.objects.size() << " objects, " << r.similarity_ops
     << " similarity ops" << (r.converged ? "" : " (not converged)") << "\n";
}

void cmd_factorize(ServerState& st, std::vector<std::string> args,
                   std::ostream& os) {
  core::FactorizeOptions fopts;
  if (!args.empty() && args[0] == "multi") {
    fopts.multi_object = true;
    args.erase(args.begin());
  }
  if (args.size() != 1) {
    throw std::invalid_argument("usage: factorize [multi] C0,C1,...");
  }
  std::vector<std::int32_t> values;
  {
    std::stringstream ss(args[0]);
    std::string part;
    while (std::getline(ss, part, ',')) {
      std::size_t pos = 0;
      const long v = std::stol(part, &pos);
      if (pos != part.size()) {
        throw std::invalid_argument("component: bad number '" + part + "'");
      }
      values.push_back(static_cast<std::int32_t>(v));
    }
  }
  auto fut = require_engine(st).submit(hdc::Hypervector(std::move(values)),
                                       fopts);
  print_result(st, fut.get(), os);
}

void cmd_roundtrip(ServerState& st, const std::vector<std::string>& args,
                   std::ostream& os) {
  auto& engine = require_engine(st);
  const std::size_t n = args.empty() ? 2 : parse_size(args[0], "N");
  const tax::Taxonomy& taxonomy = st.model->books().taxonomy();
  const tax::Scene scene = tax::random_scene(
      taxonomy, st.rng, {.num_objects = n, .object = {}, .allow_duplicates = true});
  for (const auto& obj : scene) os << "scene  " << obj.to_string() << "\n";
  core::FactorizeOptions fopts;
  fopts.multi_object = n > 1;
  fopts.num_objects_hint = n;
  auto fut = engine.submit(st.model->encoder().encode_scene(scene), fopts);
  const core::FactorizeResult r = fut.get();
  tax::Scene recovered;
  for (const auto& obj : r.objects) {
    recovered.push_back(obj.to_object(st.model->num_classes()));
    os << "result " << recovered.back().to_string() << "\n";
  }
  os << "ok roundtrip " << (tax::same_multiset(recovered, scene) ? "exact"
                                                                 : "MISMATCH")
     << ", " << r.similarity_ops << " similarity ops\n";
}

void cmd_burst(ServerState& st, const std::vector<std::string>& args,
               std::ostream& os) {
  auto& engine = require_engine(st);
  if (args.empty() || args.size() > 2) {
    throw std::invalid_argument("usage: burst COUNT [N]");
  }
  const std::size_t count = parse_size(args[0], "COUNT");
  const std::size_t n = args.size() == 2 ? parse_size(args[1], "N") : 1;
  const tax::Taxonomy& taxonomy = st.model->books().taxonomy();

  std::vector<tax::Scene> scenes;
  std::vector<std::future<core::FactorizeResult>> futures;
  scenes.reserve(count);
  futures.reserve(count);
  core::FactorizeOptions fopts;
  fopts.multi_object = n > 1;
  fopts.num_objects_hint = n;
  const auto before = engine.metrics();
  util::Stopwatch sw;
  for (std::size_t i = 0; i < count; ++i) {
    scenes.push_back(tax::random_scene(
        taxonomy, st.rng,
        {.num_objects = n, .object = {}, .allow_duplicates = true}));
    futures.push_back(
        engine.submit(st.model->encoder().encode_scene(scenes.back()), fopts));
  }
  std::size_t exact = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const core::FactorizeResult r = futures[i].get();
    tax::Scene recovered;
    for (const auto& obj : r.objects) {
      recovered.push_back(obj.to_object(st.model->num_classes()));
    }
    exact += tax::same_multiset(recovered, scenes[i]) ? 1 : 0;
  }
  const double elapsed = sw.elapsed_seconds();
  // Delta against the pre-burst snapshot: report THIS burst's batching,
  // not the engine's lifetime average.
  const auto after = engine.metrics();
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t batched =
      after.batched_requests - before.batched_requests;
  const double mean_batch =
      batches == 0 ? 0.0
                   : static_cast<double>(batched) / static_cast<double>(batches);
  os << "ok burst " << count << " requests, " << exact << " exact, "
     << util::fmt_double(static_cast<double>(count) / elapsed, 0)
     << " req/s, mean batch " << util::fmt_double(mean_batch, 2) << "\n";
}

void cmd_stats(ServerState& st, const std::vector<std::string>& args,
               std::ostream& os) {
  auto& engine = require_engine(st);
  if (!args.empty() && args[0] == "reset") {
    engine.reset_metrics();
    os << "ok stats reset\n";
    return;
  }
  if (!args.empty() && args[0] == "prom") {
    if (args.size() > 2) {
      throw std::invalid_argument("usage: stats prom [FILE]");
    }
    const std::string prom = engine.metrics().to_prometheus();
    if (args.size() == 2) {
      std::ofstream out(args[1]);
      if (!out) throw std::invalid_argument("cannot open " + args[1]);
      out << prom;
      os << "ok stats prom -> " << args[1] << "\n";
    } else {
      os << prom << "ok stats prom\n";
    }
    return;
  }
  if (!args.empty()) {
    throw std::invalid_argument("usage: stats [prom [FILE] | reset]");
  }
  os << engine.metrics().to_string() << "\n";
  const auto dispatchers = engine.dispatcher_stats();
  for (std::size_t i = 0; i < dispatchers.size(); ++i) {
    const auto& d = dispatchers[i];
    os << "dispatcher[" << i << "]: " << d.metrics.batches
       << " batches, mean " << util::fmt_double(d.metrics.mean_batch, 2)
       << " req/batch, max " << d.metrics.max_batch_observed << ", inflight "
       << d.inflight << "\n";
  }
  const auto& ring = engine.trace_ring();
  os << "trace:    sample 1-in-" << ring.sample_every() << " ("
     << (ring.enabled() ? "on" : "off") << "), ring " << ring.occupancy()
     << "/" << ring.capacity() << " traces, " << ring.dropped() << " dropped\n";
  if (st.net_server) os << st.net_server->stats_text() << "\n";
  os << "ok stats\n";
}

void cmd_trace(ServerState& st, const std::vector<std::string>& args,
               std::ostream& os) {
  auto& engine = require_engine(st);
  if (args.empty() || args[0] != "dump" || args.size() > 2) {
    throw std::invalid_argument("usage: trace dump [FILE]");
  }
  const auto samples = engine.trace_samples();
  const std::string json = service::chrome_trace_json(samples);
  if (args.size() == 2) {
    std::ofstream out(args[1]);
    if (!out) throw std::invalid_argument("cannot open " + args[1]);
    out << json << "\n";
    os << "ok trace dump " << samples.size() << " traces -> " << args[1]
       << "\n";
  } else {
    os << json << "\nok trace dump " << samples.size() << " traces\n";
  }
}

// Dispatches one command line. Returns false on `quit`.
bool handle_line(ServerState& st, const std::string& line, std::ostream& os) {
  auto words = split_words(line);
  if (words.empty()) return true;
  const std::string cmd = words[0];
  words.erase(words.begin());
  try {
    if (cmd == "quit") {
      os << "ok bye\n";
      return false;
    }
    if (cmd == "model") {
      cmd_model(st, words, os);
    } else if (cmd == "serve") {
      cmd_serve(st, words, os);
    } else if (cmd == "reshard") {
      cmd_reshard(st, words, os);
    } else if (cmd == "listen") {
      cmd_listen(st, words, os);
    } else if (cmd == "factorize") {
      cmd_factorize(st, std::move(words), os);
    } else if (cmd == "roundtrip") {
      cmd_roundtrip(st, words, os);
    } else if (cmd == "burst") {
      cmd_burst(st, words, os);
    } else if (cmd == "stats") {
      cmd_stats(st, words, os);
    } else if (cmd == "trace") {
      cmd_trace(st, words, os);
    } else if (cmd == "help") {
      os << "commands: model gen|load|save|list, serve, reshard, listen "
            "[PORT]|stop, factorize, roundtrip, burst, stats [prom [FILE] | "
            "reset], trace dump [FILE], quit\nok\n";
    } else {
      throw std::invalid_argument("unknown command " + cmd);
    }
  } catch (const std::exception& e) {
    os << "err: " << e.what() << "\n";
  }
  return true;
}

// Command lines are bounded like every other external input (mirroring the
// 1 MiB pre-allocation guard of hdc/io.cpp) — std::getline alone would
// happily buffer an arbitrarily long hostile line.
constexpr std::size_t kMaxLineLen = 1 << 20;

/// Reads one newline-terminated line with a hard length cap. Oversized
/// lines are consumed (discarded) up to their newline and flagged; embedded
/// NUL bytes are flagged (a text protocol has no business carrying them).
/// \return False at EOF with nothing read.
bool read_bounded_line(std::istream& in, std::string& line, bool& oversized,
                       bool& has_nul) {
  line.clear();
  oversized = false;
  has_nul = false;
  std::size_t consumed = 0;
  int c;
  while ((c = in.get()) != std::char_traits<char>::eof()) {
    ++consumed;
    if (c == '\n') return true;
    if (c == '\0') has_nul = true;
    if (line.size() >= kMaxLineLen) {
      oversized = true;  // keep consuming to the newline, stop buffering
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  return consumed > 0;  // a final unterminated line still counts
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::cerr << "usage: factorhd_serve  (commands on stdin; try `help`)\n";
    return 1;
  }
  ServerState st;
  std::string line;
  bool oversized = false;
  bool has_nul = false;
  while (read_bounded_line(std::cin, line, oversized, has_nul)) {
    if (oversized) {
      std::cout << "err: line too long (max " << kMaxLineLen << " bytes)\n";
    } else if (has_nul) {
      std::cout << "err: embedded NUL byte in command line\n";
    } else if (!handle_line(st, line, std::cout)) {
      break;
    }
    std::cout.flush();
  }
  // ServerState teardown stops the listener first (it references the
  // engine), then the engine drains in-flight requests.
  return 0;
}
