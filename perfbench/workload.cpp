// perfbench workload program: runs one benchmark workload against the
// factorhd library and prints one JSON result object as its last line.
//
//   perfbench_workload --workload wire_mixed|scenes_rep3|tiered_large
//                      --seed N --seconds S --trace 0|1
//                      [--scale full|tiny] [--trace-out FILE]
//
// Inputs are generated in full from --seed before anything is timed; the
// program under test only ever sees a fixed, pre-generated set of targets
// (replayed in whole passes while the measuring time lasts) and, for the
// open loop, a Poisson schedule drawn at a fixed absolute rate. --seconds
// sizes the measured phases. --trace 0 reports the end-to-end metrics;
// --trace 1 replays the workload with spans recorded around every call into
// a public entry point and reports the per-layer metrics (see README.md).
// Every timed interval is charged net of the CPU time the hypervisor stole
// while the benchmark wanted it (HostSampler); on an unshared host that
// changes nothing.
//
// The program exits 1 on any correctness failure: a wire answer that differs
// from a direct Factorizer::factorize call, a batched answer that differs
// from a lone call, a repeated target whose answer changed, or a send that
// is not accounted for as a result, overload, error or timeout.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/factorizer.hpp"
#include "hdc/kernels/simd.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/codebooks.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Worker threads of every pool the benchmark configures (engine batch
/// workers and BatchFactorizer workers).
constexpr std::size_t kPoolThreads = 2;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Number of consecutive windows a measured phase is split into; latency
/// quantiles and rates are reported as the median over the windows, so one
/// burst of host interference moves at most one window.
constexpr std::size_t kWindows = 5;

/// Open-loop windows. Steal comes in sub-second bursts and queueing makes
/// tail latency grow faster than the stolen time, so the open loop is cut
/// into short windows and its quantiles come from the quieter half of them.
constexpr std::size_t kOpenLoopWindows = 20;

/// The q-quantile of the samples `sample_us[i]` (negative = unanswered)
/// selected by `keep(i)`, taken per window of kOpenLoopWindows consecutive
/// index windows and multiplied by that window's net factor
/// `net(first, last)`. Returns the median over the half of the windows with
/// the largest net factor (the least steal).
double windowed_quantile(
    const std::vector<double>& sample_us, double q,
    const std::function<bool(std::size_t)>& keep,
    const std::function<double(std::size_t, std::size_t)>& net) {
  std::vector<std::pair<double, double>> windows;  // {net factor, quantile}
  const std::size_t n = sample_us.size();
  for (std::size_t w = 0; w < kOpenLoopWindows; ++w) {
    const std::size_t first = w * n / kOpenLoopWindows;
    const std::size_t end = (w + 1) * n / kOpenLoopWindows;
    std::vector<double> v;
    for (std::size_t i = first; i < end; ++i) {
      if (sample_us[i] >= 0 && keep(i)) v.push_back(sample_us[i]);
    }
    if (!v.empty()) {
      const double f = net(first, end - 1);
      windows.emplace_back(f, quantile(std::move(v), q) * f);
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<double> quiet;
  for (std::size_t i = 0; i < (windows.size() + 1) / 2; ++i) {
    quiet.push_back(windows[i].second);
  }
  return median(quiet);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around calls into the library, kept in
// memory and written out when the run ends. Off in untraced runs.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t request = 0;
  };

  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a span and returns its id, or -1 when tracing is off.
  int open(std::string name, int parent = -1, std::uint64_t request = 0) {
    if (!on_) return -1;
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id < 0) return;
    const auto now = Clock::now();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  /// Records an already-timed span.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent, std::uint64_t request) {
    if (!on_) return;
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
  }

  /// Durations (us) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) {
    std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end >= s.start) {
        out.push_back(us_between(s.start, s.end));
      }
    }
    return out;
  }

  /// Writes one JSON object per span: times relative to the log's origin,
  /// and self time = duration minus the union of its children's intervals.
  void write(const std::string& path) {
    std::lock_guard lock(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> iv;
      for (std::size_t c : children[i]) {
        iv.emplace_back(us_between(s.start, spans_[c].start),
                        us_between(s.start, spans_[c].end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
      const double dur = us_between(s.start, s.end);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "\"id\": %zu, \"parent\": %d, \"request\": %llu, "
                    "\"start_us\": %.3f, \"dur_us\": %.3f, \"self_us\": %.3f",
                    i, s.parent, static_cast<unsigned long long>(s.request),
                    us_between(origin_, s.start), dur, dur - covered);
      out << "{\"name\": \"" << s.name << "\", " << buf << "}\n";
    }
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, int parent = -1,
        std::uint64_t request = 0)
      : log_(log), id_(log.open(std::move(name), parent, request)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Result accumulation.
// ---------------------------------------------------------------------------
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> info;  ///< pre-rendered JSON values
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string simd = "scalar";  ///< SIMD tier of the model's packed scans

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    info[key] = buf;
  }
  void error(const std::string& what) { errors.push_back(what); }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host probes.
// ---------------------------------------------------------------------------

/// One-shot STREAM-triad probe (a[i] = b[i] + s * c[i]); best of 5 passes
/// over three 32 MiB arrays, 24 bytes moved per element.
double triad_gbps() {
  const std::size_t n = std::size_t{4} << 20;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = 0.5 + rep;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double sec = s_between(t0, Clock::now());
    if (a[n / 2] < 0) std::abort();  // keeps the loop observable
    best = std::max(best, 24.0 * static_cast<double>(n) / sec / 1e9);
  }
  return best;
}

/// Aggregate CPU jiffies from /proc/stat (guest time is inside user).
struct CpuTicks {
  double steal = 0.0;
  double busy = 0.0;   ///< user + nice + system + irq + softirq
  double total = 0.0;  ///< busy + idle + iowait + steal

  static CpuTicks now() {
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTicks t;
    if (label != "cpu") return t;
    double v[8] = {};
    for (double& x : v) in >> x;
    t.steal = v[7];
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
    t.total = t.busy + v[3] + v[4] + v[7];
    return t;
  }
  /// Share of all CPU time the hypervisor stole since `before`.
  [[nodiscard]] double steal_frac(const CpuTicks& before) const {
    const double d = total - before.total;
    return d > 0 ? (steal - before.steal) / d : 0.0;
  }
  /// Share of the CPU time the guest wanted (busy + stolen) that was stolen.
  [[nodiscard]] double stolen_share(const CpuTicks& before) const {
    const double st = steal - before.steal;
    const double d = st + busy - before.busy;
    return d > 0 ? st / d : 0.0;
  }
};

/// Samples /proc/stat every 20 ms on a background thread, so that any
/// measured interval can be charged net of the CPU time the hypervisor stole
/// from this machine while the benchmark wanted it. On an unshared host the
/// stolen share is 0 and every net figure equals the raw one.
class HostSampler {
 public:
  HostSampler() : thread_([this] { loop(); }) {}
  ~HostSampler() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Stolen share of wanted CPU time over the sampled span covering [a, b].
  [[nodiscard]] double stolen_share(Clock::time_point a,
                                    Clock::time_point b) const {
    std::lock_guard lock(mu_);
    if (samples_.size() < 2) return 0.0;
    std::size_t lo = 0, hi = samples_.size() - 1;
    while (lo + 1 < samples_.size() && samples_[lo + 1].first <= a) ++lo;
    for (std::size_t i = lo; i < samples_.size(); ++i) {
      if (samples_[i].first >= b) {
        hi = i;
        break;
      }
    }
    if (hi <= lo) return 0.0;
    return std::clamp(samples_[hi].second.stolen_share(samples_[lo].second),
                      0.0, 0.9);
  }
  /// Factor that turns a duration measured over [a, b] into its net value.
  [[nodiscard]] double net_factor(Clock::time_point a,
                                  Clock::time_point b) const {
    return 1.0 - stolen_share(a, b);
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      lock.unlock();
      const CpuTicks t = CpuTicks::now();
      const auto now = Clock::now();
      lock.lock();
      samples_.emplace_back(now, t);
      cv_.wait_for(lock, 20ms, [this] { return stop_; });
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, CpuTicks>> samples_;
  std::thread thread_;  ///< last member: starts after the state above
};

// ---------------------------------------------------------------------------
// Workload configuration.
// ---------------------------------------------------------------------------
struct Config {
  std::string name;
  std::vector<std::vector<std::size_t>> branching;
  std::size_t dim = 0;
  std::size_t setups = 0;       ///< repeated set-ups per run (median)
  std::size_t warm_light = 0;   ///< warmup Rep-1 targets (fixed count)
  std::size_t warm_heavy = 0;   ///< warmup Rep-3 targets (fixed count)
  // wire_mixed
  double rate_rps = 0.0;        ///< open-loop Poisson rate (absolute)
  double open_share = 0.0;      ///< share of --seconds for the open loop
  double heavy_frac = 0.0;      ///< Rep-3 share of requests
  double hot_frac = 0.0;        ///< hot-set share of Rep-1 requests
  std::size_t hot = 0;          ///< hot-set size
  std::size_t cold_pool = 0;    ///< distinct cold Rep-1 targets
  std::size_t heavy_pool = 0;   ///< distinct Rep-3 scenes
  std::size_t window = 0;       ///< closed-loop pipeline window
  std::size_t check_subset = 0; ///< wire answers checked against direct
  // batch workloads
  std::size_t scenes_per_count = 0;  ///< scenes_rep3: per object count
  std::size_t objects = 0;           ///< tiered_large: Rep-1 set size
  std::size_t chunk = 0;             ///< targets per factorize_all call
  std::size_t exact_objects = 0;     ///< tiered_large: exact_scan subset
  std::size_t exact_chunk = 0;       ///< tiered_large: exact_scan batch
  // traced run
  std::size_t replay = 0;       ///< targets replayed through net/engine/core
  std::size_t rep3_probe = 0;   ///< scenes per object count for core.rep3
};

Config make_config(const std::string& workload, bool tiny) {
  Config c;
  c.name = workload;
  if (workload == "wire_mixed" || workload == "scenes_rep3") {
    c.branching = tiny ? std::vector<std::vector<std::size_t>>(3, {32})
                       : std::vector<std::vector<std::size_t>>(3, {256});
    c.dim = tiny ? 512 : 2048;
    c.setups = tiny ? 2 : 9;
    c.replay = tiny ? 24 : 200;
    c.rep3_probe = tiny ? 2 : 6;
    if (workload == "wire_mixed") {
      c.warm_light = tiny ? 32 : 192;
      c.warm_heavy = tiny ? 2 : 8;
      c.rate_rps = tiny ? 400.0 : 1000.0;
      c.open_share = 0.6;
      c.heavy_frac = 0.05;
      c.hot_frac = 0.2;
      c.hot = 16;
      c.cold_pool = tiny ? 512 : 8192;
      c.heavy_pool = tiny ? 64 : 1024;
      c.window = 16;
      c.check_subset = tiny ? 32 : 256;
    } else {
      c.warm_heavy = tiny ? 3 : 6;
      c.scenes_per_count = tiny ? 3 : 60;
      c.chunk = tiny ? 3 : 12;
    }
  } else if (workload == "tiered_large") {
    c.branching = tiny ? std::vector<std::vector<std::size_t>>{{2048}, {32}, {32}}
                       : std::vector<std::vector<std::size_t>>{
                             {65536}, {256}, {256}};
    c.dim = tiny ? 512 : 4096;
    c.setups = tiny ? 2 : 3;
    c.warm_light = tiny ? 16 : 64;
    c.objects = tiny ? 128 : 8192;
    c.chunk = tiny ? 32 : 256;
    c.exact_objects = tiny ? 32 : 512;
    c.exact_chunk = tiny ? 8 : 32;
    c.replay = tiny ? 16 : 128;
    c.rep3_probe = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return c;
}

std::string simd_name(const core::Factorizer& fz) {
  const auto level = fz.simd_level();
  return level ? hdc::kernels::to_string(*level) : "scalar";
}

core::FactorizeOptions light_opts() { return {}; }
core::FactorizeOptions heavy_opts() {
  core::FactorizeOptions o;
  o.multi_object = true;
  o.num_objects_hint = 3;
  return o;
}

// ---------------------------------------------------------------------------
// Inputs: generated from the seed, with their ground truth.
// ---------------------------------------------------------------------------
struct Target {
  hdc::Hypervector hv;
  tax::Scene truth;  ///< one object for Rep-1, the scene for Rep-3
  bool heavy = false;
};

Target make_object(const service::Model& model, util::Xoshiro256& rng) {
  tax::Object obj = tax::random_object(model.books().taxonomy(), rng);
  Target t{model.encoder().encode_object(obj), {obj}, false};
  return t;
}
Target make_scene(const service::Model& model, util::Xoshiro256& rng,
                  std::size_t n) {
  tax::SceneGenOptions so;
  so.num_objects = n;
  tax::Scene scene = tax::random_scene(model.books().taxonomy(), rng, so);
  Target t{model.encoder().encode_scene(scene), scene, true};
  return t;
}

bool matches_truth(const core::FactorizeResult& r, const Target& t,
                   std::size_t num_classes) {
  tax::Scene got;
  for (const auto& o : r.objects) got.push_back(o.to_object(num_classes));
  if (!t.heavy) return got.size() == 1 && got[0] == t.truth[0];
  return tax::same_multiset(got, t.truth);
}

const core::FactorizeOptions& opts_of(const Target& t) {
  static const core::FactorizeOptions light = light_opts();
  static const core::FactorizeOptions heavy = heavy_opts();
  return t.heavy ? heavy : light;
}

// ---------------------------------------------------------------------------
// Set-up: codebooks, model, (engine + server), fixed-count warmup. Repeated
// cfg.setups times; the median is setup_s and the last instance is kept.
// ---------------------------------------------------------------------------
struct Instance {
  std::shared_ptr<const service::Model> model;
  std::unique_ptr<service::FactorizationEngine> engine;
  std::unique_ptr<net::NetServer> server;

  void stop() {
    if (server) server->stop();
    if (engine) engine->stop();
    server.reset();
    engine.reset();
  }
};

service::ServiceOptions engine_options() {
  service::ServiceOptions so;
  so.batch_threads = kPoolThreads;
  return so;
}
net::ServerOptions server_options() {
  net::ServerOptions so;
  so.admission.depth = 1024;
  so.admission.client_quota = 128;
  return so;
}

/// Starts a server over a fresh engine on `inst.model`.
void start_serving(Instance& inst) {
  inst.engine = std::make_unique<service::FactorizationEngine>(
      inst.model, engine_options());
  inst.server =
      std::make_unique<net::NetServer>(*inst.engine, server_options());
  inst.server->start();
}

/// Sends `targets` through a NetClient with a pipeline window and waits for
/// every answer. Throws on any non-result response.
void pipelined(
    std::uint16_t port, const std::vector<const Target*>& targets,
    std::size_t window) {
  net::NetClient client("127.0.0.1", port);
  client.set_recv_timeout(30s);
  std::size_t sent = 0, received = 0;
  while (received < targets.size()) {
    while (sent < targets.size() && sent - received < window) {
      (void)client.send_factorize(targets[sent]->hv, opts_of(*targets[sent]));
      ++sent;
    }
    if (client.recv_response().kind !=
        net::NetClient::Response::Kind::kResult) {
      throw std::runtime_error("warmup request was not answered");
    }
    ++received;
  }
}

struct SetupResult {
  Instance inst;
  std::vector<double> setup_s;
};

/// Runs the repeated set-up. `make_inputs` runs once, untimed, right after
/// the first model is built (inputs need the model's encoder; every set-up
/// builds identical codebooks from the same seed). `warmup` runs the
/// fixed-count warmup on the instance.
SetupResult repeated_setup(const Config& cfg, std::uint64_t seed, bool serve,
                           const HostSampler& host, SpanLog& log,
                           const std::function<void(const service::Model&)>&
                               make_inputs,
                           const std::function<void(Instance&)>& warmup) {
  SetupResult sr;
  for (std::size_t r = 0; r < cfg.setups; ++r) {
    if (r > 0) {
      sr.inst.stop();
      sr.inst.model.reset();
    }
    const int root = log.open("setup", -1, r);
    const auto t0 = Clock::now();
    util::Xoshiro256 rng(seed);
    std::optional<tax::TaxonomyCodebooks> books;
    {
      Scope s(log, "taxonomy.codebooks", root, r);
      books.emplace(tax::Taxonomy(cfg.branching), cfg.dim, rng);
    }
    {
      Scope s(log, "service.model_build", root, r);
      sr.inst.model = service::Model::make("perfbench", std::move(*books));
    }
    if (serve) {
      Scope s(log, "service.engine_start", root, r);
      start_serving(sr.inst);
    }
    const auto t1 = Clock::now();
    if (r == 0) make_inputs(*sr.inst.model);
    const auto w0 = Clock::now();
    {
      Scope s(log, "warmup", root, r);
      warmup(sr.inst);
    }
    log.close(root);
    const auto w1 = Clock::now();
    sr.setup_s.push_back(s_between(t0, t1) * host.net_factor(t0, t1) +
                         s_between(w0, w1) * host.net_factor(w0, w1));
  }
  return sr;
}

// ---------------------------------------------------------------------------
// Traced-run layer replay: the same targets through NetClient, then
// engine.submit, then Factorizer::factorize, in turn per target.
// ---------------------------------------------------------------------------
void layer_replay(const Config& cfg,
                  const std::shared_ptr<const service::Model>& model,
                  const std::vector<const Target*>& targets, SpanLog& log,
                  Report& rep) {
  Instance wire{model, nullptr, nullptr};
  start_serving(wire);  // fresh engine: every replayed target is computed
  service::FactorizationEngine direct_engine(model, engine_options());
  net::NetClient client("127.0.0.1", wire.server->port());
  client.set_recv_timeout(30s);
  const core::Factorizer& fz = model->factorizer();

  const int root = log.open("layer_replay");
  std::vector<double> net_us, svc_us, core_us;
  double core_wall_s = 0.0;
  std::uint64_t sim_ops = 0, rounds = 0, combos = 0, probes = 0;
  bool any_light = false;
  for (const Target* t : targets) any_light |= !t->heavy;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& t = *targets[i];
    const auto& o = opts_of(t);
    const auto a = Clock::now();
    core::FactorizeResult via_net = client.factorize(t.hv, o);
    const auto b = Clock::now();
    core::FactorizeResult via_engine = direct_engine.submit(t.hv, o).get();
    const auto c = Clock::now();
    core::FactorizeResult direct = fz.factorize(t.hv, o);
    const auto d = Clock::now();
    log.add("net.factorize", a, b, root, i);
    log.add("service.submit", b, c, root, i);
    log.add("core.factorize", c, d, root, i);
    if (!(via_net == direct) || !(via_engine == direct)) {
      rep.error("layer replay: wire/engine answer differs from direct factorize");
    }
    // Light-request latencies where the workload has light requests.
    if (!any_light || !t.heavy) {
      net_us.push_back(us_between(a, b));
      svc_us.push_back(us_between(b, c));
      core_us.push_back(us_between(c, d));
    }
    core_wall_s += s_between(c, d);
    sim_ops += direct.similarity_ops;
    rounds += direct.rounds;
    combos += direct.combinations_checked;
    probes += direct.probes;
  }
  log.close(root);
  wire.stop();
  direct_engine.stop();

  const double n = static_cast<double>(targets.size());
  const double core_p50 = median(core_us);
  const double svc_p50 = median(svc_us);
  const double net_p50 = median(net_us);
  rep.metric("core.factorize_us_p50", core_p50, "us");
  rep.metric("service.submit_us_p50", svc_p50, "us");
  rep.metric("service.overhead_us_p50", svc_p50 - core_p50, "us");
  rep.metric("net.rtt_us_p50", net_p50, "us");
  rep.metric("net.overhead_us_p50", net_p50 - svc_p50, "us");
  rep.metric("core.sim_ops_per_target", static_cast<double>(sim_ops) / n,
             "count");
  rep.metric("core.rounds_per_target", static_cast<double>(rounds) / n,
             "count");
  rep.metric("core.combinations_per_target", static_cast<double>(combos) / n,
             "count");
  rep.metric("core.ns_per_sim_op",
             sim_ops ? core_wall_s * 1e9 / static_cast<double>(sim_ops) : 0.0,
             "ns");
  rep.metric("hdc.probes_per_target", static_cast<double>(probes) / n,
             "count");
  // Computed from sizes, not measured: each similarity op reads one D-bit
  // packed row.
  const double bytes = static_cast<double>(sim_ops) *
                       static_cast<double>(cfg.dim) / 8.0;
  rep.metric("hdc.bytes_per_target", bytes / n, "B_computed");
  rep.metric("hdc.scan_gbps", core_wall_s > 0 ? bytes / core_wall_s / 1e9 : 0,
             "GB/s");
  rep.note("replay_targets", n);
  rep.note("replay_latency_samples", static_cast<double>(core_us.size()));
}

/// core.rep3_us_p50.nK: direct Rep-3 factorize of `cfg.rep3_probe` fresh
/// scenes per object count on the workload's model.
void rep3_probe(const Config& cfg, const service::Model& model,
                std::uint64_t seed, SpanLog& log, Report& rep) {
  util::Xoshiro256 rng(seed ^ 0x5eed0003ULL);
  const int root = log.open("rep3_probe");
  for (std::size_t n : {2u, 3u, 5u}) {
    const std::string name = "core.rep3.n" + std::to_string(n);
    for (std::size_t i = 0; i < cfg.rep3_probe; ++i) {
      Target t = make_scene(model, rng, n);
      Scope s(log, name, root, i);
      (void)model.factorizer().factorize(t.hv, opts_of(t));
    }
    rep.metric("core.rep3_us_p50.n" + std::to_string(n),
               median(log.durations_us(name)), "us");
  }
  log.close(root);
}

// ---------------------------------------------------------------------------
// wire_mixed: FHN1 over loopback, open loop at a fixed rate, then a closed
// loop with a fixed pipeline window.
// ---------------------------------------------------------------------------
struct WireInputs {
  std::vector<Target> light;   ///< hot set first, then the cold pool
  std::vector<Target> heavy;
  std::vector<Target> warm;
  struct Req {
    bool heavy = false;
    std::uint32_t index = 0;
  };
  std::vector<Req> list;       ///< the request mix, in send order
  std::vector<double> due_s;   ///< open-loop due offsets (Poisson)
  std::size_t open_count = 0;

  [[nodiscard]] const Target& target(std::size_t i) const {
    const Req& r = list[i % list.size()];
    return r.heavy ? heavy[r.index] : light[r.index];
  }
};

struct Outcome {
  std::uint64_t sent = 0, results = 0, overloads = 0, errors = 0,
                timeouts = 0;
  void account(Report& rep, const char* phase) const {
    rep.attempted += sent;
    rep.failed += sent - results;
    if (results + overloads + errors + timeouts != sent) {
      rep.error(std::string(phase) + ": sends not accounted for");
    }
  }
};

struct OpenLoop {
  Outcome out;
  std::vector<double> light_us, heavy_us, late_us;
  std::vector<double> lat_us;  ///< per request, from due time; -1 = none
  std::vector<std::optional<core::FactorizeResult>> results;
  double cpu_s = 0.0;
  bool send_failed = false;
  Clock::time_point start;  ///< due offsets count from here
};

OpenLoop run_open_loop(const WireInputs& in, std::uint16_t port, SpanLog& log) {
  OpenLoop ol;
  const std::size_t n = in.open_count;
  ol.results.resize(n);
  ol.late_us.assign(n, 0.0);
  ol.lat_us.assign(n, -1.0);
  net::NetClient client("127.0.0.1", port);
  client.set_recv_timeout(10s);
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> send_failed{false};
  const int root = log.open("open_loop");
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now() + 5ms;
  ol.start = start;
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(in.due_s[i]));
  };
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const auto d = due(i);
        std::this_thread::sleep_until(d);
        ol.late_us[i] = us_between(d, Clock::now());
        const Target& t = in.target(i);
        (void)client.send_factorize(t.hv, opts_of(t));
        sent.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception&) {
      send_failed = true;
    }
  });
  for (std::size_t k = 0; k < n; ++k) {
    net::NetClient::Response resp;
    try {
      resp = client.recv_response();
    } catch (const std::exception&) {
      break;
    }
    const auto now = Clock::now();
    const std::size_t i = resp.request_id - 1;
    if (i >= n) {
      ++ol.out.errors;
      continue;
    }
    switch (resp.kind) {
      case net::NetClient::Response::Kind::kResult: {
        ++ol.out.results;
        log.add(in.list[i].heavy ? "net.request.heavy" : "net.request.light",
                due(i), now, root, i);
        ol.lat_us[i] = us_between(due(i), now);
        (in.list[i].heavy ? ol.heavy_us : ol.light_us).push_back(ol.lat_us[i]);
        ol.results[i] = std::move(resp.result);
        break;
      }
      case net::NetClient::Response::Kind::kOverload:
        ++ol.out.overloads;
        break;
      default:
        ++ol.out.errors;
        break;
    }
  }
  sender.join();
  ol.cpu_s = cpu_seconds() - cpu0;
  log.close(root);
  ol.out.sent = sent.load();
  ol.send_failed = send_failed.load();
  ol.out.timeouts =
      ol.out.sent - ol.out.results - ol.out.overloads - ol.out.errors;
  return ol;
}

struct ClosedLoop {
  Outcome out;
  Clock::time_point start, end;  ///< first send, last answer
  double seconds = 0.0;
  std::vector<std::pair<std::size_t, core::FactorizeResult>> answers;
};

/// Closed loop over one connection: keeps `window` requests in flight over
/// the request list (cyclic) until `budget_s` has passed, then drains.
ClosedLoop run_closed_loop(const WireInputs& in, std::uint16_t port,
                           std::size_t window, double budget_s,
                           std::size_t first, SpanLog& log) {
  ClosedLoop cl;
  net::NetClient client("127.0.0.1", port);
  client.set_recv_timeout(10s);
  std::vector<std::size_t> index_of;  // request id - 1 -> list index
  std::vector<Clock::time_point> sent_at;
  const int root = log.open("closed_loop");
  const auto t0 = Clock::now();
  const auto stop_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
  std::size_t inflight = 0;
  std::size_t next = first;
  Clock::time_point last = t0;
  for (;;) {
    while (inflight < window && Clock::now() < stop_at) {
      const Target& t = in.target(next);
      index_of.push_back(next % in.list.size());
      if (log.on()) sent_at.push_back(Clock::now());
      (void)client.send_factorize(t.hv, opts_of(t));
      ++next;
      ++inflight;
      ++cl.out.sent;
    }
    if (inflight == 0) break;
    net::NetClient::Response resp;
    try {
      resp = client.recv_response();
    } catch (const std::exception&) {
      break;
    }
    --inflight;
    last = Clock::now();
    const std::size_t id = resp.request_id - 1;
    if (resp.kind == net::NetClient::Response::Kind::kResult &&
        id < index_of.size()) {
      ++cl.out.results;
      if (log.on()) {
        log.add("net.closed_request", sent_at[id], last, root, id);
      }
      cl.answers.emplace_back(index_of[id], std::move(resp.result));
    } else if (resp.kind == net::NetClient::Response::Kind::kOverload) {
      ++cl.out.overloads;
    } else {
      ++cl.out.errors;
    }
  }
  log.close(root);
  cl.start = t0;
  cl.end = last;
  cl.seconds = s_between(t0, last);
  cl.out.timeouts =
      cl.out.sent - cl.out.results - cl.out.overloads - cl.out.errors;
  return cl;
}

void run_wire_mixed(const Config& cfg, std::uint64_t seed, double seconds,
                    const HostSampler& host, SpanLog& log, Report& rep) {
  WireInputs in;
  const auto make_inputs = [&](const service::Model& model) {
    util::Xoshiro256 rng(seed ^ 0x5eed0001ULL);
    for (std::size_t i = 0; i < cfg.hot + cfg.cold_pool; ++i) {
      in.light.push_back(make_object(model, rng));
    }
    for (std::size_t i = 0; i < cfg.heavy_pool; ++i) {
      // A fixed 1:2 mix of 2- and 3-object scenes keeps the heavy quantiles
      // inside one mode of the latency distribution.
      in.heavy.push_back(make_scene(model, rng, i % 3 == 0 ? 2 : 3));
    }
    for (std::size_t i = 0; i < cfg.warm_light; ++i) {
      in.warm.push_back(make_object(model, rng));
    }
    for (std::size_t i = 0; i < cfg.warm_heavy; ++i) {
      in.warm.push_back(make_scene(model, rng, 2 + i % 2));
    }
    // The request mix and its Poisson schedule, drawn in full up front.
    in.open_count = static_cast<std::size_t>(
        std::llround(cfg.rate_rps * cfg.open_share * seconds));
    in.open_count = std::max<std::size_t>(in.open_count, 1);
    std::size_t next_cold = 0, next_heavy = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < in.open_count; ++i) {
      WireInputs::Req r;
      if (rng.bernoulli(cfg.heavy_frac)) {
        r.heavy = true;
        r.index = static_cast<std::uint32_t>(next_heavy++ % cfg.heavy_pool);
      } else if (rng.bernoulli(cfg.hot_frac)) {
        r.index = static_cast<std::uint32_t>(rng.uniform(cfg.hot));
      } else {
        r.index = static_cast<std::uint32_t>(cfg.hot +
                                             next_cold++ % cfg.cold_pool);
      }
      in.list.push_back(r);
      t += -std::log(1.0 - rng.uniform_double()) / cfg.rate_rps;
      in.due_s.push_back(t);
    }
  };
  const auto warmup = [&](Instance& inst) {
    std::vector<const Target*> w;
    for (const Target& t : in.warm) w.push_back(&t);
    pipelined(inst.server->port(), w, cfg.window);
  };
  SetupResult sr = repeated_setup(cfg, seed, true, host, log, make_inputs,
                                  warmup);
  Instance& inst = sr.inst;
  const std::size_t num_classes = inst.model->num_classes();
  const std::uint16_t port = inst.server->port();
  if (!log.on()) rep.metric("setup_s", median(sr.setup_s), "s");
  rep.simd = simd_name(inst.model->factorizer());

  // Phase 1: open loop at the fixed rate.
  const auto before = inst.engine->metrics();
  OpenLoop ol = run_open_loop(in, port, log);
  const auto after = inst.engine->metrics();
  ol.out.account(rep, "open loop");
  if (ol.send_failed) rep.error("open loop: a send failed");

  // Phase 2: closed loop. Traced runs alternate untraced and traced
  // segments to measure the tracing overhead on throughput_rps.
  const double closed_s = (1.0 - cfg.open_share) * seconds;
  std::vector<ClosedLoop> closed;
  std::vector<double> segment_rps;
  double rps_plain = 0.0, rps_traced = 0.0;
  if (!log.on()) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      closed.push_back(run_closed_loop(in, port, cfg.window,
                                       closed_s / kWindows, 0, log));
      const ClosedLoop& cl = closed.back();
      segment_rps.push_back(static_cast<double>(cl.out.results) /
                            (cl.seconds * host.net_factor(cl.start, cl.end)));
    }
  } else {
    SpanLog off(false);
    double res[2] = {0, 0}, sec[2] = {0, 0};
    for (int seg = 0; seg < 4; ++seg) {
      const bool traced = seg % 2 == 1;
      closed.push_back(run_closed_loop(in, port, cfg.window, closed_s / 4,
                                       0, traced ? log : off));
      res[traced] += static_cast<double>(closed.back().out.results);
      sec[traced] += closed.back().seconds;
    }
    if (sec[0] > 0 && sec[1] > 0) {
      rps_plain = res[0] / sec[0];
      rps_traced = res[1] / sec[1];
    }
  }
  for (const ClosedLoop& cl : closed) cl.out.account(rep, "closed loop");
  if (!log.on()) {
    std::vector<double> raw;
    for (const ClosedLoop& cl : closed) {
      raw.push_back(static_cast<double>(cl.out.results) / cl.seconds);
    }
    rep.note("raw_throughput_rps", median(raw));
  }

  // Correctness: every repeated answer equals the first answer for that
  // list entry; a seeded subset equals a direct Factorizer::factorize.
  const core::Factorizer& fz = inst.model->factorizer();
  std::size_t checked = 0;
  for (const ClosedLoop& cl : closed) {
    for (const auto& [idx, res] : cl.answers) {
      if (idx < ol.results.size() && ol.results[idx] &&
          !(*ol.results[idx] == res)) {
        rep.error("closed loop: repeated target answered differently");
        break;
      }
    }
  }
  util::Xoshiro256 pick(seed ^ 0x5eed0002ULL);
  for (std::size_t k = 0; k < cfg.check_subset; ++k) {
    const std::size_t i = pick.uniform(in.open_count);
    if (!ol.results[i]) continue;
    const Target& t = in.target(i);
    if (!(fz.factorize(t.hv, opts_of(t)) == *ol.results[i])) {
      rep.error("wire answer differs from direct factorize (request " +
                std::to_string(i) + ")");
    }
    ++checked;
  }
  rep.note("direct_checked", static_cast<double>(checked));

  // Accuracy over the fixed request list (first answer per entry).
  std::size_t answered = 0, correct = 0;
  for (std::size_t i = 0; i < in.open_count; ++i) {
    if (!ol.results[i]) continue;
    ++answered;
    correct += matches_truth(*ol.results[i], in.target(i), num_classes);
  }

  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double subs = static_cast<double>(after.submitted - before.submitted);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double batched =
      static_cast<double>(after.batched_requests - before.batched_requests);
  std::size_t repeated = 0;
  {
    std::set<std::pair<bool, std::uint32_t>> seen;
    for (std::size_t i = 0; i < in.open_count; ++i) {
      repeated += !seen.insert({in.list[i].heavy, in.list[i].index}).second;
    }
  }
  rep.note("repeated_request_frac",
           static_cast<double>(repeated) / static_cast<double>(in.open_count));
  rep.note("cache_hit_frac", subs > 0 ? hits / subs : 0.0);
  rep.note("open_loop_rate_rps", cfg.rate_rps);
  rep.note("closed_loop_window", static_cast<double>(cfg.window));

  if (!log.on()) {
    const auto light = [&](std::size_t i) { return !in.list[i].heavy; };
    const auto heavy = [&](std::size_t i) { return in.list[i].heavy; };
    const auto due = [&](std::size_t i) {
      return ol.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(in.due_s[i]));
    };
    const auto net = [&](std::size_t first, std::size_t last) {
      return host.net_factor(due(first), due(last));
    };
    rep.metric("throughput_rps", median(segment_rps), "1/s");
    rep.metric("p50_us", windowed_quantile(ol.lat_us, 0.50, light, net), "us");
    rep.metric("p99_us", windowed_quantile(ol.lat_us, 0.99, light, net), "us");
    rep.metric("heavy_p50_us", windowed_quantile(ol.lat_us, 0.50, heavy, net),
               "us");
    rep.metric("heavy_p90_us", windowed_quantile(ol.lat_us, 0.90, heavy, net),
               "us");
    rep.note("raw_p50_us", quantile(ol.light_us, 0.50));
    rep.note("raw_p99_us", quantile(ol.light_us, 0.99));
    rep.note("stolen_share_open_loop",
             1.0 - host.net_factor(due(0), due(in.open_count - 1)));
    const double attempted = static_cast<double>(rep.attempted);
    rep.metric("ok_frac",
               (attempted - static_cast<double>(rep.failed)) / attempted,
               "fraction");
    rep.metric("accuracy",
               answered ? static_cast<double>(correct) /
                              static_cast<double>(answered)
                        : 0.0,
               "fraction");
    rep.note("samples_light", static_cast<double>(ol.light_us.size()));
    rep.note("samples_heavy", static_cast<double>(ol.heavy_us.size()));
    return;
  }

  // Per-layer metrics of the traced run.
  rep.metric("taxonomy.codebooks_s",
             median(log.durations_us("taxonomy.codebooks")) / 1e6, "s");
  rep.metric("service.model_build_s",
             median(log.durations_us("service.model_build")) / 1e6, "s");
  rep.metric("service.cache_hit_frac", subs > 0 ? hits / subs : 0.0,
             "fraction");
  rep.metric("service.mean_batch", batches > 0 ? batched / batches : 0.0,
             "requests");
  rep.metric("service.rejected",
             static_cast<double>(after.rejected - before.rejected), "count");
  const double open_sent = static_cast<double>(ol.out.sent);
  rep.metric("net.overload_frac",
             open_sent > 0 ? static_cast<double>(ol.out.overloads) / open_sent
                           : 0.0,
             "fraction");
  rep.metric("net.timeouts", static_cast<double>(ol.out.timeouts), "count");
  rep.metric("gen.late_p99_us", quantile(ol.late_us, 0.99), "us");
  rep.metric("gen.samples_light", static_cast<double>(ol.light_us.size()),
             "count");
  rep.metric("gen.samples_heavy", static_cast<double>(ol.heavy_us.size()),
             "count");
  rep.metric("host.cpu_us_per_req",
             open_sent > 0 ? ol.cpu_s * 1e6 / open_sent : 0.0, "us");
  rep.metric("trace.overhead_frac",
             rps_plain > 0 ? 1.0 - rps_traced / rps_plain : 0.0, "fraction");
  inst.stop();

  // Distinct targets in list order (hot targets at most once), so every
  // replayed request is computed.
  std::vector<const Target*> replay;
  std::set<std::pair<bool, std::uint32_t>> seen;
  for (std::size_t i = 0; i < in.list.size() && replay.size() < cfg.replay;
       ++i) {
    if (seen.insert({in.list[i].heavy, in.list[i].index}).second) {
      replay.push_back(&in.target(i));
    }
  }
  layer_replay(cfg, inst.model, replay, log, rep);
  rep3_probe(cfg, *inst.model, seed, log, rep);
}

// ---------------------------------------------------------------------------
// Batch workloads (scenes_rep3, tiered_large): BatchFactorizer with two
// threads.
// ---------------------------------------------------------------------------
void run_batch(const Config& cfg, std::uint64_t seed, double seconds,
               const HostSampler& host, SpanLog& log, Report& rep) {
  const bool scenes = cfg.name == "scenes_rep3";
  std::vector<Target> set;
  std::vector<hdc::Hypervector> warm;
  const auto make_inputs = [&](const service::Model& model) {
    util::Xoshiro256 rng(seed ^ 0x5eed0001ULL);
    if (scenes) {
      for (std::size_t n : {2u, 3u, 5u}) {
        for (std::size_t i = 0; i < cfg.scenes_per_count; ++i) {
          set.push_back(make_scene(model, rng, n));
        }
      }
      for (std::size_t i = set.size(); i > 1; --i) {  // seeded shuffle
        std::swap(set[i - 1], set[rng.uniform(i)]);
      }
      for (std::size_t i = 0; i < cfg.warm_heavy; ++i) {
        warm.push_back(make_scene(model, rng, i % 3 == 2 ? 5 : 2 + i % 3).hv);
      }
    } else {
      for (std::size_t i = 0; i < cfg.objects; ++i) {
        set.push_back(make_object(model, rng));
      }
      for (std::size_t i = 0; i < cfg.warm_light; ++i) {
        warm.push_back(make_object(model, rng).hv);
      }
    }
  };
  const auto opts = scenes ? heavy_opts() : light_opts();
  const auto warmup = [&](Instance& inst) {
    core::BatchFactorizer batch(inst.model->factorizer(),
                                {.num_threads = kPoolThreads});
    (void)batch.factorize_all(warm, opts);
  };
  SetupResult sr = repeated_setup(cfg, seed, false, host, log, make_inputs,
                                  warmup);
  const auto& model = sr.inst.model;
  const core::Factorizer& fz = model->factorizer();
  const std::size_t num_classes = model->num_classes();
  if (!log.on()) rep.metric("setup_s", median(sr.setup_s), "s");
  rep.simd = simd_name(fz);

  // Chunks of set indices, one factorize_all call each. scenes_rep3 groups
  // cfg.chunk scenes of one object count per chunk, so each call's
  // per-scene time belongs to one mode of the mix. tiered_large uses
  // contiguous chunks, and its "heavy" path runs exact_scan on the first
  // cfg.exact_objects objects in chunks of cfg.exact_chunk.
  struct Chunk {
    std::vector<std::size_t> idx;
    std::vector<hdc::Hypervector> hvs;
    std::size_t objects = 1;  ///< objects per scene (1 for Rep-1)
  };
  const auto make_chunks = [&](std::size_t n_targets, std::size_t size,
                               std::size_t objects) {
    std::vector<Chunk> out;
    for (std::size_t i = 0; i < n_targets; ++i) {
      if (set[i].truth.size() != objects) continue;
      if (out.empty() || out.back().idx.size() == size) {
        out.push_back({{}, {}, objects});
      }
      out.back().idx.push_back(i);
      out.back().hvs.push_back(set[i].hv);
    }
    return out;
  };
  std::vector<Chunk> chunks, exact_chunks;
  if (scenes) {
    for (std::size_t n : {2u, 3u, 5u}) {
      auto part = make_chunks(set.size(), cfg.chunk, n);
      chunks.insert(chunks.end(), part.begin(), part.end());
    }
  } else {
    chunks = make_chunks(set.size(), cfg.chunk, 1);
    exact_chunks =
        make_chunks(std::min(cfg.exact_objects, set.size()), cfg.exact_chunk, 1);
  }
  auto exact = opts;
  exact.exact_scan = true;
  core::BatchFactorizer batch(fz, {.num_threads = kPoolThreads});

  // Batch phase: the chunks in turn until --seconds is spent and every
  // chunk has run once. Traced runs alternate untraced and traced segments.
  // Every call is charged net of steal. Its per-target time is the call's
  // net time over the targets each worker handled; it stands in for
  // latency here (lone tiered_large calls fan out over the library's scan
  // pool and wait on its slowest thread, which made them too noisy).
  std::vector<std::optional<core::FactorizeResult>> first(set.size());
  std::vector<std::optional<core::FactorizeResult>> exact_first(set.size());
  // done counts every target; done_main, net_s and raw_s only the calls
  // that make throughput_rps (not the exact_scan ones).
  double done = 0.0, done_main = 0.0, net_s = 0.0, raw_s = 0.0, busy_s = 0.0;
  double seg_res[2] = {0, 0}, seg_sec[2] = {0, 0};
  const int root = log.open("batch_phase");
  const double cpu0 = cpu_seconds();
  std::size_t calls = 0;
  // Per-target times (us) by call kind: all calls, 3-object scenes (the
  // p50 of scenes_rep3), and heavy (5-object scenes or exact_scan calls).
  std::vector<double> all_us, mid_us, heavy_us;
  std::vector<core::FactorizeResult> got;
  // Runs one call; returns {raw seconds, net seconds}.
  const auto timed_call = [&](const Chunk& ch, const core::FactorizeOptions& o,
                              bool traced, std::size_t id,
                              std::vector<std::optional<core::FactorizeResult>>&
                                  slots) {
    const int span = traced ? log.open("core.factorize_all", root, id) : -1;
    const auto t0 = Clock::now();
    got = batch.factorize_all(ch.hvs, o);
    const auto t1 = Clock::now();
    log.close(span);
    const double dt = s_between(t0, t1);
    busy_s += dt;
    for (std::size_t j = 0; j < got.size(); ++j) {
      auto& slot = slots[ch.idx[j]];
      if (!slot) {
        slot = std::move(got[j]);
      } else if (!(*slot == got[j])) {
        rep.error("batch: repeated target answered differently");
      }
    }
    return std::pair{dt, dt * host.net_factor(t0, t1)};
  };
  const auto per_target_us = [&](const Chunk& ch, double net) {
    return net * 1e6 *
           static_cast<double>(batch.effective_threads(ch.idx.size())) /
           static_cast<double>(ch.idx.size());
  };
  for (std::size_t c = 0; busy_s < seconds || c < chunks.size(); ++c) {
    const Chunk& ch = chunks[c % chunks.size()];
    const bool traced =
        log.on() && static_cast<int>(4.0 * busy_s / seconds) % 2 == 1;
    const auto [dt, net] = timed_call(ch, opts, traced, c, first);
    const double n = static_cast<double>(ch.idx.size());
    done += n;
    done_main += n;
    raw_s += dt;
    net_s += net;
    seg_res[traced] += n;
    seg_sec[traced] += dt;
    ++calls;
    all_us.push_back(per_target_us(ch, net));
    if (ch.objects == 3) mid_us.push_back(all_us.back());
    if (ch.objects == 5) heavy_us.push_back(all_us.back());
    if (!exact_chunks.empty()) {
      const Chunk& ex = exact_chunks[c % exact_chunks.size()];
      heavy_us.push_back(
          per_target_us(ex, timed_call(ex, exact, false, c, exact_first).second));
      done += static_cast<double>(ex.idx.size());
    }
  }
  const double batch_cpu_s = cpu_seconds() - cpu0;
  log.close(root);
  rep.attempted += static_cast<std::uint64_t>(done);
  if (!scenes) mid_us = all_us;

  // Batched answers must equal lone Factorizer::factorize calls bit for bit;
  // checked on the first targets of the set.
  for (std::size_t i = 0; i < std::min<std::size_t>(cfg.chunk, set.size());
       ++i) {
    if (!(fz.factorize(set[i].hv, opts) == *first[i])) {
      rep.error("batched answer differs from direct factorize");
    }
  }

  std::size_t correct = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    correct += matches_truth(*first[i], set[i], num_classes);
  }
  rep.note("batch_calls", static_cast<double>(calls));
  if (!scenes) {
    std::size_t exact_correct = 0, exact_seen = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (!exact_first[i]) continue;
      ++exact_seen;
      exact_correct += matches_truth(*exact_first[i], set[i], num_classes);
    }
    rep.note("exact_scan_accuracy", static_cast<double>(exact_correct) /
                                        static_cast<double>(exact_seen));
    rep.note("scan_backend_tiered", fz.tiered() ? 1.0 : 0.0);
  }

  if (!log.on()) {
    rep.metric("throughput_rps", done_main / net_s, "1/s");
    rep.note("raw_throughput_rps", done_main / raw_s);
    rep.metric("p50_us", quantile(mid_us, 0.50), "us");
    rep.metric("p99_us", quantile(all_us, 0.99), "us");
    rep.metric("heavy_p50_us", quantile(heavy_us, 0.50), "us");
    rep.metric("heavy_p90_us", quantile(heavy_us, 0.90), "us");
    rep.metric("ok_frac", 1.0, "fraction");  // direct calls cannot be refused
    rep.metric("accuracy",
               static_cast<double>(correct) / static_cast<double>(set.size()),
               "fraction");
    return;
  }

  rep.metric("taxonomy.codebooks_s",
             median(log.durations_us("taxonomy.codebooks")) / 1e6, "s");
  rep.metric("service.model_build_s",
             median(log.durations_us("service.model_build")) / 1e6, "s");
  rep.metric("trace.overhead_frac",
             seg_sec[0] > 0 && seg_sec[1] > 0 && seg_res[0] > 0
                 ? 1.0 - (seg_res[1] / seg_sec[1]) / (seg_res[0] / seg_sec[0])
                 : 0.0,
             "fraction");
  rep.metric("host.cpu_us_per_req", batch_cpu_s * 1e6 / done, "us");
  // No engine or generator in the measured phase: the serving-side counts
  // come from the layer replay below (lone, distinct targets).
  rep.metric("gen.late_p99_us", 0.0, "us");
  rep.metric("gen.samples_light", 0.0, "count");
  rep.metric("gen.samples_heavy", 0.0, "count");
  rep.metric("net.overload_frac", 0.0, "fraction");
  rep.metric("net.timeouts", 0.0, "count");

  std::vector<const Target*> replay;
  for (std::size_t i = 0; i < std::min(cfg.replay, set.size()); ++i) {
    replay.push_back(&set[i]);
  }
  {
    // Serving-side counters of the replay engine (lone, so one per batch).
    service::FactorizationEngine probe(model, engine_options());
    for (const Target* t : replay) (void)probe.submit(t->hv, opts).get();
    const auto m = probe.metrics();
    probe.stop();
    rep.metric("service.cache_hit_frac",
               m.submitted ? static_cast<double>(m.cache_hits) /
                                 static_cast<double>(m.submitted)
                           : 0.0,
               "fraction");
    rep.metric("service.mean_batch",
               m.batches ? static_cast<double>(m.batched_requests) /
                               static_cast<double>(m.batches)
                         : 0.0,
               "requests");
    rep.metric("service.rejected", static_cast<double>(m.rejected), "count");
  }
  layer_replay(cfg, model, replay, log, rep);
  rep3_probe(cfg, *model, seed, log, rep);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      workload = argv[++i];
    } else if (a == "--seed" && has) {
      seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has) {
      seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has) {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--scale" && has) {
      tiny = std::string(argv[++i]) == "tiny";
    } else if (a == "--trace-out" && has) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: perfbench_workload --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--scale full|tiny] "
                   "[--trace-out FILE]\n";
      return 2;
    }
  }

  Report rep;
  SpanLog log(trace);
  const HostSampler host;
  const CpuTicks stat0 = CpuTicks::now();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  try {
    const Config cfg = make_config(workload, tiny);
    if (workload == "wire_mixed") {
      run_wire_mixed(cfg, seed, seconds, host, log, rep);
    } else {
      run_batch(cfg, seed, seconds, host, log, rep);
    }
  } catch (const std::exception& e) {
    rep.error(std::string("exception: ") + e.what());
  }
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  const double rss_mb = static_cast<double>(ru1.ru_maxrss) / 1024.0;
  const CpuTicks stat1 = CpuTicks::now();
  const double triad = triad_gbps();
  const double steal = stat1.steal_frac(stat0);

  if (!trace) {
    rep.metric("rss_mb", rss_mb, "MB");
  } else {
    rep.metric("host.triad_gbps", triad, "GB/s");
    rep.metric("host.steal_frac", steal, "fraction");
    const auto it = rep.metrics.find("hdc.scan_gbps");
    rep.metric("hdc.roofline_frac",
               it != rep.metrics.end() ? it->second.first / triad : 0.0,
               "fraction");
    if (!trace_out.empty()) log.write(trace_out);
  }

  for (auto& [name, vu] : rep.metrics) {
    if (!std::isfinite(vu.first)) {
      rep.error("metric " + name + " is not finite");
      vu.first = 0.0;  // keep the line valid JSON
    }
  }
  std::ostringstream out;
  out.precision(10);
  out << "{\"workload\": \"" << json_escape(workload) << "\", \"correct\": "
      << (rep.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : rep.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << vu.first << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}, \"host\": {\"simd_level\": \"" << rep.simd
      << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"steal_frac\": " << steal
      << ", \"stolen_share\": " << stat1.stolen_share(stat0) << ", \"triad_gbps\": " << triad
      << ", \"involuntary_ctx_switches\": " << (ru1.ru_nivcsw - ru0.ru_nivcsw)
      << ", \"voluntary_ctx_switches\": " << (ru1.ru_nvcsw - ru0.ru_nvcsw)
      << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : rep.info) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(rep.errors[i]) << "\"";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return rep.errors.empty() ? 0 : 1;
}
