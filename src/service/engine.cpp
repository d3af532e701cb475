#include "service/engine.hpp"

#include <algorithm>
#include <utility>

namespace factorhd::service {

namespace {

std::shared_ptr<const Model> require_model(std::shared_ptr<const Model> m) {
  if (!m) {
    throw std::invalid_argument("FactorizationEngine: null model");
  }
  return m;
}

double us_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) noexcept {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

FactorizationEngine::FactorizationEngine(std::shared_ptr<const Model> model,
                                         ServiceOptions opts)
    : model_(require_model(std::move(model))),
      opts_(opts),
      batcher_(model_->factorizer(),
               core::BatchOptions{.num_threads = opts.batch_threads}),
      cache_(opts.cache_capacity, opts.cache_shards),
      trace_ring_(opts.trace_ring, opts.trace_sample),
      slow_log_(opts.slow_query_us) {
  if (opts_.max_batch == 0) {
    throw std::invalid_argument("FactorizationEngine: max_batch must be >= 1");
  }
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument(
        "FactorizationEngine: queue_capacity must be >= 1");
  }
  if (opts_.dispatchers == 0) {
    // Shard affinity: one dispatcher per shard of the model's widest
    // scatter-gather partition, so dispatch width follows a reshard
    // automatically. shards() >= 1, so this never resolves to 0.
    opts_.dispatchers = model_->factorizer().shards();
  }
  dispatchers_.reserve(opts_.dispatchers);
  batcher_threads_.reserve(opts_.dispatchers);
  for (std::size_t i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.push_back(std::make_unique<DispatcherState>());
    DispatcherState& st = *dispatchers_.back();
    const auto index = static_cast<std::uint32_t>(i);
    batcher_threads_.emplace_back(
        [this, &st, index] { batcher_loop(st, index); });
  }
}

FactorizationEngine::~FactorizationEngine() { stop(); }

std::future<core::FactorizeResult> FactorizationEngine::submit(
    hdc::Hypervector target, core::FactorizeOptions opts) {
  auto promise = std::make_shared<std::promise<core::FactorizeResult>>();
  auto fut = promise->get_future();
  enqueue(std::move(target), std::move(opts), std::chrono::steady_clock::now(),
          /*expires=*/false,
          [promise](const core::FactorizeResult* result,
                    std::exception_ptr error) {
            if (error) {
              promise->set_exception(std::move(error));
            } else {
              promise->set_value(*result);
            }
          },
          /*may_block=*/!opts_.reject_when_full);
  return fut;
}

void FactorizationEngine::submit(hdc::Hypervector target,
                                 core::FactorizeOptions opts,
                                 std::chrono::steady_clock::time_point deadline,
                                 OnDone on_done) {
  enqueue(std::move(target), std::move(opts), deadline, /*expires=*/true,
          std::move(on_done), /*may_block=*/false);
}

void FactorizationEngine::enqueue(
    hdc::Hypervector target, core::FactorizeOptions opts,
    std::chrono::steady_clock::time_point deadline, bool expires,
    OnDone on_done, bool may_block) {
  if (target.dim() != model_->books().dim()) {
    throw std::invalid_argument(
        "FactorizationEngine::submit: target dimension " +
        std::to_string(target.dim()) + " != model dimension " +
        std::to_string(model_->books().dim()));
  }
  {
    // Checked before the cache probe too: a stopped engine must refuse
    // every submit, including ones the cache could answer.
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw EngineStoppedError("engine is stopped");
    }
  }
  const auto start = std::chrono::steady_clock::now();
  // Every request claims an id from the global sequence when observability
  // is on, sampled or not — the sampled SET (id % N == 0) stays a pure
  // function of the request count across dispatcher/thread counts.
  const bool observing = trace_ring_.enabled() || slow_log_.enabled();
  std::uint64_t trace_id = 0;
  bool traced = false;
  if (observing) {
    trace_id = trace_ring_.next_id();
    traced = trace_ring_.sampled(trace_id);
  }
  const std::uint64_t key = request_key(target, opts);

  // Fast path: replay a previously computed result. Safe because lookup
  // verifies full (target, opts) equality, and factorization is pure.
  if (auto hit = cache_.lookup(key, target, opts)) {
    const auto cache_done = std::chrono::steady_clock::now();
    metrics_.on_submitted();
    metrics_.on_cache_hit();
    metrics_.on_stage(Stage::kCacheLookup, us_between(start, cache_done));
    on_done(&*hit, nullptr);
    metrics_.on_completed(us_since(start));
    if (traced) {
      RequestTrace t;
      t.id = trace_id;
      t.submit_ns = trace_ring_.since_origin_ns(start);
      t.cache_done_ns = trace_ring_.since_origin_ns(cache_done);
      t.complete_ns =
          trace_ring_.since_origin_ns(std::chrono::steady_clock::now());
      t.cache_hit = true;
      t.shards = model_->factorizer().shards();
      t.rows_scanned = hit->similarity_ops;
      t.probes = hit->probes;
      t.exact_rescans = hit->exact_rescans;
      t.rounds = hit->rounds;
      trace_ring_.record(t);
    }
    return;
  }
  const auto cache_done = std::chrono::steady_clock::now();

  Request req;
  req.target = std::move(target);
  req.opts = std::move(opts);
  req.key = key;
  req.on_done = std::move(on_done);
  req.deadline = deadline;
  req.expires = expires;
  req.submitted = start;
  req.cache_done = cache_done;
  req.trace_id = trace_id;
  req.traced = traced;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      throw EngineStoppedError("engine is stopped");
    }
    if (queue_.size() >= opts_.queue_capacity) {
      if (!may_block) {
        metrics_.on_rejected();
        throw QueueFullError();
      }
      queue_space_.wait(lock, [this] {
        return stopping_ || queue_.size() < opts_.queue_capacity;
      });
      if (stopping_) {
        // The wakeup came from stop(), not from freed space: the request
        // was never enqueued and will never complete.
        throw EngineStoppedError(
            "engine stopped while this request was blocked on backpressure "
            "(request was never enqueued)");
      }
    }
    req.enqueued = std::chrono::steady_clock::now();
    queue_.push(deadline, std::move(req));
    // Counted while still holding the queue lock: the batcher cannot pop
    // (and thus complete) this request before the lock is released, so a
    // concurrent metrics snapshot never observes completed > submitted.
    metrics_.on_submitted();
    metrics_.on_cache_miss();
    metrics_.on_stage(Stage::kCacheLookup, us_between(start, cache_done));
  }
  queue_ready_.notify_one();
}

FactorizationEngine::Flight FactorizationEngine::next_flight() {
  std::unique_lock<std::mutex> lock(mu_);
  queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  // Opportunistic dispatch: take what is queued now. Requests that arrive
  // while this flight computes form the next one.
  Flight flight;
  const auto now = std::chrono::steady_clock::now();
  while (!queue_.empty() && flight.live.size() < opts_.max_batch) {
    Request r = queue_.pop();
    (r.expires && r.deadline < now ? flight.expired : flight.live)
        .push_back(std::move(r));
  }
  lock.unlock();
  queue_space_.notify_all();
  // One dequeue stamp for the whole flight — it left the queue as a unit.
  for (Request& r : flight.live) r.dequeued = now;
  return flight;
}

void FactorizationEngine::run_flight(std::vector<Request> flight,
                                     DispatcherState& state,
                                     std::uint32_t index) {
  Metrics& metrics = state.metrics;
  // Group members by identical options — BatchFactorizer applies one
  // FactorizeOptions to a whole batch, and identical options are also what
  // makes two results interchangeable. Flights are homogeneous in the
  // common case, so the quadratic-looking scans below are over tiny sets.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      if (flight[g.front()].opts == flight[i].opts) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }

  for (const auto& group : groups) {
    const core::FactorizeOptions& gopts = flight[group.front()].opts;

    // Coalesce duplicate targets within the group: factorize each distinct
    // target once and fan the (identical, deterministic) result out to
    // every duplicate's completion. rep[j] indexes into `targets`.
    //
    // The dedup key is global — the full (target, opts) identity: groups
    // are formed by exact options equality above, and within a group two
    // requests coalesce only when both the request_key fingerprint AND the
    // full target hypervector compare equal. Nothing here depends on the
    // model's scan backend or shard partition, so coalescing under a
    // kSharded model merges exactly the requests it would merge unsharded
    // (pinned by the kSharded coalescing test in
    // tests/test_service_engine.cpp).
    std::vector<hdc::Hypervector> targets;
    std::vector<std::uint64_t> target_keys;
    std::vector<std::size_t> rep(group.size());
    for (std::size_t j = 0; j < group.size(); ++j) {
      const Request& r = flight[group[j]];
      bool found = false;
      for (std::size_t u = 0; u < targets.size(); ++u) {
        if (target_keys[u] == r.key && targets[u] == r.target) {
          rep[j] = u;
          found = true;
          metrics.on_coalesced();
          break;
        }
      }
      if (!found) {
        rep[j] = targets.size();
        targets.push_back(r.target);
        target_keys.push_back(r.key);
      }
    }

    metrics.on_batch(group.size());
    const auto scan_start = std::chrono::steady_clock::now();
    std::vector<core::FactorizeResult> results;
    try {
      results = batcher_.factorize_all(targets, gopts);
    } catch (...) {
      const auto err = std::current_exception();
      for (const std::size_t j : group) {
        flight[j].on_done(nullptr, err);
        // Completed with an exception is still completed: the drained-engine
        // invariant completed == submitted must survive a failed flight.
        metrics.on_completed(us_since(flight[j].submitted));
      }
      continue;
    }
    const auto scan_end = std::chrono::steady_clock::now();

    for (std::size_t u = 0; u < targets.size(); ++u) {
      cache_.insert(target_keys[u], targets[u], gopts, results[u]);
    }
    const bool build_traces = slow_log_.enabled();
    for (std::size_t j = 0; j < group.size(); ++j) {
      Request& r = flight[group[j]];
      const core::FactorizeResult& result = results[rep[j]];
      r.on_done(&result, nullptr);
      const auto done = std::chrono::steady_clock::now();
      metrics.on_stage(Stage::kQueueWait, us_between(r.enqueued, r.dequeued));
      metrics.on_stage(Stage::kBatchAssembly,
                       us_between(r.dequeued, scan_start));
      metrics.on_stage(Stage::kScan, us_between(scan_start, scan_end));
      metrics.on_stage(Stage::kMerge, us_between(scan_end, done));
      metrics.on_completed(us_since(r.submitted));
      if (r.traced || build_traces) {
        RequestTrace t;
        t.id = r.trace_id;
        t.submit_ns = trace_ring_.since_origin_ns(r.submitted);
        t.cache_done_ns = trace_ring_.since_origin_ns(r.cache_done);
        t.enqueue_ns = trace_ring_.since_origin_ns(r.enqueued);
        t.dequeue_ns = trace_ring_.since_origin_ns(r.dequeued);
        t.scan_start_ns = trace_ring_.since_origin_ns(scan_start);
        t.scan_end_ns = trace_ring_.since_origin_ns(scan_end);
        t.complete_ns = trace_ring_.since_origin_ns(done);
        t.cache_hit = false;
        t.dispatcher = index;
        t.batch_size = static_cast<std::uint32_t>(group.size());
        t.shards = model_->factorizer().shards();
        t.rows_scanned = result.similarity_ops;
        t.probes = result.probes;
        t.exact_rescans = result.exact_rescans;
        t.rounds = result.rounds;
        slow_log_.observe(t);
        if (r.traced) trace_ring_.record(t);
      }
    }
  }
}

void FactorizationEngine::batcher_loop(DispatcherState& state,
                                       std::uint32_t index) {
  while (true) {
    Flight flight = next_flight();
    const std::size_t n = flight.live.size() + flight.expired.size();
    if (n == 0) return;
    state.inflight.fetch_add(n, std::memory_order_relaxed);
    if (!flight.expired.empty()) {
      const auto error = std::make_exception_ptr(DeadlineExceededError());
      for (Request& r : flight.expired) {
        r.on_done(nullptr, error);
        state.metrics.on_expired();
        state.metrics.on_completed(us_since(r.submitted));
      }
    }
    if (!flight.live.empty()) {
      run_flight(std::move(flight.live), state, index);
    }
    state.inflight.fetch_sub(n, std::memory_order_relaxed);
  }
}

void FactorizationEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  // Serialized so concurrent stop() calls (e.g. an explicit stop racing
  // the destructor from another owner) never double-join.
  std::lock_guard<std::mutex> lock(join_mu_);
  for (std::thread& t : batcher_threads_) {
    if (t.joinable()) t.join();
  }
}

MetricsSnapshot FactorizationEngine::metrics() const {
  // Aggregate into a local set: dispatcher (compute-side) sets first, the
  // submit-side set last. Reading a request's completion from a dispatcher
  // set implies its earlier `submitted` increment is already visible, so
  // merging submitted-last keeps completed <= submitted in live snapshots;
  // after a drain the aggregate is exact.
  Metrics agg;
  for (const auto& d : dispatchers_) agg.merge(d->metrics);
  agg.merge(metrics_);
  MetricsSnapshot snap = agg.snapshot(queue_depth());
  snap.shard_rows_scanned = model_->factorizer().shard_rows_scanned();
  return snap;
}

std::vector<FactorizationEngine::DispatcherStats>
FactorizationEngine::dispatcher_stats() const {
  std::vector<DispatcherStats> out;
  out.reserve(dispatchers_.size());
  for (const auto& d : dispatchers_) {
    DispatcherStats s;
    s.metrics = d->metrics.snapshot(0);
    s.inflight = d->inflight.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void FactorizationEngine::reset_metrics() noexcept {
  // Dispatcher (compute-side) sets hold completions; the submit-side set
  // holds submits. Clearing completions first keeps completed <= submitted
  // for any snapshot interleaved with the reset.
  for (const auto& d : dispatchers_) d->metrics.reset();
  metrics_.reset();
}

std::size_t FactorizationEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace factorhd::service
