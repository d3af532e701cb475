// FactorizationEngine: the asynchronous serving runtime over a Model.
//
//   submit(target, opts[, deadline, on_done]) ──► ResultCache probe
//        │ miss                          hit ──► on_done inline (submitter)
//        ▼
//   bounded (deadline, seq) min-heap  (backpressure: block or reject)
//        │
//        ▼
//   dispatcher thread(s): pop what is queued (up to max_batch) as soon as
//        │  a dispatcher is free; expired requests complete with
//        │  DeadlineExceededError; group by identical FactorizeOptions,
//        │  coalesce duplicate targets within the flight
//        ▼
//   core::BatchFactorizer::factorize_all  (worker pool over the shared
//        │                                 packed-SIMD scan planes)
//        ▼
//   insert into ResultCache + record Metrics + on_done (dispatcher thread)
//
// There is one completion path: every request carries an on_done callback.
// The future form of submit() is a promise set from that callback.
// Batches form from whatever queued while a dispatcher was computing; no
// request is held back to wait for company.
//
// Correctness contract: every completion receives a FactorizeResult that is
// *bit-identical* to a direct Factorizer::factorize(target, opts) call —
// regardless of how requests were batched, how many worker threads ran,
// whether the result was coalesced with a duplicate in the same flight, or
// replayed from the cache. This holds because factorization is a pure
// function of (target, opts), BatchFactorizer is deterministic across
// thread counts (its documented contract), and the cache verifies full
// key equality before serving. tests/test_service_engine.cpp asserts it
// differentially.
//
// Shutdown: stop() (and the destructor) stops accepting new work, drains
// every queued request through the normal batch path, then joins the
// dispatcher threads — no accepted request is ever abandoned.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/factorizer.hpp"
#include "hdc/hypervector.hpp"
#include "service/deadline_heap.hpp"
#include "service/metrics.hpp"
#include "service/model_registry.hpp"
#include "service/result_cache.hpp"
#include "service/trace.hpp"

namespace factorhd::service {

struct ServiceOptions {
  /// Most requests one dispatcher takes from the queue per flight. A free
  /// dispatcher takes whatever is queued, up to this many, at once.
  std::size_t max_batch = 64;
  /// Bounded request-queue capacity (the backpressure surface).
  std::size_t queue_capacity = 1024;
  /// When the queue is full: true → the future form of submit() throws
  /// QueueFullError; false → it blocks until space frees up. The callback
  /// form never blocks and always throws.
  bool reject_when_full = false;
  /// Micro-batcher (queue-consumer) threads. 1 maximizes coalescing; more
  /// dispatchers overlap batch formation with computation when flights are
  /// small relative to the offered load. The queue is MPMC: any number of
  /// submitters and dispatchers. 0 = shard affinity: one dispatcher per
  /// shard of the model's widest scatter-gather partition
  /// (factorizer().shards(), >= 1), so an engine over a resharded model
  /// scales its dispatch width with the partition automatically.
  std::size_t dispatchers = 1;
  /// Worker threads of the internal BatchFactorizer; 0 = hardware.
  std::size_t batch_threads = 0;
  /// ResultCache entry budget; 0 disables result caching.
  std::size_t cache_capacity = 4096;
  /// ResultCache shard count.
  std::size_t cache_shards = 8;
  /// Deterministic 1-in-N request tracing (0 = tracing off). Sampled
  /// requests get a full RequestTrace in the trace ring; the sampled id SET
  /// is a pure function of the request count, identical across dispatcher
  /// counts. Env default: FACTORHD_TRACE_SAMPLE.
  std::size_t trace_sample = 0;
  /// Trace-ring capacity (sampled traces retained). Env: FACTORHD_TRACE_RING.
  std::size_t trace_ring = 4096;
  /// Slow-query log threshold in us; 0 disables. When on, every computed
  /// request is timed stage-by-stage (even unsampled ones) so slow outliers
  /// always carry their breakdown. Env: FACTORHD_SLOW_QUERY_US.
  std::size_t slow_query_us = 0;
};

/// Thrown by submit() under reject_when_full backpressure.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError()
      : std::runtime_error(
            "FactorizationEngine: request queue full (backpressure)") {}
};

/// Delivered (as the completion's exception) to a request that was still
/// queued past its deadline: it was never computed.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError()
      : std::runtime_error(
            "FactorizationEngine: deadline passed before dispatch") {}
};

/// Thrown by submit() once stop() has begun: the engine's lifecycle state —
/// not the caller's arguments — rejected the request, so it is a runtime
/// error like QueueFullError, and callers can catch the two uniformly as
/// "not accepted right now" without also swallowing genuine usage bugs.
class EngineStoppedError : public std::runtime_error {
 public:
  explicit EngineStoppedError(const char* detail)
      : std::runtime_error(std::string("FactorizationEngine::submit: ") +
                           detail) {}
};

/// Asynchronous factorization server over one immutable Model.
///
/// \par Contract (bit-identical serving)
/// Every completion of submit() carries a core::FactorizeResult that
/// is bit-identical (doubles included) to a direct
/// `Factorizer::factorize(target, opts)` call on the same Model —
/// regardless of batch composition, dispatcher/worker thread counts,
/// duplicate coalescing, or cache state. The guarantee composes from
/// three facts: factorization is a pure function of `(target, opts)`
/// (tiered scan approximation included — the index is immutable and its
/// scans deterministic), BatchFactorizer is deterministic across thread
/// counts, and the ResultCache verifies full key equality before serving
/// (collision ⇒ miss; see service/result_cache.hpp). Asserted
/// differentially by tests/test_service_engine.cpp and under
/// ThreadSanitizer by tests/test_service_soak.cpp.
class FactorizationEngine {
 public:
  /// \param model Model to serve; shared (and kept alive) by the engine.
  /// \param opts Batching, backpressure, and cache configuration.
  ///   `dispatchers == 0` resolves to the model's shard count (>= 1); the
  ///   resolved value is visible through options().
  /// \throws std::invalid_argument When `model` is null or max_batch /
  ///   queue_capacity is 0.
  explicit FactorizationEngine(std::shared_ptr<const Model> model,
                               ServiceOptions opts = {});

  /// Stops and drains (see stop()).
  ~FactorizationEngine();

  FactorizationEngine(const FactorizationEngine&) = delete;
  FactorizationEngine& operator=(const FactorizationEngine&) = delete;

  /// Completion callback: exactly one of `result` (non-null) and `error`
  /// is set. It runs inline on the submitting thread for a cache hit and on
  /// the dispatcher thread that computed (or expired) the request
  /// otherwise, with no engine lock held. It must not throw, and it blocks
  /// its dispatcher while it runs.
  using OnDone = std::function<void(const core::FactorizeResult* result,
                                    std::exception_ptr error)>;

  /// Submits one factorization request; `on_done` fires exactly once if
  /// this returns normally, and never if it throws. Never blocks.
  /// \param target Encoded target HV of the model's dimension.
  /// \param opts Per-request factorization options; requests batch together
  ///   only with identical options.
  /// \param deadline Dispatch deadline, and the queue's priority key: a
  ///   request still queued after it completes with DeadlineExceededError.
  /// \param on_done Completion callback (see OnDone).
  /// \throws std::invalid_argument On a dimension mismatch.
  /// \throws EngineStoppedError After stop() has begun.
  /// \throws QueueFullError When the queue is full (regardless of
  ///   reject_when_full).
  void submit(hdc::Hypervector target, core::FactorizeOptions opts,
              std::chrono::steady_clock::time_point deadline, OnDone on_done);

  /// Submits one factorization request with no deadline: it is queued
  /// under its submit time and never expires. A promise set from the
  /// callback form's completion.
  /// \return Future for the result (already ready on a cache hit).
  /// \throws std::invalid_argument On a dimension mismatch.
  /// \throws EngineStoppedError After stop() has begun — including when
  ///   stop() lands while the caller is blocked on backpressure (the
  ///   request was never enqueued and will never complete).
  /// \throws QueueFullError When the queue is full and reject_when_full.
  [[nodiscard]] std::future<core::FactorizeResult> submit(
      hdc::Hypervector target, core::FactorizeOptions opts = {});

  /// Stops accepting new submissions, drains every queued request through
  /// the batch path (expired ones complete with DeadlineExceededError), and
  /// joins the dispatcher threads. Idempotent; called by the destructor.
  /// After stop(), every accepted request has completed.
  void stop();

  /// \return Counter snapshot, safe to call at any time while serving.
  ///   Includes the per-stage latency digests and (for sharded models) the
  ///   per-shard rows-scanned counters.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// One dispatcher's view for the `stats` per-dispatcher breakdown.
  struct DispatcherStats {
    MetricsSnapshot metrics;   ///< this dispatcher's compute-side counters
    std::size_t inflight = 0;  ///< requests popped but not yet completed
  };
  /// \return Per-dispatcher compute-side snapshots (batches dispatched, max
  ///   batch high-water, in-flight depth), index-aligned with the pool.
  [[nodiscard]] std::vector<DispatcherStats> dispatcher_stats() const;

  /// Zeroes every counter and latency histogram (submit-side and all
  /// dispatcher sets) for a fresh `stats reset` epoch. The engine keeps
  /// serving; requests in flight attribute their completion to the new
  /// epoch. The trace ring and request-id sequence are NOT reset —
  /// sampled-id determinism spans epochs.
  void reset_metrics() noexcept;

  /// The engine's trace ring (occupancy / drop counters, config).
  [[nodiscard]] const TraceRing& trace_ring() const noexcept {
    return trace_ring_;
  }
  /// Snapshot of the retained sampled traces, request-id ascending. Feed to
  /// chrome_trace_json() for a Perfetto-loadable dump.
  [[nodiscard]] std::vector<RequestTrace> trace_samples() const {
    return trace_ring_.collect();
  }
  /// The engine's slow-query log (emitted / suppressed counters).
  [[nodiscard]] const SlowQueryLog& slow_query_log() const noexcept {
    return slow_log_;
  }

  [[nodiscard]] const Model& model() const noexcept { return *model_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }
  /// \return Pending (queued, not yet dispatched) request count.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Request {
    hdc::Hypervector target;
    core::FactorizeOptions opts;
    std::uint64_t key = 0;  ///< request_key(target, opts)
    OnDone on_done;
    std::chrono::steady_clock::time_point deadline;  ///< the heap key
    bool expires = false;  ///< false: deadline is just the submit time
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point cache_done;  ///< cache probe done
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point dequeued;
    std::uint64_t trace_id = 0;  ///< global submit-order id (when observing)
    bool traced = false;         ///< in the deterministic sample set
  };

  /// One dispatcher's mutable state (unique_ptr-held: address-stable
  /// atomics). Compute-side metrics are uncontended on the dispatch path;
  /// inflight is the popped-but-not-completed gauge for `stats`.
  struct DispatcherState {
    Metrics metrics;
    std::atomic<std::size_t> inflight{0};
  };

  /// What one dispatcher took from the queue in one pop.
  struct Flight {
    std::vector<Request> live;     ///< to compute, heap order
    std::vector<Request> expired;  ///< queued past their deadline
  };

  /// Probes the cache (hit: completes inline) or queues the request.
  /// `may_block` selects blocking backpressure over QueueFullError.
  void enqueue(hdc::Hypervector target, core::FactorizeOptions opts,
               std::chrono::steady_clock::time_point deadline, bool expires,
               OnDone on_done, bool may_block);
  void batcher_loop(DispatcherState& state, std::uint32_t index);
  /// Pops what is queued, up to max_batch live requests, as soon as there
  /// is any. Returns an empty flight when stopping and the queue is drained.
  [[nodiscard]] Flight next_flight();
  /// Factorizes one flight: groups by options, coalesces duplicates,
  /// dispatches BatchFactorizer, completes every request, feeds cache + the
  /// calling dispatcher's metrics set + per-stage latencies + traces.
  void run_flight(std::vector<Request> flight, DispatcherState& state,
                  std::uint32_t index);

  std::shared_ptr<const Model> model_;
  ServiceOptions opts_;
  core::BatchFactorizer batcher_;  ///< views model_->factorizer()
  ResultCache cache_;
  /// Submit-side counters (submitted / rejected / cache hit+miss, the
  /// cache-lookup stage, and the cache-hit completions recorded on the
  /// submit thread). Compute-side events go to the owning dispatcher's set
  /// in dispatchers_; metrics() merges dispatcher sets first and this set
  /// last, so each event is aggregated exactly once and
  /// completed <= submitted holds in live snapshots.
  Metrics metrics_;
  /// Per-dispatcher state (unique_ptr: holds atomics, address-stable).
  std::vector<std::unique_ptr<DispatcherState>> dispatchers_;
  /// Sampled-trace ring; also owns the global request-id sequence and the
  /// steady-clock origin all trace timestamps are relative to.
  TraceRing trace_ring_;
  /// Rate-limited slow-query JSONL (stderr by default).
  SlowQueryLog slow_log_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;  ///< signalled on enqueue and stop
  std::condition_variable queue_space_;  ///< signalled on dequeue
  DeadlineHeap<Request> queue_;
  bool stopping_ = false;

  std::mutex join_mu_;  ///< serializes concurrent stop() joins
  /// Dispatcher pool; last member: joins before any state tears down.
  std::vector<std::thread> batcher_threads_;
};

}  // namespace factorhd::service
