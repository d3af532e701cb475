// Differential and behavioral tests for service::FactorizationEngine.
//
// The load-bearing guarantee (ISSUE 4 acceptance): every future the engine
// fulfills carries a FactorizeResult bit-identical to a direct
// Factorizer::factorize call with the same (target, options) — regardless
// of micro-batch composition, BatchFactorizer thread count, duplicate
// coalescing, or cache state. The differential suites assert exact equality
// (FactorizeResult::operator==, doubles included) across engine
// configurations on a seeded workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "core/factorhd.hpp"
#include "engine_parker.hpp"
#include "service/service.hpp"

namespace {

using namespace factorhd;
using testing_support::EngineParker;

struct WorkItem {
  hdc::Hypervector target;
  core::FactorizeOptions opts;
  core::FactorizeResult expected;
};

/// A seeded mixed workload (Rep-1 objects and Rep-3 scenes, some repeated,
/// some with partial-factorization options) with direct-call ground truth.
class ServiceEngineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 1024;

  void SetUp() override {
    util::Xoshiro256 rng(1234);
    model_ = service::Model::make(
        "test", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng));

    core::FactorizeOptions single;
    core::FactorizeOptions partial;
    partial.selected_classes = {0, 2};
    partial.max_depth = 1;
    core::FactorizeOptions multi;
    multi.multi_object = true;
    multi.num_objects_hint = 2;

    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    for (std::size_t i = 0; i < 18; ++i) {
      WorkItem item;
      if (i % 3 == 2) {
        const tax::Scene scene = tax::random_scene(
            taxonomy, rng,
            {.num_objects = 2, .object = {}, .allow_duplicates = true});
        item.target = model_->encoder().encode_scene(scene);
        item.opts = multi;
      } else {
        item.target = model_->encoder().encode_object(
            tax::random_object(taxonomy, rng));
        item.opts = (i % 3 == 1) ? partial : single;
      }
      item.expected = model_->factorizer().factorize(item.target, item.opts);
      work_.push_back(std::move(item));
    }
    // Repeats (same target and options) exercise coalescing and caching.
    work_.push_back(work_[0]);
    work_.push_back(work_[2]);
    work_.push_back(work_[0]);
  }

  /// Submits the whole workload, waits, and asserts exact equality.
  void run_differential(service::FactorizationEngine& engine) {
    std::vector<std::future<core::FactorizeResult>> futures;
    futures.reserve(work_.size());
    for (const WorkItem& item : work_) {
      futures.push_back(engine.submit(item.target, item.opts));
    }
    for (std::size_t i = 0; i < work_.size(); ++i) {
      EXPECT_TRUE(futures[i].get() == work_[i].expected)
          << "engine result differs from direct factorize at item " << i;
    }
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<WorkItem> work_;
};

TEST_F(ServiceEngineTest, NoBatchingMatchesDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 1, .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, MicroBatchingMatchesDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, LargeBatchManyThreadsMatchesDirect) {
  service::FactorizationEngine engine(model_, {.max_batch = 64,
                                               .batch_threads = 4,
                                               .cache_capacity = 0});
  run_differential(engine);
}

TEST_F(ServiceEngineTest, MultipleDispatchersMatchDirect) {
  // MPMC: several queue-consumer threads forming flights concurrently.
  service::FactorizationEngine engine(model_, {.max_batch = 4,
                                               .dispatchers = 3,
                                               .cache_capacity = 64});
  run_differential(engine);
  run_differential(engine);
}

TEST_F(ServiceEngineTest, CachingAndCoalescingMatchDirect) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 128});
  run_differential(engine);
  // Replay the whole workload: now largely cache-served — still identical.
  run_differential(engine);
  const auto m = engine.metrics();
  EXPECT_GT(m.cache_hits + m.coalesced, 0u)
      << "repeated workload should exercise reuse";
}

TEST_F(ServiceEngineTest, SequentialRepeatIsACacheHit) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .cache_capacity = 64});
  auto first = engine.submit(work_[0].target, work_[0].opts);
  EXPECT_TRUE(first.get() == work_[0].expected);
  // The first result is now cached; an identical request must hit and be
  // byte-identical.
  auto second = engine.submit(work_[0].target, work_[0].opts);
  EXPECT_TRUE(second.get() == work_[0].expected);
  EXPECT_GE(engine.metrics().cache_hits, 1u);
}

TEST_F(ServiceEngineTest, MetricsInvariantsAfterDrain) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 64});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (const WorkItem& item : work_) {
    futures.push_back(engine.submit(item.target, item.opts));
  }
  for (auto& f : futures) (void)f.get();
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, work_.size());
  EXPECT_EQ(m.completed, work_.size());
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.submitted);
  // Every miss was dispatched in some batch.
  EXPECT_EQ(m.batched_requests, m.cache_misses);
  EXPECT_GE(m.batches, 1u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.p99_latency_us, 0.0);
  EXPECT_GE(m.p99_latency_us, m.p50_latency_us);
}

TEST_F(ServiceEngineTest, SubmitAfterStopThrowsEvenOnACachedTarget) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .cache_capacity = 64});
  auto fut = engine.submit(work_[0].target, work_[0].opts);
  (void)fut.get();  // result is now cached
  engine.stop();
  EXPECT_THROW((void)engine.submit(work_[0].target, work_[0].opts),
               service::EngineStoppedError)
      << "a stopped engine must refuse cache-answerable submits too";
}

TEST_F(ServiceEngineTest, StopDrainsEveryInFlightRequest) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .cache_capacity = 0});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (const WorkItem& item : work_) {
    futures.push_back(engine.submit(item.target, item.opts));
  }
  engine.stop();  // must drain, not abandon
  for (std::size_t i = 0; i < work_.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " not fulfilled by stop()";
    EXPECT_TRUE(futures[i].get() == work_[i].expected);
  }
  EXPECT_THROW((void)engine.submit(work_[0].target, work_[0].opts),
               service::EngineStoppedError);
  engine.stop();  // idempotent
}

TEST_F(ServiceEngineTest, RejectsWhenQueueFull) {
  // A parked dispatcher takes nothing from the queue (capacity 2), so
  // exactly two of eight submits fit: deterministic backpressure.
  service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                               .queue_capacity = 2,
                                               .reject_when_full = true,
                                               .cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  std::vector<std::future<core::FactorizeResult>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    try {
      accepted.push_back(engine.submit(work_[0].target, work_[0].opts));
    } catch (const service::QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(rejected, 6u);
  parker.release();
  engine.stop();  // drains the accepted ones
  for (auto& f : accepted) {
    EXPECT_TRUE(f.get() == work_[0].expected);
  }
  EXPECT_EQ(engine.metrics().rejected, rejected);
}

TEST_F(ServiceEngineTest, StopWhileBlockedOnBackpressureThrowsStoppedError) {
  // A parked dispatcher with a capacity-1 queue: the first submit fills the
  // queue, the second blocks on backpressure. stop() must wake it with
  // EngineStoppedError — the request was never enqueued, so fulfilling it
  // is impossible.
  service::FactorizationEngine engine(model_, {.max_batch = 1000,
                                               .queue_capacity = 1,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  auto queued = engine.submit(work_[0].target, work_[0].opts);
  auto blocked = std::async(std::launch::async, [&] {
    return engine.submit(work_[1].target, work_[1].opts);
  });
  // Give the async submit a moment to reach the backpressure wait; if stop()
  // wins the race anyway, submit still throws EngineStoppedError, just from
  // the earlier stopped check.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // stop() joins the dispatcher, which is parked: stop on another thread,
  // and release the dispatcher once the blocked submit has been refused.
  std::thread stopper([&] { engine.stop(); });
  EXPECT_THROW((void)blocked.get(), service::EngineStoppedError);
  parker.release();
  stopper.join();
  EXPECT_TRUE(queued.get() == work_[0].expected)
      << "stop() must still drain the request that did get enqueued";
}

TEST_F(ServiceEngineTest, BlockingBackpressureEventuallyServesEverything) {
  service::FactorizationEngine engine(model_, {.max_batch = 2,
                                               .queue_capacity = 2,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  std::vector<std::future<core::FactorizeResult>> futures;
  for (std::size_t i = 0; i < 10; ++i) {  // > queue capacity: submit blocks
    futures.push_back(engine.submit(work_[i % 4].target, work_[i % 4].opts));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get() == work_[i % 4].expected);
  }
  EXPECT_EQ(engine.metrics().rejected, 0u);
}

TEST_F(ServiceEngineTest, FailedFlightPropagatesExceptionAndStaysConsistent) {
  service::FactorizationEngine engine(
      model_, {.max_batch = 4, .cache_capacity = 64});
  // Passes submit (dimension is fine) but throws inside the dispatched
  // factorize_all: a selected class out of range.
  core::FactorizeOptions bad;
  bad.selected_classes = {99};
  auto poisoned = engine.submit(work_[0].target, bad);
  auto healthy = engine.submit(work_[1].target, work_[1].opts);
  EXPECT_THROW((void)poisoned.get(), std::invalid_argument);
  EXPECT_TRUE(healthy.get() == work_[1].expected)
      << "a failing options-group must not take down its flight-mates";
  engine.stop();
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u)
      << "exceptionally fulfilled requests still count as completed";
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST_F(ServiceEngineTest, ValidatesArguments) {
  EXPECT_THROW(service::FactorizationEngine(nullptr), std::invalid_argument);
  EXPECT_THROW(service::FactorizationEngine(model_, {.max_batch = 0}),
               std::invalid_argument);
  EXPECT_THROW(service::FactorizationEngine(model_, {.queue_capacity = 0}),
               std::invalid_argument);
  service::FactorizationEngine engine(model_, {});
  EXPECT_THROW((void)engine.submit(hdc::Hypervector(kDim + 1)),
               std::invalid_argument);
}

TEST_F(ServiceEngineTest, DispatcherZeroResolvesToModelShardCount) {
  // dispatchers = 0 is shard affinity: one dispatcher per shard of the
  // model's widest partition. Unsharded model → 1; a 3-way sharded rebuild
  // of the same codebooks → 3 — and results stay bit-identical throughout.
  service::FactorizationEngine plain(model_, {.dispatchers = 0});
  EXPECT_EQ(plain.options().dispatchers, 1u);
  run_differential(plain);

  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  hdc::kernels::ShardedConfig cfg;
  cfg.shards = 3;
  auto sharded = service::Model::make(
      "sharded", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kAuto, nullptr, cfg);
  EXPECT_EQ(sharded->factorizer().scan_backend(), hdc::ScanBackend::kSharded);
  EXPECT_EQ(sharded->factorizer().shards(), 3u);
  service::FactorizationEngine affine(sharded, {.dispatchers = 0});
  EXPECT_EQ(affine.options().dispatchers, 3u);
  run_differential(affine);
}

TEST_F(ServiceEngineTest, ShardedModelServesBitIdenticalResults) {
  // The serving differential over a scatter-gather model: every future must
  // carry the same bits as the direct unsharded factorize that produced the
  // ground truth — at several shard counts, with caching and multiple
  // dispatchers in play.
  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  for (const std::size_t shards : {2u, 3u, 5u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    hdc::kernels::ShardedConfig cfg;
    cfg.shards = shards;
    util::Xoshiro256 fresh(1234);
    auto sharded = service::Model::make(
        "sharded",
        tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, fresh),
        hdc::ScanBackend::kAuto, nullptr, cfg);
    service::FactorizationEngine engine(sharded, {.max_batch = 8,
                                                  .dispatchers = 2,
                                                  .cache_capacity = 64});
    run_differential(engine);
    run_differential(engine);  // replay: cache-served, still identical
  }
}

TEST_F(ServiceEngineTest, CoalescingKeysOnGlobalIdentityUnderSharding) {
  // The coalescing pin under kSharded: the dedup key is the full global
  // (target, opts) identity, independent of the model's shard partition —
  // a flight of k duplicates must compute once and coalesce k-1, exactly
  // as an unsharded engine would. The duplicates queue behind a parked
  // dispatcher, which takes them as one flight once released; the cache is
  // off so coalescing is the only reuse path.
  util::Xoshiro256 rng(1234);  // same seed → same codebooks as model_
  hdc::kernels::ShardedConfig cfg;
  cfg.shards = 4;
  auto sharded = service::Model::make(
      "sharded", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kAuto, nullptr, cfg);
  for (const auto& model : {model_, sharded}) {
    SCOPED_TRACE(model == model_ ? "unsharded" : "4-way sharded");
    service::FactorizationEngine engine(model, {.max_batch = 1000,
                                                .dispatchers = 1,
                                                .cache_capacity = 0});
    EngineParker parker(engine, work_[3].target);
    std::vector<std::future<core::FactorizeResult>> futures;
    for (int i = 0; i < 5; ++i) {
      futures.push_back(engine.submit(work_[0].target, work_[0].opts));
    }
    futures.push_back(engine.submit(work_[1].target, work_[1].opts));
    parker.release();
    engine.stop();
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(futures[i].get() == work_[0].expected);
    }
    EXPECT_TRUE(futures[5].get() == work_[1].expected);
    const auto m = engine.metrics();
    EXPECT_EQ(m.coalesced, 4u)
        << "5 identical requests in one flight must coalesce to 1 compute";
    EXPECT_EQ(m.completed, 7u) << "the parking request plus the six";
  }
}

// ---------------------------------------------------------------------------
// The callback form: on_done fires exactly once per accepted submit, on the
// thread the contract names, and deadlines expire queued requests.
// ---------------------------------------------------------------------------

/// Records every on_done call of one request.
struct DoneProbe {
  std::atomic<int> calls{0};
  std::atomic<bool> had_result{false};
  std::exception_ptr error;
  std::thread::id thread;
  std::promise<void> fired;

  service::FactorizationEngine::OnDone callback(
      core::FactorizeResult* copy = nullptr) {
    return [this, copy](const core::FactorizeResult* result,
                        std::exception_ptr err) {
      if (result != nullptr && copy != nullptr) *copy = *result;
      had_result = result != nullptr;
      error = std::move(err);
      thread = std::this_thread::get_id();
      if (calls.fetch_add(1) == 0) fired.set_value();
    };
  }
  void wait() { fired.get_future().wait(); }
};

std::chrono::steady_clock::time_point far_deadline() {
  return std::chrono::steady_clock::now() + std::chrono::hours(1);
}

TEST_F(ServiceEngineTest, CallbackOnCacheHitRunsInlineExactlyOnce) {
  service::FactorizationEngine engine(model_, {.cache_capacity = 64});
  (void)engine.submit(work_[0].target, work_[0].opts).get();  // now cached
  DoneProbe probe;
  core::FactorizeResult got;
  engine.submit(work_[0].target, work_[0].opts, far_deadline(),
                probe.callback(&got));
  // Inline: complete before submit returned, on this thread.
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_EQ(probe.thread, std::this_thread::get_id());
  EXPECT_TRUE(probe.had_result);
  EXPECT_TRUE(got == work_[0].expected);
  engine.stop();
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
}

TEST_F(ServiceEngineTest, CallbackOnComputedResultRunsOnTheDispatcher) {
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  DoneProbe probe;
  core::FactorizeResult got;
  engine.submit(work_[2].target, work_[2].opts, far_deadline(),
                probe.callback(&got));
  probe.wait();
  EXPECT_NE(probe.thread, std::this_thread::get_id());
  EXPECT_TRUE(probe.had_result);
  EXPECT_FALSE(probe.error);
  EXPECT_TRUE(got == work_[2].expected);
  engine.stop();
  EXPECT_EQ(probe.calls.load(), 1);
}

TEST_F(ServiceEngineTest, CallbackOnFailureCarriesTheExceptionOnce) {
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  core::FactorizeOptions bad;
  bad.selected_classes = {99};  // throws inside factorize_all
  DoneProbe probe;
  engine.submit(work_[0].target, bad, far_deadline(), probe.callback());
  probe.wait();
  engine.stop();
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_FALSE(probe.had_result);
  ASSERT_TRUE(probe.error);
  EXPECT_THROW(std::rethrow_exception(probe.error), std::invalid_argument);
}

TEST_F(ServiceEngineTest, CallbackSubmitThrowsInsteadOfBlockingWhenFull) {
  // Blocking backpressure applies to the future form only: the callback
  // form is called from event loops and must never wait.
  service::FactorizationEngine engine(model_, {.queue_capacity = 1,
                                               .reject_when_full = false,
                                               .cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  DoneProbe queued;
  DoneProbe refused;
  engine.submit(work_[0].target, work_[0].opts, far_deadline(),
                queued.callback());
  EXPECT_THROW(engine.submit(work_[1].target, work_[1].opts, far_deadline(),
                             refused.callback()),
               service::QueueFullError);
  parker.release();
  engine.stop();
  EXPECT_EQ(queued.calls.load(), 1);
  EXPECT_EQ(refused.calls.load(), 0) << "a refused submit never completes";
  EXPECT_EQ(engine.metrics().rejected, 1u);
}

TEST_F(ServiceEngineTest, StopDrainsCallbacksAndExpiresWhatIsLate) {
  // Requests queued behind a parked dispatcher when stop() lands: each
  // completes exactly once — computed, or DeadlineExceededError when its
  // deadline passed in the queue — and completed == submitted after.
  service::FactorizationEngine engine(model_, {.max_batch = 4,
                                               .cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  constexpr std::size_t kLive = 6;
  std::vector<DoneProbe> live(kLive);
  std::vector<core::FactorizeResult> got(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    engine.submit(work_[i].target, work_[i].opts, far_deadline(),
                  live[i].callback(&got[i]));
  }
  DoneProbe late;
  engine.submit(work_[0].target, work_[0].opts,
                std::chrono::steady_clock::now() + std::chrono::microseconds(1),
                late.callback());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::thread stopper([&] { engine.stop(); });
  parker.release();
  stopper.join();
  for (std::size_t i = 0; i < kLive; ++i) {
    EXPECT_EQ(live[i].calls.load(), 1) << "request " << i;
    EXPECT_TRUE(got[i] == work_[i].expected) << "request " << i;
  }
  EXPECT_EQ(late.calls.load(), 1);
  EXPECT_FALSE(late.had_result);
  ASSERT_TRUE(late.error);
  EXPECT_THROW(std::rethrow_exception(late.error),
               service::DeadlineExceededError);
  const auto m = engine.metrics();
  EXPECT_EQ(m.expired, 1u);
  EXPECT_EQ(m.submitted, kLive + 2);  // + the parking request
  EXPECT_EQ(m.completed, m.submitted) << "expiries count as completed";
  EXPECT_EQ(m.batched_requests + m.expired, m.cache_misses);
}

TEST_F(ServiceEngineTest, FutureFormNeverExpires) {
  // The future form carries no deadline: queued under its submit time, it
  // is computed however long it waited.
  service::FactorizationEngine engine(model_, {.cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  auto fut = engine.submit(work_[1].target, work_[1].opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  parker.release();
  EXPECT_TRUE(fut.get() == work_[1].expected);
  engine.stop();
  EXPECT_EQ(engine.metrics().expired, 0u);
}

TEST_F(ServiceEngineTest, QueuePopsInDeadlineThenSubmitOrder) {
  // max_batch = 1: each flight is the queue's minimum at that moment, so
  // the completion order is the heap's pop order.
  service::FactorizationEngine engine(model_, {.max_batch = 1,
                                               .cache_capacity = 0});
  EngineParker parker(engine, work_[3].target);
  const auto base = far_deadline();
  const int offsets_ms[] = {30, 10, 20, 10, 0, 30};
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    engine.submit(work_[0].target, work_[0].opts,
                  base + std::chrono::milliseconds(offsets_ms[i]),
                  [&mu, &order, i](const core::FactorizeResult*,
                                   std::exception_ptr) {
                    std::lock_guard lock(mu);
                    order.push_back(i);
                  });
  }
  parker.release();
  engine.stop();
  // Deadline ascending; equal deadlines in submit order.
  EXPECT_EQ(order, (std::vector<int>{4, 1, 3, 2, 0, 5}));
}

TEST(DeadlineHeap, PopsInDeadlineThenSequenceOrder) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0{};
  service::DeadlineHeap<int> heap;
  util::Xoshiro256 rng(7);
  std::vector<std::pair<long, int>> pushed;  // (deadline tick, push index)
  for (int i = 0; i < 500; ++i) {
    const long tick = static_cast<long>(rng.uniform(37));  // many ties
    heap.push(t0 + std::chrono::microseconds(tick), i);
    pushed.emplace_back(tick, i);
    if (i % 7 == 3) {  // interleave pops with pushes
      const auto min = std::min_element(pushed.begin(), pushed.end());
      ASSERT_EQ(heap.top(), min->second);
      ASSERT_EQ(heap.pop(), min->second);
      pushed.erase(min);
    }
  }
  std::sort(pushed.begin(), pushed.end());
  ASSERT_EQ(heap.size(), pushed.size());
  for (const auto& [tick, index] : pushed) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.pop(), index) << "tick " << tick;
  }
  EXPECT_TRUE(heap.empty());
}

TEST(ServiceMetrics, QuantilesReportGeometricBucketMidpoints) {
  // Regression for the bucket-upper-bound bug: a stream of identical
  // latencies used to report p50 = p99 = the bucket's upper bound — up to
  // 2x the true value. The midpoint 2^(i+0.5) ns is within sqrt(2) of any
  // latency in bucket [2^i, 2^(i+1)).
  for (const double us : {0.5, 3.0, 10.0, 147.0, 2048.0, 100000.0}) {
    SCOPED_TRACE("latency_us=" + std::to_string(us));
    service::Metrics m;
    for (int i = 0; i < 100; ++i) m.on_completed(us);
    const auto s = m.snapshot(0);
    EXPECT_EQ(s.p50_latency_us, s.p99_latency_us)
        << "single-latency stream: every quantile lands in one bucket";
    const double kSqrt2 = std::sqrt(2.0);
    EXPECT_GE(s.p50_latency_us, us / kSqrt2)
        << "midpoint must be within sqrt(2) below the true latency";
    EXPECT_LE(s.p50_latency_us, us * kSqrt2)
        << "midpoint must be within sqrt(2) above the true latency";
  }
  // Exact bucket arithmetic: 10 us = 10000 ns lands in bucket 13
  // ([8192, 16384) ns); the midpoint is 2^13.5 ns.
  service::Metrics m;
  m.on_completed(10.0);
  EXPECT_DOUBLE_EQ(m.snapshot(0).p50_latency_us,
                   std::ldexp(std::sqrt(2.0), 13) / 1e3);
}

TEST(ServiceMetrics, MergeAggregatesEveryCounterWithoutDoubleCounting) {
  service::Metrics submit_side;
  service::Metrics d0;
  service::Metrics d1;
  for (int i = 0; i < 7; ++i) submit_side.on_submitted();
  submit_side.on_rejected();
  submit_side.on_cache_hit();
  submit_side.on_cache_miss();
  submit_side.on_cache_miss();
  submit_side.on_completed(5.0);  // the cache-hit completion
  d0.on_batch(3);
  d0.on_coalesced();
  d0.on_completed(10.0);
  d0.on_completed(10.0);
  d1.on_batch(5);
  d1.on_completed(40.0);

  service::Metrics agg;
  agg.merge(d0);
  agg.merge(d1);
  agg.merge(submit_side);  // submit-side set last, as the engine does
  const auto s = agg.snapshot(2);
  EXPECT_EQ(s.submitted, 7u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batched_requests, 8u);
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.max_batch_observed, 5u) << "high-water mark merges as max";
  EXPECT_EQ(s.queue_depth, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch, 4.0);
  // The merged histogram carries all four completions: p50 in the 10 us
  // bucket region, p99 in the 40 us one.
  EXPECT_GT(s.p50_latency_us, 0.0);
  EXPECT_GT(s.p99_latency_us, s.p50_latency_us);
  // Merging an empty set is a no-op.
  service::Metrics empty;
  agg.merge(empty);
  const auto s2 = agg.snapshot(2);
  EXPECT_EQ(s2.submitted, s.submitted);
  EXPECT_EQ(s2.completed, s.completed);
  EXPECT_DOUBLE_EQ(s2.p99_latency_us, s.p99_latency_us);
}

TEST_F(ServiceEngineTest, ForcedScalarBackendModelMatchesPackedModel) {
  // The same codebook material served on the forced scalar-word tier must
  // produce the same bits (the cross-backend contract, now via the engine).
  util::Xoshiro256 rng(1234);
  auto scalar_model = service::Model::make(
      "scalar",
      tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
      hdc::ScanBackend::kPackedWords);
  ASSERT_EQ(scalar_model->factorizer().simd_level(),
            hdc::kernels::SimdLevel::kScalarWords);
  // Note: same seed → same codebooks as model_, so ground truth transfers.
  service::FactorizationEngine engine(
      scalar_model, {.max_batch = 8});
  run_differential(engine);
}

}  // namespace
