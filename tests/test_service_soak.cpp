// Concurrency soak for service::FactorizationEngine — the suite the
// ThreadSanitizer CI job runs over the serving runtime.
//
// N producer threads hammer one engine with a duplicate-heavy workload
// while a poller thread snapshots metrics; afterwards every future must be
// fulfilled with a result bit-identical to direct factorization
// (cache-hit determinism), the queue fully drained, and the counters
// consistent. A second scenario soaks the reject-mode backpressure path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/factorhd.hpp"
#include "service/service.hpp"

namespace {

using namespace factorhd;

class ServiceSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256 rng(99);
    model_ = service::Model::make(
        "soak", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8}), 512, rng));
    // A small pool of targets, so concurrent producers constantly submit
    // duplicates — the adversarial case for coalescing + caching.
    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    for (std::size_t i = 0; i < 8; ++i) {
      targets_.push_back(model_->encoder().encode_object(
          tax::random_object(taxonomy, rng)));
      expected_.push_back(model_->factorizer().factorize(targets_[i], {}));
    }
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<hdc::Hypervector> targets_;
  std::vector<core::FactorizeResult> expected_;
};

TEST_F(ServiceSoak, ProducersPollerAndDrainInvariants) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 150;
  service::FactorizationEngine engine(model_, {.max_batch = 16,
                                               .queue_capacity = 64,
                                               .dispatchers = 2,
                                               .cache_capacity = 32});

  std::vector<std::vector<std::future<core::FactorizeResult>>> futures(
      kProducers);
  std::atomic<bool> polling{true};
  std::thread poller([&] {
    // Metrics must be safely snapshotable while serving (and the snapshot
    // internally consistent enough to never over-count completions).
    while (polling.load(std::memory_order_relaxed)) {
      const auto m = engine.metrics();
      EXPECT_LE(m.completed, m.submitted);
      EXPECT_LE(m.cache_hits + m.cache_misses, m.submitted);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kPerProducer);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        futures[p].push_back(
            engine.submit(targets_[(p + 3 * i) % targets_.size()]));
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.stop();
  polling.store(false, std::memory_order_relaxed);
  poller.join();

  // Drained-queue invariants.
  const auto m = engine.metrics();
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(m.submitted, kProducers * kPerProducer);
  EXPECT_EQ(m.completed, m.submitted);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.submitted);
  EXPECT_EQ(m.batched_requests, m.cache_misses);
  EXPECT_GT(m.cache_hits + m.coalesced, 0u)
      << "duplicate-heavy soak must exercise reuse";

  // Cache-hit determinism: every result — computed, coalesced, or replayed
  // — is bit-identical to the direct call.
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(futures[p][i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_TRUE(futures[p][i].get() ==
                  expected_[(p + 3 * i) % expected_.size()])
          << "producer " << p << " request " << i;
    }
  }
}

TEST_F(ServiceSoak, RejectModeUnderConcurrentLoad) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 100;
  service::FactorizationEngine engine(model_, {.max_batch = 4,
                                               .queue_capacity = 8,
                                               .reject_when_full = true,
                                               .cache_capacity = 0});
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<core::FactorizeResult>>> futures(
      kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        try {
          futures[p].push_back(
              engine.submit(targets_[(p + i) % targets_.size()]));
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const service::QueueFullError&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.stop();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  const auto m = engine.metrics();
  EXPECT_EQ(m.submitted, accepted.load());
  EXPECT_EQ(m.completed, accepted.load()) << "every accepted request drained";
  EXPECT_EQ(m.rejected, rejected.load());
  EXPECT_EQ(m.queue_depth, 0u);
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      EXPECT_NO_THROW((void)futures[p][i].get());
    }
  }
}

}  // namespace
