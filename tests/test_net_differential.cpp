// Network-path differential suite: a FactorizeResult decoded from the FHN1
// wire is bit-identical (FactorizeResult::operator==, doubles included) to
// the result of calling the engine directly — across engine batch
// configurations, model shard counts, pipelining depths, and streamed
// (kPartial-reassembled) multi-object responses. This is the acceptance
// property of the network front end: the socket adds latency, never bits.
//
// Integration-labeled (real sockets + threads); runs under ASan/UBSan in
// the Debug CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <unordered_map>
#include <vector>

#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;

struct WorkItem {
  hdc::Hypervector target;
  core::FactorizeOptions opts;
  core::FactorizeResult expected;
};

class NetDifferentialTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 512;

  /// Builds a model (optionally sharded) and a seeded mixed workload —
  /// single-object, partial-factorization, and multi-object items, some
  /// repeated — with direct-call ground truth from that same model.
  void build(std::size_t shards) {
    util::Xoshiro256 rng(2026);
    std::optional<hdc::kernels::ShardedConfig> sharded;
    if (shards > 1) sharded = hdc::kernels::ShardedConfig{.shards = shards};
    model_ = service::Model::make(
        "netdiff", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng),
        hdc::ScanBackend::kAuto, nullptr, sharded);

    core::FactorizeOptions single;
    core::FactorizeOptions partial;
    partial.selected_classes = {0, 2};
    partial.max_depth = 1;
    core::FactorizeOptions multi;
    multi.multi_object = true;
    multi.num_objects_hint = 2;
    core::FactorizeOptions traced;
    traced.collect_trace = true;

    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    work_.clear();
    for (std::size_t i = 0; i < 14; ++i) {
      WorkItem item;
      if (i % 4 == 2) {
        const tax::Scene scene = tax::random_scene(
            taxonomy, rng,
            {.num_objects = 2, .object = {}, .allow_duplicates = true});
        item.target = model_->encoder().encode_scene(scene);
        item.opts = multi;
      } else {
        item.target =
            model_->encoder().encode_object(tax::random_object(taxonomy, rng));
        item.opts = (i % 4 == 1) ? partial : (i % 4 == 3) ? traced : single;
      }
      item.expected = model_->factorizer().factorize(item.target, item.opts);
      work_.push_back(std::move(item));
    }
    // Repeats exercise engine-side coalescing/caching through the socket.
    work_.push_back(work_[0]);
    work_.push_back(work_[2]);
  }

  /// Pushes the workload through a NetServer over `engine` with
  /// `pipeline_depth` requests outstanding at a time, and asserts every
  /// wire response is bit-identical to the precomputed direct result.
  void run_differential(service::FactorizationEngine& engine,
                        std::size_t pipeline_depth, bool stream) {
    net::NetServer server(engine, {});
    server.start();
    net::NetClient client("127.0.0.1", server.port());
    client.set_recv_timeout(30s);

    std::unordered_map<std::uint64_t, std::size_t> id_to_item;
    std::size_t sent = 0;
    std::size_t received = 0;
    while (received < work_.size()) {
      while (sent < work_.size() && sent - received < pipeline_depth) {
        const std::uint64_t id =
            client.send_factorize(work_[sent].target, work_[sent].opts, stream);
        id_to_item.emplace(id, sent);
        ++sent;
      }
      const net::NetClient::Response resp = client.recv_response();
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult);
      const auto it = id_to_item.find(resp.request_id);
      ASSERT_NE(it, id_to_item.end()) << "unknown request id echoed";
      const WorkItem& item = work_[it->second];
      EXPECT_TRUE(resp.result == item.expected)
          << "wire result differs from direct factorize at item "
          << it->second;
      if (stream) {
        // Streamed responses carry one kPartial per object, reassembled by
        // the client into the identical result.
        EXPECT_EQ(resp.partial_frames, item.expected.objects.size())
            << "streamed partial count mismatch at item " << it->second;
      } else {
        EXPECT_EQ(resp.partial_frames, 0u);
      }
      id_to_item.erase(it);
      ++received;
    }
    server.stop();
  }

  std::shared_ptr<const service::Model> model_;
  std::vector<WorkItem> work_;
};

TEST_F(NetDifferentialTest, NoBatchingUnshardedSynchronous) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 1, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/1, /*stream=*/false);
}

TEST_F(NetDifferentialTest, MicroBatchingPipelined) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/8, /*stream=*/false);
}

TEST_F(NetDifferentialTest, LargeBatchDeepPipeline) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(model_, {.max_batch = 64,
                                               .batch_threads = 4,
                                               .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/false);
}

TEST_F(NetDifferentialTest, ShardedModelMatchesDirect) {
  build(/*shards=*/4);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/8, /*stream=*/false);
}

TEST_F(NetDifferentialTest, StreamedPartialsReassembleExactly) {
  build(/*shards=*/1);
  service::FactorizationEngine engine(
      model_, {.max_batch = 8, .cache_capacity = 0});
  run_differential(engine, /*pipeline_depth=*/4, /*stream=*/true);
}

TEST_F(NetDifferentialTest, StreamedShardedCachedPipelined) {
  // Everything at once: sharded model, caching + coalescing engine, deep
  // pipelining, streamed responses — and two passes so the second is
  // largely cache-served through the socket.
  build(/*shards=*/4);
  service::FactorizationEngine engine(model_, {.max_batch = 8,
                                               .dispatchers = 2,
                                               .cache_capacity = 128});
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/true);
  run_differential(engine, /*pipeline_depth=*/16, /*stream=*/true);
}

}  // namespace
