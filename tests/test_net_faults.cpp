// Fault-injection suite for net::NetServer over real sockets.
//
// Everything here attacks the server the way a broken or hostile client
// would — trickled partial frames (slow loris), mid-request disconnects,
// pipelined bursts past the admission quota, garbage bytes — and asserts
// the server's contract: misbehaving connections are shed (with accurate
// counters and exactly-once admission-slot release), well-behaved ones are
// unaffected, and shutdown drains every admitted request. The suite name
// (NetFaults) is matched by the TSan job / `check.sh --tsan`, so every
// cross-thread path (loop thread / engine dispatcher completions) runs
// under the race detector. Tests that need requests to stay in flight park
// the engine's dispatcher (engine_parker.hpp) instead of relying on timing.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "engine_parker.hpp"
#include "net/net.hpp"
#include "service/service.hpp"
#include "taxonomy/generator.hpp"

namespace {

using namespace factorhd;
using namespace std::chrono_literals;
using testing_support::EngineParker;

/// Polls `pred` until true or `timeout` expires (server counters are
/// updated on the loop thread; tests must wait, not assume).
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

class NetFaults : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 512;

  void SetUp() override {
    util::Xoshiro256 rng(4242);
    model_ = service::Model::make(
        "faults", tax::TaxonomyCodebooks(tax::Taxonomy(3, {8, 4}), kDim, rng));
    const tax::Taxonomy& taxonomy = model_->books().taxonomy();
    target_ = model_->encoder().encode_object(tax::random_object(taxonomy, rng));
  }

  /// Engine that answers promptly: one dispatcher and no result cache, so
  /// an EngineParker can hold it.
  [[nodiscard]] std::unique_ptr<service::FactorizationEngine> fast_engine() {
    return std::make_unique<service::FactorizationEngine>(
        model_, service::ServiceOptions{.max_batch = 1, .cache_capacity = 0});
  }

  std::shared_ptr<const service::Model> model_;
  hdc::Hypervector target_;
};

// ---------------------------------------------------------------------------
// Slow loris: a partial frame trickled (or stalled) forever must hit the
// idle timeout — progress is protocol progress, not socket activity.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, SlowLorisPartialHeaderTimesOut) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.idle_timeout_ms = 300;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient loris("127.0.0.1", server.port());
  // Half a header, then silence.
  const std::uint8_t partial[] = {0x46, 0x48, 0x4E, 0x31, 0x01, 0x00};
  loris.send_raw(partial);

  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }))
      << "slow-loris connection was not shed";
  // The server closed us: the next read sees EOF.
  loris.set_recv_timeout(5s);
  EXPECT_THROW((void)loris.recv_response(), std::runtime_error);

  // A healthy client on the same server is unaffected afterwards.
  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, IdleConnectionWithNoBytesTimesOut) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  net::NetServer server(*engine, opts);
  server.start();

  net::NetClient idle("127.0.0.1", server.port());
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }));
  server.stop();
}

// ---------------------------------------------------------------------------
// Mid-request disconnect: the client vanishes while its request is in
// flight. The response is dropped (not delivered, not leaked) and the
// admission slot is released — the accounting a stuck quota would betray.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, MidRequestDisconnectDropsResponseAndReleasesSlot) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();
  EngineParker parker(*engine, target_);

  {
    net::NetClient doomed("127.0.0.1", server.port());
    (void)doomed.send_factorize(target_);
    // Wait until the request is admitted, then vanish.
    ASSERT_TRUE(eventually(
        [&] { return server.admission_stats().admitted >= 1; }));
  }  // ~NetClient closes the socket with the request still in flight
  // Let the answer come only once the server has seen the close.
  ASSERT_TRUE(eventually(
      [&] { return server.counters().connections_closed >= 1; }));
  parker.release();

  EXPECT_TRUE(eventually(
      [&] { return server.counters().responses_dropped >= 1; }))
      << "response for the vanished client was not accounted as dropped";

  // The slot was released: a fresh client can run a full quota's worth of
  // requests through the same server.
  net::NetClient fresh("127.0.0.1", server.port());
  fresh.set_recv_timeout(10s);
  const core::FactorizeResult r = fresh.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

// ---------------------------------------------------------------------------
// Admission control: pipelined bursts past the bounds answer explicit
// kOverload frames, and admitted + rejected == sent, exactly.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, PipelinedBurstPastQuotaAnswersOverload) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.admission.depth = 64;
  opts.admission.client_quota = 2;
  net::NetServer server(*engine, opts);
  server.start();
  // Declared after the server: released (by its destructor at the latest)
  // before server.stop() waits for the in-flight requests.
  EngineParker parker(*engine, target_);

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 6;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }
  ASSERT_TRUE(eventually([&] {
    const net::AdmissionStats a = server.admission_stats();
    return a.admitted + a.rejected_quota == kSent;
  }));
  parker.release();

  std::size_t results = 0;
  std::size_t overloads = 0;
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    if (resp.kind == net::NetClient::Response::Kind::kResult) {
      ++results;
      EXPECT_TRUE(resp.result == model_->factorizer().factorize(target_, {}));
    } else {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kOverload);
      EXPECT_EQ(resp.overload.code, net::OverloadCode::kQuotaExceeded);
      EXPECT_EQ(resp.overload.limit, 2u);
      ++overloads;
    }
  }
  // The whole burst lands while the parked engine holds the first two:
  // exactly quota-many succeed, and every send is accounted exactly once.
  EXPECT_EQ(results, 2u);
  EXPECT_EQ(overloads, kSent - 2);
  EXPECT_EQ(results + overloads, kSent);

  const net::AdmissionStats stats = server.admission_stats();
  EXPECT_EQ(stats.admitted, results);
  EXPECT_EQ(stats.rejected_quota, overloads);
  EXPECT_EQ(stats.rejected_full, 0u);
  EXPECT_EQ(stats.admitted + stats.rejected_quota + stats.rejected_full, kSent);
  server.stop();
}

TEST_F(NetFaults, QueueFullAnswersOverload) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.admission.depth = 1;
  opts.admission.client_quota = 64;
  net::NetServer server(*engine, opts);
  server.start();
  EngineParker parker(*engine, target_);

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 5;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }
  ASSERT_TRUE(eventually([&] {
    const net::AdmissionStats a = server.admission_stats();
    return a.admitted + a.rejected_full == kSent;
  }));
  parker.release();
  std::size_t results = 0;
  std::size_t full = 0;
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    if (resp.kind == net::NetClient::Response::Kind::kResult) {
      ++results;
    } else {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kOverload);
      EXPECT_EQ(resp.overload.code, net::OverloadCode::kQueueFull);
      ++full;
    }
  }
  EXPECT_EQ(results + full, kSent);
  // depth=1 and a parked engine: only the first request fits.
  EXPECT_EQ(results, 1u);
  EXPECT_EQ(full, kSent - 1);
  const net::AdmissionStats stats = server.admission_stats();
  EXPECT_EQ(stats.rejected_full, full);
  EXPECT_EQ(stats.admitted, results);
  server.stop();
}

// ---------------------------------------------------------------------------
// Deadlines: a request still queued past its deadline hint is answered
// kDeadlineExceeded; one without a hint gets the server default and its
// result.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, ExpiredDeadlineAnswersDeadlineExceeded) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();
  EngineParker parker(*engine, target_);

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  const std::uint64_t hurried =
      client.send_factorize(target_, {}, false, /*deadline_hint_us=*/1);
  const std::uint64_t patient = client.send_factorize(target_);
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= 2; }));
  parker.release();

  const core::FactorizeResult expected =
      model_->factorizer().factorize(target_, {});
  for (int i = 0; i < 2; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    if (resp.request_id == hurried) {
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
      EXPECT_EQ(resp.error_code, net::ErrorCode::kDeadlineExceeded);
    } else {
      ASSERT_EQ(resp.request_id, patient);
      ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult);
      EXPECT_TRUE(resp.result == expected);
    }
  }
  server.stop();
  EXPECT_EQ(engine->metrics().expired, 1u);
}

// ---------------------------------------------------------------------------
// Garbage on the wire: one best-effort kError frame, then disconnect —
// never a crash, never a hang, and the parser never resynchronizes into
// a half-broken stream.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, GarbageBytesAnswerErrorThenDisconnect) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient vandal("127.0.0.1", server.port());
  vandal.set_recv_timeout(5s);
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE,
                                  0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD,
                                  0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE,
                                  0xAD, 0xBE, 0xEF};
  vandal.send_raw(garbage);

  const net::NetClient::Response resp = vandal.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kBadFrame);
  EXPECT_THROW((void)vandal.recv_response(), std::runtime_error);  // EOF
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_protocol >= 1; }));

  // Other connections are untouched.
  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, CorruptChecksumAnswersErrorThenDisconnect) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  const std::uint8_t payload[] = {1, 2, 3, 4};
  auto frame = net::encode_frame(net::Opcode::kPing, 0, 9, payload);
  frame[net::kHeaderSize] ^= 0x01;  // payload bit flip
  client.send_raw(frame);

  const net::NetClient::Response resp = client.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kBadFrame);
  EXPECT_THROW((void)client.recv_response(), std::runtime_error);
  server.stop();
}

TEST_F(NetFaults, UnknownOpcodeKeepsTheConnection) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  auto frame = net::encode_frame(net::Opcode::kPing, 0, 11, {});
  frame[4] = 0x0F;  // a request-range opcode the server does not speak
  client.send_raw(frame);

  const net::NetClient::Response resp = client.recv_response();
  ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kError);
  EXPECT_EQ(resp.error_code, net::ErrorCode::kUnknownOpcode);
  // Not fatal: the same connection still factorizes.
  const core::FactorizeResult r = client.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

TEST_F(NetFaults, DimensionMismatchAnswersTypedError) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(5s);
  try {
    (void)client.factorize(hdc::Hypervector({1, -1, 1, -1}));
    FAIL() << "dimension mismatch was accepted";
  } catch (const net::ServerError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kDimensionMismatch);
  }
  // The connection survives a rejected request.
  const core::FactorizeResult r = client.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

// ---------------------------------------------------------------------------
// Shutdown drains: every admitted request is answered before the listener
// goes away; nothing is silently dropped and nothing hangs.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, StopDrainsInFlightRequests) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();
  EngineParker parker(*engine, target_);

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  constexpr std::size_t kSent = 4;
  for (std::size_t i = 0; i < kSent; ++i) {
    (void)client.send_factorize(target_);
  }
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= kSent; }));

  std::thread stopper([&] { server.stop(); });
  parker.release();
  const core::FactorizeResult expected =
      model_->factorizer().factorize(target_, {});
  for (std::size_t i = 0; i < kSent; ++i) {
    const net::NetClient::Response resp = client.recv_response();
    ASSERT_EQ(resp.kind, net::NetClient::Response::Kind::kResult)
        << "in-flight request " << i << " was not drained";
    EXPECT_TRUE(resp.result == expected);
  }
  stopper.join();
  EXPECT_FALSE(server.running());
}

TEST_F(NetFaults, RequestsAfterDrainStartAreRejectedShuttingDown) {
  auto engine = fast_engine();
  net::NetServer server(*engine, {});
  server.start();
  EngineParker parker(*engine, target_);

  net::NetClient client("127.0.0.1", server.port());
  client.set_recv_timeout(10s);
  (void)client.send_factorize(target_);
  ASSERT_TRUE(eventually(
      [&] { return server.admission_stats().admitted >= 1; }));

  std::thread stopper([&] { server.stop(); });
  parker.release();
  // Responses during the drain are either the real result or a typed
  // kShuttingDown error for frames landing after the drain began — but
  // never silence.
  std::size_t seen = 0;
  try {
    while (seen < 1) {
      const net::NetClient::Response resp = client.recv_response();
      ASSERT_TRUE(resp.kind == net::NetClient::Response::Kind::kResult ||
                  (resp.kind == net::NetClient::Response::Kind::kError &&
                   resp.error_code == net::ErrorCode::kShuttingDown));
      ++seen;
    }
  } catch (const std::runtime_error&) {
    // EOF after the drain finished is also a clean outcome.
  }
  stopper.join();
  EXPECT_GE(seen, 1u);
}

// ---------------------------------------------------------------------------
// Poller parity: the poll(2) fallback sheds faults exactly like epoll.
// ---------------------------------------------------------------------------

TEST_F(NetFaults, PollFallbackShedsSlowLorisToo) {
  auto engine = fast_engine();
  net::ServerOptions opts;
  opts.prefer_epoll = false;
  opts.idle_timeout_ms = 300;
  net::NetServer server(*engine, opts);
  server.start();
  EXPECT_STREQ(server.poller_name(), "poll");

  net::NetClient loris("127.0.0.1", server.port());
  const std::uint8_t partial[] = {0x46, 0x48};
  loris.send_raw(partial);
  EXPECT_TRUE(eventually(
      [&] { return server.counters().disconnects_idle >= 1; }));

  net::NetClient healthy("127.0.0.1", server.port());
  const core::FactorizeResult r = healthy.factorize(target_);
  EXPECT_TRUE(r == model_->factorizer().factorize(target_, {}));
  server.stop();
}

}  // namespace
