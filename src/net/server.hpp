// NetServer: the non-blocking TCP front end over a
// service::FactorizationEngine — what turns the library into a servable
// system (ROADMAP item 3).
//
//                    event-loop thread (epoll, poll fallback)
//   accept ──► per-connection FrameParser ──► ping/stats answered inline
//                       │ factorize frame            ▲
//                       ▼                            │ write buffers,
//              admission: per-connection quota and   │ timeouts,
//              server-wide depth (in-flight counts;  │ outbox drain
//              rejects => overload frames)           │
//                       │                            │
//                       ▼                            │
//              engine.submit(target, opts, deadline, on_done)
//                 cache hit: on_done runs inline ────┤ straight into the
//                       │                            │ write buffer
//                       ▼                            │
//              engine dispatcher: compute, then on_done serializes
//              kPartial*/kResult frames and pushes them to the outbox,
//              waking the loop when the outbox was empty
//
// Concurrency shape: exactly one event-loop thread owns every socket and
// all connection state — no locks on the read/write paths — and it is the
// server's only thread. Work crosses threads in two places: the engine's
// queue (loop → engine dispatcher) and the outbox (engine completion →
// loop, woken via a self-pipe). Both admission bounds count requests
// admitted and not yet answered; they are charged and released on the
// loop thread, release happening when the response bytes reach the
// client's write buffer (or are dropped because the client vanished), so
// every admitted request releases exactly once.
//
// Robustness: bounded read buffers (FrameParser's max_payload), bounded
// write buffers (slow readers are disconnected at the limit), and an idle
// timeout keyed on protocol progress — a complete frame parsed or response
// bytes flushed — so a slow-loris client trickling a partial frame times
// out like a silent one. The fault suite (tests/test_net_faults.cpp)
// exercises all three over real sockets under TSan.
//
// Latency attribution: the server owns a service::Metrics set recording
// Stage::kNetRead / kAdmission / kNetWrite plus end-to-end completions, so
// network time is attributed exactly like the engine's pipeline stages.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/admission.hpp"
#include "net/protocol.hpp"
#include "service/engine.hpp"
#include "service/metrics.hpp"

namespace factorhd::net {

/// Readiness events a Poller reports for one fd.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Minimal readiness-notification interface: epoll on Linux, poll(2) as
/// the portable fallback. Both implementations are always compiled (and
/// unit-tested) where available; selection is ServerOptions::poller /
/// FACTORHD_NET_POLLER.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual void add(int fd, bool want_write) = 0;
  virtual void update(int fd, bool want_write) = 0;
  virtual void remove(int fd) = 0;
  /// Blocks up to `timeout_ms` and appends ready fds to `out`.
  virtual void wait(int timeout_ms, std::vector<PollEvent>& out) = 0;
  /// \return "epoll" or "poll" (diagnostics).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// \param prefer_epoll False forces the poll(2) implementation.
[[nodiscard]] std::unique_ptr<Poller> make_poller(bool prefer_epoll);

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back from NetServer::port()). Env: FACTORHD_NET_PORT.
  std::uint16_t port = 0;
  /// Admission bounds. Env: FACTORHD_NET_ADMISSION_DEPTH /
  /// FACTORHD_NET_CLIENT_QUOTA.
  AdmissionConfig admission{};
  /// Disconnect a connection making no protocol progress (no complete
  /// frame parsed, no response bytes flushed) for this long.
  /// Env: FACTORHD_NET_IDLE_TIMEOUT_MS.
  std::size_t idle_timeout_ms = 30000;
  /// Per-frame payload bound (read side). Env: FACTORHD_NET_MAX_FRAME.
  std::size_t max_frame = kDefaultMaxPayload;
  /// Per-connection write-buffer bound; a client not draining its
  /// responses is disconnected here. Env: FACTORHD_NET_WRITE_BUF.
  std::size_t write_buffer_limit = 8u << 20;
  /// Deadline applied when a request carries no hint (us): the engine
  /// answers kDeadlineExceeded for a request still queued past it.
  std::uint32_t default_deadline_us = 1'000'000;
  /// False selects poll(2) even where epoll is available.
  /// Env: FACTORHD_NET_POLLER (epoll | poll).
  bool prefer_epoll = true;
};

/// ServerOptions with every FACTORHD_NET_* knob resolved from the
/// environment (see util::env_knobs() and docs/TUNING.md).
[[nodiscard]] ServerOptions server_options_from_env();

/// Server-side counters (beyond the Metrics stage histograms).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t disconnects_idle = 0;      ///< idle/slow-loris timeout
  std::uint64_t disconnects_protocol = 0;  ///< framing violation
  std::uint64_t disconnects_overflow = 0;  ///< write-buffer limit
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t responses_dropped = 0;  ///< computed for a vanished client
};

class NetServer {
 public:
  /// \param engine Engine to serve; must outlive the server (the serve tool
  ///   stops the server before swapping engines).
  NetServer(service::FactorizationEngine& engine, ServerOptions opts);
  /// Stops (drains) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event-loop thread.
  /// \throws std::runtime_error On socket/bind/listen failure.
  void start();

  /// Graceful drain: stop accepting, reject new factorize frames with
  /// kShuttingDown, wait until the engine has answered every admitted
  /// request, flush write buffers, then join the loop thread. Idempotent.
  void stop();

  /// \return The bound TCP port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// \return "epoll" or "poll" (after start()).
  [[nodiscard]] const char* poller_name() const noexcept;

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] AdmissionStats admission_stats() const;
  /// Net-side stage latencies (kNetRead/kAdmission/kNetWrite) + completions;
  /// queue_depth is the admitted-and-unanswered count.
  [[nodiscard]] service::MetricsSnapshot net_metrics() const {
    return net_metrics_.snapshot(in_flight_.load(std::memory_order_relaxed));
  }
  /// Human-readable net section appended to the serve tool's `stats`.
  [[nodiscard]] std::string stats_text() const;
  [[nodiscard]] const ServerOptions& options() const noexcept { return opts_; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameParser parser;
    std::vector<std::uint8_t> write_buf;
    std::size_t write_off = 0;
    std::chrono::steady_clock::time_point last_progress;
    bool close_after_flush = false;
    bool want_write = false;  ///< current poller registration
    std::size_t in_flight = 0;  ///< admitted, not yet answered (the quota)

    explicit Connection(std::size_t max_frame) : parser(max_frame) {}
  };

  /// The answer to one admitted request, crossing from the engine's
  /// completion back to the loop thread.
  struct Outgoing {
    std::uint64_t client_id = 0;
    std::vector<std::uint8_t> bytes;
    /// Engine completion time — start of the kNetWrite stage.
    std::chrono::steady_clock::time_point ready{};
    /// Frame arrival time — end-to-end completion is measured from here.
    std::chrono::steady_clock::time_point arrival{};
  };

  void event_loop();

  void accept_ready();
  void handle_readable(Connection& conn);
  void handle_frame(Connection& conn, Frame&& frame,
                    std::chrono::steady_clock::time_point read_start);
  /// Admits one decoded factorize request and hands it to the engine.
  void submit_factorize(Connection& conn, FactorizeRequest&& request,
                        std::uint64_t request_id, bool stream,
                        std::chrono::steady_clock::time_point arrival);
  void flush_writes(Connection& conn);
  void append_response(Connection& conn, std::span<const std::uint8_t> bytes);
  /// Loop thread: releases the request's admission slots and buffers (or
  /// drops) its answer.
  void deliver(Outgoing&& out);
  void drain_outbox();
  void check_timeouts();
  void close_connection(std::uint64_t id, std::uint64_t* counter);
  void update_poll_interest(Connection& conn);
  void wake_loop();
  /// Engine thread: queues an answer for the loop.
  void push_outgoing(Outgoing&& out);

  service::FactorizationEngine& engine_;
  ServerOptions opts_;
  service::Metrics net_metrics_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::unique_ptr<Poller> poller_;

  // Loop-thread-only state (no lock).
  std::unordered_map<std::uint64_t, Connection> conns_;
  std::unordered_map<int, std::uint64_t> fd_to_id_;
  std::uint64_t next_client_id_ = 1;
  std::vector<Outgoing> outbox_scratch_;  ///< drain_outbox's swap partner
  /// Set by the loop thread before it submits anything: a completion
  /// running on this thread is a cache hit answered inline.
  std::thread::id loop_id_;

  /// Admitted-and-unanswered requests, server-wide (the depth bound).
  /// Written only by the loop thread; atomic so stats readers may look.
  std::atomic<std::size_t> in_flight_{0};

  // Cross-thread state.
  mutable std::mutex outbox_mu_;
  std::vector<Outgoing> outbox_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;
  AdmissionStats admission_stats_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_exit_{false};
  bool running_ = false;
  bool stopped_ = false;

  std::thread loop_thread_;
};

}  // namespace factorhd::net
