// Admission control for the network front end: the two bounds NetServer
// applies, on its event-loop thread, before a factorize request reaches the
// engine.
//
// Both bounds reject EXPLICITLY instead of queueing unboundedly (the reject
// becomes a kOverload frame on the wire):
//
//  * depth      — requests admitted server-wide and not yet answered.
//    At the bound => kQueueFull.
//  * per-client — requests one connection has admitted and not yet had
//    answered. At the bound => kQuotaExceeded, so one pipelining-happy
//    client cannot starve the rest.
//
// "Answered" means the server handed the response bytes to the client's
// write buffer (or dropped them for a vanished client) — not that the
// engine finished — so the quota also bounds response-buffer growth per
// client. Ordering among admitted requests is the engine's: its queue pops
// oldest deadline first (service/deadline_heap.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace factorhd::net {

struct AdmissionConfig {
  std::size_t depth = 256;        ///< max admitted-and-unanswered requests
  std::size_t client_quota = 32;  ///< the same, per connection
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_quota = 0;
};

}  // namespace factorhd::net
