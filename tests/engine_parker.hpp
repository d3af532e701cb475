// EngineParker: holds a FactorizationEngine's dispatcher busy until the
// test says go.
//
// It submits one callback-form request whose on_done blocks on a latch.
// Dispatchers run completions, so the dispatcher that computed the parking
// request stays inside on_done, and everything submitted afterwards stays
// queued, until release() (or the destructor). The constructor returns only
// once the dispatcher is inside on_done, so nothing submitted later can
// share the parking request's flight. Use it on an engine with one
// dispatcher and no result cache, so the parking request is computed.
#pragma once

#include <chrono>
#include <latch>
#include <memory>

#include "service/service.hpp"

namespace factorhd::testing_support {

class EngineParker {
 public:
  EngineParker(service::FactorizationEngine& engine, hdc::Hypervector target)
      : state_(std::make_shared<State>()) {
    engine.submit(std::move(target), {},
                  std::chrono::steady_clock::time_point::max(),
                  [state = state_](const core::FactorizeResult*,
                                   std::exception_ptr) {
                    state->entered.count_down();
                    state->gate.wait();
                  });
    state_->entered.wait();
  }
  ~EngineParker() { release(); }

  EngineParker(const EngineParker&) = delete;
  EngineParker& operator=(const EngineParker&) = delete;

  /// Lets the parked dispatcher go on. Idempotent.
  void release() {
    if (released_) return;
    released_ = true;
    state_->gate.count_down();
  }

 private:
  struct State {
    std::latch entered{1};
    std::latch gate{1};
  };
  std::shared_ptr<State> state_;
  bool released_ = false;
};

}  // namespace factorhd::testing_support
