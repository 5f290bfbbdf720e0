// The reference fluid event loop: FluidSimulator's semantics written the
// obvious way, rescanning every active flow on every event. Compiled into
// taps_oracle to prove the indexed loop bit-identical
// (tests/sim/sim_engine_equiv_prop_test.cpp, bench_sim_scale).
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace taps::sim {

// taps-threading: single-domain -- event loop state owned by one simulation domain
class ReferenceSimulator {
 public:
  ReferenceSimulator(net::Network& net, Scheduler& scheduler)
      : net_(&net), scheduler_(&scheduler) {}

  void set_observer(TransmitObserver* observer) { observer_ = observer; }

  /// Run to quiescence: all tasks arrived and no active flow remains.
  SimStats run();

 private:
  /// Advance all active flows from now_ to `t` at their current rates.
  void advance_to(double t);
  /// Mark finished flows (completed / missed) and notify the scheduler.
  void settle(double now);

  net::Network* net_;
  Scheduler* scheduler_;
  TransmitObserver* observer_ = nullptr;
  double now_ = 0.0;
  SimStats stats_;
  std::vector<net::FlowId> active_;  // enlist order; finished flows pruned lazily
};

}  // namespace taps::sim
