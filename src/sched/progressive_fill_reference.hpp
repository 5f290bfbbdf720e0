// Reference max-min water-filling: the two per-flow loops that
// BaseScheduler::progressive_fill ran before it walked flat arrays, kept
// verbatim apart from local per-link counters. Each round re-reads every
// unfrozen flow's path through its net::Flow view twice (debit, then the
// freeze test) and writes the flow's rate every round. Lives in
// taps_oracle: tests/sched/progressive_fill_prop_test.cpp pins the
// production routine to it bitwise (rates, residuals, dirty set).
#pragma once

#include <vector>

#include "net/network.hpp"

namespace taps::sched {

/// Max-min fair allocation of `residual` link capacity (indexed by LinkId,
/// consumed in place) among `flows`, *added* to each flow's current rate.
/// Finished flows and flows with at most kByteEpsilon bytes left take no
/// share. Without `weights` every unfrozen flow grows by the same amount
/// per round; with `weights` (indexed by FlowId) each grows in proportion
/// to its weight, and flows of weight <= 0 take no share.
void progressive_fill_reference(net::Network& net, const std::vector<net::FlowId>& flows,
                                std::vector<double>& residual,
                                const std::vector<double>* weights = nullptr);

}  // namespace taps::sched
