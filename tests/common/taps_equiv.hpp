// The equivalence check shared by the TAPS property suites: one workload
// run through core::TapsScheduler (journaled sessions, prefix adoption, pod
// precheck, event-driven rates) and through core::FullReplanOracle (every
// replan from scratch) must end in BITWISE the same state — task and flow
// states, remaining bytes, completion times, committed paths and slices,
// per-link occupancy and the decision counters.
#pragma once

#include <optional>
#include <sstream>
#include <string>

#include "core/full_replan_oracle.hpp"
#include "core/taps_scheduler.hpp"
#include "net/network.hpp"

namespace taps::test {

/// nullopt when `sched` on `net` matches `oracle` on `oracle_net` (two
/// registrations of the same workload), else a description of the first
/// difference.
inline std::optional<std::string> compare_with_oracle(const net::Network& net,
                                                      const core::TapsScheduler& sched,
                                                      const net::Network& oracle_net,
                                                      const core::FullReplanOracle& oracle) {
  std::ostringstream os;
  const auto fail = [&os]() -> std::optional<std::string> { return os.str(); };

  for (std::size_t i = 0; i < net.tasks().size(); ++i) {
    if (net.tasks()[i].state != oracle_net.tasks()[i].state) {
      os << "task " << i << " state: " << net::to_string(net.tasks()[i].state) << " vs oracle "
         << net::to_string(oracle_net.tasks()[i].state);
      return fail();
    }
  }
  for (std::size_t i = 0; i < net.flows().size(); ++i) {
    const net::Flow& a = net.flows()[i];
    const net::Flow& b = oracle_net.flows()[i];
    if (a.state != b.state) {
      os << "flow " << i << " state: " << net::to_string(a.state) << " vs oracle "
         << net::to_string(b.state);
      return fail();
    }
    if (a.remaining != b.remaining) {  // bitwise on purpose
      os << "flow " << i << " remaining: " << a.remaining << " vs oracle " << b.remaining;
      return fail();
    }
    if (a.completion_time != b.completion_time) {
      os << "flow " << i << " completion: " << a.completion_time << " vs oracle "
         << b.completion_time;
      return fail();
    }
    if (a.path.links != b.path.links) {
      os << "flow " << i << " committed path differs";
      return fail();
    }
    if (sched.slices(a.id()) != oracle.slices(b.id())) {
      os << "flow " << i << " slices: " << sched.slices(a.id()) << " vs oracle "
         << oracle.slices(b.id());
      return fail();
    }
  }
  const std::size_t links = net.graph().link_count();
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(links); ++l) {
    if (sched.occupancy().link(l) != oracle.occupancy().link(l)) {
      os << "occupancy on link " << l << ": " << sched.occupancy().link(l) << " vs oracle "
         << oracle.occupancy().link(l);
      return fail();
    }
  }
  // Effort counters (replans, flows_planned, reuse, sorts) legitimately
  // differ — avoiding planning work is the point of the sessions.
  const core::TapsCounters& ca = sched.counters();
  const core::TapsCounters& cb = oracle.counters();
  if (ca.tasks_accepted != cb.tasks_accepted || ca.tasks_rejected != cb.tasks_rejected ||
      ca.tasks_preempted != cb.tasks_preempted || ca.plan_commits != cb.plan_commits ||
      ca.slice_grants != cb.slice_grants || ca.replan_reverts != cb.replan_reverts) {
    os << "decision counters differ (scheduler/oracle): accepted " << ca.tasks_accepted << "/"
       << cb.tasks_accepted << " rejected " << ca.tasks_rejected << "/" << cb.tasks_rejected
       << " preempted " << ca.tasks_preempted << "/" << cb.tasks_preempted << " commits "
       << ca.plan_commits << "/" << cb.plan_commits << " grants " << ca.slice_grants << "/"
       << cb.slice_grants << " reverts " << ca.replan_reverts << "/" << cb.replan_reverts;
    return fail();
  }
  return std::nullopt;
}

}  // namespace taps::test
