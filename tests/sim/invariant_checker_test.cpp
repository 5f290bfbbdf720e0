// Unit and negative tests of the invariant oracle itself: each invariant is
// violated directly (by feeding the checker hand-crafted observations or by
// corrupting network state) and must throw InvariantViolation with a useful
// trace. Without these, a silently broken oracle would make every
// oracle-backed suite prove nothing.
#include "sim/invariant_checker.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/fixtures.hpp"
#include "core/taps_scheduler.hpp"

namespace taps::sim {
namespace {

struct Rig {
  test::Dumbbell d = test::make_dumbbell(2);
  net::Network net{*d.topology};

  Rig() {
    // Two cross flows with distinct endpoints: they share exactly the
    // bottleneck link. Unit capacity; sizes in transfer-time units.
    test::add_task(net, 0.0, 8.0,
                   {test::flow(d.left[0], d.right[0], 2.0),
                    test::flow(d.left[1], d.right[1], 2.0)});
    for (auto& f : net.flows()) {
      f.path = d.topology->paths(f.spec.src, f.spec.dst, 1).front();
      f.state = net::FlowState::kActive;
    }
  }

  net::Flow& flow(int i) { return net.flow(i); }
};

TEST(InvariantChecker, CleanSequenceAccepted) {
  Rig rig;
  InvariantConfig cfg;
  cfg.exclusive_links = true;
  InvariantChecker checker(rig.net, cfg);
  checker.on_event(0.0);
  checker.on_transmit(rig.flow(0), 0.0, 2.0, 2.0);
  checker.on_event(2.0);
  checker.on_transmit(rig.flow(1), 2.0, 4.0, 2.0);
  checker.on_event(4.0);
  EXPECT_EQ(checker.segments(), 2u);
  EXPECT_EQ(checker.events(), 3u);
}

TEST(InvariantChecker, ThrowsOnNonMonotoneEventTime) {
  Rig rig;
  InvariantChecker checker(rig.net);
  checker.on_event(1.0);
  EXPECT_THROW(checker.on_event(0.5), InvariantViolation);
}

TEST(InvariantChecker, ThrowsOnLinkOversubscription) {
  Rig rig;
  InvariantChecker checker(rig.net);  // capacity check applies to ALL schedulers
  // Both flows at full rate on the shared unit-capacity bottleneck: the
  // window [0,1) sums to rate 2.
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);
  checker.on_transmit(rig.flow(1), 0.0, 1.0, 1.0);
  EXPECT_THROW(checker.on_event(1.0), InvariantViolation);  // window closes here
}

TEST(InvariantChecker, ThrowsOnExclusiveOverlap) {
  Rig rig;
  InvariantConfig cfg;
  cfg.exclusive_links = true;
  InvariantChecker checker(rig.net, cfg);
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);
  // Same window, same bottleneck link: caught immediately via
  // OccupancyMap::collides, before any capacity accounting runs.
  EXPECT_THROW(checker.on_transmit(rig.flow(1), 0.0, 1.0, 1.0), InvariantViolation);
}

TEST(InvariantChecker, AllowsTouchingSegmentsUnderExclusiveMode) {
  Rig rig;
  InvariantConfig cfg;
  cfg.exclusive_links = true;
  InvariantChecker checker(rig.net, cfg);
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);
  // Back-to-back slices legitimately share the endpoint.
  EXPECT_NO_THROW(checker.on_transmit(rig.flow(1), 1.0, 2.0, 1.0));
}

TEST(InvariantChecker, ThrowsOnTransmissionPastDeadline) {
  Rig rig;
  InvariantChecker checker(rig.net);
  EXPECT_THROW(checker.on_transmit(rig.flow(0), 7.5, 8.5, 1.0), InvariantViolation);
}

TEST(InvariantChecker, ThrowsOnActiveFlowPastDeadline) {
  Rig rig;
  InvariantChecker checker(rig.net);
  // Both flows still kActive while the clock moved past their deadline: the
  // simulator must have settled them at t=8.
  EXPECT_THROW(checker.on_event(9.0), InvariantViolation);
}

TEST(InvariantChecker, ThrowsOnByteAccountingMismatch) {
  Rig rig;
  InvariantChecker checker(rig.net);
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);  // observed: 1 of 2 bytes
  net::Flow& f = rig.flow(0);
  f.state = net::FlowState::kCompleted;  // claims completion...
  f.bytes_sent = f.spec.size;            // ...and full accounting
  f.remaining = 0.0;
  f.completion_time = 1.0;
  EXPECT_THROW(checker.on_flow_finished(f, 1.0), InvariantViolation);
}

TEST(InvariantChecker, ThrowsOnNonTerminalFlowAtQuiescence) {
  Rig rig;
  InvariantChecker checker(rig.net);
  EXPECT_THROW(checker.on_run_complete(rig.net, 4.0), InvariantViolation);
}

TEST(InvariantChecker, ViolationCarriesEventTrace) {
  Rig rig;
  InvariantConfig cfg;
  cfg.exclusive_links = true;
  InvariantChecker checker(rig.net, cfg);
  checker.on_event(0.0);
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);
  try {
    checker.on_transmit(rig.flow(1), 0.0, 1.0, 1.0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant violation"), std::string::npos) << what;
    EXPECT_NE(what.find("exclusive-use violated"), std::string::npos) << what;
    // The trace must show the events leading up to the violation.
    EXPECT_NE(what.find("event t=0"), std::string::npos) << what;
    EXPECT_NE(what.find("xmit"), std::string::npos) << what;
  }
}

// ---- one test per failure branch, each requiring its message ----------

/// Runs `body`, which must throw an InvariantViolation whose message
/// contains `message`.
template <typename Body>
void expect_violation(Body&& body, const std::string& message) {
  try {
    body();
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    return;
  }
  ADD_FAILURE() << "expected an InvariantViolation containing \"" << message << "\"";
}

/// Marks flow `i` of the rig completed at `t` with `bytes` accounted.
void complete(Rig& rig, int i, double t, double bytes) {
  net::Flow& f = rig.flow(i);
  f.state = net::FlowState::kCompleted;
  f.bytes_sent = bytes;
  f.remaining = 0.0;
  f.completion_time = t;
}

TEST(InvariantChecker, ThrowsOnSegmentEndingBeforeItStarts) {
  Rig rig;
  InvariantChecker checker(rig.net);
  expect_violation([&] { checker.on_transmit(rig.flow(0), 2.0, 1.0, 1.0); },
                   "transmit segment ends before it starts");
}

TEST(InvariantChecker, ThrowsOnWindowStartingBeforePreviousEnded) {
  Rig rig;
  InvariantChecker checker(rig.net);
  checker.on_transmit(rig.flow(0), 0.0, 2.0, 1.0);
  // A different window closes [0, 2) and must not start inside it.
  expect_violation([&] { checker.on_transmit(rig.flow(1), 1.0, 3.0, 1.0); },
                   "starts before the previous window ended");
}

TEST(InvariantChecker, ThrowsOnBytesOverEmptyInterval) {
  Rig rig;
  InvariantChecker checker(rig.net);
  expect_violation([&] { checker.on_transmit(rig.flow(0), 1.0, 1.0, 1.0); },
                   "bytes transmitted over an empty interval");
}

TEST(InvariantChecker, ThrowsOnCompletedFlowShortOfItsSize) {
  Rig rig;
  InvariantChecker checker(rig.net);
  checker.on_transmit(rig.flow(0), 0.0, 1.0, 1.0);
  // Accounting agrees with the segments (1 byte), but the flow has 2.
  complete(rig, 0, 1.0, 1.0);
  expect_violation([&] { checker.on_flow_finished(rig.flow(0), 1.0); },
                   "completed but transmitted 1 of 2 bytes");
}

TEST(InvariantChecker, ThrowsOnCompletedFlowPastDeadline) {
  Rig rig;
  InvariantChecker checker(rig.net);
  checker.on_transmit(rig.flow(0), 0.0, 2.0, 2.0);
  complete(rig, 0, 9.0, 2.0);  // every byte sent, completion after t=8
  expect_violation([&] { checker.on_flow_finished(rig.flow(0), 9.0); },
                   "completed at 9, past its deadline");
}

TEST(InvariantChecker, ThrowsOnTaskOpenAtQuiescence) {
  Rig rig;
  complete(rig, 0, 2.0, 2.0);
  complete(rig, 1, 4.0, 2.0);
  rig.net.task(0).state = net::TaskState::kAdmitted;  // never closed
  InvariantChecker checker(rig.net);
  expect_violation([&] { checker.on_run_complete(rig.net, 4.0); },
                   "task 0 still open at quiescence");
}

TEST(InvariantChecker, ThrowsOnCompletedTaskWithShortFlowCount) {
  Rig rig;
  complete(rig, 0, 2.0, 2.0);
  complete(rig, 1, 4.0, 2.0);
  net::Task& t = rig.net.task(0);
  t.state = net::TaskState::kCompleted;
  t.completed_flows = 1;
  InvariantChecker checker(rig.net);
  expect_violation([&] { checker.on_run_complete(rig.net, 4.0); },
                   "task 0 marked completed with 1/2 flows done");
}

TEST(InvariantChecker, ThrowsOnCompletedTaskWithUnfinishedOrLateFlow) {
  for (const bool late : {false, true}) {
    Rig rig;
    complete(rig, 0, 2.0, 2.0);
    if (late) {
      complete(rig, 1, 9.0, 2.0);
    } else {
      rig.flow(1).state = net::FlowState::kMissed;
    }
    net::Task& t = rig.net.task(0);
    t.state = net::TaskState::kCompleted;
    t.completed_flows = 2;
    InvariantChecker checker(rig.net);
    expect_violation([&] { checker.on_run_complete(rig.net, 9.0); },
                     "completed task 0 has unfinished or late flow 1");
  }
}

// End-to-end positive check: a full TAPS run on the dumbbell passes the
// oracle in its strictest mode and the task-level final state is verified.
TEST(InvariantChecker, EndToEndTapsRunPassesStrictOracle) {
  test::Dumbbell d = test::make_dumbbell(4);
  net::Network net(*d.topology);
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[0], d.right[0], 3.0)});
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[1], d.right[1], 3.0)});
  test::add_task(net, 0.5, 12.0, {test::flow(d.left[2], d.right[2], 3.0)});

  core::TapsScheduler sched;
  InvariantConfig cfg;
  cfg.exclusive_links = true;
  InvariantChecker oracle(net, cfg);
  FluidSimulator sim(net, sched);
  sim.set_observer(&oracle);
  EXPECT_NO_THROW((void)sim.run());
  EXPECT_EQ(test::completed_tasks(net), 3u);
  EXPECT_GT(oracle.segments(), 0u);
  EXPECT_EQ(oracle.finished_flows(), 3u);
}

}  // namespace
}  // namespace taps::sim
