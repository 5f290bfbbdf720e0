// Unit tests for the incremental-replanning machinery: the occupancy undo
// journal, cross-arrival/within-arrival reuse counters, the missed-deadline
// no-waste invalidation, and the periodic occupancy/slice trim. The
// bit-identity of incremental vs full replanning itself is pinned by
// taps_incremental_prop_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "common/fixtures.hpp"
#include "core/occupancy.hpp"
#include "core/taps_scheduler.hpp"
#include "util/rng.hpp"

namespace taps::core {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

topo::Path path_of(std::initializer_list<topo::LinkId> links) {
  topo::Path p;
  p.links = links;
  return p;
}

util::IntervalSet set_of(std::initializer_list<util::Interval> ivs) {
  util::IntervalSet s;
  for (const auto& iv : ivs) s.insert(iv);
  return s;
}

TEST(OccupancyJournal, RollbackRestoresOccupyBitwise) {
  OccupancyMap occ(3);
  OccupancyJournal journal;
  occ.occupy(path_of({0, 1}), set_of({{1.0, 2.0}, {4.0, 5.0}}));
  const std::vector<util::IntervalSet> before{occ.link(0), occ.link(1), occ.link(2)};

  const OccupancyCheckpoint cp = OccupancyMap::checkpoint(journal);
  occ.occupy(path_of({1, 2}), set_of({{2.0, 3.0}}), &journal);
  occ.occupy(path_of({0}), set_of({{0.0, 1.0}, {2.0, 4.0}}), &journal);  // merges neighbors
  EXPECT_EQ(occ.link(0), set_of({{0.0, 5.0}}));

  occ.rollback(journal, cp);
  EXPECT_TRUE(journal.empty());
  for (topo::LinkId l = 0; l < 3; ++l) {
    EXPECT_EQ(occ.link(l), before[static_cast<std::size_t>(l)]) << "link " << l;
  }
}

TEST(OccupancyJournal, RollbackRestoresVacateBitwise) {
  OccupancyMap occ(2);
  OccupancyJournal journal;
  occ.occupy(path_of({0, 1}), set_of({{0.0, 1.0}, {2.0, 3.0}, {5.0, 6.0}}));
  const std::vector<util::IntervalSet> before{occ.link(0), occ.link(1)};

  const OccupancyCheckpoint cp = OccupancyMap::checkpoint(journal);
  occ.vacate(path_of({0, 1}), set_of({{2.0, 3.0}}), journal);
  EXPECT_EQ(occ.link(0), set_of({{0.0, 1.0}, {5.0, 6.0}}));

  occ.rollback(journal, cp);
  for (topo::LinkId l = 0; l < 2; ++l) {
    EXPECT_EQ(occ.link(l), before[static_cast<std::size_t>(l)]) << "link " << l;
  }
}

TEST(OccupancyJournal, NestedCheckpointsUnwindInLifoOrder) {
  OccupancyMap occ(1);
  OccupancyJournal journal;
  occ.occupy(path_of({0}), set_of({{0.0, 10.0}}));
  const util::IntervalSet full = occ.link(0);

  const OccupancyCheckpoint cp0 = OccupancyMap::checkpoint(journal);
  occ.vacate(path_of({0}), set_of({{2.0, 3.0}}), journal);
  const util::IntervalSet holed = occ.link(0);
  const OccupancyCheckpoint cp1 = OccupancyMap::checkpoint(journal);
  occ.vacate(path_of({0}), set_of({{5.0, 7.0}}), journal);
  occ.occupy(path_of({0}), set_of({{5.5, 6.0}}), &journal);

  occ.rollback(journal, cp1);
  EXPECT_EQ(occ.link(0), holed);
  occ.rollback(journal, cp0);
  EXPECT_EQ(occ.link(0), full);
  EXPECT_TRUE(journal.empty());
}

TEST(OccupancyJournal, RandomizedRoundTrip) {
  // Many random logged mutations against a mirror kept by plain copies: a
  // full rollback must restore the starting state bitwise every time.
  util::Rng rng(20260807);
  for (int round = 0; round < 50; ++round) {
    OccupancyMap occ(4);
    OccupancyJournal journal;
    // Random non-journaled base state (skip draws that would collide:
    // occupy's precondition is a conflict-free placement).
    for (int k = 0; k < 8; ++k) {
      const auto link = static_cast<topo::LinkId>(rng.uniform_int(0, 3));
      const double lo = rng.uniform_real(0.0, 40.0);
      const double hi = lo + rng.uniform_real(0.1, 3.0);
      if (!occ.link(link).intersects(lo, hi)) {
        occ.occupy(path_of({link}), set_of({{lo, hi}}));
      }
    }
    std::vector<util::IntervalSet> before;
    for (topo::LinkId l = 0; l < 4; ++l) before.push_back(occ.link(l));

    for (int k = 0; k < 30; ++k) {
      const auto link = static_cast<topo::LinkId>(rng.uniform_int(0, 3));
      const double lo = rng.uniform_real(0.0, 40.0);
      const double hi = lo + rng.uniform_real(0.1, 5.0);
      if (rng.bernoulli(0.5)) {
        occ.vacate(path_of({link}), set_of({{lo, hi}}), journal);
      } else if (!occ.link(link).intersects(lo, hi)) {
        occ.occupy(path_of({link}), set_of({{lo, hi}}), &journal);
      }
    }
    occ.rollback(journal, OccupancyCheckpoint{});
    for (topo::LinkId l = 0; l < 4; ++l) {
      ASSERT_EQ(occ.link(l), before[static_cast<std::size_t>(l)])
          << "round " << round << " link " << l;
      ASSERT_TRUE(occ.link(l).check_invariants());
    }
  }
}

TEST(TapsIncremental, CascadeReusesCommittedPrefix) {
  // Same-instant arrival cascade: nothing transmits between arrivals, so
  // every arrival after the first should adopt the committed incumbents
  // wholesale instead of replanning them.
  auto d = make_dumbbell(8);
  net::Network net(*d.topology);
  for (int i = 0; i < 8; ++i) {
    add_task(net, 0.0, 1.0 + i, {flow(d.left[static_cast<std::size_t>(i)],
                                      d.right[static_cast<std::size_t>(i)], 0.5)});
  }
  TapsScheduler sched;
  (void)test::run(net, sched);

  EXPECT_EQ(test::completed_tasks(net), 8u);
  const TapsCounters& c = sched.counters();
  EXPECT_GT(c.cross_arrival_reuse_flows, 0u);
  // With deadlines increasing, each newcomer sorts last: arrival k adopts
  // all k incumbents, so total planning work stays linear — far below the
  // quadratic sum a full replan per arrival would do.
  EXPECT_EQ(c.cross_arrival_reuse_flows, 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_EQ(c.flows_planned, 8u);
}

TEST(TapsIncremental, CheckpointReuseOnRejectedNewcomer) {
  // A newcomer that gets rejected triggers the compacting replan; it should
  // resume from the trial's incumbent prefix, not replan it.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 3.0)});
  add_task(net, 0.0, 4.0, {flow(d.left[1], d.right[1], 3.0)});  // cannot fit
  TapsScheduler sched;
  (void)test::run(net, sched);

  EXPECT_EQ(sched.counters().tasks_accepted, 1u);
  EXPECT_EQ(sched.counters().tasks_rejected, 1u);
  // The incumbent precedes the loser in EDF+SJF order (same deadline,
  // remaining 3.0 vs 3.0, lower flow id), so the compacting replan keeps it
  // from the trial checkpoint.
  EXPECT_GT(sched.counters().checkpoint_reuse_flows, 0u);
}

TEST(TapsIncremental, MissedDeadlineStopsSiblingsAndInvalidatesReuse) {
  // Regression for the no-waste rule: when an admitted flow is reported
  // missed, every unfinished sibling must be rejected, its rate zeroed, its
  // committed occupancy vacated and its slices cleared — and the scheduler
  // must keep working (the next session adopts nothing and re-establishes
  // the cross-arrival validity tokens).
  auto d = make_dumbbell(6);
  net::Network net(*d.topology);
  const net::TaskId t0 =
      add_task(net, 0.0, 10.0,
               {flow(d.left[0], d.right[0], 2.0), flow(d.left[1], d.right[1], 3.0),
                flow(d.left[2], d.right[2], 4.0)});
  const net::TaskId t1 = add_task(net, 0.0, 40.0, {flow(d.left[3], d.right[3], 1.0)});
  TapsScheduler sched;
  sched.bind(net);
  sched.on_task_arrival(t0, 0.0);
  sched.on_task_arrival(t1, 0.0);
  ASSERT_EQ(sched.counters().tasks_accepted, 2u);

  // Simulate the data plane reporting the first flow missed (as the packet
  // engine does when an exact-fit admission lands a pipeline late).
  const net::FlowId missed = net.tasks()[static_cast<std::size_t>(t0)].spec.flows[0];
  std::vector<util::IntervalSet> granted;
  for (const net::FlowId fid : net.tasks()[static_cast<std::size_t>(t0)].spec.flows) {
    granted.push_back(sched.slices(fid));
    ASSERT_FALSE(granted.back().empty());
  }
  net.flow(missed).state = net::FlowState::kMissed;
  sched.on_flow_finished(missed, 5.0);

  const auto& t0_flows = net.tasks()[static_cast<std::size_t>(t0)].spec.flows;
  for (std::size_t k = 0; k < t0_flows.size(); ++k) {
    const net::FlowId sibling = t0_flows[k];
    if (sibling == missed) continue;
    const net::Flow& s = net.flow(sibling);
    EXPECT_EQ(s.state, net::FlowState::kRejected) << "sibling " << sibling;
    EXPECT_DOUBLE_EQ(s.rate, 0.0) << "sibling " << sibling;
    EXPECT_TRUE(sched.slices(sibling).empty()) << "sibling " << sibling;
    // Its committed occupancy left the map with its slices.
    for (const topo::LinkId l : s.path.links) {
      for (const util::Interval& iv : granted[k].intervals()) {
        EXPECT_FALSE(sched.occupancy().link(l).intersects(iv.lo, iv.hi))
            << "sibling " << sibling << " still occupies link " << l;
      }
    }
  }
  // The unrelated task is untouched, occupancy included.
  const net::FlowId other = net.tasks()[static_cast<std::size_t>(t1)].spec.flows[0];
  EXPECT_EQ(net.flow(other).state, net::FlowState::kActive);
  for (const topo::LinkId l : net.flow(other).path.links) {
    for (const util::Interval& iv : sched.slices(other).intervals()) {
      EXPECT_TRUE(sched.occupancy().link(l).contains(iv.lo)) << "link " << l;
    }
  }

  // A later arrival still schedules correctly (its session adopts nothing).
  const net::TaskId t2 = add_task(net, 6.0, 40.0, {flow(d.left[4], d.right[4], 1.0)});
  sched.on_task_arrival(t2, 6.0);
  EXPECT_EQ(sched.counters().tasks_accepted, 3u);
  EXPECT_FALSE(sched.slices(net.tasks()[static_cast<std::size_t>(t2)].spec.flows[0]).empty());
}

std::size_t stored_intervals(const TapsScheduler& sched, const net::Network& net,
                             std::size_t link_count) {
  std::size_t total = 0;
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(link_count); ++l) {
    total += sched.occupancy().link(l).size();
  }
  for (const auto& f : net.flows()) total += sched.slices(f.id()).size();
  return total;
}

TEST(TapsIncremental, TrimKeepsIntervalStorageBoundedOnLongStreams) {
  // Satellite regression for OccupancyMap::trim_before: on a long arrival
  // stream with preemptions (whose victims would otherwise keep their stale
  // slices forever), the periodic trim keeps total stored intervals bounded
  // and does not change a single admission decision.
  const auto build = [] {
    auto d = make_dumbbell(4);
    auto net = std::make_unique<net::Network>(*d.topology);
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      // A big task that gets admitted, then an urgent one that squeezes it
      // out: under kSchedulable the zero-schedulable victim is preempted and
      // its remaining slices go stale at the preemption point.
      add_task(*net, t, t + 7.0, {flow(d.left[0], d.right[0], 6.0)});
      add_task(*net, t + 0.5, t + 2.6, {flow(d.left[1], d.right[1], 2.0)});
      t += 8.0;
    }
    return std::pair{std::move(d), std::move(net)};
  };

  auto [d_on, net_on] = build();
  TapsConfig cfg_on;
  cfg_on.preempt_policy = PreemptPolicy::kSchedulable;
  cfg_on.trim_interval = 16;
  TapsScheduler trimmed(cfg_on);
  (void)test::run(*net_on, trimmed);

  auto [d_off, net_off] = build();
  TapsConfig cfg_off;
  cfg_off.preempt_policy = PreemptPolicy::kSchedulable;
  cfg_off.trim_interval = 0;
  TapsScheduler untrimmed(cfg_off);
  (void)test::run(*net_off, untrimmed);

  // Identical decisions with and without trimming.
  ASSERT_EQ(net_on->tasks().size(), net_off->tasks().size());
  for (std::size_t i = 0; i < net_on->tasks().size(); ++i) {
    EXPECT_EQ(net_on->tasks()[i].state, net_off->tasks()[i].state) << "task " << i;
  }
  EXPECT_EQ(trimmed.counters().tasks_accepted, untrimmed.counters().tasks_accepted);
  EXPECT_EQ(trimmed.counters().tasks_preempted, untrimmed.counters().tasks_preempted);
  EXPECT_GT(trimmed.counters().tasks_preempted, 0u);  // the stream must preempt
  EXPECT_GT(trimmed.counters().occupancy_trims, 0u);
  EXPECT_EQ(untrimmed.counters().occupancy_trims, 0u);

  // The trimmed scheduler's end-of-run storage is small and, unlike the
  // untrimmed one's, does not scale with the number of preempted victims.
  const std::size_t links = net_on->graph().link_count();
  const std::size_t kept = stored_intervals(trimmed, *net_on, links);
  const std::size_t grown = stored_intervals(untrimmed, *net_off, links);
  EXPECT_LT(kept, grown);
  EXPECT_LE(kept, 64u);
}

}  // namespace
}  // namespace taps::core
