#include "core/taps_scheduler.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/optimal.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace taps::core {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;
using test::make_fig3_topology;

TEST(TapsScheduler, Fig1eCompletesOneTask) {
  // Paper Fig. 1: t1 (2+4 units, deadline 4) can never fit the bottleneck;
  // TAPS rejects it outright and completes t2 (1+3 units) — one full task,
  // where Fair Sharing / D3 / PDQ complete none (their tests).
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 2.0), flow(d.left[1], d.right[1], 4.0)});
  add_task(net, 0.0, 4.0,
           {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 3.0)});
  TapsScheduler sched;
  (void)test::run(net, sched);

  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kRejected);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kCompleted);
  EXPECT_EQ(test::completed_tasks(net), 1u);
  // Rejected task never sent a byte (the paper's no-waste property).
  EXPECT_DOUBLE_EQ(net.flows()[0].bytes_sent, 0.0);
  EXPECT_DOUBLE_EQ(net.flows()[1].bytes_sent, 0.0);
}

TEST(TapsScheduler, Fig2dCompletesBothTasks) {
  // Paper Fig. 2(d): the urgent late task squeezes in ahead of the earlier
  // loose one via global re-planning; both tasks complete (Baraat: 1 of 2,
  // Varys: 1 of 2).
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 1.0)});
  add_task(net, 0.0, 2.0,
           {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 1.0)});
  TapsScheduler sched;
  (void)test::run(net, sched);

  EXPECT_EQ(test::completed_tasks(net), 2u);
  // The urgent task's flows run first: [0,1) and [1,2).
  EXPECT_NEAR(net.flows()[2].completion_time, 1.0, 1e-9);
  EXPECT_NEAR(net.flows()[3].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(net.flows()[0].completion_time, 3.0, 1e-9);
  EXPECT_NEAR(net.flows()[1].completion_time, 4.0, 1e-9);
}

TEST(TapsScheduler, Fig3CompletesAllFourFlows) {
  // Paper Fig. 3: TAPS's global multi-path slice scheduling completes all
  // four flows, where flow-list-limited PDQ loses f4 (see pdq_test).
  auto t = make_fig3_topology();
  net::Network net(*t.topology);
  add_task(net, 0.0, 1.0, {flow(t.h1, t.h2, 1.0)});
  add_task(net, 0.0, 2.0, {flow(t.h1, t.h4, 1.0)});
  add_task(net, 0.0, 2.0, {flow(t.h3, t.h2, 1.0)});
  add_task(net, 0.0, 3.0, {flow(t.h3, t.h4, 2.0)});
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(test::completed_flows(net), 4u);
  EXPECT_EQ(test::completed_tasks(net), 4u);
}

TEST(TapsScheduler, AdmittedTasksAlwaysComplete) {
  // The defining TAPS guarantee: an admitted task either completes in full
  // before its deadline or is preempted — it never silently fails.
  util::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    auto d = make_dumbbell(8);
    net::Network net(*d.topology);
    const int tasks = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < tasks; ++i) {
      const double arrival = rng.uniform_real(0.0, 3.0);
      const double deadline = arrival + rng.uniform_real(0.5, 4.0);
      std::vector<net::FlowSpec> flows;
      const int nf = static_cast<int>(rng.uniform_int(1, 3));
      for (int j = 0; j < nf; ++j) {
        const auto l = static_cast<std::size_t>(rng.uniform_int(0, 7));
        const auto r = static_cast<std::size_t>(rng.uniform_int(0, 7));
        flows.push_back(flow(d.left[l], d.right[r], rng.uniform_real(0.2, 2.0)));
      }
      add_task(net, arrival, deadline, flows);
    }
    TapsScheduler sched;
    (void)test::run(net, sched);
    for (const auto& t : net.tasks()) {
      EXPECT_TRUE(t.state == net::TaskState::kCompleted ||
                  t.state == net::TaskState::kRejected)
          << "trial " << trial << " task " << t.id() << " state "
          << net::to_string(t.state);
    }
    // No-waste: flows of rejected tasks transmitted nothing after rejection
    // (bytes may have flowed before a preemption, which these instances do
    // not trigger at arrival-time-only rejection).
    for (const auto& f : net.flows()) {
      if (net.task(f.task()).state == net::TaskState::kRejected) {
        EXPECT_EQ(f.state, net::FlowState::kRejected);
      }
    }
  }
}

TEST(TapsScheduler, SlicesNeverOverlapOnALink) {
  // Exclusive-use invariant: after admissions, per-link occupancy equals the
  // disjoint union of admitted flows' slices.
  auto d = make_dumbbell(8);
  net::Network net(*d.topology);
  util::Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    add_task(net, 0.0, rng.uniform_real(2.0, 8.0),
             {flow(d.left[static_cast<std::size_t>(i)],
                   d.right[static_cast<std::size_t>(i)], rng.uniform_real(0.3, 2.0))});
  }
  TapsScheduler sched;
  sched.bind(net);
  for (const auto& t : net.tasks()) sched.on_task_arrival(t.id(), 0.0);

  // Pairwise disjointness of slices of flows sharing the bottleneck.
  for (std::size_t i = 0; i < net.flows().size(); ++i) {
    for (std::size_t j = i + 1; j < net.flows().size(); ++j) {
      const auto& fi = net.flows()[i];
      const auto& fj = net.flows()[j];
      if (fi.state != net::FlowState::kActive || fj.state != net::FlowState::kActive) {
        continue;
      }
      const auto overlap =
          sched.slices(fi.id()).intersect(sched.slices(fj.id()));
      EXPECT_TRUE(overlap.empty())
          << "flows " << i << " and " << j << " overlap on the bottleneck";
    }
  }
}

TEST(TapsScheduler, UrgentLateTaskFitsViaReplanning) {
  // The Varys contrast: a later, more urgent task is admitted because TAPS
  // re-plans the incumbent's slices instead of holding static reservations.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 8.0, {flow(d.left[0], d.right[0], 3.0)});
  add_task(net, 1.0, 3.0, {flow(d.left[1], d.right[1], 1.5)});
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(test::completed_tasks(net), 2u);
  // Urgent flow runs immediately after its arrival: 1.5 units from t=1.
  EXPECT_NEAR(net.flows()[1].completion_time, 2.5, 1e-9);
}

TEST(TapsScheduler, CountersTrackDecisions) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 3.0)});
  add_task(net, 0.0, 4.0, {flow(d.left[1], d.right[1], 3.0)});  // cannot fit
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(sched.counters().tasks_accepted, 1u);
  EXPECT_EQ(sched.counters().tasks_rejected, 1u);
  EXPECT_EQ(sched.counters().tasks_preempted, 0u);
  EXPECT_GE(sched.counters().replans, 2u);
}

TEST(TapsScheduler, CandidateTreeScansFewerThanEveryCandidate) {
  // A loaded k=8 fat-tree: 40 coflows of 8 inter-pod flows out of pod 0's
  // eight hosts, all at t=0, so host and aggregation links fill up and
  // every flow has 16 candidates. The flat race would scan up to 16 full
  // unions per planned flow; the candidate tree's subtree bounds prune
  // whole aggregation groups.
  const topo::FatTree ft(topo::FatTreeConfig{8, 1.0});
  net::Network net(ft);
  net::Network oracle_net(ft);
  util::Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    std::vector<net::FlowSpec> flows;
    for (int f = 0; f < 8; ++f) {
      const topo::NodeId src = ft.host(0, static_cast<int>(rng.uniform_int(0, 3)),
                                       static_cast<int>(rng.uniform_int(0, 3)));
      const topo::NodeId dst = ft.host(static_cast<int>(rng.uniform_int(1, 7)),
                                       static_cast<int>(rng.uniform_int(0, 3)),
                                       static_cast<int>(rng.uniform_int(0, 3)));
      flows.push_back(flow(src, dst, rng.uniform_real(0.05, 0.5)));
    }
    const double deadline = rng.uniform_real(2.0, 6.0);
    add_task(oracle_net, 0.0, deadline, flows);
    add_task(net, 0.0, deadline, std::move(flows));
  }
  TapsScheduler sched;
  FullReplanOracle oracle;
  sched.bind(net);
  oracle.bind(oracle_net);
  for (std::size_t t = 0; t < net.tasks().size(); ++t) {
    sched.on_task_arrival(static_cast<net::TaskId>(t), 0.0);
    oracle.on_task_arrival(static_cast<net::TaskId>(t), 0.0);
  }
  const TapsCounters& c = sched.counters();
  EXPECT_GT(c.tasks_accepted, 0u);
  EXPECT_GT(c.tasks_rejected, 0u);  // loaded: some coflows do not fit
  ASSERT_GT(c.flows_planned, 0u);
  EXPECT_GT(c.paths_evaluated, 0u);
  EXPECT_LT(c.paths_evaluated, 16 * c.flows_planned);
  // Per planned flow, fewer full scans than the oracle's flat race makes on
  // the same instance (same decisions, different replanned sets).
  const TapsCounters& flat = oracle.counters();
  EXPECT_EQ(flat.tasks_accepted, c.tasks_accepted);
  EXPECT_LT(static_cast<double>(c.paths_evaluated) / static_cast<double>(c.flows_planned),
            static_cast<double>(flat.paths_evaluated) / static_cast<double>(flat.flows_planned));
}

TEST(TapsScheduler, MatchesOptimalOnSingleLinkInstances) {
  // TAPS vs the exact solver on random single-bottleneck instances: the
  // heuristic must accept a feasible set (every admitted task completes) and
  // come close to the optimal count.
  util::Rng rng(2024);
  int taps_total = 0;
  int optimal_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    auto d = make_dumbbell(10);
    net::Network net(*d.topology);
    std::vector<SlTask> sl_tasks;
    const int tasks = 5;
    for (int i = 0; i < tasks; ++i) {
      const double deadline = rng.uniform_real(1.0, 6.0);
      const double size = rng.uniform_real(0.4, 2.5);
      add_task(net, 0.0, deadline,
               {flow(d.left[static_cast<std::size_t>(i)],
                     d.right[static_cast<std::size_t>(i)], size)});
      sl_tasks.push_back(SlTask{{SlFlow{0.0, deadline, size}}});
    }
    TapsScheduler sched;
    (void)test::run(net, sched);
    const auto taps_done = static_cast<int>(test::completed_tasks(net));
    const auto opt = optimal_single_link(sl_tasks);
    taps_total += taps_done;
    optimal_total += static_cast<int>(opt.tasks_completed);
    EXPECT_LE(taps_done, static_cast<int>(opt.tasks_completed));
  }
  // Aggregate quality: within 20% of optimal across the batch.
  EXPECT_GE(taps_total, optimal_total * 4 / 5);
}

// Rule 2 on fat-trees: decisions where a flow cannot be planned inside its
// window, and the exact-fit boundary that must still be admitted.

TEST(TapsScheduler, RejectsTaskLongerThanItsWindow) {
  // 3s of data in a 1s window cannot fit even on an idle network.
  topo::FatTree topo(topo::FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  add_task(net, 0.0, 10.0, {flow(hosts[0], hosts[1], 1.0)});
  add_task(net, 0.0, 1.0, {flow(hosts[8], hosts[12], 3.0)});
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(sched.counters().tasks_rejected, 1u);
  EXPECT_EQ(sched.counters().tasks_accepted, 1u);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kRejected);
  EXPECT_EQ(test::completed_tasks(net), 1u);
}

TEST(TapsScheduler, SingleUplinkOverloadMatchesOracle) {
  // On the k=2 fat-tree each pod has one uplink, which is also the host
  // uplink: once the first flow owns [0,1] of it, a second task wanting 1s
  // of transmission inside a 1.8s window cannot fit.
  topo::FatTree topo(topo::FatTreeConfig{2, 1.0});
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  ASSERT_EQ(hosts.size(), 2u);
  const auto fill = [&hosts](net::Network& net) {
    add_task(net, 0.0, 1.5, {flow(hosts[0], hosts[1], 1.0)});
    add_task(net, 0.0, 1.8, {flow(hosts[0], hosts[1], 1.0)});
  };
  net::Network net(topo);
  fill(net);
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(sched.counters().tasks_accepted, 1u);
  EXPECT_EQ(sched.counters().tasks_rejected, 1u);

  net::Network oracle_net(topo);
  fill(oracle_net);
  FullReplanOracle oracle;
  (void)test::run(oracle_net, oracle);
  for (std::size_t i = 0; i < net.tasks().size(); ++i) {
    EXPECT_EQ(net.tasks()[i].state, oracle_net.tasks()[i].state) << "task " << i;
  }
}

TEST(TapsScheduler, ExactFitOnSharedHostUplinkIsAdmitted) {
  // The second task needs exactly the time left on the shared host uplink
  // (1s of data, window [1,2] after the first flow's [0,1]).
  topo::FatTree topo(topo::FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  add_task(net, 0.0, 2.0, {flow(hosts[0], hosts[1], 1.0)});
  add_task(net, 0.0, 2.0, {flow(hosts[0], hosts[2], 1.0)});
  TapsScheduler sched;
  (void)test::run(net, sched);
  EXPECT_EQ(sched.counters().tasks_accepted, 2u);
  EXPECT_EQ(test::completed_tasks(net), 2u);
}

TEST(FullReplanOracle, RejectsTaskLongerThanItsWindow) {
  // RejectsTaskLongerThanItsWindow through the oracle: same decision.
  topo::FatTree topo(topo::FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  add_task(net, 0.0, 10.0, {flow(hosts[0], hosts[1], 1.0)});
  add_task(net, 0.0, 1.0, {flow(hosts[8], hosts[12], 3.0)});
  FullReplanOracle oracle;
  (void)test::run(net, oracle);
  EXPECT_EQ(oracle.counters().tasks_rejected, 1u);
  EXPECT_EQ(oracle.counters().tasks_accepted, 1u);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kRejected);
}

}  // namespace
}  // namespace taps::core
