// Targeted edge cases for the hierarchical pod-admission layer: pod metadata
// derived at topology build time, the single-uplink pod, deadlines shorter
// than any feasible window, and the exactly-exhausted budget boundary (which
// must NOT fast-reject — conservative slack keeps the fast path sound).
#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/taps_scheduler.hpp"
#include "topo/fattree.hpp"
#include "topo/pods.hpp"

namespace taps::core {
namespace {

using topo::FatTree;
using topo::FatTreeConfig;
using topo::kInvalidLink;
using topo::kNoPod;
using topo::PodMap;

TEST(PodMap, FatTreeK4StructureAndBudgets) {
  FatTree topo(FatTreeConfig{4, 1.0});
  const PodMap* pods = topo.pods();
  ASSERT_NE(pods, nullptr);
  EXPECT_EQ(pods->pod_count(), 4);
  for (int p = 0; p < pods->pod_count(); ++p) {
    const topo::PodInfo& info = pods->pod(p);
    // k=4: 2 aggregation switches x 2 core links each, both directions.
    EXPECT_EQ(info.uplinks.size(), 4u);
    EXPECT_EQ(info.downlinks.size(), 4u);
    EXPECT_EQ(info.hosts.size(), 4u);
    // Pod bandwidth budget = sum of uplink capacities, derived at build time.
    EXPECT_DOUBLE_EQ(info.uplink_capacity, 4.0);
    for (const topo::LinkId lid : info.uplinks) {
      EXPECT_EQ(pods->pod_of_link_src(lid), p);
    }
  }
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  for (const topo::NodeId h : hosts) {
    EXPECT_NE(pods->host_uplink(h), kInvalidLink);
    EXPECT_NE(pods->host_downlink(h), kInvalidLink);
    EXPECT_EQ(pods->pod_of(h), topo.pod_of_host(h));
  }
  EXPECT_TRUE(pods->same_pod(hosts[0], hosts[3]));
  EXPECT_FALSE(pods->same_pod(hosts[0], hosts[4]));
  // Core switches belong to no pod.
  EXPECT_EQ(pods->pod_of(topo.core_switch(0)), kNoPod);
}

TEST(PodMap, SingleUplinkPodAtMinimumArity) {
  // k=2 is the degenerate fat-tree: one host, one edge, one agg per pod,
  // one core — every pod has exactly one uplink.
  FatTree topo(FatTreeConfig{2, 1.0});
  const PodMap* pods = topo.pods();
  ASSERT_NE(pods, nullptr);
  EXPECT_EQ(pods->pod_count(), 2);
  for (int p = 0; p < pods->pod_count(); ++p) {
    EXPECT_EQ(pods->pod(p).uplinks.size(), 1u);
    EXPECT_EQ(pods->pod(p).downlinks.size(), 1u);
    EXPECT_DOUBLE_EQ(pods->pod(p).uplink_capacity, 1.0);
  }
}

TEST(PodAdmission, GenericTopologyDisablesTheIndex) {
  // Topologies without pod structure return nullptr pods(): the precheck is
  // inert and the scheduler behaves exactly as before.
  test::Dumbbell d = test::make_dumbbell(2);
  net::Network net(*d.topology);
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[0], d.right[0], 1.0)});
  TapsScheduler sched;
  test::run(net, sched);
  EXPECT_FALSE(sched.pod_index().enabled());
  EXPECT_EQ(sched.counters().pod_fast_rejects, 0u);
  EXPECT_EQ(test::completed_tasks(net), 1u);
}

TEST(PodAdmission, DeadlineShorterThanAnyFeasibleWindowFastRejects) {
  FatTree topo(FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  // A feasible task arms the no-transmission gate at t=0...
  test::add_task(net, 0.0, 10.0, {test::flow(hosts[0], hosts[1], 1.0)});
  // ...then a task whose transmission time exceeds its whole window even on
  // an idle network (3s of data, 1s window) is provably infeasible without
  // touching the planner — the pure-window precheck fires.
  test::add_task(net, 0.0, 1.0, {test::flow(hosts[8], hosts[12], 3.0)});
  TapsScheduler sched;
  test::run(net, sched);
  EXPECT_EQ(sched.counters().pod_fast_rejects, 1u);
  EXPECT_EQ(sched.counters().tasks_rejected, 1u);
  EXPECT_EQ(sched.counters().tasks_accepted, 1u);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kRejected);
  EXPECT_EQ(test::completed_tasks(net), 1u);
}

TEST(PodAdmission, SingleUplinkPodFastRejectsOverload) {
  // On the k=2 tree the pod's single uplink is also the host uplink: once a
  // committed flow owns [0,1] of it, a second cross-pod task wanting 1s of
  // transmission inside a 1.8s window is provably infeasible.
  FatTree topo(FatTreeConfig{2, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  ASSERT_EQ(hosts.size(), 2u);
  test::add_task(net, 0.0, 1.5, {test::flow(hosts[0], hosts[1], 1.0)});
  test::add_task(net, 0.0, 1.8, {test::flow(hosts[0], hosts[1], 1.0)});

  TapsScheduler with_precheck;
  test::run(net, with_precheck);
  EXPECT_EQ(with_precheck.counters().pod_fast_rejects, 1u);
  EXPECT_EQ(with_precheck.counters().tasks_accepted, 1u);
  EXPECT_EQ(with_precheck.counters().tasks_rejected, 1u);

  // Oracle: the always-global full replan decides identically.
  net::Network oracle_net(topo);
  test::add_task(oracle_net, 0.0, 1.5, {test::flow(hosts[0], hosts[1], 1.0)});
  test::add_task(oracle_net, 0.0, 1.8, {test::flow(hosts[0], hosts[1], 1.0)});
  FullReplanOracle oracle;
  test::run(oracle_net, oracle);
  for (std::size_t i = 0; i < net.tasks().size(); ++i) {
    EXPECT_EQ(net.tasks()[i].state, oracle_net.tasks()[i].state) << "task " << i;
  }
}

TEST(PodAdmission, ExactlyExhaustedBudgetIsNotFastRejected) {
  // The second task needs exactly the free time left on the shared host
  // uplink (1s of data, window [1,2] after the incumbent's [0,1]). demand ==
  // provable-free is NOT "provably infeasible": the conservative slack must
  // keep the fast path out and let the planner admit it.
  FatTree topo(FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  test::add_task(net, 0.0, 2.0, {test::flow(hosts[0], hosts[1], 1.0)});
  test::add_task(net, 0.0, 2.0, {test::flow(hosts[0], hosts[2], 1.0)});
  TapsScheduler sched;
  test::run(net, sched);
  EXPECT_EQ(sched.counters().pod_fast_rejects, 0u);
  EXPECT_EQ(sched.counters().tasks_accepted, 2u);
  EXPECT_EQ(test::completed_tasks(net), 2u);
}

TEST(PodAdmission, FullReplanOracleRejectsWindowOverrunWithoutFastPath) {
  // The pure-window case above, through the oracle's global planner: same
  // decision, reached by a trial replan instead of the precheck.
  FatTree topo(FatTreeConfig{4, 1.0});
  net::Network net(topo);
  const std::vector<topo::NodeId>& hosts = topo.hosts();
  test::add_task(net, 0.0, 10.0, {test::flow(hosts[0], hosts[1], 1.0)});
  test::add_task(net, 0.0, 1.0, {test::flow(hosts[8], hosts[12], 3.0)});
  FullReplanOracle oracle;
  test::run(net, oracle);
  EXPECT_EQ(oracle.counters().tasks_rejected, 1u);
  EXPECT_EQ(oracle.counters().tasks_accepted, 1u);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kRejected);
}

}  // namespace
}  // namespace taps::core
