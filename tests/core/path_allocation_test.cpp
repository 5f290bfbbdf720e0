#include "core/path_allocation.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "core/full_replan_oracle.hpp"
#include "topo/fattree.hpp"

namespace taps::core {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;
using test::make_fig3_topology;

TEST(SortEdfSjf, OrdersByDeadlineThenSize) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 2.0)});  // flow 0
  add_task(net, 0.0, 2.0, {flow(d.left[1], d.right[1], 5.0)});  // flow 1
  add_task(net, 0.0, 2.0, {flow(d.left[2], d.right[2], 1.0)});  // flow 2
  std::vector<net::FlowId> order{0, 1, 2};
  sort_edf_sjf(net, order);
  EXPECT_EQ(order, (std::vector<net::FlowId>{2, 1, 0}));  // d2/s1, d2/s5, d4
}

TEST(PlanOneFlow, PicksEarliestCompletionPath) {
  // Fig. 3 topology: two hops differ; here just verify the planner avoids a
  // busy path segment by choosing slices after it.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});

  OccupancyMap occ(net.graph().link_count());
  const PlanConfig config{};
  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, config);
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.completion, 2.0);
  EXPECT_TRUE(topo::is_valid_path(net.graph(), plan.path, d.left[0], d.right[0]));
  EXPECT_NEAR(plan.slices.measure(), 2.0, 1e-12);
}

TEST(PlanOneFlow, InfeasibleWhenDeadlineTooTight) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 1.0, {flow(d.left[0], d.right[0], 2.0)});
  OccupancyMap occ(net.graph().link_count());
  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, PlanConfig{});
  EXPECT_FALSE(plan.feasible);
}

TEST(PlanOneFlow, MultipathRoutesAroundBusyArm) {
  // Partial fat-tree style diamond via the Fig. 3 topology: flow 1->4 can
  // take S1-S5-S4 only; instead use dumbbell variant with two arms:
  topo::Graph g;
  const auto a = g.add_node(topo::NodeKind::kHost, "a");
  const auto b = g.add_node(topo::NodeKind::kHost, "b");
  const auto x = g.add_node(topo::NodeKind::kTor, "x");
  const auto y = g.add_node(topo::NodeKind::kTor, "y");
  g.add_duplex_link(a, x, 1.0);
  g.add_duplex_link(a, y, 1.0);
  g.add_duplex_link(x, b, 1.0);
  g.add_duplex_link(y, b, 1.0);
  topo::GenericTopology topo(std::move(g), {a, b}, "diamond");
  net::Network net(topo);
  add_task(net, 0.0, 10.0, {flow(a, b, 2.0)});

  OccupancyMap occ(net.graph().link_count());
  // Make the x arm busy [0,5): planner should route via y and finish at 2.
  const auto x_link = topo.graph().link_between(x, b);
  util::IntervalSet busy;
  busy.insert(0.0, 5.0);
  topo::Path px;
  px.links = {x_link};
  occ.occupy(px, busy);

  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, PlanConfig{});
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.completion, 2.0);
  // The chosen path must not include the busy x->b link.
  for (const topo::LinkId lid : plan.path.links) EXPECT_NE(lid, x_link);
}

TEST(PlanFlows, CommitsOccupancyBetweenFlows) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});
  add_task(net, 0.0, 10.0, {flow(d.left[1], d.right[1], 3.0)});
  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1};
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_DOUBLE_EQ(plans[0].completion, 2.0);
  EXPECT_DOUBLE_EQ(plans[1].completion, 5.0);  // serialized on the bottleneck
  EXPECT_TRUE(plans[1].slices.intersect(plans[0].slices).empty());
}

TEST(PlanFlows, InfeasibleFlowOccupiesNothing) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 2.0, {flow(d.left[0], d.right[0], 2.0)});
  add_task(net, 0.0, 2.0, {flow(d.left[1], d.right[1], 2.0)});  // cannot fit
  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1};
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});
  EXPECT_TRUE(plans[0].feasible);
  EXPECT_FALSE(plans[1].feasible);
  // The bottleneck carries only flow 0's two units.
  const auto bottleneck = net.graph().link_between(1, 0) != topo::kInvalidLink
                              ? net.graph().link_between(0, 1)
                              : 0;
  (void)bottleneck;
  double total = 0.0;
  for (const auto& l : net.graph().links()) total += occ.link(l.id).measure();
  // flow 0 occupies its 3 path links for 2 units each.
  EXPECT_NEAR(total, 6.0, 1e-9);
}

// Paper Fig. 3: global slice scheduling completes all four flows, including
// f4's split allocation (0,1) & (2,3).
TEST(PlanFlows, Fig3GlobalScheduleFitsAllFour) {
  auto t = make_fig3_topology();
  net::Network net(*t.topology);
  add_task(net, 0.0, 1.0, {flow(t.h1, t.h2, 1.0)});  // f1
  add_task(net, 0.0, 2.0, {flow(t.h1, t.h4, 1.0)});  // f2
  add_task(net, 0.0, 2.0, {flow(t.h3, t.h2, 1.0)});  // f3
  add_task(net, 0.0, 3.0, {flow(t.h3, t.h4, 2.0)});  // f4

  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1, 2, 3};
  sort_edf_sjf(net, order);
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});

  for (const auto& p : plans) {
    EXPECT_TRUE(p.feasible) << "flow " << p.flow;
    EXPECT_LE(p.completion, net.flow(p.flow).spec.deadline + 1e-9);
  }
  // f4 (flow id 3) is the split allocation: (0,1) and (2,3), as in Fig. 3(b).
  const FlowPlan* f4 = nullptr;
  for (const auto& p : plans) {
    if (p.flow == 3) f4 = &p;
  }
  ASSERT_NE(f4, nullptr);
  ASSERT_EQ(f4->slices.size(), 2u);
  EXPECT_EQ(f4->slices.intervals()[0], (util::Interval{0.0, 1.0}));
  EXPECT_EQ(f4->slices.intervals()[1], (util::Interval{2.0, 3.0}));
  EXPECT_DOUBLE_EQ(f4->completion, 3.0);
}

std::uint64_t positions(std::initializer_list<int> ps) {
  std::uint64_t mask = 0;
  for (const int p : ps) mask |= std::uint64_t{1} << p;
  return mask;
}

TEST(CandidateTree, FatTreeInterPodGroupsByAggregation) {
  // k=8: 16 inter-pod candidates share both host links; each source
  // aggregation switch heads a run of 4 that also shares edge->agg and
  // agg->edge, leaving agg->core->agg to the leaves.
  const topo::FatTree ft(topo::FatTreeConfig{8, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(3, 2, 1), 16);
  ASSERT_EQ(paths.size(), 16u);
  CandidateTree tree;
  build_candidate_tree(paths, tree);
  EXPECT_EQ(tree.root, positions({0, 5}));
  ASSERT_EQ(tree.groups.size(), 4u);
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(tree.groups[g].first, 4 * g);
    EXPECT_EQ(tree.groups[g].last, 4 * g + 4);
    EXPECT_EQ(tree.groups[g].shared, positions({1, 4}));
  }
}

TEST(CandidateTree, FatTreeIntraPodAndSameEdge) {
  const topo::FatTree ft(topo::FatTreeConfig{8, 1.0});
  // Intra-pod: one candidate per aggregation switch, each its own group.
  CandidateTree intra;
  build_candidate_tree(ft.paths(ft.host(1, 0, 0), ft.host(1, 3, 0), 16), intra);
  EXPECT_EQ(intra.root, positions({0, 3}));
  ASSERT_EQ(intra.groups.size(), 4u);
  for (const CandidateTree::Group& g : intra.groups) {
    EXPECT_EQ(g.last - g.first, 1u);
    EXPECT_EQ(g.shared, positions({1, 2}));
  }
  // Same edge: a single candidate, all of it root.
  CandidateTree same;
  build_candidate_tree(ft.paths(ft.host(1, 0, 0), ft.host(1, 0, 1), 16), same);
  EXPECT_EQ(same.root, positions({0, 1}));
  ASSERT_EQ(same.groups.size(), 1u);
  EXPECT_EQ(same.groups[0].last, 1u);
}

TEST(CandidateTree, PathsOfDifferentLengthFormOneGroup) {
  std::vector<topo::Path> paths(2);
  paths[0].links = {0, 1};
  paths[1].links = {0, 2, 3};
  CandidateTree tree;
  build_candidate_tree(paths, tree);
  EXPECT_EQ(tree.root, 0u);
  ASSERT_EQ(tree.groups.size(), 1u);
  EXPECT_EQ(tree.groups[0].first, 0u);
  EXPECT_EQ(tree.groups[0].last, 2u);
  EXPECT_EQ(tree.groups[0].shared, 0u);
}

TEST(PlanOneFlow, EqualCompletionGoesToLowerIndexVisitedSecond) {
  // k=4 inter-pod flow of 1s: candidates 0,1 run through source agg 0 and
  // 2,3 through agg 1 (path positions: host->edge, edge->agg, agg->core,
  // core->agg, agg->edge, edge->host).
  const topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
  net::Network net(ft);
  add_task(net, 0.0, 10.0, {flow(ft.host(0, 0, 0), ft.host(1, 0, 0), 1.0)});
  const std::vector<topo::Path> paths = candidate_paths(net, net.flow(0), PlanConfig{});
  ASSERT_EQ(paths.size(), 4u);
  ASSERT_EQ(paths[0].links[1], paths[1].links[1]);
  ASSERT_EQ(paths[2].links[1], paths[3].links[1]);

  OccupancyMap occ(net.graph().link_count());
  const auto busy = [&occ](topo::LinkId lid, double lo, double hi) {
    util::IntervalSet s;
    s.insert(lo, hi);
    occ.occupy(topo::Path{{lid}}, s);
  };
  busy(paths[0].links[1], 0.0, 1.0);  // agg-0 group: bound 2
  busy(paths[2].links[2], 0.0, 1.0);  // candidate 2 finishes at 2
  busy(paths[3].links[2], 0.0, 1.5);  // candidate 3 finishes at 2.5
  // The agg-1 group's shared links are idle, so its bound (1) sorts it
  // first and candidate 2 becomes the incumbent at 2. Candidate 0 also
  // finishes at 2 and must take over on the lower index.
  ASSERT_EQ(allocate_time(occ, paths[2], 0.0, 1.0, 10.0).completion, 2.0);
  ASSERT_EQ(allocate_time(occ, paths[0], 0.0, 1.0, 10.0).completion, 2.0);

  PlanScratch scratch;
  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, PlanConfig{}, &scratch);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.path, paths[0]);
  EXPECT_EQ(plan.completion, 2.0);
  EXPECT_EQ(plan.slices, (util::IntervalSet{{1.0, 2.0}}));
  const FlowPlan flat = flat_path_race(net, occ, 0, 0.0, PlanConfig{});
  EXPECT_EQ(flat.path, plan.path);
}

}  // namespace
}  // namespace taps::core
