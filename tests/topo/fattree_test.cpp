#include "topo/fattree.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace taps::topo {
namespace {

TEST(FatTree, DimensionsK4) {
  const FatTree ft(FatTreeConfig{4, kGigabitPerSecond});
  EXPECT_EQ(ft.host_count(), 16u);                 // k^3/4
  EXPECT_EQ(ft.graph().node_count(), 16u + 8 + 8 + 4);  // hosts+edge+agg+core
  // links (duplex => x2): host-edge 16, edge-agg 4 pods * 2*2, agg-core 4*2*2
  EXPECT_EQ(ft.graph().link_count(), 2u * (16 + 16 + 16));
}

TEST(FatTree, DimensionsK8) {
  const FatTree ft(FatTreeConfig::scaled());
  EXPECT_EQ(ft.k(), 8);
  EXPECT_EQ(ft.host_count(), 128u);  // 8^3/4
}

TEST(FatTree, RejectsOddK) {
  EXPECT_THROW(FatTree(FatTreeConfig{5, 1.0}), std::invalid_argument);
  EXPECT_THROW(FatTree(FatTreeConfig{0, 1.0}), std::invalid_argument);
}

TEST(FatTree, SameEdgePairHasOnePath) {
  const FatTree ft(FatTreeConfig{4, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(0, 0, 1), 64);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops(), 2u);
}

TEST(FatTree, SamePodPairHasHalfKPaths) {
  const FatTree ft(FatTreeConfig{4, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(0, 1, 0), 64);
  ASSERT_EQ(paths.size(), 2u);  // k/2 aggregation switches
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 4u);
    EXPECT_TRUE(is_valid_path(ft.graph(), p, ft.host(0, 0, 0), ft.host(0, 1, 0)));
  }
}

TEST(FatTree, CrossPodPairHasQuarterKSquaredPaths) {
  const FatTree ft(FatTreeConfig{4, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(2, 1, 1), 64);
  ASSERT_EQ(paths.size(), 4u);  // (k/2)^2 core switches
  std::set<std::vector<LinkId>> unique;
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 6u);
    EXPECT_TRUE(is_valid_path(ft.graph(), p, ft.host(0, 0, 0), ft.host(2, 1, 1)));
    unique.insert(p.links);
  }
  EXPECT_EQ(unique.size(), paths.size());  // all distinct
}

TEST(FatTree, CrossPodPathsTraverseDistinctCores) {
  const FatTree ft(FatTreeConfig{8, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(7, 3, 3), 1024);
  ASSERT_EQ(paths.size(), 16u);  // (8/2)^2
  // Each path's middle node (dst of hop 3) is a distinct core switch.
  std::set<NodeId> cores;
  for (const auto& p : paths) {
    const NodeId core = ft.graph().link(p.links[2]).dst;
    EXPECT_EQ(ft.graph().node(core).kind, NodeKind::kCore);
    cores.insert(core);
  }
  EXPECT_EQ(cores.size(), 16u);
}

TEST(FatTree, MaxPathsCapsEnumeration) {
  const FatTree ft(FatTreeConfig{8, 1.0});
  const auto paths = ft.paths(ft.host(0, 0, 0), ft.host(1, 0, 0), 3);
  EXPECT_EQ(paths.size(), 3u);
}

TEST(FatTree, HostMetadataConsistent) {
  const FatTree ft(FatTreeConfig{4, 1.0});
  for (int p = 0; p < 4; ++p) {
    for (int e = 0; e < 2; ++e) {
      for (int h = 0; h < 2; ++h) {
        const NodeId host = ft.host(p, e, h);
        EXPECT_EQ(ft.pod_of_host(host), p);
        EXPECT_EQ(ft.edge_of_host(host), ft.edge_switch(p, e));
      }
    }
  }
}

TEST(FatTree, RandomPairsYieldValidPaths) {
  const FatTree ft(FatTreeConfig::scaled());
  util::Rng rng(7);
  const auto& hosts = ft.hosts();
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1));
    auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 2));
    if (b >= a) ++b;
    const auto paths = ft.paths(hosts[a], hosts[b], 16);
    ASSERT_FALSE(paths.empty());
    for (const auto& p : paths) {
      EXPECT_TRUE(is_valid_path(ft.graph(), p, hosts[a], hosts[b]));
    }
  }
}

TEST(PodMap, FatTreeK4StructureAndBudgets) {
  const FatTree ft(FatTreeConfig{4, 1.0});
  const PodMap* pods = ft.pods();
  ASSERT_NE(pods, nullptr);
  EXPECT_EQ(pods->pod_count(), 4);
  for (int p = 0; p < pods->pod_count(); ++p) {
    // k=4: 2 aggregation switches x 2 core links each; the pod's budget base
    // is their summed capacity.
    EXPECT_DOUBLE_EQ(pods->uplink_capacity(p), 4.0);
  }
  for (const NodeId h : ft.hosts()) EXPECT_EQ(pods->pod_of(h), ft.pod_of_host(h));
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(pods->pod_of(ft.agg_switch(p, 1)), p);
    EXPECT_EQ(pods->pod_of(ft.edge_switch(p, 0)), p);
  }
  // Core switches belong to no pod.
  EXPECT_EQ(pods->pod_of(ft.core_switch(0)), kNoPod);
}

TEST(PodMap, SingleUplinkPodAtMinimumArity) {
  // k=2 is the degenerate fat-tree: one host, one edge, one agg per pod,
  // one core — every pod has exactly one uplink.
  const FatTree ft(FatTreeConfig{2, 1.0});
  const PodMap* pods = ft.pods();
  ASSERT_NE(pods, nullptr);
  EXPECT_EQ(pods->pod_count(), 2);
  for (int p = 0; p < pods->pod_count(); ++p) {
    EXPECT_DOUBLE_EQ(pods->uplink_capacity(p), 1.0);
  }
}

TEST(PodMap, RejectsBadAssignments) {
  const FatTree ft(FatTreeConfig{2, 1.0});
  const std::size_t nodes = ft.graph().node_count();
  EXPECT_THROW(PodMap(ft.graph(), std::vector<int>(nodes - 1, kNoPod), 1),
               std::invalid_argument);
  EXPECT_THROW(PodMap(ft.graph(), std::vector<int>(nodes, 1), 1), std::invalid_argument);
}

}  // namespace
}  // namespace taps::topo
