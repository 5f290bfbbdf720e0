#include "core/occupancy.hpp"

#include <gtest/gtest.h>

#include "core/full_replan_oracle.hpp"

namespace taps::core {
namespace {

topo::Path path_of(std::initializer_list<topo::LinkId> ids) {
  topo::Path p;
  p.links = ids;
  return p;
}

util::IntervalSet slices(std::initializer_list<util::Interval> ivs) {
  util::IntervalSet s;
  for (const auto& iv : ivs) s.insert(iv);
  return s;
}

TEST(OccupancyMap, StartsEmpty) {
  const OccupancyMap occ(4);
  EXPECT_EQ(occ.link_count(), 4u);
  for (topo::LinkId l = 0; l < 4; ++l) EXPECT_TRUE(occ.link(l).empty());
}

TEST(OccupancyMap, OccupyMarksEveryLinkOnPath) {
  OccupancyMap occ(4);
  occ.occupy(path_of({0, 2}), slices({{1.0, 2.0}}));
  EXPECT_DOUBLE_EQ(occ.link(0).measure(), 1.0);
  EXPECT_TRUE(occ.link(1).empty());
  EXPECT_DOUBLE_EQ(occ.link(2).measure(), 1.0);
}

TEST(OccupancyMap, PathUnionMergesLinkSets) {
  OccupancyMap occ(3);
  occ.occupy(path_of({0}), slices({{0.0, 1.0}}));
  occ.occupy(path_of({1}), slices({{0.5, 2.0}}));
  const util::IntervalSet u = path_union(occ, path_of({0, 1}));
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u.intervals()[0], (util::Interval{0.0, 2.0}));
}

TEST(OccupancyMap, PathUnionOfIdleLinksIsEmpty) {
  OccupancyMap occ(3);
  EXPECT_TRUE(path_union(occ, path_of({0, 1, 2})).empty());
}

TEST(OccupancyMap, CollisionDetection) {
  OccupancyMap occ(3);
  occ.occupy(path_of({1}), slices({{1.0, 2.0}}));
  EXPECT_TRUE(occ.collides(path_of({0, 1}), slices({{1.5, 3.0}})));
  EXPECT_FALSE(occ.collides(path_of({0, 1}), slices({{2.0, 3.0}})));
  EXPECT_FALSE(occ.collides(path_of({0, 2}), slices({{1.0, 2.0}})));
}

TEST(OccupancyMap, DisjointSlicesNeverCollide) {
  OccupancyMap occ(2);
  occ.occupy(path_of({0, 1}), slices({{0.0, 1.0}, {2.0, 3.0}}));
  occ.occupy(path_of({0, 1}), slices({{1.0, 2.0}}));
  EXPECT_DOUBLE_EQ(occ.link(0).measure(), 3.0);
}

TEST(OccupancyMap, ClearResets) {
  OccupancyMap occ(2);
  occ.occupy(path_of({0, 1}), slices({{0.0, 5.0}}));
  occ.clear();
  EXPECT_TRUE(occ.link(0).empty());
  EXPECT_TRUE(occ.link(1).empty());
}

TEST(OccupancyMap, TrimBeforeDropsPast) {
  OccupancyMap occ(1);
  occ.occupy(path_of({0}), slices({{0.0, 2.0}, {3.0, 4.0}}));
  occ.trim_before(1.0);
  EXPECT_DOUBLE_EQ(occ.link(0).measure(), 2.0);
  EXPECT_FALSE(occ.link(0).contains(0.5));
}

}  // namespace
}  // namespace taps::core
