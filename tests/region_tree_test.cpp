#include "core/region_tree.h"

#include <gtest/gtest.h>

#include "workload/generators.h"

namespace pathcache {
namespace {

TEST(RegionTreeTest, EmptyInput) {
  auto nodes = BuildRegionTree({}, 4);
  EXPECT_TRUE(nodes.empty());
  EXPECT_EQ(CheckRegionTree(nodes, 0, 4), "");
}

TEST(RegionTreeTest, SingleRegion) {
  std::vector<Point> pts = {{1, 5, 0}, {2, 3, 1}, {3, 9, 2}};
  auto nodes = BuildRegionTree(pts, 4);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_TRUE(nodes[0].is_leaf());
  EXPECT_EQ(nodes[0].pts.size(), 3u);
  // Sorted by descending y.
  EXPECT_EQ(nodes[0].pts[0].y, 9);
  EXPECT_EQ(nodes[0].pts[2].y, 3);
  EXPECT_EQ(nodes[0].y_min, 3);
  EXPECT_EQ(CheckRegionTree(nodes, 3, 4), "");
}

TEST(RegionTreeTest, RootHoldsGlobalTop) {
  PointGenOptions o;
  o.n = 1000;
  o.seed = 3;
  auto pts = GenPointsUniform(o);
  auto nodes = BuildRegionTree(pts, 16);
  ASSERT_FALSE(nodes.empty());
  // The root's 16 points are the global top-16 by y.
  std::vector<Point> sorted = pts;
  std::sort(sorted.begin(), sorted.end(), GreaterByY);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(nodes[0].pts[i].id, sorted[i].id);
  }
}

// All-64-bit fields leave no padding bytes, so gtest's byte-dump name for
// each case (the CTest test name) is the same on every build and run.
struct RtCase {
  uint64_t n;
  uint64_t region;
  uint64_t seed;
};

class RegionTreeSweep : public ::testing::TestWithParam<RtCase> {};

TEST_P(RegionTreeSweep, InvariantsHold) {
  const auto& c = GetParam();
  PointGenOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.coord_max = 1'000'000;
  auto pts = GenPointsUniform(o);
  auto nodes = BuildRegionTree(pts, c.region);
  EXPECT_EQ(CheckRegionTree(nodes, c.n, c.region), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegionTreeSweep,
    ::testing::Values(RtCase{1, 4, 1}, RtCase{4, 4, 2}, RtCase{5, 4, 3},
                      RtCase{100, 4, 4}, RtCase{1000, 16, 5},
                      RtCase{10000, 64, 6}, RtCase{5000, 170, 7},
                      RtCase{999, 7, 8}));

TEST(RegionTreeTest, DuplicateCoordinatesHandledByIdTieBreak) {
  std::vector<Point> pts;
  for (uint64_t i = 0; i < 200; ++i) {
    pts.push_back({static_cast<int64_t>(i % 3), static_cast<int64_t>(i % 2),
                   i});
  }
  auto nodes = BuildRegionTree(pts, 8);
  EXPECT_EQ(CheckRegionTree(nodes, 200, 8), "");
}

TEST(RegionTreeTest, NodeCountIsLinearInNOverB) {
  PointGenOptions o;
  o.n = 100000;
  o.seed = 9;
  auto pts = GenPointsUniform(o);
  auto nodes = BuildRegionTree(pts, 100);
  // ~n/region regions; the tree never exceeds ~2x that.
  EXPECT_LE(nodes.size(), 2 * (o.n / 100) + 2);
  EXPECT_GE(nodes.size(), o.n / 100);
}

}  // namespace
}  // namespace pathcache
