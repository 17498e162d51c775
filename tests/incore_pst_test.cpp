#include "incore/priority_search_tree.h"

#include <gtest/gtest.h>

#include "sweep_dist.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

TEST(InCorePstTest, EmptyTree) {
  PrioritySearchTree pst;
  std::vector<Point> out;
  pst.QueryTwoSided(0, 0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pst.empty());
}

TEST(InCorePstTest, SinglePoint) {
  std::vector<Point> pts = {{5, 7, 1}};
  PrioritySearchTree pst(pts);
  std::vector<Point> out;
  pst.QueryTwoSided(5, 7, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
  out.clear();
  pst.QueryTwoSided(6, 0, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  pst.QueryTwoSided(0, 8, &out);
  EXPECT_TRUE(out.empty());
}

TEST(InCorePstTest, BoundaryInclusive) {
  std::vector<Point> pts = {{10, 10, 1}, {10, 20, 2}, {20, 10, 3}};
  PrioritySearchTree pst(pts);
  std::vector<Point> out;
  pst.QueryThreeSided(10, 20, 10, &out);
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  pst.QueryThreeSided(10, 10, 10, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(InCorePstTest, DuplicateXValues) {
  std::vector<Point> pts;
  for (uint64_t i = 0; i < 100; ++i) {
    pts.push_back({static_cast<int64_t>(i % 5), static_cast<int64_t>(i), i});
  }
  PrioritySearchTree pst(pts);
  std::vector<Point> out;
  pst.QueryThreeSided(2, 3, 50, &out);
  EXPECT_TRUE(SameResult(out, BruteThreeSided(pts, {2, 3, 50})));
}

struct PstCase {
  uint64_t n;
  uint64_t seed;
  Dist dist;
};

class InCorePstRandomTest : public ::testing::TestWithParam<PstCase> {};

TEST_P(InCorePstRandomTest, MatchesBruteForce) {
  const auto& pc = GetParam();
  PointGenOptions o;
  o.n = pc.n;
  o.seed = pc.seed;
  o.coord_max = 100000;
  std::vector<Point> pts;
  if (pc.dist == Dist::kUniform) {
    pts = GenPointsUniform(o);
  } else if (pc.dist == Dist::kClustered) {
    pts = GenPointsClustered(o, 8, 2000);
  } else {
    pts = GenPointsDiagonal(o, 500);
  }

  PrioritySearchTree pst(pts);
  Rng rng(pc.seed ^ 0xABCD);
  for (int i = 0; i < 40; ++i) {
    auto q2 = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    pst.QueryTwoSided(q2.x_min, q2.y_min, &got);
    EXPECT_TRUE(SameResult(got, BruteTwoSided(pts, q2)))
        << "2-sided x=" << q2.x_min << " y=" << q2.y_min;

    auto q3 = SampleThreeSidedQuery(pts, 0.1, &rng);
    got.clear();
    pst.QueryThreeSided(q3.x_min, q3.x_max, q3.y_min, &got);
    EXPECT_TRUE(SameResult(got, BruteThreeSided(pts, q3)))
        << "3-sided [" << q3.x_min << "," << q3.x_max << "] y=" << q3.y_min;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InCorePstRandomTest,
    ::testing::Values(PstCase{10, 1, Dist::kUniform},
                      PstCase{100, 2, Dist::kUniform},
                      PstCase{1000, 3, Dist::kUniform},
                      PstCase{5000, 4, Dist::kClustered},
                      PstCase{5000, 5, Dist::kDiagonal},
                      PstCase{313, 6, Dist::kUniform}));

TEST(InCorePstTest, QueryComplexityIsLogarithmicPlusOutput) {
  PointGenOptions o;
  o.n = 100000;
  o.seed = 77;
  auto pts = GenPointsUniform(o);
  PrioritySearchTree pst(pts);

  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> out;
    pst.QueryTwoSided(q.x_min, q.y_min, &out);
    // Visited nodes <= c1 * log2(n) + c2 * t (McCreight: O(log n + t)).
    uint64_t bound = 4 * FloorLog2(pts.size()) + 4 * out.size() + 8;
    EXPECT_LE(pst.last_nodes_visited(), bound) << "t=" << out.size();
  }
}

}  // namespace
}  // namespace pathcache
