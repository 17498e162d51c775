#include "core/pst_two_level.h"

#include <gtest/gtest.h>

#include "core/pst_external.h"
#include "io/mem_page_device.h"
#include "sweep_dist.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

std::vector<Point> UniformPts(uint64_t n, uint64_t seed,
                              int64_t coord_max = 1'000'000) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  o.coord_max = coord_max;
  return GenPointsUniform(o);
}

TEST(TwoLevelPstTest, EmptyAndSingle) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  ASSERT_TRUE(pst.Build({}).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryTwoSided({0, 0}, &out).ok());
  EXPECT_TRUE(out.empty());

  TwoLevelPst pst2(&dev);
  ASSERT_TRUE(pst2.Build({{3, 4, 9}}).ok());
  ASSERT_TRUE(pst2.QueryTwoSided({3, 4}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 9u);
}

struct TlCase {
  uint64_t n;
  uint64_t seed;
  uint32_t page_size;
  uint32_t levels;
  Dist dist;
};

class TwoLevelSweep : public ::testing::TestWithParam<TlCase> {};

TEST_P(TwoLevelSweep, MatchesBruteForce) {
  const auto& c = GetParam();
  MemPageDevice dev(c.page_size);
  TwoLevelPstOptions opts;
  opts.levels = c.levels;
  TwoLevelPst pst(&dev, opts);

  PointGenOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.coord_max = 300000;
  std::vector<Point> pts;
  if (c.dist == Dist::kUniform) {
    pts = GenPointsUniform(o);
  } else if (c.dist == Dist::kClustered) {
    pts = GenPointsClustered(o, 5, 5000);
  } else {
    pts = GenPointsAntiCorrelated(o, 2000);
  }
  ASSERT_TRUE(pst.Build(pts).ok());

  Rng rng(c.seed ^ 0x7777);
  for (int i = 0; i < 25; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    QueryStats qs;
    ASSERT_TRUE(pst.QueryTwoSided(q, &got, &qs).ok());
    ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q)))
        << "q=(" << q.x_min << "," << q.y_min << ") " << qs.ToString();
  }
  std::vector<Point> all;
  ASSERT_TRUE(pst.QueryTwoSided({INT64_MIN, INT64_MIN}, &all).ok());
  EXPECT_TRUE(SameResult(all, pts));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoLevelSweep,
    ::testing::Values(TlCase{100, 1, 4096, 2, Dist::kUniform},
                      TlCase{5000, 2, 4096, 2, Dist::kUniform},
                      TlCase{50000, 3, 4096, 2, Dist::kUniform},
                      TlCase{20000, 4, 512, 2, Dist::kUniform},
                      TlCase{20000, 5, 1024, 2, Dist::kClustered},
                      TlCase{20000, 6, 4096, 2, Dist::kAnti},
                      TlCase{50000, 7, 4096, 3, Dist::kUniform},
                      TlCase{20000, 8, 512, 3, Dist::kUniform},
                      TlCase{30000, 9, 4096, 4, Dist::kUniform}));

TEST(TwoLevelPstTest, DuplicateCoordinates) {
  MemPageDevice dev(512);
  TwoLevelPst pst(&dev);
  std::vector<Point> pts;
  for (uint64_t i = 0; i < 3000; ++i) {
    pts.push_back({static_cast<int64_t>(i % 5), static_cast<int64_t>(i % 9),
                   i});
  }
  ASSERT_TRUE(pst.Build(pts).ok());
  for (int64_t qx = -1; qx <= 5; ++qx) {
    for (int64_t qy = -1; qy <= 9; ++qy) {
      std::vector<Point> got;
      ASSERT_TRUE(pst.QueryTwoSided({qx, qy}, &got).ok());
      ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, {qx, qy})))
          << "q=(" << qx << "," << qy << ")";
    }
  }
}

// Theorem 4.3: optimal query I/O on the two-level structure.
TEST(TwoLevelPstTest, QueryIoIsOptimal) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  auto pts = UniformPts(300000, 13);
  ASSERT_TRUE(pst.Build(pts).ok());
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pts.size(), B) + 1;

  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    dev.ResetStats();
    ASSERT_TRUE(pst.QueryTwoSided(q, &got).ok());
    uint64_t bound = 10 * logB_n + 4 * CeilDiv(got.size(), B) + 16;
    EXPECT_LE(dev.stats().reads, bound) << "t=" << got.size();
  }
}

// Lemmas 4.1 + 4.2: the two-level structure stores O((n/B) log log B)
// blocks and undercuts the basic scheme's O((n/B) log B).
TEST(TwoLevelPstTest, StorageBeatsBasicScheme) {
  const uint32_t page = 4096;
  const uint32_t B = RecordsPerPage<Point>(page);
  auto pts = UniformPts(400000, 23);

  MemPageDevice dev_basic(page);
  ExternalPst basic(&dev_basic);
  ASSERT_TRUE(basic.Build(pts).ok());

  MemPageDevice dev_two(page);
  TwoLevelPst two(&dev_two);
  ASSERT_TRUE(two.Build(pts).ok());

  EXPECT_LT(dev_two.live_pages(), dev_basic.live_pages());
  // Absolute form of the bound with a generous constant.
  const uint64_t loglogB = FloorLogLog2(B) + 1;
  EXPECT_LE(dev_two.live_pages(), 10 * CeilDiv(pts.size(), B) * loglogB + 16);
  EXPECT_EQ(dev_two.live_pages(), two.storage().total());
}

// Theorem 4.4 direction: more levels never increase the space (up to the
// additive slack the small sub-structures cost), and queries stay correct.
TEST(TwoLevelPstTest, MultilevelReducesTopLevelCacheCost) {
  const uint32_t page = 1024;  // small B makes the level effects visible
  auto pts = UniformPts(200000, 29);

  MemPageDevice dev2(page);
  TwoLevelPstOptions o2;
  o2.levels = 2;
  TwoLevelPst two(&dev2, o2);
  ASSERT_TRUE(two.Build(pts).ok());

  MemPageDevice dev3(page);
  TwoLevelPstOptions o3;
  o3.levels = 3;
  TwoLevelPst three(&dev3, o3);
  ASSERT_TRUE(three.Build(pts).ok());

  // The third level trades second-level cache blocks for another recursion;
  // its total must stay within a small factor of the two-level total.
  EXPECT_LE(dev3.live_pages(), dev2.live_pages() * 3 / 2);
}

TEST(TwoLevelPstTest, DestroyFreesEverythingIncludingSecondLevel) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(30000, 31)).ok());
  EXPECT_GT(dev.live_pages(), 0u);
  ASSERT_TRUE(pst.Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(TwoLevelPstTest, IoErrorPropagates) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(30000, 37)).ok());
  dev.InjectFailureAfter(1);
  std::vector<Point> out;
  EXPECT_TRUE(pst.QueryTwoSided({0, 0}, &out).IsIoError());
  dev.InjectFailureAfter(-1);
}

TEST(TwoLevelPstTest, WastefulIoIsPaidFor) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  auto pts = UniformPts(200000, 41);
  ASSERT_TRUE(pst.Build(pts).ok());
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pts.size(), B) + 1;

  Rng rng(43);
  for (int i = 0; i < 25; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    QueryStats qs;
    ASSERT_TRUE(pst.QueryTwoSided(q, &got, &qs).ok());
    EXPECT_LE(qs.wasteful, 2 * qs.useful + 10 * logB_n + 16) << qs.ToString();
  }
}

}  // namespace
}  // namespace pathcache
