#include "incore/segment_tree.h"

#include <gtest/gtest.h>

#include "sweep_dist.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

TEST(InCoreSegTreeTest, Empty) {
  SegmentTree st;
  std::vector<Interval> out;
  st.Stab(5, &out);
  EXPECT_TRUE(out.empty());
}

TEST(InCoreSegTreeTest, SingleInterval) {
  std::vector<Interval> ivs = {{10, 20, 1}};
  SegmentTree st(ivs);
  std::vector<Interval> out;
  st.Stab(10, &out);
  EXPECT_EQ(out.size(), 1u);  // lo is inclusive
  out.clear();
  st.Stab(20, &out);
  EXPECT_EQ(out.size(), 1u);  // hi is inclusive
  out.clear();
  st.Stab(21, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  st.Stab(9, &out);
  EXPECT_TRUE(out.empty());
}

TEST(InCoreSegTreeTest, PointInterval) {
  std::vector<Interval> ivs = {{5, 5, 1}, {0, 10, 2}};
  SegmentTree st(ivs);
  std::vector<Interval> out;
  st.Stab(5, &out);
  EXPECT_TRUE(SameResult(out, BruteStab(ivs, 5)));
}

struct SegCase {
  uint64_t n;
  uint64_t seed;
  Dist dist;
};

class InCoreSegTreeRandomTest : public ::testing::TestWithParam<SegCase> {};

TEST_P(InCoreSegTreeRandomTest, MatchesBruteForce) {
  const auto& sc = GetParam();
  IntervalGenOptions o;
  o.n = sc.n;
  o.seed = sc.seed;
  o.domain_max = 100000;
  o.mean_len_frac = 0.05;
  std::vector<Interval> ivs;
  if (sc.dist == Dist::kUniform) {
    ivs = GenIntervalsUniform(o);
  } else if (sc.dist == Dist::kNested) {
    ivs = GenIntervalsNested(o);
  } else {
    ivs = GenIntervalsBursty(o, 10);
  }

  SegmentTree st(ivs);
  Rng rng(sc.seed ^ 0x5151);
  for (int i = 0; i < 60; ++i) {
    int64_t q = rng.UniformRange(-10, 100010);
    std::vector<Interval> got;
    st.Stab(q, &got);
    EXPECT_TRUE(SameResult(got, BruteStab(ivs, q))) << "q=" << q;
  }
  // Also stab exactly at endpoints, where off-by-ones live.
  for (int i = 0; i < 30; ++i) {
    const auto& iv = ivs[rng.Uniform(ivs.size())];
    for (int64_t q : {iv.lo, iv.hi, iv.lo - 1, iv.hi + 1}) {
      std::vector<Interval> got;
      st.Stab(q, &got);
      EXPECT_TRUE(SameResult(got, BruteStab(ivs, q))) << "q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InCoreSegTreeRandomTest,
    ::testing::Values(SegCase{10, 1, Dist::kUniform},
                      SegCase{100, 2, Dist::kUniform},
                      SegCase{2000, 3, Dist::kUniform},
                      SegCase{2000, 4, Dist::kNested},
                      SegCase{2000, 5, Dist::kBursty},
                      SegCase{777, 6, Dist::kUniform}));

TEST(InCoreSegTreeTest, StorageIsNLogN) {
  IntervalGenOptions o;
  o.n = 10000;
  o.seed = 9;
  auto ivs = GenIntervalsUniform(o);
  SegmentTree st(ivs);
  // Each interval sits in at most ~2 log(2n) cover lists.
  uint64_t bound = 2ULL * o.n * (CeilLog2(2 * o.n) + 1);
  EXPECT_LE(st.stored_copies(), bound);
  EXPECT_GE(st.stored_copies(), o.n);  // every interval stored somewhere
}

}  // namespace
}  // namespace pathcache
