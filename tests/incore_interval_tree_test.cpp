#include "incore/interval_tree.h"

#include <gtest/gtest.h>

#include "sweep_dist.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

TEST(InCoreIntervalTreeTest, Empty) {
  IntervalTree it;
  std::vector<Interval> out;
  it.Stab(5, &out);
  EXPECT_TRUE(out.empty());
}

TEST(InCoreIntervalTreeTest, EndpointsInclusive) {
  std::vector<Interval> ivs = {{10, 20, 1}, {15, 30, 2}, {25, 40, 3}};
  IntervalTree it(ivs);
  for (int64_t q : {9, 10, 15, 20, 21, 25, 30, 31, 40, 41}) {
    std::vector<Interval> got;
    it.Stab(q, &got);
    EXPECT_TRUE(SameResult(got, BruteStab(ivs, q))) << "q=" << q;
  }
}

TEST(InCoreIntervalTreeTest, IdenticalIntervals) {
  std::vector<Interval> ivs = {{5, 10, 1}, {5, 10, 2}, {5, 10, 3}};
  IntervalTree it(ivs);
  std::vector<Interval> got;
  it.Stab(7, &got);
  EXPECT_EQ(got.size(), 3u);
}

struct ItCase {
  uint64_t n;
  uint64_t seed;
  Dist dist;
};

class InCoreIntervalTreeRandomTest : public ::testing::TestWithParam<ItCase> {
};

TEST_P(InCoreIntervalTreeRandomTest, MatchesBruteForce) {
  const auto& tc = GetParam();
  IntervalGenOptions o;
  o.n = tc.n;
  o.seed = tc.seed;
  o.domain_max = 50000;
  o.mean_len_frac = 0.03;
  std::vector<Interval> ivs;
  if (tc.dist == Dist::kUniform) {
    ivs = GenIntervalsUniform(o);
  } else if (tc.dist == Dist::kNested) {
    ivs = GenIntervalsNested(o);
  } else {
    ivs = GenIntervalsBursty(o, 6);
  }

  IntervalTree it(ivs);
  Rng rng(tc.seed ^ 0x1717);
  for (int i = 0; i < 60; ++i) {
    int64_t q = rng.UniformRange(-10, 50010);
    std::vector<Interval> got;
    it.Stab(q, &got);
    EXPECT_TRUE(SameResult(got, BruteStab(ivs, q))) << "q=" << q;
  }
  for (int i = 0; i < 30; ++i) {
    const auto& iv = ivs[rng.Uniform(ivs.size())];
    for (int64_t q : {iv.lo, iv.hi, iv.lo - 1, iv.hi + 1}) {
      std::vector<Interval> got;
      it.Stab(q, &got);
      EXPECT_TRUE(SameResult(got, BruteStab(ivs, q))) << "q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InCoreIntervalTreeRandomTest,
    ::testing::Values(ItCase{10, 1, Dist::kUniform},
                      ItCase{100, 2, Dist::kUniform},
                      ItCase{2000, 3, Dist::kUniform},
                      ItCase{2000, 4, Dist::kNested},
                      ItCase{2000, 5, Dist::kBursty},
                      ItCase{999, 6, Dist::kUniform}));

}  // namespace
}  // namespace pathcache
