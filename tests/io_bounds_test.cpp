// Cross-page-size property sweep: every optimal structure's measured query
// I/O must satisfy  reads <= c1*log_B n + c2*ceil(t/B) + c3  for fixed
// constants, at every page size — the bounds are about B, so they must
// hold as B changes, not just at the default 4096.

#include <gtest/gtest.h>

#include "core/pathcache.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

// All-64-bit fields leave no padding bytes, so gtest's byte-dump name for
// each case (the CTest test name) is the same on every build and run.
struct BoundCase {
  uint64_t page_size;
  uint64_t n;
};

std::vector<Point> Pts(uint64_t n) {
  PointGenOptions o;
  o.n = n;
  o.seed = 77;
  o.coord_max = 1'000'000;
  return GenPointsUniform(o);
}

class TwoSidedBoundSweep : public ::testing::TestWithParam<BoundCase> {};

TEST_P(TwoSidedBoundSweep, CachedStructuresMeetTheBound) {
  const auto& c = GetParam();
  MemPageDevice dev(c.page_size);
  const uint32_t B = RecordsPerPage<Point>(c.page_size);
  const uint64_t logB_n = CeilLogBase(c.n, std::max(B, 2u)) + 1;
  auto pts = Pts(c.n);

  ExternalPst basic(&dev);
  ASSERT_TRUE(basic.Build(pts).ok());
  TwoLevelPst two(&dev);
  ASSERT_TRUE(two.Build(pts).ok());

  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    for (int which = 0; which < 2; ++which) {
      std::vector<Point> out;
      dev.ResetStats();
      if (which == 0) {
        ASSERT_TRUE(basic.QueryTwoSided(q, &out).ok());
      } else {
        ASSERT_TRUE(two.QueryTwoSided(q, &out).ok());
      }
      uint64_t bound = 12 * logB_n + 5 * CeilDiv(out.size(), B) + 20;
      EXPECT_LE(dev.stats().reads, bound)
          << "which=" << which << " page=" << c.page_size
          << " t=" << out.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoSidedBoundSweep,
                         ::testing::Values(BoundCase{512, 30'000},
                                           BoundCase{1024, 60'000},
                                           BoundCase{4096, 120'000},
                                           BoundCase{16384, 200'000}));

class StabBoundSweep : public ::testing::TestWithParam<BoundCase> {};

TEST_P(StabBoundSweep, IntervalStructuresMeetTheBound) {
  const auto& c = GetParam();
  const uint32_t B = RecordsPerPage<Interval>(c.page_size);
  const uint64_t logB_n = CeilLogBase(c.n, std::max(B, 2u)) + 1;

  IntervalGenOptions o;
  o.n = c.n;
  o.seed = 13;
  o.domain_max = 4'000'000;
  o.mean_len_frac = 0.003;
  auto ivs = GenIntervalsUniform(o);
  MakeEndpointsDistinct(&ivs);

  MemPageDevice dev_s(c.page_size), dev_i(c.page_size);
  ExtSegmentTree seg(&dev_s);
  ASSERT_TRUE(seg.Build(ivs).ok());
  ExtIntervalTree itree(&dev_i);
  ASSERT_TRUE(itree.Build(ivs).ok());

  Rng rng(17);
  const int64_t domain = static_cast<int64_t>(ivs.size()) * 4;
  for (int i = 0; i < 25; ++i) {
    int64_t q = rng.UniformRange(0, domain);
    std::vector<Interval> out;
    dev_s.ResetStats();
    ASSERT_TRUE(seg.Stab(q, &out).ok());
    uint64_t bound = 10 * logB_n + 4 * CeilDiv(out.size(), B) + 16;
    EXPECT_LE(dev_s.stats().reads, bound)
        << "segtree page=" << c.page_size << " t=" << out.size();

    out.clear();
    dev_i.ResetStats();
    ASSERT_TRUE(itree.Stab(q, &out).ok());
    EXPECT_LE(dev_i.stats().reads, bound)
        << "inttree page=" << c.page_size << " t=" << out.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StabBoundSweep,
                         ::testing::Values(BoundCase{512, 30'000},
                                           BoundCase{1024, 60'000},
                                           BoundCase{4096, 120'000}));

class ThreeSidedBoundSweep : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ThreeSidedBoundSweep, MeetsTheBound) {
  const auto& c = GetParam();
  MemPageDevice dev(c.page_size);
  const uint32_t B = RecordsPerPage<Point>(c.page_size);
  const uint64_t logB_n = CeilLogBase(c.n, std::max(B, 2u)) + 1;
  auto pts = Pts(c.n);
  ThreeSidedPst pst(&dev);
  ASSERT_TRUE(pst.Build(pts).ok());

  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    auto q = SampleThreeSidedQuery(pts, 0.02 + 0.05 * (i % 4), &rng);
    std::vector<Point> out;
    dev.ResetStats();
    ASSERT_TRUE(pst.QueryThreeSided(q, &out).ok());
    uint64_t bound = 20 * logB_n + 5 * CeilDiv(out.size(), B) + 28;
    EXPECT_LE(dev.stats().reads, bound)
        << "page=" << c.page_size << " t=" << out.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThreeSidedBoundSweep,
                         ::testing::Values(BoundCase{512, 30'000},
                                           BoundCase{1024, 60'000},
                                           BoundCase{4096, 120'000}));

}  // namespace
}  // namespace pathcache
