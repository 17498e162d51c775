// Cross-structure property tests: every index answering the same query
// class must return identical result sets on identical inputs, across
// distributions — including adversarial ones (all-equal coordinates,
// collinear points, heavy duplication).  Any divergence pinpoints a bug in
// exactly one structure, which unit suites can then localize.

#include <gtest/gtest.h>

#include "core/pathcache.h"
#include "incore/dynamic_pst.h"
#include "incore/interval_tree.h"
#include "incore/priority_search_tree.h"
#include "incore/segment_tree.h"
#include "io/mem_page_device.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

std::vector<Point> MakePoints(const std::string& dist, uint64_t n,
                              uint64_t seed) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  o.coord_max = 100'000;
  if (dist == "uniform") return GenPointsUniform(o);
  if (dist == "clustered") return GenPointsClustered(o, 5, 2'000);
  if (dist == "diagonal") return GenPointsDiagonal(o, 500);
  if (dist == "anti") return GenPointsAntiCorrelated(o, 500);
  if (dist == "zipf") return GenPointsZipfX(o, 0.99);
  std::vector<Point> pts;
  if (dist == "same_x") {
    for (uint64_t i = 0; i < n; ++i) {
      pts.push_back({42, static_cast<int64_t>(i * 3 % 1000), i});
    }
  } else if (dist == "same_y") {
    for (uint64_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<int64_t>(i * 7 % 1000), 42, i});
    }
  } else if (dist == "same_xy") {
    for (uint64_t i = 0; i < n; ++i) pts.push_back({7, 7, i});
  } else if (dist == "grid") {
    for (uint64_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<int64_t>(i % 50),
                     static_cast<int64_t>(i / 50), i});
    }
  }
  return pts;
}

struct EqCase {
  const char* dist;
  uint64_t n;
  uint64_t seed;
  uint32_t page_size;
};

// Names each case by value; gtest's default byte dump would embed the
// address of `dist`, which changes from build to build.
void PrintTo(const EqCase& c, std::ostream* os) {
  *os << c.dist << " n=" << c.n << " seed=" << c.seed
      << " page=" << c.page_size;
}

class TwoSidedEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(TwoSidedEquivalence, AllStructuresAgree) {
  const auto& c = GetParam();
  auto pts = MakePoints(c.dist, c.n, c.seed);
  MemPageDevice dev(c.page_size);

  ExternalPstOptions iko_opts;
  iko_opts.enable_path_caching = false;
  ExternalPst iko(&dev, iko_opts);
  ExternalPst basic(&dev);
  TwoLevelPst two(&dev);
  TwoLevelPstOptions m3;
  m3.levels = 3;
  TwoLevelPst multi(&dev, m3);
  DynamicPst dyn(&dev);
  XSortedBaseline scan(&dev);
  PrioritySearchTree incore(pts);

  ASSERT_TRUE(iko.Build(pts).ok());
  ASSERT_TRUE(basic.Build(pts).ok());
  ASSERT_TRUE(two.Build(pts).ok());
  ASSERT_TRUE(multi.Build(pts).ok());
  ASSERT_TRUE(dyn.Build(pts).ok());
  ASSERT_TRUE(scan.Build(pts).ok());

  Rng rng(c.seed ^ 0xEE);
  for (int i = 0; i < 20; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    auto want = BruteTwoSided(pts, q);

    std::vector<Point> got;
    ASSERT_TRUE(iko.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "iko " << c.dist;
    got.clear();
    ASSERT_TRUE(basic.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "basic " << c.dist;
    got.clear();
    ASSERT_TRUE(two.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "two-level " << c.dist;
    got.clear();
    ASSERT_TRUE(multi.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "multilevel " << c.dist;
    got.clear();
    ASSERT_TRUE(dyn.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "dynamic " << c.dist;
    got.clear();
    ASSERT_TRUE(scan.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "baseline " << c.dist;
    got.clear();
    incore.QueryTwoSided(q.x_min, q.y_min, &got);
    ASSERT_TRUE(SameResult(got, want)) << "incore " << c.dist;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoSidedEquivalence,
    ::testing::Values(EqCase{"uniform", 8000, 1, 4096},
                      EqCase{"clustered", 8000, 2, 4096},
                      EqCase{"diagonal", 8000, 3, 4096},
                      EqCase{"anti", 8000, 4, 1024},
                      EqCase{"zipf", 8000, 5, 4096},
                      EqCase{"same_x", 3000, 6, 512},
                      EqCase{"same_y", 3000, 7, 512},
                      EqCase{"same_xy", 2000, 8, 512},
                      EqCase{"grid", 2500, 9, 1024}));

class ThreeSidedEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(ThreeSidedEquivalence, AllStructuresAgree) {
  const auto& c = GetParam();
  auto pts = MakePoints(c.dist, c.n, c.seed);
  MemPageDevice dev(c.page_size);

  ThreeSidedPst cached(&dev);
  ThreeSidedPstOptions un;
  un.enable_path_caching = false;
  ThreeSidedPst uncached(&dev, un);
  DynamicThreeSidedPst dyn(&dev);
  XSortedBaseline scan(&dev);
  PrioritySearchTree incore(pts);
  DynamicPrioritySearchTree incore_dyn(pts);

  ASSERT_TRUE(cached.Build(pts).ok());
  ASSERT_TRUE(uncached.Build(pts).ok());
  ASSERT_TRUE(dyn.Build(pts).ok());
  ASSERT_TRUE(scan.Build(pts).ok());

  Rng rng(c.seed ^ 0xFF);
  for (int i = 0; i < 20; ++i) {
    auto q = SampleThreeSidedQuery(pts, 0.05 + 0.1 * (i % 5), &rng);
    auto want = BruteThreeSided(pts, q);

    std::vector<Point> got;
    ASSERT_TRUE(cached.QueryThreeSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "cached " << c.dist;
    got.clear();
    ASSERT_TRUE(uncached.QueryThreeSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "uncached " << c.dist;
    got.clear();
    ASSERT_TRUE(dyn.QueryThreeSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "dynamic " << c.dist;
    got.clear();
    ASSERT_TRUE(scan.QueryThreeSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "baseline " << c.dist;
    got.clear();
    incore.QueryThreeSided(q.x_min, q.x_max, q.y_min, &got);
    ASSERT_TRUE(SameResult(got, want)) << "incore " << c.dist;
    got.clear();
    incore_dyn.QueryThreeSided(q.x_min, q.x_max, q.y_min, &got);
    ASSERT_TRUE(SameResult(got, want)) << "incore-dyn " << c.dist;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeSidedEquivalence,
    ::testing::Values(EqCase{"uniform", 8000, 11, 4096},
                      EqCase{"clustered", 8000, 12, 4096},
                      EqCase{"diagonal", 8000, 13, 1024},
                      EqCase{"same_x", 3000, 14, 512},
                      EqCase{"same_y", 3000, 15, 512},
                      EqCase{"grid", 2500, 16, 1024}));

// Stabbing equivalence: external segment tree, interval tree, in-core
// versions, and the [KRV]-reduction index all agree.
struct StabCase {
  const char* dist;
  uint64_t n;
  uint64_t seed;
  uint32_t page_size;
};

void PrintTo(const StabCase& c, std::ostream* os) {
  *os << c.dist << " n=" << c.n << " seed=" << c.seed
      << " page=" << c.page_size;
}

class StabbingEquivalence : public ::testing::TestWithParam<StabCase> {};

TEST_P(StabbingEquivalence, AllStructuresAgree) {
  const auto& c = GetParam();
  IntervalGenOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.domain_max = 200'000;
  o.mean_len_frac = 0.01;
  std::vector<Interval> ivs;
  if (std::string(c.dist) == "uniform") {
    ivs = GenIntervalsUniform(o);
  } else if (std::string(c.dist) == "nested") {
    ivs = GenIntervalsNested(o);
  } else {
    ivs = GenIntervalsBursty(o, 11);
  }

  MemPageDevice dev(c.page_size);
  ExtSegmentTree seg(&dev);
  ExtIntervalTree itree(&dev);
  StabbingIndex stab(&dev);
  SegmentTree incore_seg(ivs);
  IntervalTree incore_int(ivs);

  ASSERT_TRUE(seg.Build(ivs).ok());
  ASSERT_TRUE(itree.Build(ivs).ok());
  ASSERT_TRUE(stab.Build(ivs).ok());

  Rng rng(c.seed ^ 0xAB);
  for (int i = 0; i < 30; ++i) {
    int64_t q = rng.UniformRange(-10, 200'010);
    auto want = BruteStab(ivs, q);
    std::vector<Interval> got;
    ASSERT_TRUE(seg.Stab(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "segtree q=" << q;
    got.clear();
    ASSERT_TRUE(itree.Stab(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "inttree q=" << q;
    got.clear();
    ASSERT_TRUE(stab.Stab(q, &got).ok());
    ASSERT_TRUE(SameResult(got, want)) << "krv q=" << q;
    got.clear();
    incore_seg.Stab(q, &got);
    ASSERT_TRUE(SameResult(got, want)) << "incore-seg q=" << q;
    got.clear();
    incore_int.Stab(q, &got);
    ASSERT_TRUE(SameResult(got, want)) << "incore-int q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StabbingEquivalence,
    ::testing::Values(StabCase{"uniform", 6000, 21, 4096},
                      StabCase{"nested", 6000, 22, 4096},
                      StabCase{"bursty", 6000, 23, 1024},
                      StabCase{"uniform", 4000, 24, 512}));

}  // namespace
}  // namespace pathcache
