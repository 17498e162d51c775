// Differential tests: all four external structures vs their in-core
// oracles, through the shared property-based harness in oracle_common.h.
// These subsume the per-structure MatchesBruteForce sweeps that previously
// lived in pst_external_test.cpp, three_sided_test.cpp,
// ext_segment_tree_test.cpp and ext_interval_tree_test.cpp.

#include "oracle_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ext_interval_tree.h"
#include "core/ext_segment_tree.h"
#include "core/pst_external.h"
#include "core/three_sided.h"
#include "io/mem_page_device.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace difftest {
namespace {

std::vector<Point> GenPointsFor(const DiffCase& c, int64_t coord_max) {
  PointGenOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.coord_max = coord_max;
  if (c.dist == Dist::kClustered) return GenPointsClustered(o, 6, 4000);
  if (c.dist == Dist::kAnti) return GenPointsAntiCorrelated(o, 3000);
  if (c.dist == Dist::kDiagonal) return GenPointsDiagonal(o, 1500);
  return GenPointsUniform(o);
}

std::vector<Interval> GenIntervalsFor(const DiffCase& c) {
  IntervalGenOptions o;
  o.n = c.n;
  o.seed = c.seed;
  o.domain_max = 2'000'000;
  o.mean_len_frac = 0.02;
  std::vector<Interval> ivs;
  if (c.dist == Dist::kNested) {
    ivs = GenIntervalsNested(o);
  } else if (c.dist == Dist::kBursty) {
    ivs = GenIntervalsBursty(o, 9);
  } else {
    ivs = GenIntervalsUniform(o);
  }
  MakeEndpointsDistinct(&ivs);
  return ivs;
}

/// Stab queries probe interval endpoints and their one-off neighbors (the
/// off-by-one hot spots), the midpoint, and a uniform position — cycled by
/// the query ordinal so a fixed query count covers every flavor.
int64_t SampleStab(const std::vector<Interval>& ivs, Rng* rng, int ordinal) {
  if (ivs.empty()) return rng->UniformRange(-5, 4'100'000);
  const Interval& iv = ivs[rng->Uniform(ivs.size())];
  switch (ordinal % 6) {
    case 0: return iv.lo;
    case 1: return iv.hi;
    case 2: return iv.lo - 1;
    case 3: return iv.hi + 1;
    case 4: return (iv.lo + iv.hi) / 2;
    default: return rng->UniformRange(-5, 4'100'000);
  }
}

struct ExternalPstAdapter {
  using Record = Point;
  using Query = TwoSidedQuery;
  static const char* Name() { return "ExternalPst"; }

  struct Instance {
    MemPageDevice dev;
    ExternalPst pst;
    Status init;
    Instance(const std::vector<Point>& recs, const DiffCase& c)
        : dev(c.page_size),
          pst(&dev, ExternalPstOptions{.enable_path_caching = c.caching != 0}) {
      init = pst.Build(recs);
    }
    Status Query(const TwoSidedQuery& q, std::vector<Point>* out) const {
      return pst.QueryTwoSided(q, out);
    }
  };

  static std::vector<Point> GenRecords(const DiffCase& c) {
    return GenPointsFor(c, 200000);
  }
  static TwoSidedQuery Sample(const std::vector<Point>& recs, Rng* rng,
                              const DiffCase&, int) {
    return SampleTwoSidedQuery(recs, rng);
  }
  static std::vector<TwoSidedQuery> BoundaryQueries() {
    return {{INT64_MIN, INT64_MIN}, {INT64_MAX, INT64_MAX}};
  }
  static std::vector<Point> Oracle(const std::vector<Point>& recs,
                                   const TwoSidedQuery& q) {
    return BruteTwoSided(recs, q);
  }
  static std::string FormatQuery(const TwoSidedQuery& q) {
    return "TwoSidedQuery{" + std::to_string(q.x_min) + ", " +
           std::to_string(q.y_min) + "}";
  }
};

struct ThreeSidedAdapter {
  using Record = Point;
  using Query = ThreeSidedQuery;
  static const char* Name() { return "ThreeSidedPst"; }

  struct Instance {
    MemPageDevice dev;
    ThreeSidedPst pst;
    Status init;
    Instance(const std::vector<Point>& recs, const DiffCase& c)
        : dev(c.page_size),
          pst(&dev,
              ThreeSidedPstOptions{.enable_path_caching = c.caching != 0}) {
      init = pst.Build(recs);
    }
    Status Query(const ThreeSidedQuery& q, std::vector<Point>* out) const {
      return pst.QueryThreeSided(q, out);
    }
  };

  static std::vector<Point> GenRecords(const DiffCase& c) {
    return GenPointsFor(c, 250000);
  }
  static ThreeSidedQuery Sample(const std::vector<Point>& recs, Rng* rng,
                                const DiffCase& c, int) {
    return SampleThreeSidedQuery(recs, c.x_frac, rng);
  }
  static std::vector<ThreeSidedQuery> BoundaryQueries() {
    // Whole plane (must report everything), inverted x-range (nothing).
    return {{INT64_MIN, INT64_MAX, INT64_MIN}, {10, 0, INT64_MIN}};
  }
  static std::vector<Point> Oracle(const std::vector<Point>& recs,
                                   const ThreeSidedQuery& q) {
    return BruteThreeSided(recs, q);
  }
  static std::string FormatQuery(const ThreeSidedQuery& q) {
    return "ThreeSidedQuery{" + std::to_string(q.x_min) + ", " +
           std::to_string(q.x_max) + ", " + std::to_string(q.y_min) + "}";
  }
};

struct SegTreeAdapter {
  using Record = Interval;
  using Query = int64_t;
  static const char* Name() { return "ExtSegmentTree"; }

  struct Instance {
    MemPageDevice dev;
    ExtSegmentTree tree;
    Status init;
    Instance(const std::vector<Interval>& recs, const DiffCase& c)
        : dev(c.page_size),
          tree(&dev,
               ExtSegmentTreeOptions{.enable_path_caching = c.caching != 0}) {
      init = tree.Build(recs);
    }
    Status Query(int64_t q, std::vector<Interval>* out) const {
      return tree.Stab(q, out);
    }
  };

  static std::vector<Interval> GenRecords(const DiffCase& c) {
    return GenIntervalsFor(c);
  }
  static int64_t Sample(const std::vector<Interval>& recs, Rng* rng,
                        const DiffCase&, int ordinal) {
    return SampleStab(recs, rng, ordinal);
  }
  static std::vector<int64_t> BoundaryQueries() {
    return {INT64_MIN, -1, 0, INT64_MAX};
  }
  static std::vector<Interval> Oracle(const std::vector<Interval>& recs,
                                      int64_t q) {
    return BruteStab(recs, q);
  }
  static std::string FormatQuery(int64_t q) {
    return "Stab(" + std::to_string(q) + ")";
  }
};

struct IntervalTreeAdapter {
  using Record = Interval;
  using Query = int64_t;
  static const char* Name() { return "ExtIntervalTree"; }

  struct Instance {
    MemPageDevice dev;
    ExtIntervalTree tree;
    Status init;
    Instance(const std::vector<Interval>& recs, const DiffCase& c)
        : dev(c.page_size),
          tree(&dev,
               ExtIntervalTreeOptions{.enable_path_caching = c.caching != 0}) {
      init = tree.Build(recs);
    }
    Status Query(int64_t q, std::vector<Interval>* out) const {
      return tree.Stab(q, out);
    }
  };

  static std::vector<Interval> GenRecords(const DiffCase& c) {
    return GenIntervalsFor(c);
  }
  static int64_t Sample(const std::vector<Interval>& recs, Rng* rng,
                        const DiffCase&, int ordinal) {
    return SampleStab(recs, rng, ordinal);
  }
  static std::vector<int64_t> BoundaryQueries() {
    return {INT64_MIN, -1, 0, INT64_MAX};
  }
  static std::vector<Interval> Oracle(const std::vector<Interval>& recs,
                                      int64_t q) {
    return BruteStab(recs, q);
  }
  static std::string FormatQuery(int64_t q) {
    return "Stab(" + std::to_string(q) + ")";
  }
};

class TwoSidedDifferential : public ::testing::TestWithParam<DiffCase> {};
TEST_P(TwoSidedDifferential, MatchesOracle) {
  RunDifferential<ExternalPstAdapter>(GetParam(), 30);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoSidedDifferential,
    ::testing::Values(DiffCase{.n = 1, .seed = 1},
                      DiffCase{.n = 50, .seed = 2},
                      DiffCase{.n = 1000, .seed = 3},
                      DiffCase{.n = 20000, .seed = 4},
                      DiffCase{.n = 20000, .seed = 5, .caching = false},
                      DiffCase{.n = 5000, .seed = 6, .page_size = 512},
                      DiffCase{.n = 5000, .seed = 7, .page_size = 512,
                               .caching = false},
                      DiffCase{.n = 5000, .seed = 8, .page_size = 256},
                      DiffCase{.n = 10000, .seed = 9, .dist = Dist::kClustered},
                      DiffCase{.n = 10000, .seed = 10, .dist = Dist::kAnti},
                      DiffCase{.n = 10000, .seed = 11, .dist = Dist::kDiagonal},
                      DiffCase{.n = 10000, .seed = 12, .page_size = 1024,
                               .caching = false, .dist = Dist::kClustered}));

class ThreeSidedDifferential : public ::testing::TestWithParam<DiffCase> {};
TEST_P(ThreeSidedDifferential, MatchesOracle) {
  RunDifferential<ThreeSidedAdapter>(GetParam(), 30);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeSidedDifferential,
    ::testing::Values(DiffCase{.n = 50, .seed = 1, .x_frac = 0.3},
                      DiffCase{.n = 1000, .seed = 2, .x_frac = 0.2},
                      DiffCase{.n = 20000, .seed = 3, .x_frac = 0.1},
                      DiffCase{.n = 20000, .seed = 4, .x_frac = 0.01},
                      DiffCase{.n = 20000, .seed = 5, .caching = false,
                               .x_frac = 0.1},
                      DiffCase{.n = 8000, .seed = 6, .page_size = 512},
                      DiffCase{.n = 8000, .seed = 7, .page_size = 512,
                               .caching = false},
                      DiffCase{.n = 8000, .seed = 8, .page_size = 256,
                               .x_frac = 0.3},
                      DiffCase{.n = 15000, .seed = 9, .dist = Dist::kClustered,
                               .x_frac = 0.15},
                      DiffCase{.n = 15000, .seed = 10, .dist = Dist::kDiagonal,
                               .x_frac = 0.15},
                      DiffCase{.n = 15000, .seed = 11, .page_size = 1024,
                               .x_frac = 0.5},
                      DiffCase{.n = 15000, .seed = 12, .page_size = 1024,
                               .x_frac = 0.9}));

class SegTreeDifferential : public ::testing::TestWithParam<DiffCase> {};
TEST_P(SegTreeDifferential, MatchesOracle) {
  RunDifferential<SegTreeAdapter>(GetParam(), 240);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, SegTreeDifferential,
    ::testing::Values(DiffCase{.n = 10, .seed = 1},
                      DiffCase{.n = 500, .seed = 2},
                      DiffCase{.n = 10000, .seed = 3},
                      DiffCase{.n = 10000, .seed = 4, .caching = false},
                      DiffCase{.n = 5000, .seed = 5, .page_size = 512},
                      DiffCase{.n = 5000, .seed = 6, .page_size = 512,
                               .caching = false},
                      DiffCase{.n = 8000, .seed = 7, .dist = Dist::kNested},
                      DiffCase{.n = 8000, .seed = 8, .dist = Dist::kBursty},
                      DiffCase{.n = 4000, .seed = 9, .page_size = 256}));

class IntervalTreeDifferential : public ::testing::TestWithParam<DiffCase> {};
TEST_P(IntervalTreeDifferential, MatchesOracle) {
  RunDifferential<IntervalTreeAdapter>(GetParam(), 240);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, IntervalTreeDifferential,
    ::testing::Values(DiffCase{.n = 10, .seed = 1},
                      DiffCase{.n = 500, .seed = 2},
                      DiffCase{.n = 10000, .seed = 3},
                      DiffCase{.n = 10000, .seed = 4, .caching = false},
                      DiffCase{.n = 5000, .seed = 5, .page_size = 512},
                      DiffCase{.n = 5000, .seed = 6, .page_size = 512,
                               .caching = false},
                      DiffCase{.n = 8000, .seed = 7, .dist = Dist::kNested},
                      DiffCase{.n = 8000, .seed = 8, .dist = Dist::kBursty},
                      DiffCase{.n = 4000, .seed = 9, .page_size = 256},
                      DiffCase{.n = 20000, .seed = 10, .page_size = 1024}));

/// The shrinker itself is load-bearing test infrastructure; pin its
/// behavior with a deliberately broken "structure" whose only bug is
/// dropping the record with the largest id from every answer.  The minimal
/// reproducer must shrink to exactly one record.
struct BuggyAdapter {
  using Record = Interval;
  using Query = int64_t;
  static const char* Name() { return "BuggyOracleDropper"; }

  struct Instance {
    std::vector<Interval> recs;
    Status init = Status::OK();
    Instance(const std::vector<Interval>& r, const DiffCase&) : recs(r) {}
    Status Query(int64_t q, std::vector<Interval>* out) const {
      *out = BruteStab(recs, q);
      if (!out->empty()) {
        auto worst = out->begin();
        for (auto it = out->begin(); it != out->end(); ++it) {
          if (it->id > worst->id) worst = it;
        }
        out->erase(worst);
      }
      return Status::OK();
    }
  };

  static std::vector<Interval> GenRecords(const DiffCase& c) {
    return GenIntervalsFor(c);
  }
  static int64_t Sample(const std::vector<Interval>& recs, Rng* rng,
                        const DiffCase&, int ordinal) {
    return SampleStab(recs, rng, ordinal);
  }
  static std::vector<int64_t> BoundaryQueries() { return {}; }
  static std::vector<Interval> Oracle(const std::vector<Interval>& recs,
                                      int64_t q) {
    return BruteStab(recs, q);
  }
  static std::string FormatQuery(int64_t q) {
    return "Stab(" + std::to_string(q) + ")";
  }
};

TEST(ShrinkerTest, MinimizesToSingleCulprit) {
  const DiffCase c{.n = 2000, .seed = 77};
  const auto recs = GenIntervalsFor(c);
  // Find a query the buggy structure answers wrongly (any non-empty stab).
  Rng rng(c.seed);
  int64_t q = 0;
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    q = SampleStab(recs, &rng, i);
    found = !BruteStab(recs, q).empty();
  }
  ASSERT_TRUE(found);
  ASSERT_TRUE(Disagrees<BuggyAdapter>(recs, q, c));
  auto minimal = ShrinkRecords<BuggyAdapter>(recs, q, c);
  // One stabbed interval suffices to expose a dropped record.
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_TRUE(minimal[0].Contains(q));
}

TEST(ShrinkerTest, PassingCaseDoesNotDisagree) {
  const DiffCase c{.n = 300, .seed = 5};
  const auto recs = GenIntervalsFor(c);
  EXPECT_FALSE(Disagrees<SegTreeAdapter>(recs, recs[0].lo, c));
}

}  // namespace
}  // namespace difftest
}  // namespace pathcache
