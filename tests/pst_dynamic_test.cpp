#include "core/pst_dynamic.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "io/mem_page_device.h"
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

// An id-keyed oracle mirroring the dynamic structure.
class Oracle {
 public:
  void Insert(const Point& p) { pts_[p.id] = p; }
  void Erase(const Point& p) { pts_.erase(p.id); }
  std::vector<Point> Query(const TwoSidedQuery& q) const {
    std::vector<Point> out;
    for (const auto& [id, p] : pts_) {
      if (q.Contains(p)) out.push_back(p);
    }
    return out;
  }
  std::vector<Point> All() const {
    std::vector<Point> out;
    for (const auto& [id, p] : pts_) out.push_back(p);
    return out;
  }
  size_t size() const { return pts_.size(); }
  const std::map<uint64_t, Point>& map() const { return pts_; }

 private:
  std::map<uint64_t, Point> pts_;
};

// Every live page's bytes, keyed by id; diffing two snapshots finds the
// pages an operation wrote.
std::map<PageId, std::vector<std::byte>> Snapshot(PageDevice* dev) {
  std::vector<PageId> ids;
  EXPECT_TRUE(dev->ListLivePages(&ids).ok());
  std::map<PageId, std::vector<std::byte>> pages;
  for (PageId id : ids) {
    auto& buf = pages[id];
    buf.resize(dev->page_size());
    EXPECT_TRUE(dev->Read(id, buf.data()).ok());
  }
  return pages;
}

// Sets the count word of the one page that differs between the snapshots
// (an update buffer) one past the page's UpdateRec capacity.
void CorruptChangedBufferCount(
    PageDevice* dev, const std::map<PageId, std::vector<std::byte>>& before,
    const std::map<PageId, std::vector<std::byte>>& after) {
  std::vector<PageId> changed;
  for (const auto& [id, bytes] : after) {
    auto it = before.find(id);
    if (it == before.end() || it->second != bytes) changed.push_back(id);
  }
  ASSERT_EQ(changed.size(), 1u);
  std::vector<std::byte> page = after.at(changed[0]);
  const uint32_t bad = RecordsPerPage<UpdateRec>(dev->page_size()) + 1;
  std::memcpy(page.data(), &bad, sizeof(bad));
  ASSERT_TRUE(dev->Write(changed[0], page.data()).ok());
}

TEST(DynamicPstTest, EmptyStructure) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  ASSERT_TRUE(pst.Build({}).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryTwoSided({0, 0}, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(DynamicPstTest, InsertIntoEmptyThenQuery) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  ASSERT_TRUE(pst.Build({}).ok());
  ASSERT_TRUE(pst.Insert({5, 7, 1}).ok());
  ASSERT_TRUE(pst.Insert({3, 9, 2}).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryTwoSided({0, 0}, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  ASSERT_TRUE(pst.QueryTwoSided({4, 0}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
}

TEST(DynamicPstTest, EraseBuffered) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  auto pts = UniformPts(2000, 3);
  ASSERT_TRUE(pst.Build(pts).ok());
  // Delete a few points; they sit in the buffer, queries must hide them.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pst.Erase(pts[i]).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryTwoSided({INT64_MIN, INT64_MIN}, &out).ok());
  std::vector<Point> want(pts.begin() + 10, pts.end());
  EXPECT_TRUE(SameResult(out, want));
}

struct DynCase {
  uint64_t n0;       // initial bulk size
  uint64_t ops;      // number of mixed updates
  uint64_t seed;
  uint32_t page_size;
  double insert_frac;
};

class DynamicPstSweep : public ::testing::TestWithParam<DynCase> {};

TEST_P(DynamicPstSweep, MixedWorkloadMatchesOracle) {
  const auto& c = GetParam();
  MemPageDevice dev(c.page_size);
  DynamicPst pst(&dev);
  Oracle oracle;

  auto pts = UniformPts(c.n0, c.seed, 500'000);
  ASSERT_TRUE(pst.Build(pts).ok());
  for (const auto& p : pts) oracle.Insert(p);

  Rng rng(c.seed ^ 0xD11A);
  uint64_t next_id = c.n0 + 1'000'000;
  for (uint64_t op = 0; op < c.ops; ++op) {
    if (oracle.size() == 0 || rng.Bernoulli(c.insert_frac)) {
      Point p{rng.UniformRange(0, 500'000), rng.UniformRange(0, 500'000),
              next_id++};
      ASSERT_TRUE(pst.Insert(p).ok());
      oracle.Insert(p);
    } else {
      auto it = oracle.map().begin();
      std::advance(it, rng.Uniform(oracle.size()));
      Point victim = it->second;
      ASSERT_TRUE(pst.Erase(victim).ok());
      oracle.Erase(victim);
    }
    EXPECT_EQ(pst.size(), oracle.size());

    if (op % 97 == 0 || op + 1 == c.ops) {
      TwoSidedQuery q{rng.UniformRange(0, 500'000),
                      rng.UniformRange(0, 500'000)};
      std::vector<Point> got;
      ASSERT_TRUE(pst.QueryTwoSided(q, &got).ok());
      ASSERT_TRUE(SameResult(got, oracle.Query(q)))
          << "op " << op << " q=(" << q.x_min << "," << q.y_min << ")";
    }
  }
  // Final full sweep.
  std::vector<Point> all;
  ASSERT_TRUE(pst.QueryTwoSided({INT64_MIN, INT64_MIN}, &all).ok());
  EXPECT_TRUE(SameResult(all, oracle.All()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicPstSweep,
    ::testing::Values(DynCase{0, 600, 1, 4096, 1.0},
                      DynCase{100, 500, 2, 4096, 0.5},
                      DynCase{5000, 2000, 3, 4096, 0.6},
                      DynCase{20000, 3000, 4, 4096, 0.5},
                      DynCase{5000, 2000, 5, 1024, 0.6},
                      DynCase{3000, 1500, 6, 512, 0.5},
                      DynCase{5000, 3000, 7, 4096, 0.2},
                      DynCase{10000, 1000, 8, 4096, 0.9}));

TEST(DynamicPstTest, DeleteThenReinsertSameId) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  ASSERT_TRUE(pst.Build({{1, 1, 42}}).ok());
  ASSERT_TRUE(pst.Erase({1, 1, 42}).ok());
  ASSERT_TRUE(pst.Insert({9, 9, 42}).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryTwoSided({0, 0}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 9);
}

// Theorem 5.1: amortized O(log_B n) I/Os per update.
TEST(DynamicPstTest, AmortizedUpdateIoIsLogarithmic) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  auto pts = UniformPts(100000, 11);
  ASSERT_TRUE(pst.Build(pts).ok());
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pts.size(), B) + 1;

  Rng rng(13);
  dev.ResetStats();
  const uint64_t kOps = 4000;
  uint64_t next_id = 10'000'000;
  for (uint64_t i = 0; i < kOps; ++i) {
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 1'000'000),
                              rng.UniformRange(0, 1'000'000), next_id++})
                      .ok());
    } else {
      ASSERT_TRUE(pst.Erase(pts[rng.Uniform(pts.size())]).ok());
      // (Duplicate erases of the same point are no-ops on flush.)
    }
  }
  double per_op =
      static_cast<double>(dev.stats().total()) / static_cast<double>(kOps);
  // Constant 24 covers: 2 I/Os logging + amortized flush/rebuild work.
  EXPECT_LE(per_op, 24.0 * logB_n + 24.0) << "per_op=" << per_op;
}

// Query I/O stays optimal in the presence of buffered updates.
TEST(DynamicPstTest, QueryIoStaysOptimalUnderUpdates) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  auto pts = UniformPts(100000, 17);
  ASSERT_TRUE(pst.Build(pts).ok());
  Rng rng(19);
  uint64_t next_id = 20'000'000;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 1'000'000),
                            rng.UniformRange(0, 1'000'000), next_id++})
                    .ok());
  }
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pst.size(), B) + 1;
  for (int i = 0; i < 25; ++i) {
    TwoSidedQuery q{rng.UniformRange(0, 1'000'000),
                    rng.UniformRange(0, 1'000'000)};
    std::vector<Point> got;
    dev.ResetStats();
    ASSERT_TRUE(pst.QueryTwoSided(q, &got).ok());
    uint64_t bound = 14 * logB_n + 5 * CeilDiv(got.size(), B) + 24;
    EXPECT_LE(dev.stats().reads, bound) << "t=" << got.size();
  }
}

// Theorem 5.1 space: O((n/B) log log B) blocks.
TEST(DynamicPstTest, StorageStaysNearLinear) {
  const uint32_t page = 4096;
  const uint32_t B = RecordsPerPage<Point>(page);
  MemPageDevice dev(page);
  DynamicPst pst(&dev);
  auto pts = UniformPts(200000, 23);
  ASSERT_TRUE(pst.Build(pts).ok());
  const uint64_t loglogB = FloorLogLog2(B) + 1;
  EXPECT_LE(dev.live_pages(), 12 * CeilDiv(pts.size(), B) * loglogB + 32);
  EXPECT_EQ(dev.live_pages(), pst.storage().total());
}

TEST(DynamicPstTest, GlobalRebuildTriggers) {
  MemPageDevice dev(4096);
  DynamicPstOptions opts;
  opts.rebuild_fraction = 0.25;
  DynamicPst pst(&dev, opts);
  auto pts = UniformPts(4000, 29);
  ASSERT_TRUE(pst.Build(pts).ok());
  Rng rng(31);
  uint64_t next_id = 1'000'000;
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 1'000'000),
                            rng.UniformRange(0, 1'000'000), next_id++})
                    .ok());
  }
  EXPECT_GE(pst.rebuilds(), 1u);
  std::vector<Point> all;
  Status qs = pst.QueryTwoSided({INT64_MIN, INT64_MIN}, &all);
  ASSERT_TRUE(qs.ok()) << qs.message();
  EXPECT_EQ(all.size(), 6500u);
}

TEST(DynamicPstTest, DestroyFreesEverything) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(20000, 37)).ok());
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 1'000'000),
                            rng.UniformRange(0, 1'000'000),
                            1'000'000ULL + i})
                    .ok());
  }
  EXPECT_GT(dev.live_pages(), 0u);
  ASSERT_TRUE(pst.Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(DynamicPstTest, CorruptBufferCountIsCorruption) {
  MemPageDevice dev(4096);
  DynamicPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(2000, 5)).ok());
  const auto before = Snapshot(&dev);
  ASSERT_TRUE(pst.Insert({5, 7, 1'000'000}).ok());  // lands in the root buffer
  CorruptChangedBufferCount(&dev, before, Snapshot(&dev));
  std::vector<Point> out;
  EXPECT_EQ(pst.QueryTwoSided({0, 0}, &out).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace pathcache
