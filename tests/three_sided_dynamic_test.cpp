#include "core/three_sided_dynamic.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

std::vector<Point> UniformPts(uint64_t n, uint64_t seed) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  o.coord_max = 500'000;
  return GenPointsUniform(o);
}

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

TEST(DynamicThreeSidedTest, InsertIntoEmpty) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  ASSERT_TRUE(pst.Build({}).ok());
  ASSERT_TRUE(pst.Insert({5, 5, 1}).ok());
  std::vector<Point> out;
  ASSERT_TRUE(pst.QueryThreeSided({0, 10, 0}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
}

TEST(DynamicThreeSidedTest, MixedWorkloadMatchesOracle) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  auto pts = UniformPts(8000, 3);
  ASSERT_TRUE(pst.Build(pts).ok());
  std::map<uint64_t, Point> oracle;
  for (const auto& p : pts) oracle[p.id] = p;

  Rng rng(5);
  uint64_t next_id = 1'000'000;
  for (int op = 0; op < 2000; ++op) {
    if (oracle.empty() || rng.Bernoulli(0.6)) {
      Point p{rng.UniformRange(0, 500'000), rng.UniformRange(0, 500'000),
              next_id++};
      ASSERT_TRUE(pst.Insert(p).ok());
      oracle[p.id] = p;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      ASSERT_TRUE(pst.Erase(it->second).ok());
      oracle.erase(it);
    }
    if (op % 83 == 0) {
      int64_t x1 = rng.UniformRange(0, 500'000);
      ThreeSidedQuery q{x1, x1 + rng.UniformRange(0, 100'000),
                        rng.UniformRange(0, 500'000)};
      std::vector<Point> got;
      ASSERT_TRUE(pst.QueryThreeSided(q, &got).ok());
      std::vector<Point> want;
      for (const auto& [id, p] : oracle) {
        if (q.Contains(p)) want.push_back(p);
      }
      ASSERT_TRUE(SameResult(got, want)) << "op " << op;
    }
  }
  EXPECT_GE(pst.rebuilds(), 1u);
}

// Theorem 5.2: amortized update cost O(log_B n log^2 B).
TEST(DynamicThreeSidedTest, AmortizedUpdateIoWithinBound) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  auto pts = UniformPts(50000, 7);
  ASSERT_TRUE(pst.Build(pts).ok());
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pts.size(), B) + 1;
  const uint64_t logB = FloorLog2(B) + 1;

  Rng rng(9);
  dev.ResetStats();
  const uint64_t kOps = 3000;
  uint64_t next_id = 10'000'000;
  for (uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 500'000),
                            rng.UniformRange(0, 500'000), next_id++})
                    .ok());
  }
  double per_op =
      static_cast<double>(dev.stats().total()) / static_cast<double>(kOps);
  EXPECT_LE(per_op, 8.0 * static_cast<double>(logB_n * logB * logB) + 16.0)
      << "per_op=" << per_op;
}

TEST(DynamicThreeSidedTest, QueryIoStaysOptimal) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  auto pts = UniformPts(100000, 11);
  ASSERT_TRUE(pst.Build(pts).ok());
  Rng rng(13);
  uint64_t next_id = 10'000'000;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 500'000),
                            rng.UniformRange(0, 500'000), next_id++})
                    .ok());
  }
  const uint32_t B = RecordsPerPage<Point>(4096);
  const uint64_t logB_n = CeilLogBase(pst.size(), B) + 1;
  for (int i = 0; i < 20; ++i) {
    auto q = SampleThreeSidedQuery(pts, 0.1, &rng);
    std::vector<Point> got;
    dev.ResetStats();
    ASSERT_TRUE(pst.QueryThreeSided(q, &got).ok());
    uint64_t bound = 20 * logB_n + 4 * CeilDiv(got.size(), B) + 24;
    EXPECT_LE(dev.stats().reads, bound) << "t=" << got.size();
  }
}

TEST(DynamicThreeSidedTest, DestroyFreesEverything) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(10000, 17)).ok());
  ASSERT_TRUE(pst.Insert({1, 1, 999999}).ok());
  ASSERT_TRUE(pst.Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(DynamicThreeSidedTest, CorruptBufferCountIsCorruption) {
  MemPageDevice dev(4096);
  DynamicThreeSidedPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(2000, 5)).ok());
  const auto before = Snapshot(&dev);
  ASSERT_TRUE(pst.Insert({5, 7, 1'000'000}).ok());  // lands in the tail buffer
  CorruptChangedBufferCount(&dev, before, Snapshot(&dev));
  std::vector<Point> out;
  EXPECT_EQ(pst.QueryThreeSided({0, 500'000, 0}, &out).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace pathcache
