// Integration tests: the structures running over the other PageDevice
// implementations — a real file (FilePageDevice) and an LRU BufferPool —
// exercising the full stack end to end.

#include <gtest/gtest.h>

#include "core/pathcache.h"
#include "io/checksum_page_device.h"
#include "io/counting_page_device.h"
#include "io/shared_buffer_pool.h"
#include "util/mathutil.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

std::vector<Point> UniformPts(uint64_t n, uint64_t seed) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  o.coord_max = 200'000;
  return GenPointsUniform(o);
}

TEST(DeviceIntegrationTest, TwoLevelPstOnRealFile) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_pst.db", 4096);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();

  TwoLevelPst pst(dev.get());
  auto pts = UniformPts(20000, 3);
  ASSERT_TRUE(pst.Build(pts).ok());

  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    ASSERT_TRUE(pst.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q)));
  }
  ASSERT_TRUE(pst.Destroy().ok());
  EXPECT_EQ(dev->live_pages(), 0u);
}

TEST(DeviceIntegrationTest, DynamicPstOnRealFile) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_dyn.db", 4096);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();

  DynamicPst pst(dev.get());
  auto pts = UniformPts(5000, 7);
  ASSERT_TRUE(pst.Build(pts).ok());
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pst.Insert({rng.UniformRange(0, 200'000),
                            rng.UniformRange(0, 200'000),
                            1'000'000ULL + i})
                    .ok());
  }
  std::vector<Point> all;
  ASSERT_TRUE(pst.QueryTwoSided({INT64_MIN, INT64_MIN}, &all).ok());
  EXPECT_EQ(all.size(), 5500u);
}

TEST(DeviceIntegrationTest, StructureBehindBufferPool) {
  MemPageDevice inner(4096);
  BufferPool pool(&inner, 256);

  TwoLevelPst pst(&pool);
  auto pts = UniformPts(50000, 11);
  ASSERT_TRUE(pst.Build(pts).ok());

  Rng rng(13);
  // Warm queries: repeat touches of the skeletal top and hot caches hit.
  TwoSidedQuery q = SampleTwoSidedQuery(pts, &rng);
  std::vector<Point> first;
  ASSERT_TRUE(pst.QueryTwoSided(q, &first).ok());
  inner.ResetStats();
  pool.ResetStats();
  std::vector<Point> second;
  ASSERT_TRUE(pst.QueryTwoSided(q, &second).ok());
  ASSERT_TRUE(SameResult(first, second));
  // The identical repeat query should be served mostly from the pool.
  EXPECT_LT(inner.stats().reads, pool.stats().reads);
  EXPECT_GT(pool.hits(), 0u);

  // And correctness is unaffected across fresh queries.
  for (int i = 0; i < 10; ++i) {
    auto q2 = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    ASSERT_TRUE(pst.QueryTwoSided(q2, &got).ok());
    ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q2)));
  }
}

TEST(DeviceIntegrationTest, StabbingOnRealFileWithPool) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_stab.db", 4096);
  ASSERT_TRUE(r.ok());
  auto file = std::move(r).value();
  BufferPool pool(file.get(), 128);

  StabbingIndex idx(&pool);
  IntervalGenOptions o;
  o.n = 10000;
  o.seed = 17;
  o.domain_max = 1'000'000;
  auto ivs = GenIntervalsUniform(o);
  ASSERT_TRUE(idx.Build(ivs).ok());

  Rng rng(19);
  for (int i = 0; i < 10; ++i) {
    int64_t q = rng.UniformRange(0, 1'000'000);
    std::vector<Interval> got;
    ASSERT_TRUE(idx.Stab(q, &got).ok());
    ASSERT_TRUE(SameResult(got, BruteStab(ivs, q)));
  }
}

TEST(DeviceIntegrationTest, ReadBatchThroughFullDecoratorStack) {
  // File -> Checksum -> SharedBufferPool -> CountingPageDevice: the serving
  // stack.  ReadBatch through all four layers must deliver the written
  // bytes and count one logical read per page at every layer.
  constexpr uint32_t kPhysPage = 512;
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_batch_stack.db",
                                  kPhysPage);
  ASSERT_TRUE(r.ok());
  auto file = std::move(r).value();
  ChecksumPageDevice check(file.get());
  const uint32_t payload = check.page_size();

  auto fill = [payload](PageId id, std::byte* page) {
    for (uint32_t j = 0; j < payload; ++j) {
      page[j] = static_cast<std::byte>((id * 37u + j) & 0xFF);
    }
  };
  std::vector<PageId> ids;
  std::vector<std::byte> page(payload);
  for (int i = 0; i < 24; ++i) {
    PageId id = check.Allocate().value();
    fill(id, page.data());
    ASSERT_TRUE(check.Write(id, page.data()).ok());
    ids.push_back(id);
  }

  SharedBufferPool pool(&check, 8, 4);  // small: most of the batch misses
  CountingPageDevice counter(&pool);
  std::vector<PageId> batch{ids[0], ids[5], ids[6], ids[7], ids[20], ids[13]};
  std::vector<std::byte> got(batch.size() * payload);
  file->ResetStats();
  ASSERT_TRUE(counter.ReadBatch(batch, got.data()).ok());
  for (size_t k = 0; k < batch.size(); ++k) {
    fill(batch[k], page.data());
    EXPECT_EQ(std::memcmp(got.data() + k * payload, page.data(), payload), 0)
        << "slot " << k;
  }
  EXPECT_EQ(counter.stats().reads, batch.size());
  EXPECT_EQ(counter.stats().batch_reads, 1u);
  EXPECT_EQ(pool.misses(), batch.size());
  EXPECT_EQ(check.stats().reads, batch.size());
  EXPECT_EQ(file->stats().reads, batch.size());
  EXPECT_EQ(file->stats().batch_reads, 1u);
  EXPECT_EQ(file->read_syscalls(), 4u);  // runs {0}, {5,6,7}, {13}, {20}

  // Warm repeat: every page was admitted, so the batch is all hits and
  // never touches the file.
  file->ResetStats();
  std::vector<std::byte> again(got.size());
  ASSERT_TRUE(counter.ReadBatch(batch, again.data()).ok());
  EXPECT_EQ(file->stats().reads, 0u);
  EXPECT_EQ(pool.hits(), batch.size());
  EXPECT_EQ(std::memcmp(got.data(), again.data(), got.size()), 0);
}

}  // namespace
}  // namespace pathcache
