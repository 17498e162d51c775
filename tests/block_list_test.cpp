#include "io/block_list.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "core/baselines.h"
#include "io/mem_page_device.h"
#include "util/geometry.h"

namespace pathcache {
namespace {

std::vector<Point> MakePoints(size_t n) {
  std::vector<Point> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i] = Point{static_cast<int64_t>(i), static_cast<int64_t>(i * 2), i};
  }
  return pts;
}

TEST(BlockListTest, RecordsPerPageMath) {
  // 4096-byte page, 16-byte header, 24-byte Point records -> 170 per page.
  EXPECT_EQ(RecordsPerPage<Point>(4096), 170u);
  EXPECT_EQ(RecordsPerPage<Interval>(4096), 170u);
  EXPECT_EQ(RecordsPerPage<Point>(256), 10u);
}

TEST(BlockListTest, EmptyList) {
  MemPageDevice dev(256);
  auto info = BuildBlockList<Point>(&dev, {}).value();
  EXPECT_TRUE(info.ref.empty());
  EXPECT_EQ(info.ref.head, kInvalidPageId);
  std::vector<Point> out;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(BlockListTest, RoundTripAcrossPages) {
  MemPageDevice dev(256);  // 10 points per page
  auto pts = MakePoints(37);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  EXPECT_EQ(info.ref.count, 37u);
  EXPECT_EQ(info.pages.size(), 4u);  // ceil(37 / 10)

  std::vector<Point> out;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).ok());
  EXPECT_EQ(out, pts);
}

TEST(BlockListTest, ExactMultipleOfPageCapacity) {
  MemPageDevice dev(256);
  auto pts = MakePoints(30);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  EXPECT_EQ(info.pages.size(), 3u);
  std::vector<Point> out;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).ok());
  EXPECT_EQ(out, pts);
}

TEST(BlockListTest, CursorCountsBlockReads) {
  MemPageDevice dev(256);
  auto pts = MakePoints(25);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();

  BlockListCursor<Point> cur(&dev, info.ref);
  std::vector<Point> out;
  ASSERT_TRUE(cur.NextBlock(&out).ok());
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(cur.blocks_read(), 1u);
  ASSERT_TRUE(cur.NextBlock(&out).ok());
  ASSERT_TRUE(cur.NextBlock(&out).ok());
  EXPECT_EQ(out.size(), 25u);
  EXPECT_TRUE(cur.done());
  // NextBlock after done is a no-op.
  ASSERT_TRUE(cur.NextBlock(&out).ok());
  EXPECT_EQ(out.size(), 25u);
  EXPECT_EQ(cur.blocks_read(), 3u);
}

TEST(BlockListTest, CursorFromMidListPage) {
  MemPageDevice dev(256);
  auto pts = MakePoints(25);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  BlockListCursor<Point> cur(&dev, info.pages[1]);
  std::vector<Point> out;
  ASSERT_TRUE(cur.NextBlock(&out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0], pts[10]);
}

TEST(BlockListTest, FreeReleasesEveryPage) {
  MemPageDevice dev(256);
  auto pts = MakePoints(25);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  EXPECT_EQ(dev.live_pages(), 3u);
  ASSERT_TRUE(FreeBlockList(&dev, info.ref).ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(BlockListTest, ReadErrorPropagates) {
  MemPageDevice dev(256);
  auto pts = MakePoints(25);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  dev.InjectFailureAfter(1);
  std::vector<Point> out;
  EXPECT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).IsIoError());
}

TEST(BlockListTest, ContigHeaderRecordsAdjacentRun) {
  MemPageDevice dev(256);
  auto pts = MakePoints(37);  // 4 pages, allocated consecutively
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  ASSERT_EQ(info.pages.size(), 4u);
  std::vector<std::byte> buf(256);
  for (size_t i = 0; i < info.pages.size(); ++i) {
    ASSERT_TRUE(dev.Read(info.pages[i], buf.data()).ok());
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    // Page i is followed by 3 - i id-adjacent chain successors.
    EXPECT_EQ(hdr.contig, info.pages.size() - 1 - i);
  }
}

TEST(BlockListTest, ContigIsZeroAcrossNonAdjacentPages) {
  MemPageDevice dev(256);
  // Recycle a low page id so the second list's pages are NOT id-adjacent:
  // it gets the recycled page followed by a fresh high one.
  PageId dummy = dev.Allocate().value();
  auto filler = MakePoints(25);
  auto f =
      BuildBlockList<Point>(&dev, std::span<const Point>(filler)).value();
  ASSERT_TRUE(dev.Free(dummy).ok());
  auto pts = MakePoints(15);  // 2 pages
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  ASSERT_EQ(info.pages.size(), 2u);
  ASSERT_NE(info.pages[1], info.pages[0] + 1);
  std::vector<std::byte> buf(256);
  ASSERT_TRUE(dev.Read(info.pages[0], buf.data()).ok());
  BlockPageHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  EXPECT_EQ(hdr.contig, 0u);
  // The chain still reads back correctly (readahead finds nothing to batch).
  std::vector<Point> out;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).ok());
  EXPECT_EQ(out, pts);
  (void)f;
}

TEST(BlockListTest, ChainReadaheadKeepsCountedReadsIdentical) {
  MemPageDevice dev(256);
  auto pts = MakePoints(57);  // 6 pages
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();

  dev.ResetStats();
  std::vector<Point> plain;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &plain, 1).ok());
  const uint64_t plain_reads = dev.stats().reads;
  EXPECT_EQ(dev.stats().batch_reads, 0u);

  dev.ResetStats();
  std::vector<Point> batched;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &batched, 4).ok());
  EXPECT_EQ(batched, plain);
  EXPECT_EQ(dev.stats().reads, plain_reads);  // cost model unchanged
  EXPECT_GT(dev.stats().batch_reads, 0u);     // transport did batch
}

TEST(BlockListTest, DirectoryCursorBatchesExactPages) {
  MemPageDevice dev(256);
  auto pts = MakePoints(37);  // pages hold 10/10/10/7
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();

  // Scan only the first 3 pages via the directory — the exact-prefix shape
  // the structures use for tail-key-bounded cache scans.
  dev.ResetStats();
  BlockListCursor<Point> cur(
      &dev, std::span<const PageId>(info.pages.data(), 3), /*readahead=*/8);
  std::vector<Point> out;
  while (!cur.done()) ASSERT_TRUE(cur.NextBlock(&out).ok());
  EXPECT_EQ(cur.blocks_read(), 3u);
  EXPECT_EQ(out.size(), 30u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], pts[i]);
  EXPECT_EQ(dev.stats().reads, 3u);       // one counted read per page
  EXPECT_EQ(dev.stats().batch_reads, 1u); // one vectored transfer
}

TEST(BlockListTest, DirectoryCursorWindowSmallerThanPrefix) {
  MemPageDevice dev(256);
  auto pts = MakePoints(57);  // 6 pages
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  dev.ResetStats();
  BlockListCursor<Point> cur(
      &dev, std::span<const PageId>(info.pages.data(), info.pages.size()),
      /*readahead=*/2);
  std::vector<Point> out;
  while (!cur.done()) ASSERT_TRUE(cur.NextBlock(&out).ok());
  EXPECT_EQ(out, pts);
  EXPECT_EQ(dev.stats().reads, 6u);
  EXPECT_EQ(dev.stats().batch_reads, 3u);  // three windows of two pages
}

TEST(BlockListTest, SinglePartialPage) {
  MemPageDevice dev(4096);
  auto pts = MakePoints(3);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  EXPECT_EQ(info.pages.size(), 1u);
  std::vector<Point> out;
  ASSERT_TRUE(ReadBlockList<Point>(&dev, info.ref, &out).ok());
  EXPECT_EQ(out, pts);
}

// A count word is the page's record count and nothing else: any stray high
// bit — including bit 31, which pages of the dropped packed format v3 carry
// — pushes it past capacity and must read as Corruption.
TEST(BlockListTest, CorruptCountWordIsRejected) {
  const uint32_t cap = RecordsPerPage<Point>(4096);  // 170
  BlockPageHeader hdr{};
  for (uint32_t bad : {cap + 1, 0x0080'0000u | 5u, 0x8000'0000u | 5u,
                       0x8000'0000u | cap}) {
    hdr.count = bad;
    EXPECT_EQ(CheckBlockPageHeader(hdr, cap).code(), StatusCode::kCorruption)
        << "count word " << bad;
  }
  for (uint32_t good : {0u, 5u, cap}) {
    hdr.count = good;
    EXPECT_TRUE(CheckBlockPageHeader(hdr, cap).ok()) << "count word " << good;
  }
}

TEST(BlockListTest, CorruptCountWordSurfacesAsCorruptionEndToEnd) {
  // Through the list reader: flag bit 31 on a mid-chain page.
  MemPageDevice dev(512);
  auto pts = MakePoints(40);
  auto info = BuildBlockList<Point>(&dev, std::span<const Point>(pts)).value();
  std::vector<std::byte> buf(dev.page_size());
  ASSERT_TRUE(dev.Read(info.pages[1], buf.data()).ok());
  BlockPageHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  hdr.count |= 0x8000'0000u;
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  ASSERT_TRUE(dev.Write(info.pages[1], buf.data()).ok());
  std::vector<Point> out;
  Status s = ReadBlockList<Point>(&dev, info.ref, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();

  // Through a structure query: the x-sorted baseline's data list is the
  // first thing its Build allocates, so page 0 is the head every full-range
  // scan reads first.
  MemPageDevice sdev(512);
  XSortedBaseline base(&sdev);
  ASSERT_TRUE(base.Build(MakePoints(100)).ok());
  ASSERT_TRUE(sdev.Read(0, buf.data()).ok());
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  ASSERT_EQ(hdr.count, RecordsPerPage<Point>(512));
  hdr.count |= 0x8000'0000u;
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  ASSERT_TRUE(sdev.Write(0, buf.data()).ok());
  out.clear();
  s = base.QueryTwoSided({INT64_MIN, INT64_MIN}, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

}  // namespace
}  // namespace pathcache
