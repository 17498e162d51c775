#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>

#include "io/file_page_device.h"
#include "io/mem_page_device.h"

namespace pathcache {
namespace {

std::vector<std::byte> Pattern(uint32_t size, uint8_t fill) {
  std::vector<std::byte> buf(size);
  std::memset(buf.data(), fill, size);
  return buf;
}

TEST(MemPageDeviceTest, AllocateReadWriteRoundTrip) {
  MemPageDevice dev(512);
  auto r = dev.Allocate();
  ASSERT_TRUE(r.ok());
  PageId id = r.value();

  auto w = Pattern(512, 0xAB);
  ASSERT_TRUE(dev.Write(id, w.data()).ok());
  std::vector<std::byte> rd(512);
  ASSERT_TRUE(dev.Read(id, rd.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), rd.data(), 512), 0);
}

TEST(MemPageDeviceTest, FreshPageIsZeroed) {
  MemPageDevice dev(256);
  PageId id = dev.Allocate().value();
  std::vector<std::byte> rd(256);
  ASSERT_TRUE(dev.Read(id, rd.data()).ok());
  for (auto b : rd) EXPECT_EQ(b, std::byte{0});
}

TEST(MemPageDeviceTest, CountsExactly) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  PageId b = dev.Allocate().value();
  auto buf = Pattern(256, 1);
  ASSERT_TRUE(dev.Write(a, buf.data()).ok());
  ASSERT_TRUE(dev.Write(b, buf.data()).ok());
  ASSERT_TRUE(dev.Read(a, buf.data()).ok());
  EXPECT_EQ(dev.stats().allocs, 2u);
  EXPECT_EQ(dev.stats().writes, 2u);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().total(), 3u);
  dev.ResetStats();
  EXPECT_EQ(dev.stats().total(), 0u);
}

TEST(MemPageDeviceTest, LivePagesTracksFree) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  PageId b = dev.Allocate().value();
  (void)b;
  EXPECT_EQ(dev.live_pages(), 2u);
  ASSERT_TRUE(dev.Free(a).ok());
  EXPECT_EQ(dev.live_pages(), 1u);
}

TEST(MemPageDeviceTest, UseAfterFreeIsCorruption) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  ASSERT_TRUE(dev.Free(a).ok());
  std::vector<std::byte> buf(256);
  EXPECT_TRUE(dev.Read(a, buf.data()).IsCorruption());
  EXPECT_TRUE(dev.Write(a, buf.data()).IsCorruption());
  EXPECT_TRUE(dev.Free(a).IsCorruption());
}

TEST(MemPageDeviceTest, FreedPageIsRecycledZeroed) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  auto buf = Pattern(256, 0xFF);
  ASSERT_TRUE(dev.Write(a, buf.data()).ok());
  ASSERT_TRUE(dev.Free(a).ok());
  PageId b = dev.Allocate().value();
  EXPECT_EQ(a, b);  // recycled
  std::vector<std::byte> rd(256);
  ASSERT_TRUE(dev.Read(b, rd.data()).ok());
  for (auto byte : rd) EXPECT_EQ(byte, std::byte{0});
}

TEST(MemPageDeviceTest, OutOfRangeIdRejected) {
  MemPageDevice dev(256);
  std::vector<std::byte> buf(256);
  EXPECT_TRUE(dev.Read(99, buf.data()).IsInvalidArgument());
}

TEST(MemPageDeviceTest, InjectedFailureFiresAfterBudget) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  std::vector<std::byte> buf(256);
  dev.InjectFailureAfter(2);
  EXPECT_TRUE(dev.Read(a, buf.data()).ok());
  EXPECT_TRUE(dev.Read(a, buf.data()).ok());
  EXPECT_TRUE(dev.Read(a, buf.data()).IsIoError());
  EXPECT_TRUE(dev.Write(a, buf.data()).IsIoError());
  dev.InjectFailureAfter(-1);
  EXPECT_TRUE(dev.Read(a, buf.data()).ok());
}

TEST(MemPageDeviceTest, ReadBatchMatchesReadLoopAndCountsPerPage) {
  MemPageDevice dev(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    PageId id = dev.Allocate().value();
    auto buf = Pattern(256, static_cast<uint8_t>(0x10 + i));
    ASSERT_TRUE(dev.Write(id, buf.data()).ok());
    ids.push_back(id);
  }
  // Batch in a scrambled order: each slot must receive its own page.
  std::vector<PageId> batch{ids[3], ids[0], ids[4], ids[1]};
  dev.ResetStats();
  std::vector<std::byte> bufs(batch.size() * 256);
  ASSERT_TRUE(dev.ReadBatch(batch, bufs.data()).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<std::byte> single(256);
    ASSERT_TRUE(dev.Read(batch[i], single.data()).ok());
    EXPECT_EQ(std::memcmp(bufs.data() + i * 256, single.data(), 256), 0);
  }
  // Counted reads are one per page (cost model), batch_reads ticked once.
  EXPECT_EQ(dev.stats().reads, batch.size() + batch.size());  // batch + checks
  EXPECT_EQ(dev.stats().batch_reads, 1u);
}

TEST(MemPageDeviceTest, EmptyReadBatchIsFree) {
  MemPageDevice dev(256);
  std::byte dummy;
  ASSERT_TRUE(dev.ReadBatch({}, &dummy).ok());
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(dev.stats().batch_reads, 0u);
}

TEST(MemPageDeviceTest, ReadBatchConsumesFaultBudgetInOrder) {
  MemPageDevice dev(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(dev.Allocate().value());
  dev.InjectFailureAfter(2);  // third page of the batch fails
  std::vector<std::byte> bufs(ids.size() * 256);
  EXPECT_TRUE(dev.ReadBatch(ids, bufs.data()).IsIoError());
  // Exactly the two pages before the fault were counted.
  EXPECT_EQ(dev.stats().reads, 2u);
}

TEST(MemPageDeviceTest, ReadBatchRejectsBadIdMidBatch) {
  MemPageDevice dev(256);
  PageId a = dev.Allocate().value();
  std::vector<PageId> ids{a, 999};
  std::vector<std::byte> bufs(ids.size() * 256);
  EXPECT_TRUE(dev.ReadBatch(ids, bufs.data()).IsInvalidArgument());
}

TEST(FilePageDeviceTest, RoundTripThroughRealFile) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_test.bin",
                                  512);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  PageId a = dev->Allocate().value();
  PageId b = dev->Allocate().value();
  auto pa = Pattern(512, 0x11);
  auto pb = Pattern(512, 0x22);
  ASSERT_TRUE(dev->Write(a, pa.data()).ok());
  ASSERT_TRUE(dev->Write(b, pb.data()).ok());
  std::vector<std::byte> rd(512);
  ASSERT_TRUE(dev->Read(a, rd.data()).ok());
  EXPECT_EQ(std::memcmp(rd.data(), pa.data(), 512), 0);
  ASSERT_TRUE(dev->Read(b, rd.data()).ok());
  EXPECT_EQ(std::memcmp(rd.data(), pb.data(), 512), 0);
  EXPECT_EQ(dev->live_pages(), 2u);
}

TEST(FilePageDeviceTest, FreeAndRecycle) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_test2.bin",
                                  256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  PageId a = dev->Allocate().value();
  ASSERT_TRUE(dev->Free(a).ok());
  std::vector<std::byte> buf(256);
  EXPECT_TRUE(dev->Read(a, buf.data()).IsCorruption());
  PageId b = dev->Allocate().value();
  EXPECT_EQ(a, b);
}

TEST(FilePageDeviceTest, ReadBatchCoalescesAdjacentPages) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_batch.bin",
                                  256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageId id = dev->Allocate().value();
    auto buf = Pattern(256, static_cast<uint8_t>(0x40 + i));
    ASSERT_TRUE(dev->Write(id, buf.data()).ok());
    ids.push_back(id);
  }
  // Request pages out of order with one gap: {5, 2, 0, 1, 6} coalesces into
  // runs [0,1,2] and [5,6] — two preadv calls for five counted reads.
  std::vector<PageId> batch{ids[5], ids[2], ids[0], ids[1], ids[6]};
  dev->ResetStats();
  std::vector<std::byte> bufs(batch.size() * 256);
  ASSERT_TRUE(dev->ReadBatch(batch, bufs.data()).ok());
  EXPECT_EQ(dev->stats().reads, 5u);
  EXPECT_EQ(dev->stats().batch_reads, 1u);
  EXPECT_EQ(dev->read_syscalls(), 2u);
  // Each caller slot holds the page for the id requested in that slot, not
  // the sorted order used for coalescing.
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<std::byte> single(256);
    ASSERT_TRUE(dev->Read(batch[i], single.data()).ok());
    EXPECT_EQ(std::memcmp(bufs.data() + i * 256, single.data(), 256), 0);
  }
}

TEST(FilePageDeviceTest, ReadBatchWithDuplicatesFillsEverySlot) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_dup.bin",
                                  256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  PageId a = dev->Allocate().value();
  PageId b = dev->Allocate().value();
  auto pa = Pattern(256, 0xAA);
  auto pb = Pattern(256, 0xBB);
  ASSERT_TRUE(dev->Write(a, pa.data()).ok());
  ASSERT_TRUE(dev->Write(b, pb.data()).ok());
  std::vector<PageId> batch{b, a, b};
  std::vector<std::byte> bufs(batch.size() * 256);
  ASSERT_TRUE(dev->ReadBatch(batch, bufs.data()).ok());
  EXPECT_EQ(std::memcmp(bufs.data(), pb.data(), 256), 0);
  EXPECT_EQ(std::memcmp(bufs.data() + 256, pa.data(), 256), 0);
  EXPECT_EQ(std::memcmp(bufs.data() + 512, pb.data(), 256), 0);
  EXPECT_EQ(dev->stats().reads, 3u);
}

TEST(FilePageDeviceTest, ReadPastEndOfFileIsCorruptionWithOffset) {
  const std::string path = ::testing::TempDir() + "/pc_fdev_short.bin";
  auto r = FilePageDevice::Create(path, 256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  PageId a = dev->Allocate().value();
  auto buf = Pattern(256, 0x77);
  ASSERT_TRUE(dev->Write(a, buf.data()).ok());
  // Truncate the file under the device: the next read hits a short transfer.
  ASSERT_EQ(::truncate(path.c_str(), 100), 0);
  std::vector<std::byte> rd(256);
  Status s = dev->Read(a, rd.data());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("offset"), std::string::npos);
}

TEST(FilePageDeviceTest, ReadBatchFaultBudgetRespected) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_fault.bin",
                                  256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    PageId id = dev->Allocate().value();
    auto buf = Pattern(256, 0x01);
    ASSERT_TRUE(dev->Write(id, buf.data()).ok());
    ids.push_back(id);
  }
  std::vector<PageId> bad{ids[0], 999, ids[2]};
  std::vector<std::byte> bufs(bad.size() * 256);
  EXPECT_TRUE(dev->ReadBatch(bad, bufs.data()).IsInvalidArgument());
}

TEST(FilePageDeviceTest, SortedBatchTakesSortFreeFastPath) {
  auto r = FilePageDevice::Create(::testing::TempDir() + "/pc_fdev_sorted.bin",
                                  256);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    PageId id = dev->Allocate().value();
    auto buf = Pattern(256, static_cast<uint8_t>(0x60 + i));
    ASSERT_TRUE(dev->Write(id, buf.data()).ok());
    ids.push_back(id);
  }
  dev->ResetStats();

  // Monotone non-contiguous batch: sort-free, but still two coalesced runs.
  std::vector<PageId> sorted{ids[0], ids[1], ids[2], ids[4], ids[5]};
  std::vector<std::byte> bufs(sorted.size() * 256);
  ASSERT_TRUE(dev->ReadBatch(sorted, bufs.data()).ok());
  EXPECT_EQ(dev->sorted_batches(), 1u);
  EXPECT_EQ(dev->read_syscalls(), 2u);  // runs [0,1,2] and [4,5]
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(bufs[i * 256],
              static_cast<std::byte>(0x60 + (i < 3 ? i : i + 1)));
  }

  // Fully contiguous sorted batch: one syscall for the whole run.
  std::vector<PageId> contig{ids[1], ids[2], ids[3], ids[4]};
  dev->ResetStats();
  ASSERT_TRUE(dev->ReadBatch(contig, bufs.data()).ok());
  EXPECT_EQ(dev->sorted_batches(), 1u);
  EXPECT_EQ(dev->read_syscalls(), 1u);
  EXPECT_EQ(dev->stats().reads, 4u);

  // An unsorted batch skips the fast path but returns identical data.
  std::vector<PageId> unsorted{ids[4], ids[1], ids[3], ids[2]};
  dev->ResetStats();
  std::vector<std::byte> ub(unsorted.size() * 256);
  ASSERT_TRUE(dev->ReadBatch(unsorted, ub.data()).ok());
  EXPECT_EQ(dev->sorted_batches(), 0u);
  EXPECT_EQ(dev->read_syscalls(), 1u);  // still coalesces to run [1..4]
  for (size_t i = 0; i < unsorted.size(); ++i) {
    EXPECT_EQ(ub[i * 256], static_cast<std::byte>(0x60 + unsorted[i]));
  }
}

TEST(FilePageDeviceTest, MultiRunBatchesDeliverBytesStatsAndSyscalls) {
  constexpr uint32_t kPageSize = 512;
  constexpr PageId kPages = 40;
  auto r = FilePageDevice::Create(
      ::testing::TempDir() + "/pc_fdev_multirun.bin", kPageSize);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_EQ(dev->Allocate().value(), p);
    auto buf = Pattern(kPageSize, static_cast<uint8_t>(0x10 + p));
    ASSERT_TRUE(dev->Write(p, buf.data()).ok());
  }

  // The shapes ReadBatch distinguishes, each with its count of coalesced
  // runs: one preadv per run.
  std::vector<PageId> evens, all, reversed;
  for (PageId p = 0; p < kPages; ++p) {
    all.push_back(p);
    if (p % 2 == 0) evens.push_back(p);
    reversed.push_back(kPages - 1 - p);
  }
  const std::vector<std::pair<std::vector<PageId>, uint64_t>> cases = {
      {{0}, 1},                 // single page
      {{0, 1, 2, 3}, 1},        // one sorted run
      {{0, 2, 4, 6}, 4},        // all 1-page runs
      {{5, 1, 9, 3, 7}, 5},     // unsorted, all gaps
      {{8, 9, 2, 3, 0}, 3},     // unsorted, mixed runs
      {evens, kPages / 2},      // many runs
      {all, 1},                 // one long run
      {reversed, 1},            // worst-case arrival order
  };
  for (const auto& [batch, runs] : cases) {
    std::vector<std::byte> bufs(batch.size() * kPageSize, std::byte{0xAA});
    dev->ResetStats();
    ASSERT_TRUE(dev->ReadBatch(batch, bufs.data()).ok());
    EXPECT_EQ(dev->stats().reads, batch.size());
    EXPECT_EQ(dev->stats().batch_reads, 1u);
    EXPECT_EQ(dev->read_syscalls(), runs) << "batch of " << batch.size();
    // Every slot holds the page the caller asked for, in the caller's order.
    for (size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(bufs[k * kPageSize], static_cast<std::byte>(0x10 + batch[k]))
          << "slot " << k << " (page " << batch[k] << ")";
      EXPECT_EQ(bufs[(k + 1) * kPageSize - 1],
                static_cast<std::byte>(0x10 + batch[k]));
    }
  }
}

TEST(FilePageDeviceTest, ReadSyscallsAccumulateOnePerRunAcrossBatches) {
  constexpr uint32_t kPageSize = 256;
  auto r = FilePageDevice::Create(
      ::testing::TempDir() + "/pc_fdev_runcount.bin", kPageSize);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  for (PageId p = 0; p < 8; ++p) {
    ASSERT_EQ(dev->Allocate().value(), p);
    auto buf = Pattern(kPageSize, static_cast<uint8_t>(0x30 + p));
    ASSERT_TRUE(dev->Write(p, buf.data()).ok());
  }
  dev->ResetStats();

  std::vector<std::byte> buf(8 * kPageSize);
  // A single coalesced run is one preadv.
  std::vector<PageId> one_run{2, 3, 4};
  ASSERT_TRUE(dev->ReadBatch(one_run, buf.data()).ok());
  EXPECT_EQ(dev->read_syscalls(), 1u);
  for (size_t k = 0; k < one_run.size(); ++k) {
    EXPECT_EQ(buf[k * kPageSize], static_cast<std::byte>(0x30 + one_run[k]));
  }
  // Two runs add two more; the counter sums over batches until reset.
  std::vector<PageId> two_runs{0, 1, 6, 7};
  ASSERT_TRUE(dev->ReadBatch(two_runs, buf.data()).ok());
  EXPECT_EQ(dev->read_syscalls(), 1u + 2u);
  EXPECT_EQ(dev->stats().reads, one_run.size() + two_runs.size());
  EXPECT_EQ(dev->stats().batch_reads, 2u);
  for (size_t k = 0; k < two_runs.size(); ++k) {
    EXPECT_EQ(buf[k * kPageSize], static_cast<std::byte>(0x30 + two_runs[k]));
  }
}

TEST(MemPageDeviceTest, PinReturnsStableCountedView) {
  MemPageDevice dev(256);
  PageId id = dev.Allocate().value();
  auto pat = Pattern(256, 0x9C);
  ASSERT_TRUE(dev.Write(id, pat.data()).ok());
  dev.ResetStats();

  auto p = dev.Pin(id);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(dev.stats().reads, 1u);  // counted exactly like Read()
  EXPECT_EQ(std::memcmp(p.value(), pat.data(), 256), 0);
  dev.Unpin(id);

  // PagePin prefers the zero-copy path on a pinning device.
  PagePin pin;
  ASSERT_TRUE(pin.Load(&dev, id).ok());
  EXPECT_EQ(dev.stats().reads, 2u);
  EXPECT_EQ(std::memcmp(pin.data(), pat.data(), 256), 0);
}

TEST(MemPageDeviceTest, PinOfFreedPageIsCorruption) {
  MemPageDevice dev(256);
  PageId id = dev.Allocate().value();
  ASSERT_TRUE(dev.Free(id).ok());
  EXPECT_TRUE(dev.Pin(id).status().IsCorruption());
}

}  // namespace
}  // namespace pathcache
