#include "io/shared_buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "io/mem_page_device.h"

namespace pathcache {
namespace {

class SharedBufferPoolTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPage = 256;
  MemPageDevice dev_{kPage};

  PageId MakePage(uint8_t fill) {
    PageId id = dev_.Allocate().value();
    std::vector<std::byte> buf(kPage);
    std::memset(buf.data(), fill, kPage);
    EXPECT_TRUE(dev_.Write(id, buf.data()).ok());
    return id;
  }
};

TEST_F(SharedBufferPoolTest, SecondReadIsAHit) {
  PageId id = MakePage(0xAA);
  SharedBufferPool pool(&dev_, 16, 4);
  dev_.ResetStats();
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  EXPECT_EQ(buf[0], std::byte{0xAA});
  EXPECT_EQ(dev_.stats().reads, 1u);
  EXPECT_EQ(pool.stats().reads, 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(SharedBufferPoolTest, EveryShardGetsAtLeastOneFrame) {
  // Capacity smaller than the shard count must still cache something in
  // every shard rather than rounding some shard down to zero frames.
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(MakePage(static_cast<uint8_t>(i)));
  SharedBufferPool pool(&dev_, 4, 8);
  EXPECT_EQ(pool.shard_count(), 8u);
  std::vector<std::byte> buf(kPage);
  for (PageId id : ids) ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  dev_.ResetStats();
  for (PageId id : ids) ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  // Ids 0..7 over 8 shards: one page per shard, all resident.
  EXPECT_EQ(dev_.stats().reads, 0u);
  EXPECT_EQ(pool.cached_pages(), 8u);
}

TEST_F(SharedBufferPoolTest, ZeroCapacityPassesThrough) {
  PageId id = MakePage(0x77);
  SharedBufferPool pool(&dev_, 0, 4);
  std::vector<std::byte> buf(kPage);
  dev_.ResetStats();
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  EXPECT_EQ(dev_.stats().reads, 2u);
  EXPECT_EQ(pool.cached_pages(), 0u);
}

TEST_F(SharedBufferPoolTest, WriteThroughAndFreeInvalidate) {
  PageId id = MakePage(0x01);
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  std::memset(buf.data(), 0x5C, kPage);
  ASSERT_TRUE(pool.Write(id, buf.data()).ok());
  std::vector<std::byte> direct(kPage);
  ASSERT_TRUE(dev_.Read(id, direct.data()).ok());
  EXPECT_EQ(direct[0], std::byte{0x5C});
  dev_.ResetStats();
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  EXPECT_EQ(buf[0], std::byte{0x5C});
  EXPECT_EQ(dev_.stats().reads, 0u);  // updated frame served from cache

  ASSERT_TRUE(pool.Free(id).ok());
  EXPECT_TRUE(pool.Read(id, buf.data()).IsCorruption());
}

TEST_F(SharedBufferPoolTest, ClearKeepsCountersResetStatsDropsThem) {
  PageId id = MakePage(0x21);
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  pool.Clear();
  EXPECT_EQ(pool.stats().reads, 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.cached_pages(), 0u);
  ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  EXPECT_EQ(pool.misses(), 2u);
  pool.ClearAndResetStats();
  EXPECT_EQ(pool.stats().reads, 0u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST_F(SharedBufferPoolTest, ReadBatchCountsAndFillsSlots) {
  PageId a = MakePage(1), b = MakePage(2), c = MakePage(3);
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(pool.Read(b, buf.data()).ok());
  dev_.ResetStats();
  pool.ResetStats();
  std::vector<PageId> batch{a, b, c};
  std::vector<std::byte> bufs(batch.size() * kPage);
  ASSERT_TRUE(pool.ReadBatch(batch, bufs.data()).ok());
  EXPECT_EQ(pool.stats().reads, 3u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(dev_.stats().reads, 2u);
  EXPECT_EQ(bufs[0], std::byte{1});
  EXPECT_EQ(bufs[kPage], std::byte{2});
  EXPECT_EQ(bufs[2 * kPage], std::byte{3});
}

TEST_F(SharedBufferPoolTest, ReadBatchWithDuplicateIds) {
  PageId a = MakePage(0xA1), b = MakePage(0xB2);
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<PageId> batch{a, b, a};
  std::vector<std::byte> bufs(batch.size() * kPage);
  ASSERT_TRUE(pool.ReadBatch(batch, bufs.data()).ok());
  EXPECT_EQ(bufs[0], std::byte{0xA1});
  EXPECT_EQ(bufs[kPage], std::byte{0xB2});
  EXPECT_EQ(bufs[2 * kPage], std::byte{0xA1});
  EXPECT_EQ(pool.stats().reads, 3u);
}

// The TSan target for the CI concurrency job: many readers over one pool,
// mixed single and batched reads, including cold misses that race to insert
// the same pages.  Any locking mistake in SharedBufferPool shows up here
// under -fsanitize=thread.
TEST_F(SharedBufferPoolTest, ConcurrentReadersSeeConsistentPages) {
  constexpr int kPages = 64;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(MakePage(static_cast<uint8_t>(i + 1)));
  }
  // Capacity below the working set so eviction and re-fetch race too.
  SharedBufferPool pool(&dev_, kPages / 2, 8);

  std::atomic<bool> failed{false};
  auto reader = [&](uint32_t seed) {
    uint64_t state = seed;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<uint32_t>(state >> 33);
    };
    std::vector<std::byte> one(kPage);
    std::vector<std::byte> many(4 * kPage);
    for (int it = 0; it < kItersPerThread && !failed.load(); ++it) {
      if (it % 4 == 0) {
        PageId batch[4];
        for (auto& id : batch) id = ids[next() % kPages];
        if (!pool.ReadBatch({batch, 4}, many.data()).ok()) {
          failed.store(true);
          return;
        }
        for (int s = 0; s < 4; ++s) {
          if (many[static_cast<size_t>(s) * kPage] !=
              static_cast<std::byte>(batch[s] + 1)) {
            failed.store(true);
            return;
          }
        }
      } else {
        PageId id = ids[next() % kPages];
        if (!pool.Read(id, one.data()).ok() ||
            one[0] != static_cast<std::byte>(id + 1)) {
          failed.store(true);
          return;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(reader, static_cast<uint32_t>(t + 1));
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Counters add up: every logical read is a hit or a miss, and each thread
  // issued 4 reads per batched iteration and 1 per single iteration.
  EXPECT_EQ(pool.hits() + pool.misses(), pool.stats().reads);
  constexpr uint64_t kReadsPerThread =
      (kItersPerThread / 4) * 4 + (kItersPerThread - kItersPerThread / 4);
  EXPECT_EQ(pool.stats().reads, kThreads * kReadsPerThread);
}

TEST_F(SharedBufferPoolTest, PinnedFrameSurvivesChurnAndBlocksFree) {
  PageId a = MakePage(0xA0);
  SharedBufferPool pool(&dev_, 4, 2);
  auto p = pool.Pin(a);
  ASSERT_TRUE(p.ok());
  const std::byte* stable = p.value();
  EXPECT_EQ(pool.pinned_pages(), 1u);

  std::vector<std::byte> buf(kPage);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.Read(MakePage(uint8_t(i + 1)), buf.data()).ok());
  }
  EXPECT_EQ(stable[0], std::byte{0xA0});
  dev_.ResetStats();
  ASSERT_TRUE(pool.Read(a, buf.data()).ok());
  EXPECT_EQ(dev_.stats().reads, 0u);  // never evicted while pinned

  EXPECT_EQ(pool.Free(a).code(), StatusCode::kFailedPrecondition);
  pool.Unpin(a);
  EXPECT_EQ(pool.pinned_pages(), 0u);
  EXPECT_TRUE(pool.Free(a).ok());
}

TEST_F(SharedBufferPoolTest, ConcurrentPinnedReadsStayCoherent) {
  // TSan coverage for the pin path: readers hold pins across shard-lock
  // releases while other threads churn the same shards; the pinned bytes
  // must stay valid and unchanged throughout.
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr int kPages = 32;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(MakePage(static_cast<uint8_t>(i + 1)));
  }
  SharedBufferPool pool(&dev_, 8, 4);  // tight: constant eviction pressure
  std::atomic<bool> failed{false};

  auto worker = [&](uint32_t seed) {
    uint64_t x = seed;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::vector<std::byte> one(kPage);
    for (int i = 0; i < kIters && !failed.load(); ++i) {
      const PageId id = ids[next() % kPages];
      if (next() % 2 == 0) {
        auto p = pool.Pin(id);
        if (!p.ok()) {
          failed.store(true);
          return;
        }
        // Touch other pages while holding the pin — eviction pressure on
        // this frame's shard must skip the pinned frame.
        for (int j = 0; j < 3; ++j) {
          (void)pool.Read(ids[next() % kPages], one.data());
        }
        if (p.value()[0] != static_cast<std::byte>(id + 1) ||
            p.value()[kPage - 1] != static_cast<std::byte>(id + 1)) {
          failed.store(true);
        }
        pool.Unpin(id);
      } else {
        if (!pool.Read(id, one.data()).ok() ||
            one[0] != static_cast<std::byte>(id + 1)) {
          failed.store(true);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, static_cast<uint32_t>(t + 1));
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.pinned_pages(), 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), pool.stats().reads);
}

// --- SubmitBatch/AwaitBatch through the pool ------------------------------

TEST_F(SharedBufferPoolTest, AsyncBatchFallsBackWhenInnerIsSyncOnly) {
  // MemPageDevice has no async engine.  The FIRST pool SubmitBatch discovers
  // that mid-batch (counters already moved), finishes with a blocking inner
  // read, and memoizes; later submits refuse before counting so the
  // ReadBatch fallback counts the batch exactly once.
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(MakePage(static_cast<uint8_t>(i)));
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<std::byte> warm(kPage);
  ASSERT_TRUE(pool.Read(ids[1], warm.data()).ok());  // one future hit

  std::vector<std::byte> bufs(ids.size() * kPage);
  auto t = pool.SubmitBatch(ids, bufs.data());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(pool.AwaitBatch(t.value()).ok());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(bufs[k * kPage], static_cast<std::byte>(k)) << "slot " << k;
  }
  EXPECT_EQ(pool.stats().reads, 1u + ids.size());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), ids.size());
  // All pages were admitted at await: a second async attempt now refuses
  // up front (memoized sync-only inner) and ReadBatch serves pure hits.
  EXPECT_EQ(pool.SubmitBatch(ids, bufs.data()).status().code(),
            StatusCode::kNotSupported);
  dev_.ResetStats();
  ASSERT_TRUE(pool.ReadBatch(ids, bufs.data()).ok());
  EXPECT_EQ(dev_.stats().reads, 0u);
}

TEST_F(SharedBufferPoolTest, AsyncBatchRefusesDuplicateIdsBeforeCounting) {
  PageId a = MakePage(0x11);
  PageId b = MakePage(0x22);
  SharedBufferPool pool(&dev_, 16, 4);
  std::vector<PageId> dup{a, b, a};
  std::vector<std::byte> bufs(dup.size() * kPage);
  EXPECT_EQ(pool.SubmitBatch(dup, bufs.data()).status().code(),
            StatusCode::kNotSupported);
  // Nothing counted: the ReadBatch fallback owns the whole batch.
  EXPECT_EQ(pool.stats().reads, 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), 0u);
  ASSERT_TRUE(pool.ReadBatch(dup, bufs.data()).ok());
  EXPECT_EQ(pool.stats().reads, dup.size());
  EXPECT_EQ(bufs[0], std::byte{0x11});
  EXPECT_EQ(bufs[kPage], std::byte{0x22});
  EXPECT_EQ(bufs[2 * kPage], std::byte{0x11});
}

// --- Pin alignment (the SIMD-kernel performance contract) ------------------

TEST_F(SharedBufferPoolTest, PinnedFramesAreCacheLineAligned) {
  // io/aligned.h promises every pool frame starts on a 64-byte boundary so
  // the SIMD kernels' loads never straddle a cache line.  Exercise the full
  // frame lifecycle: first admission, hit re-pin, eviction + re-admission,
  // and survival through Clear().
  auto aligned = [](const std::byte* p) {
    return reinterpret_cast<uintptr_t>(p) % kPageFrameAlign == 0;
  };
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(MakePage(static_cast<uint8_t>(i + 1)));
  }
  SharedBufferPool pool(&dev_, 4, 1);  // one tiny shard: real eviction churn

  // Miss-path admission.
  auto p0 = pool.Pin(ids[0]);
  ASSERT_TRUE(p0.ok()) << p0.status().ToString();
  EXPECT_TRUE(aligned(p0.value()));
  pool.Unpin(ids[0]);

  // Hit-path re-pin returns the same resident, aligned frame.
  auto p0again = pool.Pin(ids[0]);
  ASSERT_TRUE(p0again.ok());
  EXPECT_EQ(p0again.value(), p0.value());
  EXPECT_TRUE(aligned(p0again.value()));
  pool.Unpin(ids[0]);

  // Evict it (capacity 4, read 12 distinct pages), then re-admit: the fresh
  // frame must be aligned too.
  std::vector<std::byte> buf(kPage);
  for (PageId id : ids) ASSERT_TRUE(pool.Read(id, buf.data()).ok());
  for (PageId id : ids) {
    auto p = pool.Pin(id);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_TRUE(aligned(p.value())) << "page " << id;
    EXPECT_EQ(p.value()[0], static_cast<std::byte>(id + 1));
    pool.Unpin(id);
  }

  // A frame pinned across Clear() keeps its (aligned) identity; pages
  // re-admitted after the Clear get fresh aligned frames.
  auto held = pool.Pin(ids[3]);
  ASSERT_TRUE(held.ok());
  const std::byte* held_ptr = held.value();
  pool.Clear();
  EXPECT_TRUE(aligned(held_ptr));
  EXPECT_EQ(held_ptr[0], static_cast<std::byte>(ids[3] + 1));
  auto readmitted = pool.Pin(ids[5]);
  ASSERT_TRUE(readmitted.ok());
  EXPECT_TRUE(aligned(readmitted.value()));
  pool.Unpin(ids[5]);
  pool.Unpin(ids[3]);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

}  // namespace
}  // namespace pathcache
