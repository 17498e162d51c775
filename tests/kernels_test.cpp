// Differential tests for the in-page search kernels: every dispatch tier
// the CPU can run is forced in turn and checked bit-identical against the
// std algorithms (sorted-bound family) or the naive early-exit loop
// (first-match family), over exhaustive small inputs and randomized large
// ones — including unsorted "corrupt page" inputs for the first-match
// family, whose results must stay tier-independent on any bytes.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "io/aligned.h"
#include "io/crc32c.h"
#include "io/mem_page_device.h"
#include "kernels/dispatch.h"
#include "kernels/search.h"

namespace pathcache {
namespace {

using kernels::Tier;

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  const Tier best = kernels::DetectedTier();
  if (best == Tier::kNeon) tiers.push_back(Tier::kNeon);
  if (best == Tier::kSse2 || best == Tier::kAvx2) tiers.push_back(Tier::kSse2);
  if (best == Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// RAII so a failing assertion cannot leak a forced tier into later tests.
struct ForcedTier {
  explicit ForcedTier(Tier t) { kernels::ForceTier(t); }
  ~ForcedTier() { kernels::ResetTier(); }
};

struct KV {
  int64_t key;
  uint64_t value;
};
static_assert(sizeof(KV) == 16);

bool KVLess(const KV& a, const KV& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}

struct Rec24 {
  int64_t lo;
  int64_t hi;
  uint64_t id;
};
static_assert(sizeof(Rec24) == 24);

TEST(KernelsDispatch, TierPlumbing) {
  kernels::ResetTier();
  EXPECT_LE(static_cast<int>(Tier::kScalar),
            static_cast<int>(kernels::DetectedTier()));
  // Without a force, the active tier never exceeds what the CPU offers
  // (the environment may pull it down, e.g. PATHCACHE_DISABLE_SIMD in CI).
  EXPECT_LE(static_cast<int>(kernels::ActiveTier()),
            static_cast<int>(kernels::DetectedTier()));
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    EXPECT_EQ(kernels::ActiveTier(), t) << kernels::TierName(t);
  }
  kernels::ResetTier();
  EXPECT_STREQ(kernels::TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(kernels::TierName(Tier::kAvx2), "avx2");
}

TEST(KernelsSearch, LowerUpperBoundI64Exhaustive) {
  // Every sorted array over a 4-value alphabet up to n = 64 would be huge;
  // instead: for each n <= 64, many random sorted arrays with heavy
  // duplicates, probing every distinct value, its neighbors, and extremes.
  std::mt19937_64 rng(7);
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t n = 0; n <= 64; ++n) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<int64_t> a(n);
        for (auto& v : a) v = static_cast<int64_t>(rng() % 16) - 8;
        std::sort(a.begin(), a.end());
        std::vector<int64_t> probes{INT64_MIN, INT64_MAX, 0};
        for (int64_t v = -9; v <= 9; ++v) probes.push_back(v);
        for (int64_t key : probes) {
          const size_t lb_ref =
              std::lower_bound(a.begin(), a.end(), key) - a.begin();
          const size_t ub_ref =
              std::upper_bound(a.begin(), a.end(), key) - a.begin();
          ASSERT_EQ(kernels::LowerBoundI64(a.data(), n, key), lb_ref)
              << kernels::TierName(t) << " n=" << n << " key=" << key;
          ASSERT_EQ(kernels::UpperBoundI64(a.data(), n, key), ub_ref)
              << kernels::TierName(t) << " n=" << n << " key=" << key;
        }
      }
    }
  }
}

TEST(KernelsSearch, LowerUpperBoundI64Randomized) {
  std::mt19937_64 rng(11);
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t n : {65u, 127u, 128u, 255u, 256u, 1000u, 4096u}) {
      std::vector<int64_t> a(n);
      for (auto& v : a) v = static_cast<int64_t>(rng() % 1000);
      std::sort(a.begin(), a.end());
      for (int rep = 0; rep < 200; ++rep) {
        const int64_t key = static_cast<int64_t>(rng() % 1100) - 50;
        const size_t lb_ref =
            std::lower_bound(a.begin(), a.end(), key) - a.begin();
        const size_t ub_ref =
            std::upper_bound(a.begin(), a.end(), key) - a.begin();
        ASSERT_EQ(kernels::LowerBoundI64(a.data(), n, key), lb_ref)
            << kernels::TierName(t) << " n=" << n;
        ASSERT_EQ(kernels::UpperBoundI64(a.data(), n, key), ub_ref)
            << kernels::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelsSearch, LowerUpperBoundKV) {
  std::mt19937_64 rng(13);
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t n : {0u, 1u, 2u, 3u, 15u, 16u, 17u, 64u, 333u, 1024u}) {
      std::vector<KV> a(n);
      for (auto& r : a) {
        r.key = static_cast<int64_t>(rng() % 64) - 32;
        // Values spanning the full unsigned range, including the sign-flip
        // boundary the SIMD compare has to get right.
        r.value = (rng() % 4 == 0) ? (UINT64_MAX - rng() % 3) : rng() % 8;
      }
      std::sort(a.begin(), a.end(), KVLess);
      for (int rep = 0; rep < 300; ++rep) {
        KV probe{static_cast<int64_t>(rng() % 70) - 35, rng() % 8};
        switch (rep % 4) {
          case 0:
            probe.value = 0;
            break;
          case 1:
            probe.value = UINT64_MAX;
            break;
          case 2:
            if (n > 0) probe = a[rng() % n];  // exact-hit probes
            break;
          default:
            break;
        }
        const size_t lb_ref =
            std::lower_bound(a.begin(), a.end(), probe, KVLess) - a.begin();
        const size_t ub_ref =
            std::upper_bound(a.begin(), a.end(), probe, KVLess) - a.begin();
        ASSERT_EQ(kernels::LowerBoundKV(a.data(), n, probe.key, probe.value),
                  lb_ref)
            << kernels::TierName(t) << " n=" << n;
        ASSERT_EQ(kernels::UpperBoundKV(a.data(), n, probe.key, probe.value),
                  ub_ref)
            << kernels::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelsDispatch, KvBoundsImplTierTable) {
  // The interleaved KV bounds deliberately run scalar code on the 128-bit
  // tiers: the lexicographic predicate synthesized from SSE2/NEON's
  // narrower compares measured slower than branchless scalar at every size.
  // Pin the table so a regression quietly re-enabling those paths fails.
  EXPECT_EQ(kernels::KvBoundsImplTier(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(kernels::KvBoundsImplTier(Tier::kSse2), Tier::kScalar);
  EXPECT_EQ(kernels::KvBoundsImplTier(Tier::kNeon), Tier::kScalar);
  EXPECT_EQ(kernels::KvBoundsImplTier(Tier::kAvx2), Tier::kAvx2);
}

TEST(KernelsSearch, UpperBoundKVStrided) {
  std::mt19937_64 rng(17);
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t n : {0u, 1u, 2u, 7u, 64u, 341u}) {
      std::vector<Rec24> a(n);
      for (auto& r : a) {
        r.lo = static_cast<int64_t>(rng() % 50);
        r.hi = rng() % 5;  // acts as the value half of the ordering pair
        r.id = rng();
      }
      std::sort(a.begin(), a.end(), [](const Rec24& x, const Rec24& y) {
        if (x.lo != y.lo) return x.lo < y.lo;
        return static_cast<uint64_t>(x.hi) < static_cast<uint64_t>(y.hi);
      });
      for (int rep = 0; rep < 100; ++rep) {
        const int64_t k = static_cast<int64_t>(rng() % 55) - 2;
        const uint64_t v = rng() % 6;
        size_t ref = 0;
        while (ref < n &&
               (a[ref].lo < k ||
                (a[ref].lo == k && static_cast<uint64_t>(a[ref].hi) <= v))) {
          ++ref;
        }
        ASSERT_EQ(kernels::UpperBoundKVStrided(a.data(), sizeof(Rec24), n, k,
                                               v),
                  ref)
            << kernels::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelsSearch, FindFirstOnAnyInput) {
  // The first-match family must return the literal first crossing index on
  // ANY bytes — unsorted inputs model corrupt pages, where every tier must
  // agree so counted I/O stays tier-independent.
  std::mt19937_64 rng(19);
  std::vector<std::byte> buf;
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t stride : {8u, 16u, 24u, 32u}) {
      for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 500u}) {
        buf.assign(stride * n + 8, std::byte{0});
        for (size_t rep = 0; rep < 40; ++rep) {
          for (size_t i = 0; i < n; ++i) {
            const int64_t v = static_cast<int64_t>(rng() % 41) - 20;
            std::memcpy(buf.data() + i * stride, &v, sizeof(v));
          }
          const int64_t bound = static_cast<int64_t>(rng() % 45) - 22;
          size_t below_ref = n, above_ref = n;
          for (size_t i = 0; i < n; ++i) {
            int64_t v;
            std::memcpy(&v, buf.data() + i * stride, sizeof(v));
            if (below_ref == n && v < bound) below_ref = i;
            if (above_ref == n && v > bound) above_ref = i;
          }
          ASSERT_EQ(
              kernels::FindFirstBelow(buf.data(), stride, n, bound),
              below_ref)
              << kernels::TierName(t) << " stride=" << stride << " n=" << n;
          ASSERT_EQ(
              kernels::FindFirstAbove(buf.data(), stride, n, bound),
              above_ref)
              << kernels::TierName(t) << " stride=" << stride << " n=" << n;
        }
      }
    }
  }
}

TEST(KernelsSearch, AllContain24) {
  std::mt19937_64 rng(23);
  for (Tier t : AvailableTiers()) {
    ForcedTier force(t);
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 170u}) {
      for (int rep = 0; rep < 60; ++rep) {
        std::vector<Rec24> recs(n);
        const int64_t q = static_cast<int64_t>(rng() % 100);
        bool ref = true;
        for (auto& r : recs) {
          // Mostly-containing records with occasional violations, so both
          // branches and the early exit get exercised.
          r.lo = q - static_cast<int64_t>(rng() % 10);
          r.hi = q + static_cast<int64_t>(rng() % 10);
          if (rng() % 8 == 0) r.lo = q + 1 + static_cast<int64_t>(rng() % 5);
          if (rng() % 8 == 0) r.hi = q - 1 - static_cast<int64_t>(rng() % 5);
          if (r.lo > q || r.hi < q) ref = false;
        }
        ASSERT_EQ(kernels::AllContain24(recs.data(), n, q), ref)
            << kernels::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelsCrc32c, HardwareMatchesSoftware) {
  if (!kernels::HwCrc32cActive()) {
    GTEST_SKIP() << "hardware CRC32C not active on this host";
  }
  std::mt19937_64 rng(29);
  for (size_t len : {0u, 1u, 3u, 7u, 8u, 9u, 63u, 64u, 100u, 4096u, 4097u}) {
    std::vector<unsigned char> data(len + 7);
    for (auto& b : data) b = static_cast<unsigned char>(rng());
    for (size_t off = 0; off < 3; ++off) {  // unaligned starts too
      // Software reference: slice-by-8 runs whenever the scalar tier is
      // forced (HwCrc32cActive() is false there).
      uint32_t sw, hw;
      {
        ForcedTier force(Tier::kScalar);
        sw = Crc32cFinish(Crc32cUpdate(Crc32cInit(), data.data() + off, len));
      }
      hw = Crc32cFinish(Crc32cUpdate(Crc32cInit(), data.data() + off, len));
      EXPECT_EQ(sw, hw) << "len=" << len << " off=" << off;
      // Mixed-stream: start in hardware, finish in software (or vice
      // versa); the register state must be interchangeable mid-stream.
      const size_t half = len / 2;
      uint32_t mixed = Crc32cUpdate(Crc32cInit(), data.data() + off, half);
      {
        ForcedTier force(Tier::kScalar);
        mixed = Crc32cUpdate(mixed, data.data() + off + half, len - half);
      }
      EXPECT_EQ(Crc32cFinish(mixed), sw) << "len=" << len;
    }
  }
}

TEST(KernelsCrc32c, KnownVectorsWithHardware) {
  // "123456789" -> 0xE3069283 is the canonical CRC32C check value; it must
  // hold no matter which implementation computes it.
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
  ForcedTier force(Tier::kScalar);
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
}

TEST(AlignedFrames, AllocPageFrameContract) {
  static_assert(kPageFrameAlign == 64);
  for (size_t n : {64u, 4096u, 8192u}) {
    PageFrame f = AllocPageFrame(n);
    ASSERT_NE(f.get(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(f.get()) % kPageFrameAlign, 0u);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(f[i], std::byte{0}) << "frame not zero-filled at " << i;
    }
  }
}

TEST(AlignedFrames, MemPageDeviceFramesAligned) {
  MemPageDevice dev(4096);
  for (int i = 0; i < 8; ++i) {
    auto id = dev.Allocate();
    ASSERT_TRUE(id.ok());
    auto pin = dev.Pin(id.value());
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(pin.value()) % kPageFrameAlign, 0u);
  }
}

}  // namespace
}  // namespace pathcache
