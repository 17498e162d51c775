#include "kernels/search.h"

#include <cstring>

#include "kernels/search_impl.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define PATHCACHE_KERNELS_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace pathcache {
namespace kernels {
namespace internal {

namespace {

// Alignment-free loads: record pages come out of byte buffers, so every key
// access goes through memcpy (compiles to a plain mov).
inline int64_t LoadI64(const void* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t LoadU64(const void* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Lexicographic predicates over a {key, value} record at `p`.
inline bool RecLess(const void* p, int64_t key, uint64_t value) {
  const int64_t k = LoadI64(p);
  if (k != key) return k < key;
  return LoadU64(static_cast<const char*>(p) + 8) < value;
}
inline bool RecLessEq(const void* p, int64_t key, uint64_t value) {
  const int64_t k = LoadI64(p);
  if (k != key) return k < key;
  return LoadU64(static_cast<const char*>(p) + 8) <= value;
}

// Branchless binary search over records of `stride` bytes: returns the
// number of records for which `pred` holds, assuming pred is monotone
// (true-prefix) over the array.  The ternary compiles to a cmov, so the
// loop runs without a mispredictable branch.
template <typename Pred>
inline size_t BranchlessCount(const void* recs, size_t stride, size_t n,
                              const Pred& pred) {
  const char* base = static_cast<const char*>(recs);
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += pred(base + (half - 1) * stride) ? half * stride : 0;
    len -= half;
  }
  const size_t off =
      static_cast<size_t>(base - static_cast<const char*>(recs)) / stride;
  return off + ((len == 1 && pred(base)) ? 1 : 0);
}

}  // namespace

// ---------------------------------------------------------------- scalar --

size_t LowerBoundI64Scalar(const int64_t* a, size_t n, int64_t key) {
  return BranchlessCount(a, sizeof(int64_t), n,
                         [key](const void* p) { return LoadI64(p) < key; });
}

size_t UpperBoundI64Scalar(const int64_t* a, size_t n, int64_t key) {
  return BranchlessCount(a, sizeof(int64_t), n,
                         [key](const void* p) { return LoadI64(p) <= key; });
}

size_t LowerBoundKVScalar(const void* recs, size_t n, int64_t key,
                          uint64_t value) {
  return BranchlessCount(recs, 16, n, [key, value](const void* p) {
    return RecLess(p, key, value);
  });
}

size_t UpperBoundKVScalar(const void* recs, size_t n, int64_t key,
                          uint64_t value) {
  return BranchlessCount(recs, 16, n, [key, value](const void* p) {
    return RecLessEq(p, key, value);
  });
}

size_t FindFirstBelowScalar(const void* base, size_t stride, size_t n,
                            int64_t bound) {
  const char* p = static_cast<const char*>(base);
  for (size_t i = 0; i < n; ++i, p += stride) {
    if (LoadI64(p) < bound) return i;
  }
  return n;
}

size_t FindFirstAboveScalar(const void* base, size_t stride, size_t n,
                            int64_t bound) {
  const char* p = static_cast<const char*>(base);
  for (size_t i = 0; i < n; ++i, p += stride) {
    if (LoadI64(p) > bound) return i;
  }
  return n;
}

bool AllContain24Scalar(const void* recs, size_t n, int64_t q) {
  const char* p = static_cast<const char*>(recs);
  for (size_t i = 0; i < n; ++i, p += 24) {
    if (LoadI64(p) > q || LoadI64(p + 8) < q) return false;
  }
  return true;
}

// ------------------------------------------------------------------ SSE2 --

#if PATHCACHE_KERNELS_X86

namespace {

// SSE2 has no 64-bit compares; synthesize them from 32-bit ops.  Signed
// a > b per 64-bit lane: decide on the high dwords, breaking high-dword
// ties with the borrow sign of the full 64-bit subtraction b - a.
inline __m128i CmpGtI64Sse2(__m128i a, __m128i b) {
  const __m128i sub = _mm_sub_epi64(b, a);
  const __m128i eq = _mm_cmpeq_epi32(a, b);
  const __m128i gt = _mm_cmpgt_epi32(a, b);
  __m128i r = _mm_or_si128(_mm_and_si128(eq, sub), gt);
  r = _mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1));  // broadcast high dwords
  return _mm_srai_epi32(r, 31);  // sign bit -> full-lane mask
}

inline int Mask2(__m128i m) {
  return _mm_movemask_pd(_mm_castsi128_pd(m));
}

constexpr size_t kSse2Window = 16;

// Narrows [lo, lo+len) with a binary search on `less_than_key` applied to
// a[idx], stopping once the window fits the vector loop.
template <typename Pred>
inline void NarrowWindow(const int64_t* a, size_t* lo, size_t* len,
                         size_t window, const Pred& pred) {
  while (*len > window) {
    const size_t half = *len / 2;
    if (pred(a[*lo + half - 1])) {
      *lo += half;
      *len -= half;
    } else {
      *len = half;
    }
  }
}

}  // namespace

size_t LowerBoundI64Sse2(const int64_t* a, size_t n, int64_t key) {
  size_t lo = 0, len = n;
  NarrowWindow(a, &lo, &len, kSse2Window,
               [key](int64_t v) { return v < key; });
  const __m128i vkey = _mm_set1_epi64x(key);
  size_t cnt = 0, i = 0;
  for (; i + 2 <= len; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + lo + i));
    cnt += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(Mask2(CmpGtI64Sse2(vkey, v)))));
  }
  for (; i < len; ++i) cnt += a[lo + i] < key ? 1 : 0;
  return lo + cnt;
}

size_t UpperBoundI64Sse2(const int64_t* a, size_t n, int64_t key) {
  size_t lo = 0, len = n;
  NarrowWindow(a, &lo, &len, kSse2Window,
               [key](int64_t v) { return v <= key; });
  const __m128i vkey = _mm_set1_epi64x(key);
  size_t gt = 0, i = 0;
  for (; i + 2 <= len; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + lo + i));
    gt += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(Mask2(CmpGtI64Sse2(v, vkey)))));
  }
  for (; i < len; ++i) gt += a[lo + i] > key ? 1 : 0;
  return lo + len - gt;
}

size_t FindFirstBelowSse2(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  // Only the contiguous case vectorizes without gathers; strided keys fall
  // back to the scalar scan (bit-identical result).
  if (stride != sizeof(int64_t)) {
    return FindFirstBelowScalar(base, stride, n, bound);
  }
  const int64_t* a = static_cast<const int64_t*>(base);
  const __m128i vb = _mm_set1_epi64x(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const int m = Mask2(CmpGtI64Sse2(vb, v));
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
  }
  for (; i < n; ++i) {
    if (a[i] < bound) return i;
  }
  return n;
}

size_t FindFirstAboveSse2(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  if (stride != sizeof(int64_t)) {
    return FindFirstAboveScalar(base, stride, n, bound);
  }
  const int64_t* a = static_cast<const int64_t*>(base);
  const __m128i vb = _mm_set1_epi64x(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const int m = Mask2(CmpGtI64Sse2(v, vb));
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
  }
  for (; i < n; ++i) {
    if (a[i] > bound) return i;
  }
  return n;
}

#else  // !PATHCACHE_KERNELS_X86: forward so the dispatcher always links.

size_t LowerBoundI64Sse2(const int64_t* a, size_t n, int64_t key) {
  return LowerBoundI64Scalar(a, n, key);
}
size_t UpperBoundI64Sse2(const int64_t* a, size_t n, int64_t key) {
  return UpperBoundI64Scalar(a, n, key);
}
size_t FindFirstBelowSse2(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  return FindFirstBelowScalar(base, stride, n, bound);
}
size_t FindFirstAboveSse2(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  return FindFirstAboveScalar(base, stride, n, bound);
}

#endif  // PATHCACHE_KERNELS_X86

// ------------------------------------------------------------------ NEON --

#if defined(__aarch64__)

size_t LowerBoundI64Neon(const int64_t* a, size_t n, int64_t key) {
  size_t lo = 0, len = n;
  while (len > 16) {
    const size_t half = len / 2;
    if (a[lo + half - 1] < key) {
      lo += half;
      len -= half;
    } else {
      len = half;
    }
  }
  const int64x2_t vkey = vdupq_n_s64(key);
  size_t cnt = 0, i = 0;
  for (; i + 2 <= len; i += 2) {
    const int64x2_t v = vld1q_s64(a + lo + i);
    const uint64x2_t m = vcgtq_s64(vkey, v);
    cnt += (vgetq_lane_u64(m, 0) & 1) + (vgetq_lane_u64(m, 1) & 1);
  }
  for (; i < len; ++i) cnt += a[lo + i] < key ? 1 : 0;
  return lo + cnt;
}

size_t UpperBoundI64Neon(const int64_t* a, size_t n, int64_t key) {
  size_t lo = 0, len = n;
  while (len > 16) {
    const size_t half = len / 2;
    if (a[lo + half - 1] <= key) {
      lo += half;
      len -= half;
    } else {
      len = half;
    }
  }
  const int64x2_t vkey = vdupq_n_s64(key);
  size_t gt = 0, i = 0;
  for (; i + 2 <= len; i += 2) {
    const int64x2_t v = vld1q_s64(a + lo + i);
    const uint64x2_t m = vcgtq_s64(v, vkey);
    gt += (vgetq_lane_u64(m, 0) & 1) + (vgetq_lane_u64(m, 1) & 1);
  }
  for (; i < len; ++i) gt += a[lo + i] > key ? 1 : 0;
  return lo + len - gt;
}

size_t FindFirstBelowNeon(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  if (stride != sizeof(int64_t)) {
    return FindFirstBelowScalar(base, stride, n, bound);
  }
  const int64_t* a = static_cast<const int64_t*>(base);
  const int64x2_t vb = vdupq_n_s64(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t m = vcgtq_s64(vb, vld1q_s64(a + i));
    if (vgetq_lane_u64(m, 0) != 0) return i;
    if (vgetq_lane_u64(m, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (a[i] < bound) return i;
  }
  return n;
}

size_t FindFirstAboveNeon(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  if (stride != sizeof(int64_t)) {
    return FindFirstAboveScalar(base, stride, n, bound);
  }
  const int64_t* a = static_cast<const int64_t*>(base);
  const int64x2_t vb = vdupq_n_s64(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t m = vcgtq_s64(vld1q_s64(a + i), vb);
    if (vgetq_lane_u64(m, 0) != 0) return i;
    if (vgetq_lane_u64(m, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (a[i] > bound) return i;
  }
  return n;
}

#else

size_t LowerBoundI64Neon(const int64_t* a, size_t n, int64_t key) {
  return LowerBoundI64Scalar(a, n, key);
}
size_t UpperBoundI64Neon(const int64_t* a, size_t n, int64_t key) {
  return UpperBoundI64Scalar(a, n, key);
}
size_t FindFirstBelowNeon(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  return FindFirstBelowScalar(base, stride, n, bound);
}
size_t FindFirstAboveNeon(const void* base, size_t stride, size_t n,
                          int64_t bound) {
  return FindFirstAboveScalar(base, stride, n, bound);
}

#endif  // __aarch64__

}  // namespace internal

// -------------------------------------------------------------- dispatch --

using internal::AllContain24Scalar;

size_t LowerBoundI64(const int64_t* a, size_t n, int64_t key) {
  switch (ActiveTier()) {
    case Tier::kAvx2:
      return internal::LowerBoundI64Avx2(a, n, key);
    case Tier::kSse2:
      return internal::LowerBoundI64Sse2(a, n, key);
    case Tier::kNeon:
      return internal::LowerBoundI64Neon(a, n, key);
    case Tier::kScalar:
      break;
  }
  return internal::LowerBoundI64Scalar(a, n, key);
}

size_t UpperBoundI64(const int64_t* a, size_t n, int64_t key) {
  switch (ActiveTier()) {
    case Tier::kAvx2:
      return internal::UpperBoundI64Avx2(a, n, key);
    case Tier::kSse2:
      return internal::UpperBoundI64Sse2(a, n, key);
    case Tier::kNeon:
      return internal::UpperBoundI64Neon(a, n, key);
    case Tier::kScalar:
      break;
  }
  return internal::UpperBoundI64Scalar(a, n, key);
}

size_t LowerBoundKV(const void* recs, size_t n, int64_t key, uint64_t value) {
  // Only AVX2 has a native 64-bit compare; synthesizing the lexicographic
  // KV predicate from SSE2 32-bit ops measured slower than the branchless
  // scalar search at every size (bench_kernels), so kSse2 and kNeon both
  // take the scalar path here.
  if (ActiveTier() == Tier::kAvx2) {
    return internal::LowerBoundKVAvx2(recs, n, key, value);
  }
  return internal::LowerBoundKVScalar(recs, n, key, value);
}

size_t UpperBoundKV(const void* recs, size_t n, int64_t key, uint64_t value) {
  if (ActiveTier() == Tier::kAvx2) {
    return internal::UpperBoundKVAvx2(recs, n, key, value);
  }
  return internal::UpperBoundKVScalar(recs, n, key, value);
}

Tier KvBoundsImplTier(Tier t) {
  // Mirrors the LowerBoundKV/UpperBoundKV dispatch above: only AVX2 has a
  // native 64-bit compare worth using on interleaved records.
  return t == Tier::kAvx2 ? Tier::kAvx2 : Tier::kScalar;
}

size_t UpperBoundKVStrided(const void* recs, size_t stride, size_t n,
                           int64_t key, uint64_t value) {
  // Log-dominated fan-out search: branchless binary at every tier.
  return internal::BranchlessCount(
      recs, stride, n, [key, value](const void* p) {
        return internal::RecLessEq(p, key, value);
      });
}

size_t FindFirstBelow(const void* base, size_t stride, size_t n,
                      int64_t bound) {
  switch (ActiveTier()) {
    case Tier::kAvx2:
      return internal::FindFirstBelowAvx2(base, stride, n, bound);
    case Tier::kSse2:
      return internal::FindFirstBelowSse2(base, stride, n, bound);
    case Tier::kNeon:
      return internal::FindFirstBelowNeon(base, stride, n, bound);
    case Tier::kScalar:
      break;
  }
  return internal::FindFirstBelowScalar(base, stride, n, bound);
}

size_t FindFirstAbove(const void* base, size_t stride, size_t n,
                      int64_t bound) {
  switch (ActiveTier()) {
    case Tier::kAvx2:
      return internal::FindFirstAboveAvx2(base, stride, n, bound);
    case Tier::kSse2:
      return internal::FindFirstAboveSse2(base, stride, n, bound);
    case Tier::kNeon:
      return internal::FindFirstAboveNeon(base, stride, n, bound);
    case Tier::kScalar:
      break;
  }
  return internal::FindFirstAboveScalar(base, stride, n, bound);
}

bool AllContain24(const void* recs, size_t n, int64_t q) {
  if (ActiveTier() == Tier::kAvx2) {
    return internal::AllContain24Avx2(recs, n, q);
  }
  return AllContain24Scalar(recs, n, q);
}

}  // namespace kernels
}  // namespace pathcache
