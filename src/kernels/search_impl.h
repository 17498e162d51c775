// Internal: per-tier kernel entry points and build-capability flags shared
// between search.cc (scalar/SSE2/NEON + dispatch), search_avx2.cc (compiled
// with -mavx2) and crc32c_hw.cc (compiled with -msse4.2 / +crc).  Not part
// of the public kernels API — include kernels/search.h instead.

#ifndef PATHCACHE_KERNELS_SEARCH_IMPL_H_
#define PATHCACHE_KERNELS_SEARCH_IMPL_H_

#include <cstddef>
#include <cstdint>

namespace pathcache {
namespace kernels {
namespace internal {

// True when the corresponding TU was compiled with the real intrinsics (the
// compiler supported the flag and the target architecture matches).  The
// dispatcher never reports a tier whose code was not compiled in.
extern const bool kCompiledAvx2;
extern const bool kCompiledHwCrc;

// ---- scalar (always available; the semantic reference) ----
size_t LowerBoundI64Scalar(const int64_t* a, size_t n, int64_t key);
size_t UpperBoundI64Scalar(const int64_t* a, size_t n, int64_t key);
size_t LowerBoundKVScalar(const void* recs, size_t n, int64_t key,
                          uint64_t value);
size_t UpperBoundKVScalar(const void* recs, size_t n, int64_t key,
                          uint64_t value);
size_t FindFirstBelowScalar(const void* base, size_t stride, size_t n,
                            int64_t bound);
size_t FindFirstAboveScalar(const void* base, size_t stride, size_t n,
                            int64_t bound);
bool AllContain24Scalar(const void* recs, size_t n, int64_t q);

// ---- SSE2 (x86 only; stubs forward to scalar elsewhere).  No KV entry
// points: the lexicographic predicate synthesized from 32-bit compares
// measured slower than branchless scalar at every size, so the kSse2 tier
// dispatches KV bounds to scalar. ----
size_t LowerBoundI64Sse2(const int64_t* a, size_t n, int64_t key);
size_t UpperBoundI64Sse2(const int64_t* a, size_t n, int64_t key);
size_t FindFirstBelowSse2(const void* base, size_t stride, size_t n,
                          int64_t bound);
size_t FindFirstAboveSse2(const void* base, size_t stride, size_t n,
                          int64_t bound);

// ---- NEON (aarch64 only; stubs forward to scalar elsewhere) ----
size_t LowerBoundI64Neon(const int64_t* a, size_t n, int64_t key);
size_t UpperBoundI64Neon(const int64_t* a, size_t n, int64_t key);
size_t FindFirstBelowNeon(const void* base, size_t stride, size_t n,
                          int64_t bound);
size_t FindFirstAboveNeon(const void* base, size_t stride, size_t n,
                          int64_t bound);

// ---- AVX2 (search_avx2.cc; stubs forward to scalar when not compiled) ----
size_t LowerBoundI64Avx2(const int64_t* a, size_t n, int64_t key);
size_t UpperBoundI64Avx2(const int64_t* a, size_t n, int64_t key);
size_t LowerBoundKVAvx2(const void* recs, size_t n, int64_t key,
                        uint64_t value);
size_t UpperBoundKVAvx2(const void* recs, size_t n, int64_t key,
                        uint64_t value);
size_t FindFirstBelowAvx2(const void* base, size_t stride, size_t n,
                          int64_t bound);
size_t FindFirstAboveAvx2(const void* base, size_t stride, size_t n,
                          int64_t bound);
bool AllContain24Avx2(const void* recs, size_t n, int64_t q);

// ---- hardware CRC32C (crc32c_hw.cc) ----
unsigned int Crc32cUpdateHwImpl(unsigned int state, const void* data,
                                unsigned long n);

}  // namespace internal
}  // namespace kernels
}  // namespace pathcache

#endif  // PATHCACHE_KERNELS_SEARCH_IMPL_H_
