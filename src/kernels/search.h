// In-page search kernels: branchless / SIMD primitives over the sorted key
// arrays the external structures probe on every query.
//
// Two families, with different semantics:
//
//  * Sorted-array bounds (LowerBound*/UpperBound*): exactly
//    std::lower_bound / std::upper_bound on a sorted array — a hybrid of
//    branchless binary narrowing and a vectorized count inside the final
//    window.  Input must be sorted (same precondition as the std
//    algorithms); used by B+-tree node search.
//
//  * First-match scans (FindFirst*): the literal early-exit loop "first
//    index whose key crosses the bound", vectorized block-at-a-time with an
//    exact first-set-lane exit.  These have well-defined results on ANY
//    input, sorted or not — important because they run over record pages
//    read from untrusted storage, where a corrupt (unsorted) page must
//    yield the same scan prefix on every tier so counted I/O stays
//    tier-independent.  Used by the tail-key directory probes and the
//    in-page stop checks of all four structures.
//
// Every function dispatches on kernels::ActiveTier() (see dispatch.h) and
// every tier returns bit-identical results; tests/kernels_test.cpp forces
// each tier through exhaustive (n <= 64) and randomized differential sweeps
// against the std algorithms / naive loops.
//
// Alignment: all kernels use alignment-free loads, so they are correct on
// any pointer; the 64-byte frame alignment guaranteed by io/aligned.h makes
// the common case fast, never correct.

#ifndef PATHCACHE_KERNELS_SEARCH_H_
#define PATHCACHE_KERNELS_SEARCH_H_

#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.h"

namespace pathcache {
namespace kernels {

/// First index i with a[i] >= key; a[0..n) ascending.  == std::lower_bound.
size_t LowerBoundI64(const int64_t* a, size_t n, int64_t key);

/// First index i with a[i] > key; a[0..n) ascending.  == std::upper_bound.
size_t UpperBoundI64(const int64_t* a, size_t n, int64_t key);

/// Lexicographic bounds over packed 16-byte {int64_t key, uint64_t value}
/// records (BTreeEntry layout), ordered by (key, value).  `recs` points at
/// the first record; records are contiguous.
size_t LowerBoundKV(const void* recs, size_t n, int64_t key, uint64_t value);
size_t UpperBoundKV(const void* recs, size_t n, int64_t key, uint64_t value);

/// Dispatch introspection: the tier whose code the interleaved KV bounds
/// (LowerBoundKV/UpperBoundKV) actually run when `t` is active.  kSse2 and
/// kNeon deliberately route to kScalar — the lexicographic predicate
/// synthesized from their narrower compares measured slower than branchless
/// scalar at every size — and tests pin that table so a regression
/// re-enabling a slow path fails loudly instead of silently.
Tier KvBoundsImplTier(Tier t);

/// Branchless lexicographic upper bound over records of `stride` bytes
/// whose first 16 bytes are {int64_t key, uint64_t value} (e.g. the B+-tree
/// 24-byte ChildEntry).  Strided records are binary-searched branchlessly
/// at every tier — fan-out search is log-dominated, so vector width buys
/// nothing there.
size_t UpperBoundKVStrided(const void* recs, size_t stride, size_t n,
                           int64_t key, uint64_t value);

/// First index i whose int64 key at (base + i*stride) is < bound
/// (FindFirstBelow) or > bound (FindFirstAbove); n if none.  Pass
/// stride = sizeof(int64_t) for a plain array, or point `base` at the key
/// field inside the first record (e.g. &recs[0].y) for record scans.
size_t FindFirstBelow(const void* base, size_t stride, size_t n,
                      int64_t bound);
size_t FindFirstAbove(const void* base, size_t stride, size_t n,
                      int64_t bound);

/// True when every 24-byte record {int64_t lo, int64_t hi, ...} in
/// recs[0..n) satisfies lo <= q <= hi (vacuously true for n == 0).  The
/// fast path of segment-tree cover lists, where the structure invariant
/// makes "all records qualify" the common case.
bool AllContain24(const void* recs, size_t n, int64_t q);

}  // namespace kernels
}  // namespace pathcache

#endif  // PATHCACHE_KERNELS_SEARCH_H_
