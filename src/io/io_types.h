// Core identifiers and counters for the simulated block device.

#ifndef PATHCACHE_IO_IO_TYPES_H_
#define PATHCACHE_IO_IO_TYPES_H_

#include <cstdint>

namespace pathcache {

/// Identifier of a disk page (block).  Dense, allocated by the device.
using PageId = uint64_t;

inline constexpr PageId kInvalidPageId = ~0ULL;

/// Default simulated page size in bytes.  With 24-byte point records this
/// gives B ~= 170 records per page; benchmarks sweep this.
inline constexpr uint32_t kDefaultPageSize = 4096;

/// I/O counters.  `reads`/`writes` are the quantities every theorem in the
/// paper bounds; everything is measured in whole pages.  `batch_reads`
/// counts ReadBatch invocations (each moving >= 1 page): batching never
/// changes `reads` — the paper's cost model — only how pages reach the
/// device, so `reads / batch_reads` measures coalescing, not cost.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t batch_reads = 0;
  /// Durability barriers (PageDevice::Sync) issued.  Like batch_reads this
  /// is a transport/durability count, not a paper cost-model quantity.
  uint64_t syncs = 0;

  uint64_t total() const { return reads + writes; }

  IoStats& operator+=(const IoStats& o) {
    *this = IoStats{reads + o.reads,   writes + o.writes,
                    allocs + o.allocs, frees + o.frees,
                    batch_reads + o.batch_reads, syncs + o.syncs};
    return *this;
  }

  IoStats operator-(const IoStats& o) const {
    return IoStats{reads - o.reads,   writes - o.writes,
                   allocs - o.allocs, frees - o.frees,
                   batch_reads - o.batch_reads, syncs - o.syncs};
  }
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_IO_TYPES_H_
