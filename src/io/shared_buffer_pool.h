// SharedBufferPool: a thread-safe LRU page cache for concurrent read-only
// queries.  The cache is striped into N shards (page id modulo N), each with
// its own mutex, frame map, LRU list and counters, so readers hitting
// different shards never contend.  The inner device is NOT assumed to be
// thread-safe — every inner call is serialized behind one mutex — so the
// concurrency win comes from warm-cache hits, which is exactly the regime
// the throughput bench measures.
//
// Lock order is always shard mutex → inner mutex; no call path takes two
// shard mutexes, so the pool cannot deadlock against itself.
//
// Counter semantics match BufferPool: `stats()` counts logical accesses,
// the inner device's stats count cache-miss I/Os, and hits()/misses()
// aggregate across shards.  Writes are write-through.  Unlike BufferPool,
// `stats()` returns a snapshot by value (it must aggregate shards under
// their locks).

#ifndef PATHCACHE_IO_SHARED_BUFFER_POOL_H_
#define PATHCACHE_IO_SHARED_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "io/aligned.h"
#include "io/page_device.h"

namespace pathcache {

class SharedBufferPool final : public PageDevice {
 public:
  /// Total capacity is split evenly across shards (each shard gets at least
  /// one frame unless `capacity_pages == 0`, which makes the pool a pure
  /// pass-through).  `shards` is clamped to at least 1.
  SharedBufferPool(PageDevice* inner, uint64_t capacity_pages,
                   uint32_t shards = 16);

  uint32_t page_size() const override { return page_size_; }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, std::byte* buf) override;
  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override;

  Status Write(PageId id, const std::byte* buf) override;

  /// Pins the page's frame in its shard (faulting it in on a miss) and
  /// returns its stable data pointer; counted exactly like Read().  The
  /// pointer stays valid after the shard lock is released because pinned
  /// frames are exempt from eviction and Clear(), and frame bytes live in
  /// their own heap blocks that map rehashes never move.  Safe under the
  /// read-only concurrent regime this pool is built for: nothing writes a
  /// page while queries run, so readers of a pinned frame race with no one.
  /// A zero-capacity (pass-through) pool returns NotSupported.
  Result<const std::byte*> Pin(PageId id) override;
  void Unpin(PageId id) override;

  /// Write-through pool: a barrier is the inner device's barrier, issued
  /// under the inner-device lock like every other inner call.
  Status Sync() override;

  Status ListLivePages(std::vector<PageId>* out) override;

  /// Aggregated logical-access counters.  Returns a reference to an
  /// internal snapshot refreshed by this call; the refresh is serialized, but
  /// the returned reference can be overwritten by a later call, so this
  /// remains a quiesced-measurement API.  Concurrent readers (the serving
  /// layer's observability path) must use StatsSnapshot() instead.
  const IoStats& stats() const override;

  /// Thread-safe by-value variant of stats(): aggregates the shards under
  /// their locks and returns the copy.  Safe to call at any time, including
  /// while readers are mid-flight on other threads.
  IoStats StatsSnapshot() const;

  void ResetStats() override;
  uint64_t live_pages() const override;

  /// Same contract as BufferPool::Clear(): drops every cached frame in
  /// every shard, leaves all counters untouched.
  void Clear();
  void ClearAndResetStats() {
    Clear();
    ResetStats();
  }

  uint64_t hits() const;
  uint64_t misses() const;
  /// Frames dropped by the capacity eviction scan since construction (or
  /// the last ResetStats()); Clear()/Free() drops are not evictions.
  uint64_t evictions() const;
  uint64_t cached_pages() const;
  uint64_t pinned_pages() const;
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  struct Frame {
    PageFrame data;
    std::list<PageId>::iterator lru_it;
    uint32_t pins = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // front = most recent
    uint64_t capacity = 0;
    uint64_t pinned = 0;  // frames with pins > 0
    IoStats stats;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  // Callers hold `s.mu`.
  static void Touch(Shard& s, Frame& f, PageId id);
  void InsertFrame(Shard& s, PageId id, const std::byte* buf);

  PageDevice* inner_;
  uint32_t page_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex inner_mu_;  // serializes every inner_-> call
  mutable std::mutex snapshot_mu_;  // serializes stats_snapshot_ refreshes
  mutable IoStats stats_snapshot_;
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_SHARED_BUFFER_POOL_H_
