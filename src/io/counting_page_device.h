// CountingPageDevice: a thin forwarding decorator that keeps its own private
// IoStats while delegating every call to a (possibly shared, thread-safe)
// inner device.
//
// Purpose: per-thread sharding of I/O accounting.  A SharedBufferPool's
// counters aggregate across every concurrent reader, so "how many pages did
// THIS query read" is unanswerable from the pool once queries overlap.  The
// serving layer gives each worker thread its own CountingPageDevice over the
// shared pool; the wrapper is touched by exactly one thread, so its counters
// need no atomics and a per-query delta is just stats() before/after.  The
// counting semantics mirror the pool's: Pin() counts as a read, ReadBatch()
// counts ids.size() reads plus one batch_read.
//
// The wrapper is NOT thread-safe itself — one instance per thread is the
// whole point.

#ifndef PATHCACHE_IO_COUNTING_PAGE_DEVICE_H_
#define PATHCACHE_IO_COUNTING_PAGE_DEVICE_H_

#include "io/page_device.h"

namespace pathcache {

class CountingPageDevice final : public PageDevice {
 public:
  explicit CountingPageDevice(PageDevice* inner) : inner_(inner) {}

  uint32_t page_size() const override { return inner_->page_size(); }

  Result<PageId> Allocate() override {
    Result<PageId> r = inner_->Allocate();
    if (r.ok()) ++stats_.allocs;
    return r;
  }

  Status Free(PageId id) override {
    Status s = inner_->Free(id);
    if (s.ok()) ++stats_.frees;
    return s;
  }

  Status Read(PageId id, std::byte* buf) override {
    ++stats_.reads;
    return inner_->Read(id, buf);
  }

  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override {
    stats_.reads += ids.size();
    if (!ids.empty()) ++stats_.batch_reads;
    return inner_->ReadBatch(ids, bufs);
  }

  Status Write(PageId id, const std::byte* buf) override {
    ++stats_.writes;
    return inner_->Write(id, buf);
  }

  Result<const std::byte*> Pin(PageId id) override {
    Result<const std::byte*> r = inner_->Pin(id);
    // A NotSupported verdict costs nothing; the caller falls back to Read(),
    // which counts there.  Mirrors the pool: a successful Pin is one read.
    if (r.ok()) ++stats_.reads;
    return r;
  }

  void Unpin(PageId id) override { inner_->Unpin(id); }

  Status Sync() override {
    Status s = inner_->Sync();
    if (s.ok()) ++stats_.syncs;
    return s;
  }

  Status ListLivePages(std::vector<PageId>* out) override {
    return inner_->ListLivePages(out);
  }

  const IoStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = IoStats{}; }
  uint64_t live_pages() const override { return inner_->live_pages(); }

 private:
  PageDevice* inner_;
  IoStats stats_;
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_COUNTING_PAGE_DEVICE_H_
