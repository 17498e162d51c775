// PageDevice: the abstract block device every external structure is built on.
//
// The paper's cost model charges one unit per page transferred; a PageDevice
// counts exactly that.  Implementations: MemPageDevice (simulated, counted),
// FilePageDevice (a real file, for demos), BufferPool (an LRU cache that is
// itself a PageDevice decorating another).

#ifndef PATHCACHE_IO_PAGE_DEVICE_H_
#define PATHCACHE_IO_PAGE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "io/io_types.h"
#include "util/status.h"

namespace pathcache {

class PageDevice {
 public:
  virtual ~PageDevice() = default;

  /// Page size in bytes; fixed for the lifetime of the device.
  virtual uint32_t page_size() const = 0;

  /// Allocates a fresh zeroed page and returns its id.
  virtual Result<PageId> Allocate() = 0;

  /// Returns a page to the device.  Reading a freed page is Corruption.
  virtual Status Free(PageId id) = 0;

  /// Copies the page into `buf`, which must hold page_size() bytes.
  virtual Status Read(PageId id, std::byte* buf) = 0;

  /// Reads `ids.size()` pages into `bufs` (ids[k]'s page lands at
  /// bufs + k * page_size()).  Counted exactly like ids.size() calls to
  /// Read() — batching is a transport optimization, never a cost-model one —
  /// so callers may only batch pages they would have read anyway.
  /// Implementations may reorder or coalesce the physical transfers; on
  /// error the contents of `bufs` are unspecified.
  virtual Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) {
    for (size_t i = 0; i < ids.size(); ++i) {
      PC_RETURN_IF_ERROR(Read(ids[i], bufs + i * page_size()));
    }
    return Status::OK();
  }

  /// Kept for perfbench's compile surface only; src/ never overrides it.
  virtual Result<uint64_t> SubmitBatch(std::span<const PageId> /*ids*/,
                                       std::byte* /*bufs*/) {
    return Status::NotSupported("device has no async read engine");
  }
  /// Kept for perfbench's compile surface only; src/ never overrides it.
  virtual Status AwaitBatch(uint64_t /*ticket*/) {
    return Status::NotSupported("device has no async read engine");
  }

  /// Overwrites the page from `buf`, which must hold page_size() bytes.
  virtual Status Write(PageId id, const std::byte* buf) = 0;

  /// Durability barrier: blocks until every Write() acknowledged before this
  /// call has reached stable storage.  A write is only guaranteed to survive
  /// a crash once a later Sync() has returned OK — the write-ahead-log and
  /// manifest-publish protocols are built on exactly this contract.  The
  /// default is a no-op because the in-memory devices are trivially durable;
  /// FilePageDevice issues fdatasync, decorators forward, and
  /// FaultPageDevice models power loss by discarding unsynced writes.
  virtual Status Sync() { return Status::OK(); }

  /// Appends the id of every live (allocated, not freed) page to `out`, in
  /// unspecified order.  Offline passes (fsck orphan classification, --gc
  /// repair) need the actual id set, not just the live_pages() count.
  /// Devices that cannot enumerate return NotSupported and those passes
  /// degrade to count-only reporting.
  virtual Status ListLivePages(std::vector<PageId>* /*out*/) {
    return Status::NotSupported("device cannot enumerate live pages");
  }

  /// Pins the page in the device's own storage and returns a stable pointer
  /// to its page_size() bytes, valid until the matching Unpin(id).  Counted
  /// exactly like Read() — pinning is a transport optimization (it skips the
  /// copy into a caller buffer), never a cost-model one.  Pins nest: each
  /// successful Pin() must be paired with one Unpin().
  ///
  /// A pinned frame is read-only and stays resident: caching devices must
  /// not evict it, and callers must not Write() or Free() the page while it
  /// is pinned.  Devices without stable frames return NotSupported and
  /// callers fall back to Read() into their own buffer — PagePin (below)
  /// packages that fallback.
  virtual Result<const std::byte*> Pin(PageId /*id*/) {
    return Status::NotSupported("device has no pinnable frames");
  }

  /// Releases one pin on `id`.  Calling without a matching Pin() is a
  /// caller bug; implementations may assert.
  virtual void Unpin(PageId /*id*/) {}

  /// Cumulative counters since construction or the last ResetStats().
  virtual const IoStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Number of live (allocated, not freed) pages — the "disk blocks of
  /// storage" quantity in the paper's space bounds.
  virtual uint64_t live_pages() const = 0;
};

/// RAII view of one page: a zero-copy pinned frame when the device supports
/// Pin(), otherwise a read into an owned buffer.  Either path costs exactly
/// one counted logical read, so scan code can use PagePin unconditionally
/// without perturbing the paper's I/O accounting.
class PagePin {
 public:
  PagePin() = default;
  ~PagePin() { Release(); }
  PagePin(const PagePin&) = delete;
  PagePin& operator=(const PagePin&) = delete;
  PagePin(PagePin&& o) noexcept { *this = std::move(o); }
  PagePin& operator=(PagePin&& o) noexcept {
    if (this != &o) {
      Release();
      dev_ = o.dev_;
      id_ = o.id_;
      pinned_ = o.pinned_;
      data_ = o.data_;
      no_pin_dev_ = o.no_pin_dev_;
      fallback_ = std::move(o.fallback_);
      if (!pinned_ && data_ != nullptr) data_ = fallback_.data();
      o.dev_ = nullptr;
      o.id_ = kInvalidPageId;
      o.pinned_ = false;
      o.data_ = nullptr;
    }
    return *this;
  }

  /// Loads `id`, releasing any previously held page first.
  Status Load(PageDevice* dev, PageId id) {
    Release();
    // Remember a NotSupported verdict per device so steady-state loads on a
    // non-pinning device skip straight to the Read() fallback.
    if (dev != no_pin_dev_) {
      Result<const std::byte*> pin = dev->Pin(id);
      if (pin.ok()) {
        dev_ = dev;
        id_ = id;
        pinned_ = true;
        data_ = pin.value();
        return Status::OK();
      }
      if (pin.status().code() != StatusCode::kNotSupported) {
        return pin.status();
      }
      no_pin_dev_ = dev;
    }
    fallback_.resize(dev->page_size());
    PC_RETURN_IF_ERROR(dev->Read(id, fallback_.data()));
    dev_ = dev;
    id_ = id;
    data_ = fallback_.data();
    return Status::OK();
  }

  /// Valid only after a successful Load(); page_size() bytes.
  const std::byte* data() const { return data_; }
  bool holds_page() const { return data_ != nullptr; }
  PageId page() const { return id_; }

  void Release() {
    if (pinned_) dev_->Unpin(id_);
    dev_ = nullptr;
    id_ = kInvalidPageId;
    pinned_ = false;
    data_ = nullptr;
  }

 private:
  PageDevice* dev_ = nullptr;
  PageId id_ = kInvalidPageId;
  bool pinned_ = false;
  const std::byte* data_ = nullptr;
  PageDevice* no_pin_dev_ = nullptr;  // last device that said NotSupported
  std::vector<std::byte> fallback_;   // kept across Loads to reuse capacity
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_PAGE_DEVICE_H_
