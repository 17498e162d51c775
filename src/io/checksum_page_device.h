// ChecksumPageDevice: end-to-end page integrity via a CRC32C trailer.
//
// Wraps any PageDevice and reserves the last kPageTrailerBytes of every
// physical page for a trailer { magic, crc }:
//
//   * page_size() shrinks by kPageTrailerBytes — callers see only the
//     payload, so structures built on a checksummed device automatically
//     fit their records to the smaller page;
//   * Write() stamps the trailer; Read()/ReadBatch()/Pin() verify it and
//     surface any mismatch as Status::Corruption naming the page id and the
//     byte offset of the first differing trailer byte;
//   * the CRC covers payload bytes plus the page id, so a page written to
//     (or read from) the wrong location — a misdirected I/O — fails
//     verification even though its bytes are internally consistent;
//   * an all-zero physical page verifies as a valid zero payload: freshly
//     Allocate()d pages are readable without a priming write, matching the
//     plain-device contract.
//
// Stacking order (see README "Integrity & fault tolerance"): the checksum
// layer goes directly above the physical device and below any cache, so
// every page entering the cache was verified once and cached hits pay no
// re-verification:  File -> Checksum -> [Retry] -> BufferPool.

#ifndef PATHCACHE_IO_CHECKSUM_PAGE_DEVICE_H_
#define PATHCACHE_IO_CHECKSUM_PAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "io/page_device.h"

namespace pathcache {

/// Bytes reserved at the end of each physical page.
inline constexpr uint32_t kPageTrailerBytes = 8;

/// Trailer magic ("PCk1"); distinguishes a stamped page from a never-written
/// (all-zero) one and versions the trailer layout itself.
inline constexpr uint32_t kPageTrailerMagic = 0x316B4350u;

class ChecksumPageDevice final : public PageDevice {
 public:
  /// Does not own `inner`.  inner->page_size() must exceed
  /// kPageTrailerBytes; payload page_size() is the difference.
  explicit ChecksumPageDevice(PageDevice* inner);

  /// Reads and verifies the page without copying the payload out: the cheap
  /// primitive VerifyStore's scrub pass is built on.
  Status Scrub(PageId id);

  /// Pages that passed / failed verification since construction.  Relaxed
  /// atomics: safe to sample from any thread while operations run (the
  /// observability exporter does); everything else on this device follows
  /// the usual single-caller decorator contract.
  uint64_t pages_verified() const {
    return pages_verified_.load(std::memory_order_relaxed);
  }
  uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }

  // --- PageDevice ---------------------------------------------------------

  uint32_t page_size() const override { return payload_size_; }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, std::byte* buf) override;
  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override;

  Status Write(PageId id, const std::byte* buf) override;
  /// Pins the inner frame, verifies it, and returns a pointer to its payload
  /// prefix (page_size() bytes).  Verification happens on every Pin — cache
  /// above this device, not below, if that matters.
  Result<const std::byte*> Pin(PageId id) override;
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
  /// Checks the trailer of physical page image `phys` (inner page_size()
  /// bytes) against its payload and `id`.
  Status Verify(PageId id, const std::byte* phys);

  PageDevice* inner_;
  uint32_t payload_size_;
  IoStats stats_;
  std::atomic<uint64_t> pages_verified_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::vector<std::byte> scratch_;  // one physical page, reused across ops
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_CHECKSUM_PAGE_DEVICE_H_
