// A PageDevice backed by a real file, for running the examples against an
// actual filesystem.  Same accounting as MemPageDevice; pages are appended
// to the file on allocation and recycled through a free list.
//
// Short transfers (signals, filesystems that return partial pread/pwrite)
// are retried until the full page moved; a zero-length transfer mid-page is
// reported as Corruption with the failing byte offset.  ReadBatch sorts the
// requested ids and coalesces disk-adjacent pages into runs, so a batch of
// k pages typically costs far fewer than k transfer operations;
// `read_syscalls()` exposes the actual count for the coalescing benchmarks.
//
// Every coalesced run is one blocking preadv.  The transport decides only
// wall-clock: the paper's one-unit-per-page cost model is counted in
// IoStats, identically for Read and ReadBatch.

#ifndef PATHCACHE_IO_FILE_PAGE_DEVICE_H_
#define PATHCACHE_IO_FILE_PAGE_DEVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "io/page_device.h"

namespace pathcache {

class FilePageDevice final : public PageDevice {
 public:
  /// Kept for perfbench's compile surface only; preadv is the one backend.
  enum class ReadBackend { kPreadv, kIoUring };

  /// Opens (creating or truncating) `path` as the backing store.
  static Result<std::unique_ptr<FilePageDevice>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Re-opens an existing store without truncation.  Every page below the
  /// file's size is treated as live (the free list is not persisted), so
  /// reopening is intended for stores whose structures were saved via their
  /// manifests rather than partially freed.  A file whose size is not a
  /// multiple of `page_size` is rejected with Corruption: a partial tail
  /// page means the store was truncated mid-write (or the wrong page_size
  /// was passed), and treating it as live would surface later as a baffling
  /// short-read error instead of at open time.
  static Result<std::unique_ptr<FilePageDevice>> Open(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// fsyncs the directory containing `path`, making renames and creations
  /// of entries in it durable.  Create() calls this itself; publish
  /// protocols that rename a store file into place need it again after the
  /// rename.
  static Status SyncParentDir(const std::string& path);

  ~FilePageDevice() override;
  FilePageDevice(const FilePageDevice&) = delete;
  FilePageDevice& operator=(const FilePageDevice&) = delete;

  uint32_t page_size() const override { return page_size_; }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, std::byte* buf) override;
  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override;

  Status Write(PageId id, const std::byte* buf) override;
  /// fdatasync on the backing file — the durability barrier the WAL and
  /// manifest-publish protocols ack against.
  Status Sync() override;
  Status ListLivePages(std::vector<PageId>* out) override;
  const IoStats& stats() const override { return stats_; }
  void ResetStats() override {
    stats_ = IoStats{};
    read_syscalls_ = 0;
    sorted_batches_ = 0;
  }
  uint64_t live_pages() const override { return live_; }

  /// pread/preadv calls actually issued (retries included).  With batching,
  /// stats().reads - read_syscalls() is the number of syscalls coalescing
  /// saved over one-page-at-a-time reading.
  uint64_t read_syscalls() const { return read_syscalls_; }

  /// ReadBatch calls whose ids arrived already in disk order, taking the
  /// sort-free fast path.  Clustered structures make this the common case.
  uint64_t sorted_batches() const { return sorted_batches_; }

  /// Kept for perfbench's compile surface only; always kPreadv.
  ReadBackend read_backend() const { return ReadBackend::kPreadv; }

 private:
  FilePageDevice(int fd, uint32_t page_size);

  Status CheckId(PageId id) const;

  int fd_;
  uint32_t page_size_;
  uint64_t page_count_ = 0;
  uint64_t live_ = 0;
  std::vector<bool> freed_;
  std::vector<PageId> free_list_;
  IoStats stats_;
  uint64_t read_syscalls_ = 0;
  uint64_t sorted_batches_ = 0;
};

}  // namespace pathcache

#endif  // PATHCACHE_IO_FILE_PAGE_DEVICE_H_
