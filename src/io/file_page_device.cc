#include "io/file_page_device.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

namespace pathcache {

namespace {

// Longest run of adjacent pages handed to one preadv; well under any
// realistic IOV_MAX (POSIX guarantees >= 16, Linux has 1024).
constexpr size_t kMaxCoalescedPages = 256;

// pread until `n` bytes arrived, retrying short transfers and EINTR.  A
// zero-length read mid-page means the file is truncated relative to the
// page table — corruption, not a transient error.
Status ReadFully(int fd, std::byte* buf, size_t n, off_t off,
                 uint64_t* syscalls) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, buf + done, n - done, off + done);
    if (syscalls != nullptr) ++*syscalls;
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread at offset " + std::to_string(off + done) +
                             ": " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::Corruption("short read at offset " +
                                std::to_string(off + done) +
                                ": unexpected end of file");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

// pwrite until `n` bytes landed, retrying short transfers and EINTR.
Status WriteFully(int fd, const std::byte* buf, size_t n, off_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pwrite at offset " + std::to_string(off + done) +
                             ": " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError("pwrite at offset " +
                             std::to_string(off + done) +
                             ": zero-length transfer");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

// preadv over `iov`, retrying short transfers and EINTR until every vector
// is filled.
Status PreadvFully(int fd, struct iovec* iov, size_t iovcnt, off_t off,
                   uint64_t* syscalls) {
  size_t idx = 0;
  while (idx < iovcnt) {
    ssize_t r = ::preadv(fd, iov + idx, static_cast<int>(iovcnt - idx), off);
    if (syscalls != nullptr) ++*syscalls;
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("preadv at offset " + std::to_string(off) + ": " +
                             std::strerror(errno));
    }
    if (r == 0) {
      return Status::Corruption("short read at offset " + std::to_string(off) +
                                ": unexpected end of file");
    }
    off += r;
    size_t got = static_cast<size_t>(r);
    while (got > 0 && idx < iovcnt) {
      if (got >= iov[idx].iov_len) {
        got -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + got;
        iov[idx].iov_len -= got;
        got = 0;
      }
    }
  }
  return Status::OK();
}

}  // namespace

FilePageDevice::FilePageDevice(int fd, uint32_t page_size)
    : fd_(fd), page_size_(page_size) {}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::Create(
    const std::string& path, uint32_t page_size) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  // Make the file's DIRECTORY ENTRY durable before anything is stored in
  // it: without this, a crash after a fully Sync()ed save can still lose
  // the whole store because the name itself never reached disk.
  PC_RETURN_IF_ERROR(SyncParentDir(path));
  return std::unique_ptr<FilePageDevice>(new FilePageDevice(fd, page_size));
}

Status FilePageDevice::SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = (slash == std::string::npos)
                              ? std::string(".")
                              : path.substr(0, std::max<size_t>(slash, 1));
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::IoError("open(" + dir + "): " + std::strerror(errno));
  }
  Status s = Status::OK();
  if (::fsync(dfd) != 0) {
    s = Status::IoError("fsync(" + dir + "): " + std::strerror(errno));
  }
  ::close(dfd);
  return s;
}

Status FilePageDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  ++stats_.syncs;
  return Status::OK();
}

Status FilePageDevice::ListLivePages(std::vector<PageId>* out) {
  for (PageId id = 0; id < page_count_; ++id) {
    if (id >= freed_.size() || !freed_[id]) out->push_back(id);
  }
  return Status::OK();
}

Result<std::unique_ptr<FilePageDevice>> FilePageDevice::Open(
    const std::string& path, uint32_t page_size) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek: " + std::string(std::strerror(errno)));
  }
  if (size % page_size != 0) {
    ::close(fd);
    return Status::Corruption("file size is not a multiple of the page size");
  }
  auto dev = std::unique_ptr<FilePageDevice>(
      new FilePageDevice(fd, page_size));
  dev->page_count_ = static_cast<uint64_t>(size) / page_size;
  dev->live_ = dev->page_count_;
  dev->freed_.assign(dev->page_count_, false);
  return dev;
}

FilePageDevice::~FilePageDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status FilePageDevice::CheckId(PageId id) const {
  if (id >= page_count_) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(id));
  }
  if (freed_[id]) {
    return Status::Corruption("access to freed page " + std::to_string(id));
  }
  return Status::OK();
}

Result<PageId> FilePageDevice::Allocate() {
  ++stats_.allocs;
  ++live_;
  std::string zeros(page_size_, '\0');
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    freed_[id] = false;
    PC_RETURN_IF_ERROR(
        WriteFully(fd_, reinterpret_cast<const std::byte*>(zeros.data()),
                   page_size_, static_cast<off_t>(id) * page_size_));
    return id;
  }
  PageId id = page_count_++;
  freed_.push_back(false);
  PC_RETURN_IF_ERROR(
      WriteFully(fd_, reinterpret_cast<const std::byte*>(zeros.data()),
                 page_size_, static_cast<off_t>(id) * page_size_));
  return id;
}

Status FilePageDevice::Free(PageId id) {
  PC_RETURN_IF_ERROR(CheckId(id));
  ++stats_.frees;
  --live_;
  freed_[id] = true;
  free_list_.push_back(id);
  return Status::OK();
}

Status FilePageDevice::Read(PageId id, std::byte* buf) {
  PC_RETURN_IF_ERROR(CheckId(id));
  PC_RETURN_IF_ERROR(ReadFully(fd_, buf, page_size_,
                               static_cast<off_t>(id) * page_size_,
                               &read_syscalls_));
  ++stats_.reads;
  return Status::OK();
}

Status FilePageDevice::ReadBatch(std::span<const PageId> ids,
                                 std::byte* bufs) {
  if (ids.empty()) return Status::OK();
  for (PageId id : ids) PC_RETURN_IF_ERROR(CheckId(id));

  // Visit the requests in disk order so runs of adjacent pages — block
  // lists allocate their pages consecutively, and the clustering pass in
  // io/layout.h relocates whole structures that way — collapse into single
  // preadv calls; each iovec still targets the caller's original slot.
  // Batches that arrive already in disk order (the common case once a
  // structure is clustered) skip building the sort permutation: slot k of
  // the batch IS disk-order position k.
  const bool already_sorted = std::is_sorted(ids.begin(), ids.end());
  std::vector<uint32_t> order;
  if (already_sorted) {
    ++sorted_batches_;
  } else {
    order.resize(ids.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&ids](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
  }
  auto slot = [&](size_t k) -> size_t {
    return already_sorted ? k : order[k];
  };

  // One preadv per run of disk-adjacent pages.
  std::vector<struct iovec> iov;
  size_t i = 0;
  while (i < ids.size()) {
    size_t j = i + 1;
    while (j < ids.size() && j - i < kMaxCoalescedPages &&
           ids[slot(j)] == ids[slot(j - 1)] + 1) {
      ++j;
    }
    iov.clear();
    for (size_t k = i; k < j; ++k) {
      iov.push_back({bufs + slot(k) * page_size_, page_size_});
    }
    PC_RETURN_IF_ERROR(PreadvFully(
        fd_, iov.data(), iov.size(),
        static_cast<off_t>(ids[slot(i)]) * page_size_, &read_syscalls_));
    i = j;
  }
  stats_.reads += ids.size();
  ++stats_.batch_reads;
  return Status::OK();
}

Status FilePageDevice::Write(PageId id, const std::byte* buf) {
  PC_RETURN_IF_ERROR(CheckId(id));
  PC_RETURN_IF_ERROR(WriteFully(fd_, buf, page_size_,
                                static_cast<off_t>(id) * page_size_));
  ++stats_.writes;
  return Status::OK();
}

}  // namespace pathcache
