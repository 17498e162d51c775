#include "io/checksum_page_device.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>

#include "io/crc32c.h"

namespace pathcache {
namespace {

struct Trailer {
  uint32_t magic;
  uint32_t crc;
};
static_assert(sizeof(Trailer) == kPageTrailerBytes);

uint32_t PageCrc(const std::byte* payload, uint32_t payload_size, PageId id) {
  uint32_t st = Crc32cInit();
  st = Crc32cUpdate(st, payload, payload_size);
  st = Crc32cUpdate(st, &id, sizeof(id));
  return Crc32cFinish(st);
}

bool AllZero(const std::byte* p, size_t n) {
  return std::all_of(p, p + n, [](std::byte b) { return b == std::byte{0}; });
}

std::string Hex32(uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

ChecksumPageDevice::ChecksumPageDevice(PageDevice* inner)
    : inner_(inner), payload_size_(inner->page_size() - kPageTrailerBytes) {
  assert(inner->page_size() > kPageTrailerBytes);
  scratch_.resize(inner->page_size());
}

Status ChecksumPageDevice::Verify(PageId id, const std::byte* phys) {
  Trailer t;
  std::memcpy(&t, phys + payload_size_, sizeof(t));
  if (t.magic != kPageTrailerMagic) {
    if (AllZero(phys, payload_size_ + kPageTrailerBytes)) {
      // Never written since Allocate(); a zero payload is the valid content.
      pages_verified_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption(
        "page " + std::to_string(id) + ": bad checksum trailer magic at byte " +
        std::to_string(payload_size_) + " (page unstamped or trailer damaged)");
  }
  const uint32_t want = PageCrc(phys, payload_size_, id);
  if (t.crc != want) {
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption(
        "page " + std::to_string(id) + ": checksum mismatch at byte " +
        std::to_string(payload_size_ + offsetof(Trailer, crc)) + " (stored " +
        Hex32(t.crc) + ", computed " + Hex32(want) + ")");
  }
  pages_verified_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ChecksumPageDevice::Scrub(PageId id) {
  PC_RETURN_IF_ERROR(inner_->Read(id, scratch_.data()));
  ++stats_.reads;
  return Verify(id, scratch_.data());
}

Result<PageId> ChecksumPageDevice::Allocate() {
  PC_ASSIGN_OR_RETURN(PageId id, inner_->Allocate());
  ++stats_.allocs;
  return id;
}

Status ChecksumPageDevice::Free(PageId id) {
  PC_RETURN_IF_ERROR(inner_->Free(id));
  ++stats_.frees;
  return Status::OK();
}

Status ChecksumPageDevice::Read(PageId id, std::byte* buf) {
  PC_RETURN_IF_ERROR(inner_->Read(id, scratch_.data()));
  ++stats_.reads;
  PC_RETURN_IF_ERROR(Verify(id, scratch_.data()));
  std::memcpy(buf, scratch_.data(), payload_size_);
  return Status::OK();
}

Status ChecksumPageDevice::ReadBatch(std::span<const PageId> ids,
                                     std::byte* bufs) {
  if (ids.empty()) return Status::OK();
  const uint32_t phys = inner_->page_size();
  std::vector<std::byte> batch(ids.size() * size_t{phys});
  PC_RETURN_IF_ERROR(inner_->ReadBatch(ids, batch.data()));
  stats_.reads += ids.size();
  ++stats_.batch_reads;
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::byte* p = batch.data() + i * phys;
    PC_RETURN_IF_ERROR(Verify(ids[i], p));
    std::memcpy(bufs + i * payload_size_, p, payload_size_);
  }
  return Status::OK();
}

Status ChecksumPageDevice::Write(PageId id, const std::byte* buf) {
  std::memcpy(scratch_.data(), buf, payload_size_);
  Trailer t{kPageTrailerMagic, PageCrc(buf, payload_size_, id)};
  std::memcpy(scratch_.data() + payload_size_, &t, sizeof(t));
  PC_RETURN_IF_ERROR(inner_->Write(id, scratch_.data()));
  ++stats_.writes;
  return Status::OK();
}

Result<const std::byte*> ChecksumPageDevice::Pin(PageId id) {
  PC_ASSIGN_OR_RETURN(const std::byte* frame, inner_->Pin(id));
  ++stats_.reads;
  Status s = Verify(id, frame);
  if (!s.ok()) {
    inner_->Unpin(id);
    return s;
  }
  return frame;  // payload is the page_size() prefix of the physical frame
}

}  // namespace pathcache
