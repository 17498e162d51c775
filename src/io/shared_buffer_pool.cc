#include "io/shared_buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace pathcache {

SharedBufferPool::SharedBufferPool(PageDevice* inner, uint64_t capacity_pages,
                                   uint32_t shards)
    : inner_(inner), page_size_(inner->page_size()) {
  uint32_t n = std::max<uint32_t>(1, shards);
  shards_.reserve(n);
  uint64_t base = capacity_pages / n;
  uint64_t extra = capacity_pages % n;
  for (uint32_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->capacity = base + (i < extra ? 1 : 0);
    // A nonzero total capacity must cache something in every shard, or
    // pages landing in a zero-capacity shard would never hit.
    if (capacity_pages > 0 && s->capacity == 0) s->capacity = 1;
    shards_.push_back(std::move(s));
  }
}

void SharedBufferPool::Touch(Shard& s, Frame& f, PageId id) {
  s.lru.erase(f.lru_it);
  s.lru.push_front(id);
  f.lru_it = s.lru.begin();
}

namespace {

// Evicts cold unpinned frames until the shard is back under capacity.
// Caller holds s.mu.  If every frame is pinned the shard temporarily runs
// over capacity rather than invalidating a pointer someone holds.
template <typename ShardT>
void EvictShardIfNeeded(ShardT& s) {
  auto victim = s.lru.end();
  while (s.frames.size() - s.pinned > 0 && s.frames.size() > s.capacity) {
    if (victim == s.lru.begin()) break;
    --victim;
    auto it = s.frames.find(*victim);
    if (it->second.pins > 0) continue;
    victim = s.lru.erase(victim);
    s.frames.erase(it);
    ++s.evictions;
  }
}

}  // namespace

void SharedBufferPool::InsertFrame(Shard& s, PageId id, const std::byte* buf) {
  if (s.capacity == 0) return;
  auto data = AllocPageFrame(page_size_);
  std::memcpy(data.get(), buf, page_size_);
  s.lru.push_front(id);
  s.frames[id] = Frame{std::move(data), s.lru.begin()};
  EvictShardIfNeeded(s);
}

Result<PageId> SharedBufferPool::Allocate() {
  std::lock_guard<std::mutex> lk(inner_mu_);
  return inner_->Allocate();
}

Status SharedBufferPool::Free(PageId id) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> slk(s.mu);
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    if (it->second.pins > 0) {
      return Status::FailedPrecondition("Free of pinned page " +
                                        std::to_string(id));
    }
    s.lru.erase(it->second.lru_it);
    s.frames.erase(it);
  }
  std::lock_guard<std::mutex> ilk(inner_mu_);
  return inner_->Free(id);
}

Result<const std::byte*> SharedBufferPool::Pin(PageId id) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> slk(s.mu);
  if (s.capacity == 0) {
    return Status::NotSupported("pass-through pool has no frames to pin");
  }
  ++s.stats.reads;
  auto it = s.frames.find(id);
  if (it == s.frames.end()) {
    ++s.misses;
    // The frame is born pinned so the eviction scan cannot pick it.
    auto data = AllocPageFrame(page_size_);
    {
      std::lock_guard<std::mutex> ilk(inner_mu_);
      PC_RETURN_IF_ERROR(inner_->Read(id, data.get()));
    }
    s.lru.push_front(id);
    it = s.frames.emplace(id, Frame{std::move(data), s.lru.begin(), 1}).first;
    ++s.pinned;
    EvictShardIfNeeded(s);
  } else {
    ++s.hits;
    Touch(s, it->second, id);
    if (it->second.pins++ == 0) ++s.pinned;
  }
  return static_cast<const std::byte*>(it->second.data.get());
}

void SharedBufferPool::Unpin(PageId id) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> slk(s.mu);
  auto it = s.frames.find(id);
  if (it == s.frames.end() || it->second.pins == 0) return;  // caller bug
  if (--it->second.pins == 0) {
    --s.pinned;
    EvictShardIfNeeded(s);  // the shard may have been held over capacity
  }
}

Status SharedBufferPool::Read(PageId id, std::byte* buf) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> slk(s.mu);
  ++s.stats.reads;
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    ++s.hits;
    Touch(s, it->second, id);
    std::memcpy(buf, it->second.data.get(), page_size_);
    return Status::OK();
  }
  ++s.misses;
  {
    std::lock_guard<std::mutex> ilk(inner_mu_);
    PC_RETURN_IF_ERROR(inner_->Read(id, buf));
  }
  InsertFrame(s, id, buf);
  return Status::OK();
}

Status SharedBufferPool::ReadBatch(std::span<const PageId> ids,
                                   std::byte* bufs) {
  // Per-page reads through the shards keep counting identical to sequential
  // Read() calls; misses are then fetched from the inner device in one
  // batch so a FilePageDevice underneath still coalesces them.  Duplicate
  // ids fall out naturally: the second lookup of a page just misses (or
  // hits) again, same as sequential reads would.
  std::vector<size_t> miss_slots;
  for (size_t i = 0; i < ids.size(); ++i) {
    PageId id = ids[i];
    Shard& s = ShardFor(id);
    std::lock_guard<std::mutex> slk(s.mu);
    ++s.stats.reads;
    auto it = s.frames.find(id);
    if (it != s.frames.end()) {
      ++s.hits;
      Touch(s, it->second, id);
      std::memcpy(bufs + i * page_size_, it->second.data.get(), page_size_);
    } else {
      ++s.misses;
      miss_slots.push_back(i);
    }
  }
  if (miss_slots.empty()) return Status::OK();

  // Duplicate missed ids would race InsertFrame against each other in the
  // batch path and double-read on the device; fetch them one by one.
  std::vector<PageId> miss_ids(miss_slots.size());
  for (size_t k = 0; k < miss_slots.size(); ++k) {
    miss_ids[k] = ids[miss_slots[k]];
  }
  std::vector<PageId> sorted = miss_ids;
  std::sort(sorted.begin(), sorted.end());
  bool distinct =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();

  std::vector<std::byte> fetched(miss_ids.size() * page_size_);
  {
    std::lock_guard<std::mutex> ilk(inner_mu_);
    if (distinct) {
      PC_RETURN_IF_ERROR(inner_->ReadBatch(miss_ids, fetched.data()));
    } else {
      for (size_t k = 0; k < miss_ids.size(); ++k) {
        PC_RETURN_IF_ERROR(
            inner_->Read(miss_ids[k], fetched.data() + k * page_size_));
      }
    }
  }
  for (size_t k = 0; k < miss_slots.size(); ++k) {
    const std::byte* page = fetched.data() + k * page_size_;
    std::memcpy(bufs + miss_slots[k] * page_size_, page, page_size_);
    Shard& s = ShardFor(miss_ids[k]);
    std::lock_guard<std::mutex> slk(s.mu);
    // Another thread may have inserted the page while we were reading it;
    // keep the existing frame, the contents are identical (read-only use).
    if (s.frames.find(miss_ids[k]) == s.frames.end()) {
      InsertFrame(s, miss_ids[k], page);
    }
  }
  return Status::OK();
}

Status SharedBufferPool::Sync() {
  Shard& s = ShardFor(0);
  std::lock_guard<std::mutex> slk(s.mu);
  {
    std::lock_guard<std::mutex> ilk(inner_mu_);
    PC_RETURN_IF_ERROR(inner_->Sync());
  }
  ++s.stats.syncs;
  return Status::OK();
}

Status SharedBufferPool::ListLivePages(std::vector<PageId>* out) {
  std::lock_guard<std::mutex> ilk(inner_mu_);
  return inner_->ListLivePages(out);
}

Status SharedBufferPool::Write(PageId id, const std::byte* buf) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> slk(s.mu);
  ++s.stats.writes;
  {
    std::lock_guard<std::mutex> ilk(inner_mu_);
    PC_RETURN_IF_ERROR(inner_->Write(id, buf));
  }
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    Touch(s, it->second, id);
    std::memcpy(it->second.data.get(), buf, page_size_);
  } else {
    InsertFrame(s, id, buf);
  }
  return Status::OK();
}

IoStats SharedBufferPool::StatsSnapshot() const {
  IoStats agg;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    agg.reads += s->stats.reads;
    agg.writes += s->stats.writes;
    agg.batch_reads += s->stats.batch_reads;
  }
  {
    std::lock_guard<std::mutex> lk(inner_mu_);
    const IoStats& in = inner_->stats();
    agg.allocs = in.allocs;
    agg.frees = in.frees;
  }
  return agg;
}

const IoStats& SharedBufferPool::stats() const {
  IoStats agg = StatsSnapshot();
  std::lock_guard<std::mutex> lk(snapshot_mu_);
  stats_snapshot_ = agg;
  return stats_snapshot_;
}

void SharedBufferPool::ResetStats() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->stats = IoStats{};
    s->hits = 0;
    s->misses = 0;
    s->evictions = 0;
  }
}

uint64_t SharedBufferPool::live_pages() const {
  std::lock_guard<std::mutex> lk(inner_mu_);
  return inner_->live_pages();
}

void SharedBufferPool::Clear() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    // Pinned frames must survive: a caller is reading them in place.
    for (auto it = s->frames.begin(); it != s->frames.end();) {
      if (it->second.pins > 0) {
        ++it;
      } else {
        s->lru.erase(it->second.lru_it);
        it = s->frames.erase(it);
      }
    }
  }
}

uint64_t SharedBufferPool::hits() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    n += s->hits;
  }
  return n;
}

uint64_t SharedBufferPool::misses() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    n += s->misses;
  }
  return n;
}

uint64_t SharedBufferPool::evictions() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    n += s->evictions;
  }
  return n;
}

uint64_t SharedBufferPool::cached_pages() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    n += s->frames.size();
  }
  return n;
}

uint64_t SharedBufferPool::pinned_pages() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    n += s->pinned;
  }
  return n;
}

}  // namespace pathcache
