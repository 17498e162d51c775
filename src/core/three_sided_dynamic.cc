#include "core/three_sided_dynamic.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "util/mathutil.h"

namespace pathcache {

DynamicThreeSidedPst::DynamicThreeSidedPst(PageDevice* dev,
                                           DynamicThreeSidedOptions opts)
    : dev_(dev), opts_(opts) {
  buf_cap_ = RecordsPerPage<UpdateRec>(dev_->page_size());
}

Status DynamicThreeSidedPst::Build(std::vector<Point> points) {
  if (image_ != nullptr) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  live_count_ = image_count_ = points.size();
  image_ = std::make_unique<ThreeSidedPst>(dev_, ThreeSidedPstOptions{});
  PC_RETURN_IF_ERROR(image_->Build(std::move(points)));
  auto p = dev_->Allocate();
  if (!p.ok()) return p.status();
  buffer_pages_.push_back(p.value());
  return WriteUpdateBuffer(dev_, buffer_pages_.back(), {});
}

Status DynamicThreeSidedPst::Insert(const Point& p) { return Update(p, 0); }
Status DynamicThreeSidedPst::Erase(const Point& p) { return Update(p, 1); }

Status DynamicThreeSidedPst::Update(const Point& p, uint32_t op) {
  if (image_ == nullptr) PC_RETURN_IF_ERROR(Build({}));
  std::vector<UpdateRec> tail;
  PC_RETURN_IF_ERROR(ReadBlockPage(dev_, buffer_pages_.back(), &tail));
  if (tail.size() >= buf_cap_) {
    auto np = dev_->Allocate();
    if (!np.ok()) return np.status();
    buffer_pages_.push_back(np.value());
    tail.clear();
  }
  tail.push_back(UpdateRec{p.x, p.y, p.id, op, next_seq_++});
  PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, buffer_pages_.back(), tail));
  ++buffer_count_;
  live_count_ += (op == 0) ? 1 : -1;

  const uint32_t B = RecordsPerPage<Point>(dev_->page_size());
  const uint64_t budget =
      static_cast<uint64_t>(opts_.buffer_pages_per_log) *
      (CeilLogBase(std::max<uint64_t>(image_count_, 2), std::max(B, 2u)) + 1);
  if (buffer_pages_.size() > budget) return Rebuild();
  return Status::OK();
}

Status DynamicThreeSidedPst::ReadPending(std::vector<UpdateRec>* out) const {
  for (PageId page : buffer_pages_) {
    PC_RETURN_IF_ERROR(ReadBlockPage(dev_, page, out));
  }
  return Status::OK();
}

Status DynamicThreeSidedPst::Rebuild() {
  ++rebuilds_;
  std::vector<Point> all;
  PC_RETURN_IF_ERROR(image_->QueryThreeSided(
      ThreeSidedQuery{INT64_MIN, INT64_MAX, INT64_MIN}, &all));
  std::unordered_map<uint64_t, Point> points;
  points.reserve(all.size());
  for (const Point& p : all) points[p.id] = p;
  std::vector<UpdateRec> pending;
  PC_RETURN_IF_ERROR(ReadPending(&pending));
  std::sort(pending.begin(), pending.end(),
            [](const UpdateRec& a, const UpdateRec& b) { return a.seq < b.seq; });
  for (const UpdateRec& rec : pending) {
    if (rec.op == 0) {
      points[rec.id] = rec.ToPoint();
    } else {
      points.erase(rec.id);
    }
  }
  std::vector<Point> fresh;
  fresh.reserve(points.size());
  for (const auto& [id, p] : points) fresh.push_back(p);

  PC_RETURN_IF_ERROR(image_->Destroy());
  image_ = std::make_unique<ThreeSidedPst>(dev_, ThreeSidedPstOptions{});
  PC_RETURN_IF_ERROR(image_->Build(std::move(fresh)));
  image_count_ = points.size();
  while (buffer_pages_.size() > 1) {
    PC_RETURN_IF_ERROR(dev_->Free(buffer_pages_.back()));
    buffer_pages_.pop_back();
  }
  buffer_count_ = 0;
  return WriteUpdateBuffer(dev_, buffer_pages_.back(), {});
}

Status DynamicThreeSidedPst::QueryThreeSided(const ThreeSidedQuery& q,
                                             std::vector<Point>* out,
                                             QueryStats* stats) const {
  if (image_ == nullptr) return Status::OK();
  PC_RETURN_IF_ERROR(image_->QueryThreeSided(q, out, stats));

  std::vector<UpdateRec> pending;
  PC_RETURN_IF_ERROR(ReadPending(&pending));
  if (stats != nullptr) {
    stats->buffer += buffer_pages_.size();
    stats->wasteful += buffer_pages_.size();
  }
  if (!pending.empty()) {
    std::sort(pending.begin(), pending.end(),
              [](const UpdateRec& a, const UpdateRec& b) {
                return a.seq < b.seq;
              });
    std::unordered_map<uint64_t, Point> added;
    std::unordered_set<uint64_t> removed;
    for (const UpdateRec& rec : pending) {
      if (rec.op == 0) {
        if (q.Contains(rec.ToPoint())) added[rec.id] = rec.ToPoint();
      } else {
        added.erase(rec.id);
        removed.insert(rec.id);
      }
    }
    if (!removed.empty()) {
      std::erase_if(*out, [&](const Point& p) {
        return removed.find(p.id) != removed.end();
      });
    }
    for (const auto& [id, p] : added) out->push_back(p);
  }
  if (stats != nullptr) stats->records_reported = out->size();
  return Status::OK();
}

Status DynamicThreeSidedPst::Destroy() {
  if (image_ != nullptr) {
    PC_RETURN_IF_ERROR(image_->Destroy());
    image_.reset();
  }
  for (PageId p : buffer_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  buffer_pages_.clear();
  buffer_count_ = 0;
  live_count_ = 0;
  image_count_ = 0;
  return Status::OK();
}

StorageBreakdown DynamicThreeSidedPst::storage() const {
  StorageBreakdown s;
  if (image_ != nullptr) s = image_->storage();
  s.cache_headers += buffer_pages_.size();
  return s;
}

}  // namespace pathcache
