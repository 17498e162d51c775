#include "core/baselines.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace pathcache {

Status XSortedBaseline::Build(std::vector<Point> points) {
  if (n_ != 0 || !pages_.empty()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = points.size();
  if (n_ == 0) return index_.Init();
  std::sort(points.begin(), points.end(), LessByX);
  auto info = BuildBlockList<Point>(dev_, std::span<const Point>(points));
  if (!info.ok()) return info.status();
  pages_ = info.value().pages;
  data_ = info.value().ref;

  // Sparse index: first x of each data page -> page id.
  const uint32_t per_page = RecordsPerPage<Point>(dev_->page_size());
  std::vector<BTreeEntry> entries;
  entries.reserve(pages_.size());
  for (size_t i = 0; i < pages_.size(); ++i) {
    entries.push_back(
        BTreeEntry{points[i * per_page].x, static_cast<uint64_t>(pages_[i])});
  }
  // Entries must be strictly sorted; duplicate first-x pages get nudged by
  // their value (page id) via the composite entry order.
  std::sort(entries.begin(), entries.end(), EntryLess);
  return index_.BulkLoad(entries);
}

Status XSortedBaseline::Scan(int64_t x_lo, int64_t x_hi, int64_t y_min,
                             std::vector<Point>* out,
                             QueryStats* stats) const {
  if (n_ == 0) return Status::OK();
  // Find the last data page whose first x is STRICTLY below x_lo; a page
  // opening exactly at x_lo may be preceded by equal-x records at the tail
  // of the previous page.
  PageId start = data_.head;
  if (x_lo != INT64_MIN) {
    bool found = false;
    BTreeEntry floor;
    PC_RETURN_IF_ERROR(
        const_cast<BPlusTree&>(index_).FindFloor(x_lo - 1, &floor, &found));
    if (found) start = static_cast<PageId>(floor.value);
    if (stats != nullptr) {
      stats->navigation += index_.height();
      stats->wasteful += index_.height();
    }
  }

  const uint32_t cap = RecordsPerPage<Point>(dev_->page_size());
  PageId page = start;
  std::vector<std::byte> buf(dev_->page_size());
  std::vector<Point> pts;
  uint64_t walked = 0;
  while (page != kInvalidPageId) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
    PC_RETURN_IF_ERROR(dev_->Read(page, buf.data()));
    if (stats != nullptr) ++stats->ancestor;
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckBlockPageHeader(hdr, cap));
    uint64_t qual = 0;
    pts.clear();
    AppendBlockRecords(buf.data(), hdr, &pts);
    for (const Point& p : pts) {
      if (p.x > x_hi) {
        if (stats != nullptr) {
          ++(qual >= cap ? stats->useful : stats->wasteful);
          stats->records_reported = out->size();
        }
        return Status::OK();
      }
      if (p.x >= x_lo && p.y >= y_min) {
        out->push_back(p);
        ++qual;
      }
    }
    if (stats != nullptr) ++(qual >= cap ? stats->useful : stats->wasteful);
    page = hdr.next;
  }
  if (stats != nullptr) stats->records_reported = out->size();
  return Status::OK();
}

Status XSortedBaseline::QueryTwoSided(const TwoSidedQuery& q,
                                      std::vector<Point>* out,
                                      QueryStats* stats) const {
  return Scan(q.x_min, INT64_MAX, q.y_min, out, stats);
}

Status XSortedBaseline::QueryThreeSided(const ThreeSidedQuery& q,
                                        std::vector<Point>* out,
                                        QueryStats* stats) const {
  return Scan(q.x_min, q.x_max, q.y_min, out, stats);
}

}  // namespace pathcache
