#include "core/three_sided.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <unordered_set>

#include "core/persist.h"
#include "core/region_tree.h"
#include "kernels/search.h"
#include "util/mathutil.h"

namespace pathcache {

namespace {

// ---- A-cache header page -------------------------------------------------
// [AHeader][PageId pages[n]][int64 block_min_x[n]]
// optionally followed by [magic][int64 block_max_x[n]] when it fits the
// page's slack.  The max-x directory bounds the A-scan's end block exactly
// (ascending x stops in the first block whose max exceeds x_max), enabling
// batched reads; the segment-length fit rule deliberately ignores it, so
// seg_len — and the counted I/O — is the same whether or not it is stored.
struct AHeader {
  uint32_t pages = 0;
  uint32_t pad = 0;
  uint64_t count = 0;
};
static_assert(sizeof(AHeader) == 16);

constexpr uint64_t kAMaxTrailerMagic = 0x5043'414D'4158'5831ULL;

// ---- S-index page ----------------------------------------------------------
// [SIndexHeader][PageId sr[anchors]][PageId sl[anchors]]
// Anchor k points at the sibling cache covering depths [seg_start + k, d].
struct SIndexHeader {
  uint32_t anchors = 0;
  uint32_t seg_start = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(SIndexHeader) == 16);

void Bump(QueryStats* stats, uint64_t QueryStats::* role, uint64_t n = 1) {
  if (stats != nullptr) stats->*role += n;
}

void Classify(QueryStats* stats, uint64_t qualifying, uint64_t capacity) {
  if (stats == nullptr) return;
  if (qualifying >= capacity) {
    ++stats->useful;
  } else {
    ++stats->wasteful;
  }
}

bool LessByXId(const SrcPoint& a, const SrcPoint& b) {
  return LessByX(a.ToPoint(), b.ToPoint());
}

}  // namespace

ThreeSidedPst::ThreeSidedPst(PageDevice* dev, ThreeSidedPstOptions opts)
    : dev_(dev), opts_(opts) {}

Status ThreeSidedPst::Build(std::vector<Point> points) {
  if (root_.valid()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = points.size();
  const uint32_t B = RecordsPerPage<Point>(dev_->page_size());
  if (B == 0) return Status::InvalidArgument("page too small");
  region_size_ = B;
  uint32_t want = opts_.segment_len != 0 ? opts_.segment_len
                                         : std::max<uint32_t>(1, FloorLog2(B));
  seg_len_ = FitSegmentLen(dev_->page_size(), want, B);
  // The A header also needs (s+1) page ids + min-x entries to fit.
  while (seg_len_ > 1) {
    const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
    const uint64_t a_recs = static_cast<uint64_t>(seg_len_ + 1) * B;
    const uint64_t a_pg = CeilDiv(a_recs, src_cap);
    const uint64_t a_hdr = sizeof(AHeader) + a_pg * (sizeof(PageId) + 8);
    const uint64_t s_idx =
        sizeof(SIndexHeader) + 2ULL * (seg_len_ + 1) * sizeof(PageId);
    if (a_hdr <= dev_->page_size() && s_idx <= dev_->page_size()) break;
    --seg_len_;
  }
  if (n_ == 0) return Status::OK();

  auto nodes = BuildRegionTree(std::move(points), region_size_);

  std::vector<Pst3NodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto info =
        BuildBlockList<Point>(dev_, std::span<const Point>(nodes[i].pts));
    if (!info.ok()) return info.status();
    for (PageId p : info.value().pages) owned_pages_.push_back(p);
    storage_.points += info.value().pages.size();

    Pst3NodeRec& r = recs[i];
    r.split_x = nodes[i].split_x;
    r.split_id = nodes[i].split_id;
    r.y_min = nodes[i].y_min;
    r.points_page = info.value().ref.head;
    r.count = static_cast<uint32_t>(nodes[i].pts.size());
    r.depth = nodes[i].depth;
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;
    if (opts_.enable_path_caching) {
      auto ah = dev_->Allocate();
      if (!ah.ok()) return ah.status();
      auto si = dev_->Allocate();
      if (!si.ok()) return si.status();
      r.a_header = ah.value();
      r.s_index = si.value();
      owned_pages_.push_back(ah.value());
      owned_pages_.push_back(si.value());
      storage_.cache_headers += 2;
    }
  }

  auto tree = WriteSkeletalTree<Pst3NodeRec>(dev_, recs, lefts, rights, 0);
  if (!tree.ok()) return tree.status();
  root_ = tree.value().root;
  storage_.skeletal = tree.value().pages;
  {
    std::unordered_set<PageId> seen;
    for (const NodeRef& ref : tree.value().refs) {
      if (ref.valid() && seen.insert(ref.page).second) {
        owned_pages_.push_back(ref.page);
      }
    }
  }
  if (!opts_.enable_path_caching) return Status::OK();
  const auto& refs = tree.value().refs;

  std::vector<std::byte> buf(dev_->page_size());
  std::vector<int32_t> chain;
  struct Frame {
    int32_t idx;
    uint8_t stage;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.stage == 0) {
      f.stage = 1;
      const int32_t v = f.idx;
      chain.push_back(v);
      const uint32_t d = nodes[v].depth;
      const uint32_t seg_start = (d / seg_len_) * seg_len_;

      // --- A-cache: segment-local ancestors (incl. self), ascending x,
      // src = depth - seg_start, plus a per-block min-x directory. ---
      std::vector<SrcPoint> a_recs;
      for (uint32_t j = seg_start; j <= d; ++j) {
        for (const Point& p : nodes[chain[j]].pts) {
          a_recs.push_back(SrcPoint::From(p, j - seg_start));
        }
      }
      std::sort(a_recs.begin(), a_recs.end(), LessByXId);
      // A-cache is ascending x; x is the scan/stop key.
      auto a_info =
          BuildBlockList<SrcPoint>(dev_, std::span<const SrcPoint>(a_recs));
      if (!a_info.ok()) return a_info.status();
      for (PageId p : a_info.value().pages) owned_pages_.push_back(p);
      storage_.cache_blocks += a_info.value().pages.size();
      {
        const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
        std::memset(buf.data(), 0, buf.size());
        AHeader ah;
        ah.pages = static_cast<uint32_t>(a_info.value().pages.size());
        ah.count = a_recs.size();
        std::byte* p = buf.data();
        std::memcpy(p, &ah, sizeof(ah));
        p += sizeof(ah);
        std::memcpy(p, a_info.value().pages.data(),
                    ah.pages * sizeof(PageId));
        p += ah.pages * sizeof(PageId);
        for (uint32_t bi = 0; bi < ah.pages; ++bi) {
          int64_t mn = a_recs[static_cast<size_t>(bi) * src_cap].x;
          std::memcpy(p + bi * 8, &mn, 8);
        }
        p += ah.pages * 8;
        const uint64_t used = static_cast<uint64_t>(p - buf.data());
        if (used + 8 + ah.pages * 8ULL <= dev_->page_size()) {
          std::memcpy(p, &kAMaxTrailerMagic, 8);
          p += 8;
          for (uint32_t bi = 0; bi < ah.pages; ++bi) {
            const size_t last = std::min<size_t>(
                a_recs.size(), (static_cast<size_t>(bi) + 1) * src_cap);
            int64_t mx = a_recs[last - 1].x;
            std::memcpy(p + bi * 8, &mx, 8);
          }
        }
        PC_RETURN_IF_ERROR(dev_->Write(recs[v].a_header, buf.data()));
      }

      // --- Anchored sibling caches: for every anchor depth k, the right
      // siblings (and, separately, left siblings) attached at depths
      // [seg_start + k, d]. ---
      const uint32_t anchors = d - seg_start + 1;
      std::vector<PageId> sr_pages(anchors, kInvalidPageId);
      std::vector<PageId> sl_pages(anchors, kInvalidPageId);
      for (uint32_t k = 0; k < anchors; ++k) {
        for (int side = 0; side < 2; ++side) {
          NodeCache cache;
          std::vector<SrcPoint> s_recs;
          for (uint32_t j = std::max<uint32_t>(1, seg_start + k); j <= d;
               ++j) {
            const int32_t u = chain[j];
            const int32_t parent = chain[j - 1];
            int32_t sib = -1;
            if (side == 0) {  // right siblings of a left-child path node
              if (nodes[parent].left == u) sib = nodes[parent].right;
            } else {  // left siblings of a right-child path node
              if (nodes[parent].right == u) sib = nodes[parent].left;
            }
            if (sib < 0) continue;
            const uint32_t ord = static_cast<uint32_t>(cache.sibs.size());
            for (const Point& p : nodes[sib].pts) {
              s_recs.push_back(SrcPoint::From(p, ord));
            }
            cache.sibs.push_back(SibInfo{
                nodes[sib].left >= 0 ? refs[nodes[sib].left] : kNullNodeRef,
                nodes[sib].right >= 0 ? refs[nodes[sib].right] : kNullNodeRef,
                kInvalidPageId,
                static_cast<uint32_t>(nodes[sib].pts.size()),
                static_cast<uint32_t>(nodes[sib].pts.size())});
          }
          if (cache.sibs.empty()) continue;
          std::sort(s_recs.begin(), s_recs.end(),
                    [](const SrcPoint& a, const SrcPoint& b) {
                      return GreaterByY(a.ToPoint(), b.ToPoint());
                    });
          auto s_info = BuildBlockList<SrcPoint>(
              dev_, std::span<const SrcPoint>(s_recs));
          if (!s_info.ok()) return s_info.status();
          cache.s_pages = s_info.value().pages;
          cache.s_count = s_recs.size();
          {
            const uint32_t src_cap =
                RecordsPerPage<SrcPoint>(dev_->page_size());
            for (size_t pg = 0; pg < cache.s_pages.size(); ++pg) {
              const size_t last = std::min(
                  s_recs.size(), (pg + 1) * static_cast<size_t>(src_cap));
              cache.s_tails.push_back(s_recs[last - 1].y);
            }
          }
          auto hp = dev_->Allocate();
          if (!hp.ok()) return hp.status();
          PC_RETURN_IF_ERROR(WriteCacheHeader(dev_, hp.value(), cache));
          owned_pages_.push_back(hp.value());
          for (PageId p : cache.s_pages) owned_pages_.push_back(p);
          storage_.cache_blocks += cache.s_pages.size() + 1;
          (side == 0 ? sr_pages : sl_pages)[k] = hp.value();
        }
      }
      {
        std::memset(buf.data(), 0, buf.size());
        SIndexHeader sh;
        sh.anchors = anchors;
        sh.seg_start = seg_start;
        std::byte* p = buf.data();
        std::memcpy(p, &sh, sizeof(sh));
        p += sizeof(sh);
        std::memcpy(p, sr_pages.data(), anchors * sizeof(PageId));
        p += anchors * sizeof(PageId);
        std::memcpy(p, sl_pages.data(), anchors * sizeof(PageId));
        PC_RETURN_IF_ERROR(dev_->Write(recs[v].s_index, buf.data()));
      }

      if (nodes[v].right >= 0) stack.push_back({nodes[v].right, 0});
      if (nodes[v].left >= 0) stack.push_back({nodes[v].left, 0});
    } else {
      chain.pop_back();
      stack.pop_back();
    }
  }
  return Status::OK();
}

Status ThreeSidedPst::DescendPath(
    int64_t x, int64_t y_min, bool right_path, std::vector<PathEnt>* path,
    SkeletalTreeReader<Pst3NodeRec>* reader) const {
  const uint64_t limit = SkeletalWalkLimit<Pst3NodeRec>(dev_);
  uint64_t steps = 0;
  NodeRef cur = root_;
  for (;;) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    PathEnt ent;
    ent.ref = cur;
    PC_RETURN_IF_ERROR(reader->Read(cur, &ent.rec));
    path->push_back(ent);
    if (y_min > ent.rec.y_min) break;
    // Tie-handling differs per boundary: duplicate x values may straddle a
    // split, so the left path keeps x == split on its right (siblings all
    // have x >= x1) while the right path keeps x == split on its left
    // (siblings all have x <= x2).
    const bool go_left =
        right_path ? (x < ent.rec.split_x) : (x <= ent.rec.split_x);
    NodeRef next = go_left ? ent.rec.left : ent.rec.right;
    if (!next.valid()) break;
    cur = next;
  }
  return Status::OK();
}

Status ThreeSidedPst::ProcessCache(const ThreeSidedQuery& q,
                                   const PathEnt& ent, bool right_side,
                                   size_t fork,
                                   std::vector<NodeRef>* descend_todo,
                                   std::vector<Point>* out,
                                   QueryStats* stats) const {
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
  const uint32_t d = ent.rec.depth;
  const uint32_t seg_start = (d / seg_len_) * seg_len_;

  // --- A-cache ---
  {
    std::vector<std::byte> buf(dev_->page_size());
    PC_RETURN_IF_ERROR(dev_->Read(ent.rec.a_header, buf.data()));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);
    AHeader ah;
    std::memcpy(&ah, buf.data(), sizeof(ah));
    if (sizeof(ah) + static_cast<uint64_t>(ah.pages) * (sizeof(PageId) + 8) >
        dev_->page_size()) {
      return Status::Corruption("A-cache header block directory exceeds page");
    }
    std::vector<PageId> pages(ah.pages);
    std::vector<int64_t> min_x(ah.pages);
    std::memcpy(pages.data(), buf.data() + sizeof(ah),
                ah.pages * sizeof(PageId));
    std::memcpy(min_x.data(),
                buf.data() + sizeof(ah) + ah.pages * sizeof(PageId),
                ah.pages * 8);
    // Optional max-x trailer (see AHeader): lets us bound the scan's end
    // block up front and fetch the exact [start..end] range batched.
    std::vector<int64_t> max_x;
    {
      const uint64_t base =
          sizeof(ah) + static_cast<uint64_t>(ah.pages) * (sizeof(PageId) + 8);
      if (base + 8 + ah.pages * 8ULL <= dev_->page_size()) {
        uint64_t magic = 0;
        std::memcpy(&magic, buf.data() + base, 8);
        if (magic == kAMaxTrailerMagic) {
          max_x.resize(ah.pages);
          std::memcpy(max_x.data(), buf.data() + base + 8, ah.pages * 8);
        }
      }
    }
    // Start at the last block whose minimum is strictly below x_min: a
    // block opening exactly at x_min may be preceded by equal-x records at
    // the tail of the previous block (ties on x are legal).
    uint32_t start = 0;
    for (uint32_t bi = 1; bi < ah.pages; ++bi) {
      if (min_x[bi] < q.x_min) start = bi;
    }
    bool stop = false;
    auto scan_a_block = [&](std::span<const SrcPoint> recs) {
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      for (const SrcPoint& sp : recs) {
        if (sp.x > q.x_max) {
          stop = true;
          break;
        }
        if (sp.x < q.x_min) continue;
        // On the right path, records of shared-prefix ancestors were
        // already reported while walking the left path's caches.
        if (right_side && seg_start + sp.src <= fork) continue;
        if (sp.y >= q.y_min) {
          out->push_back(sp.ToPoint());
          ++qual;
        }
      }
      Classify(stats, qual, src_cap);
    };
    if (opts_.enable_readahead && !max_x.empty() && ah.pages > 0) {
      // Ascending x stops in the first block whose maximum exceeds x_max,
      // so the page-at-a-time scan reads exactly blocks [start..end].
      uint32_t end = ah.pages - 1;
      for (uint32_t bi = start; bi < ah.pages; ++bi) {
        if (max_x[bi] > q.x_max) {
          end = bi;
          break;
        }
      }
      BlockListCursor<SrcPoint> cur(
          dev_,
          std::span<const PageId>(pages.data() + start, end - start + 1));
      std::vector<SrcPoint> recs;
      while (!cur.done()) {
        recs.clear();
        PC_RETURN_IF_ERROR(cur.NextBlock(&recs));
        scan_a_block(recs);
      }
    } else {
      // Records scanned in place via a pinned frame: one counted read per
      // page either way.
      BlockPageView<SrcPoint> view;
      for (uint32_t bi = start; bi < ah.pages && !stop; ++bi) {
        PC_RETURN_IF_ERROR(view.Load(dev_, pages[bi]));
        scan_a_block(view.records());
      }
    }
  }

  // --- Anchored sibling cache ---
  {
    // Relevant siblings hang at depths >= fork + 2: at depth fork + 1 the
    // "sibling" is the other path's node, which reports via its own caches.
    uint32_t k =
        (fork + 2 > seg_start) ? static_cast<uint32_t>(fork + 2 - seg_start)
                               : 0;
    if (seg_start + k > d) return Status::OK();  // whole segment above fork
    std::vector<std::byte> buf(dev_->page_size());
    PC_RETURN_IF_ERROR(dev_->Read(ent.rec.s_index, buf.data()));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);
    SIndexHeader sh;
    std::memcpy(&sh, buf.data(), sizeof(sh));
    if (sizeof(sh) + 2ULL * sh.anchors * sizeof(PageId) > dev_->page_size()) {
      return Status::Corruption("S-index anchor directory exceeds page");
    }
    if (k >= sh.anchors) return Status::OK();
    PageId hdr_page;
    const std::byte* base = buf.data() + sizeof(sh);
    if (!right_side) {
      std::memcpy(&hdr_page, base + k * sizeof(PageId), sizeof(PageId));
    } else {
      std::memcpy(&hdr_page,
                  base + (sh.anchors + k) * sizeof(PageId), sizeof(PageId));
    }
    if (hdr_page == kInvalidPageId) return Status::OK();
    NodeCache cache;
    PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, hdr_page, &cache));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);

    std::vector<uint32_t> sib_qual(cache.sibs.size(), 0);
    bool stop = false;
    bool bad_src = false;
    auto scan_s_block = [&](std::span<const SrcPoint> recs) {
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      // Vectorized hoist of the per-record stop branch (first y < y_min);
      // the prefix before the stop record is scanned exactly as before,
      // including the unconditional sibling tally.
      const size_t limit =
          recs.empty() ? 0
                       : kernels::FindFirstBelow(&recs[0].y, sizeof(SrcPoint),
                                                 recs.size(), q.y_min);
      if (limit < recs.size()) stop = true;
      for (const SrcPoint& sp : recs.first(limit)) {
        if (sp.src >= sib_qual.size()) {
          bad_src = true;
          stop = true;
          break;
        }
        ++sib_qual[sp.src];
        if (q.Contains(sp.ToPoint())) {
          out->push_back(sp.ToPoint());
          ++qual;
        }
      }
      Classify(stats, qual, src_cap);
    };
    if (opts_.enable_readahead &&
        cache.s_tails.size() == cache.s_pages.size()) {
      // Descending y stops in the first page whose tail (minimum y) falls
      // below y_min: fetch exactly that prefix, batched.
      const size_t n_tails = cache.s_tails.size();
      const size_t hit = kernels::FindFirstBelow(
          cache.s_tails.data(), sizeof(int64_t), n_tails, q.y_min);
      const size_t prefix = hit == n_tails ? n_tails : hit + 1;
      BlockListCursor<SrcPoint> cur(
          dev_, std::span<const PageId>(cache.s_pages.data(), prefix));
      std::vector<SrcPoint> recs;
      while (!cur.done()) {
        recs.clear();
        PC_RETURN_IF_ERROR(cur.NextBlock(&recs));
        scan_s_block(recs);
      }
    } else {
      BlockPageView<SrcPoint> view;
      for (PageId p : cache.s_pages) {
        if (stop) break;
        PC_RETURN_IF_ERROR(view.Load(dev_, p));
        scan_s_block(view.records());
      }
    }
    if (bad_src) {
      return Status::Corruption(
          "anchored cache record names a sibling ordinal beyond the cache's "
          "sibling table");
    }
    for (size_t i = 0; i < cache.sibs.size(); ++i) {
      if (sib_qual[i] == cache.sibs[i].total) {
        if (cache.sibs[i].left.valid()) {
          descend_todo->push_back(cache.sibs[i].left);
        }
        if (cache.sibs[i].right.valid()) {
          descend_todo->push_back(cache.sibs[i].right);
        }
      }
    }
  }
  return Status::OK();
}

Status ThreeSidedPst::DescendDescendants(
    const ThreeSidedQuery& q, std::vector<NodeRef> todo,
    SkeletalTreeReader<Pst3NodeRec>* reader, std::vector<Point>* out,
    QueryStats* stats) const {
  const uint32_t pt_cap = RecordsPerPage<Point>(dev_->page_size());
  const uint64_t limit = SkeletalWalkLimit<Pst3NodeRec>(dev_);
  uint64_t steps = 0;
  while (!todo.empty()) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    NodeRef ref = todo.back();
    todo.pop_back();
    uint64_t nav_before = reader->pages_read();
    Pst3NodeRec rec;
    PC_RETURN_IF_ERROR(reader->Read(ref, &rec));
    Bump(stats, &QueryStats::descendant, reader->pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader->pages_read() - nav_before);

    // rec.y_min >= q.y_min guarantees the early stop never fires, so the
    // whole chain is consumed and can be fetched with batched readahead.
    bool all = true;
    if (opts_.enable_readahead && rec.y_min >= q.y_min) {
      BlockListCursor<Point> cur(dev_, rec.points_page);
      cur.EnableChainReadahead();
      std::vector<Point> pts;
      while (!cur.done()) {
        pts.clear();
        PC_RETURN_IF_ERROR(cur.NextBlock(&pts));
        Bump(stats, &QueryStats::descendant);
        uint64_t qual = 0;
        for (const Point& p : pts) {
          if (q.Contains(p)) {
            out->push_back(p);
            ++qual;
          }
        }
        Classify(stats, qual, pt_cap);
      }
    } else {
      // Early-stopping scan: records filtered in place via a pinned frame.
      BlockPageView<Point> view;
      PageId page = rec.points_page;
      uint64_t walked = 0;
      while (page != kInvalidPageId && all) {
        PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
        PC_RETURN_IF_ERROR(view.Load(dev_, page));
        Bump(stats, &QueryStats::descendant);
        uint64_t qual = 0;
        const auto recs = view.records();
        const size_t lim =
            recs.empty() ? 0
                         : kernels::FindFirstBelow(&recs[0].y, sizeof(Point),
                                                   recs.size(), q.y_min);
        if (lim < recs.size()) all = false;
        for (const Point& p : recs.first(lim)) {
          if (q.Contains(p)) {
            out->push_back(p);
            ++qual;
          }
        }
        Classify(stats, qual, pt_cap);
        page = view.next();
      }
    }
    if (all) {
      if (rec.left.valid()) todo.push_back(rec.left);
      if (rec.right.valid()) todo.push_back(rec.right);
    }
  }
  return Status::OK();
}

Status ThreeSidedPst::QueryUncached(const ThreeSidedQuery& q,
                                    const std::vector<PathEnt>& p1,
                                    const std::vector<PathEnt>& p2,
                                    size_t fork,
                                    SkeletalTreeReader<Pst3NodeRec>* reader,
                                    std::vector<Point>* out,
                                    QueryStats* stats) const {
  const uint32_t pt_cap = RecordsPerPage<Point>(dev_->page_size());
  std::vector<NodeRef> descend_todo;
  auto scan_node = [&](const Pst3NodeRec& rec,
                       uint64_t QueryStats::* role) -> Status {
    // Always a full-chain read, so chain readahead is exact.
    std::vector<Point> pts;
    if (opts_.enable_readahead) {
      BlockListCursor<Point> cur(dev_, rec.points_page);
      cur.EnableChainReadahead();
      while (!cur.done()) {
        PC_RETURN_IF_ERROR(cur.NextBlock(&pts));
        Bump(stats, role);
      }
    } else {
      PageId page = rec.points_page;
      uint64_t walked = 0;
      while (page != kInvalidPageId) {
        PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
        PageId next;
        PC_RETURN_IF_ERROR(ReadBlockPage(dev_, page, &pts, &next));
        Bump(stats, role);
        page = next;
      }
    }
    uint64_t qual = 0;
    for (const Point& p : pts) {
      if (q.Contains(p)) {
        out->push_back(p);
        ++qual;
      }
    }
    Classify(stats, qual, pt_cap);
    return Status::OK();
  };

  // Path nodes: the shared prefix once, then both tails.
  for (size_t i = 0; i < p1.size(); ++i) {
    PC_RETURN_IF_ERROR(scan_node(
        p1[i].rec,
        i + 1 == p1.size() ? &QueryStats::corner : &QueryStats::ancestor));
  }
  for (size_t i = fork + 1; i < p2.size(); ++i) {
    PC_RETURN_IF_ERROR(scan_node(
        p2[i].rec,
        i + 1 == p2.size() ? &QueryStats::corner : &QueryStats::ancestor));
  }

  // Inner siblings below the fork.
  auto visit_sibling = [&](NodeRef sib) -> Status {
    uint64_t nav_before = reader->pages_read();
    Pst3NodeRec rec;
    PC_RETURN_IF_ERROR(reader->Read(sib, &rec));
    Bump(stats, &QueryStats::sibling, reader->pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader->pages_read() - nav_before);
    std::vector<Point> pts;
    if (opts_.enable_readahead) {
      BlockListCursor<Point> cur(dev_, rec.points_page);
      cur.EnableChainReadahead();
      while (!cur.done()) {
        PC_RETURN_IF_ERROR(cur.NextBlock(&pts));
        Bump(stats, &QueryStats::sibling);
      }
    } else {
      PageId page = rec.points_page;
      uint64_t walked = 0;
      while (page != kInvalidPageId) {
        PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
        PageId next;
        PC_RETURN_IF_ERROR(ReadBlockPage(dev_, page, &pts, &next));
        Bump(stats, &QueryStats::sibling);
        page = next;
      }
    }
    uint64_t qual = 0, y_ok = 0;
    for (const Point& p : pts) {
      if (p.y >= q.y_min) ++y_ok;
      if (q.Contains(p)) {
        out->push_back(p);
        ++qual;
      }
    }
    Classify(stats, qual, pt_cap);
    if (y_ok == rec.count) {
      if (rec.left.valid()) descend_todo.push_back(rec.left);
      if (rec.right.valid()) descend_todo.push_back(rec.right);
    }
    return Status::OK();
  };
  // Start at fork + 2: the node at depth fork + 1 has the other path's node
  // as its "sibling", and that one reports through its own path walk.
  for (size_t i = fork + 2; i < p1.size(); ++i) {
    if (p1[i - 1].rec.left == p1[i].ref && p1[i - 1].rec.right.valid()) {
      PC_RETURN_IF_ERROR(visit_sibling(p1[i - 1].rec.right));
    }
  }
  for (size_t i = fork + 2; i < p2.size(); ++i) {
    if (p2[i - 1].rec.right == p2[i].ref && p2[i - 1].rec.left.valid()) {
      PC_RETURN_IF_ERROR(visit_sibling(p2[i - 1].rec.left));
    }
  }
  return DescendDescendants(q, std::move(descend_todo), reader, out, stats);
}

Status ThreeSidedPst::QueryThreeSided(const ThreeSidedQuery& q,
                                      std::vector<Point>* out,
                                      QueryStats* stats) const {
  if (!root_.valid() || q.x_min > q.x_max) {
    if (stats != nullptr) stats->records_reported = 0;
    return Status::OK();
  }
  SkeletalTreeReader<Pst3NodeRec> reader(dev_);
  std::vector<PathEnt> p1, p2;
  PC_RETURN_IF_ERROR(
      DescendPath(q.x_min, q.y_min, /*right_path=*/false, &p1, &reader));
  reader.InvalidateCache();
  PC_RETURN_IF_ERROR(
      DescendPath(q.x_max, q.y_min, /*right_path=*/true, &p2, &reader));
  Bump(stats, &QueryStats::navigation, reader.pages_read());
  Bump(stats, &QueryStats::wasteful, reader.pages_read());

  size_t fork = 0;
  while (fork + 1 < p1.size() && fork + 1 < p2.size() &&
         p1[fork + 1].ref == p2[fork + 1].ref) {
    ++fork;
  }

  Status s;
  if (!opts_.enable_path_caching) {
    s = QueryUncached(q, p1, p2, fork, &reader, out, stats);
  } else {
    std::vector<NodeRef> descend_todo;
    const size_t c1 = p1.size() - 1;
    for (size_t i = 0; i < c1; ++i) {
      if (i % seg_len_ == seg_len_ - 1) {
        PC_RETURN_IF_ERROR(ProcessCache(q, p1[i], /*right_side=*/false, fork,
                                        &descend_todo, out, stats));
      }
    }
    PC_RETURN_IF_ERROR(ProcessCache(q, p1[c1], /*right_side=*/false, fork,
                                    &descend_todo, out, stats));
    const size_t c2 = p2.size() - 1;
    if (!(c2 == c1 && p2[c2].ref == p1[c1].ref)) {
      for (size_t i = fork + 1; i < c2; ++i) {
        if (i % seg_len_ == seg_len_ - 1) {
          PC_RETURN_IF_ERROR(ProcessCache(q, p2[i], /*right_side=*/true, fork,
                                          &descend_todo, out, stats));
        }
      }
      if (c2 > fork) {
        PC_RETURN_IF_ERROR(ProcessCache(q, p2[c2], /*right_side=*/true, fork,
                                        &descend_todo, out, stats));
      }
    }
    s = DescendDescendants(q, std::move(descend_todo), &reader, out, stats);
  }
  if (stats != nullptr) stats->records_reported = out->size();
  return s;
}

Status ThreeSidedPst::Destroy() {
  for (PageId p : owned_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  owned_pages_.clear();
  root_ = kNullNodeRef;
  n_ = 0;
  storage_ = StorageBreakdown{};
  return Status::OK();
}

Result<PageId> ThreeSidedPst::Save() {
  auto list =
      BuildBlockList<PageId>(dev_, std::span<const PageId>(owned_pages_));
  if (!list.ok()) return list.status();
  auto mp = dev_->Allocate();
  if (!mp.ok()) return mp.status();

  PstManifestHeader hdr;
  hdr.magic = kThreeSidedPstMagic;
  hdr.n = n_;
  hdr.root = root_;
  hdr.region_size = region_size_;
  hdr.seg_len = seg_len_;
  hdr.caching = opts_.enable_path_caching ? 1 : 0;
  hdr.skeletal = storage_.skeletal;
  hdr.points_pages = storage_.points;
  hdr.cache_headers = storage_.cache_headers;
  hdr.cache_blocks = storage_.cache_blocks;
  hdr.owned_head = list.value().ref.head;
  hdr.owned_count = owned_pages_.size();
  PC_RETURN_IF_ERROR(internal::WriteManifestHeader(dev_, mp.value(), hdr));

  owned_pages_.push_back(mp.value());
  for (PageId p : list.value().pages) owned_pages_.push_back(p);
  return mp.value();
}

Status ThreeSidedPst::Open(PageId manifest) {
  if (root_.valid() || !owned_pages_.empty()) {
    return Status::FailedPrecondition("Open on a non-empty structure");
  }
  PstManifestHeader hdr;
  std::vector<PageId> owned, chain;
  PC_RETURN_IF_ERROR(internal::ReadManifest(
      dev_, manifest, kThreeSidedPstMagic, &hdr, &owned, nullptr, &chain));
  n_ = hdr.n;
  root_ = hdr.root;
  region_size_ = hdr.region_size;
  seg_len_ = hdr.seg_len;
  opts_.enable_path_caching = hdr.caching != 0;
  storage_ = StorageBreakdown{};
  storage_.skeletal = hdr.skeletal;
  storage_.points = hdr.points_pages;
  storage_.cache_headers = hdr.cache_headers;
  storage_.cache_blocks = hdr.cache_blocks;
  owned_pages_ = std::move(owned);
  for (PageId p : chain) owned_pages_.push_back(p);
  return Status::OK();
}

Status ThreeSidedPst::CheckStructure() const {
  if (!root_.valid()) {
    return n_ == 0 ? Status::OK()
                   : Status::Corruption("no root for non-empty structure");
  }
  SkeletalTreeReader<Pst3NodeRec> reader(dev_);
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
  const uint64_t walk_limit = SkeletalWalkLimit<Pst3NodeRec>(dev_);
  uint64_t walk_steps = 0;

  // DFS with an explicit unwind marker so the root-to-node chain is in hand
  // at every visit — the caches replicate path-dependent state (ancestor
  // counts, sibling refs) that can only be validated against the live path.
  struct ChainEnt {
    Pst3NodeRec rec;
    int8_t side;  // 0 = left child of its parent, 1 = right, -1 = root
  };
  struct Item {
    NodeRef ref;
    int8_t side = -1;
    int64_t parent_y_min = INT64_MAX;
    bool has_x_lo = false, has_x_hi = false;
    int64_t x_lo = 0, x_hi = 0;  // composite bounds via (x, id)
    uint64_t x_lo_id = 0, x_hi_id = 0;
    bool unwind = false;
  };
  std::vector<ChainEnt> chain;
  std::vector<Item> stack;
  stack.push_back(Item{root_});
  uint64_t total = 0;
  std::vector<std::byte> buf(dev_->page_size());

  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    if (it.unwind) {
      chain.pop_back();
      continue;
    }
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(walk_steps++, walk_limit));

    Pst3NodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(it.ref, &rec));
    const uint32_t depth = static_cast<uint32_t>(chain.size());
    if (rec.depth != depth) return Status::Corruption("depth mismatch");
    chain.push_back(ChainEnt{rec, it.side});
    {
      Item unwind;
      unwind.unwind = true;
      stack.push_back(unwind);
    }

    // Points chain: count, descending-(y,id) order, range and heap checks.
    std::vector<Point> pts;
    PC_RETURN_IF_ERROR(ReadBlockChain<Point>(dev_, rec.points_page, &pts));
    if (pts.size() != rec.count) {
      return Status::Corruption("points chain count mismatch");
    }
    if (pts.empty()) return Status::Corruption("empty region node");
    for (size_t i = 0; i < pts.size(); ++i) {
      if (i > 0 && !GreaterByY(pts[i - 1], pts[i])) {
        return Status::Corruption("points not y-descending");
      }
      if (pts[i].y > it.parent_y_min) {
        return Status::Corruption("heap order violated");
      }
      auto key_le = [](int64_t ax, uint64_t aid, int64_t bx, uint64_t bid) {
        if (ax != bx) return ax < bx;
        return aid <= bid;
      };
      if (it.has_x_lo && key_le(pts[i].x, pts[i].id, it.x_lo, it.x_lo_id)) {
        return Status::Corruption("point left of subtree x-range");
      }
      if (it.has_x_hi && !key_le(pts[i].x, pts[i].id, it.x_hi, it.x_hi_id)) {
        return Status::Corruption("point right of subtree x-range");
      }
    }
    if (rec.y_min != pts.back().y) return Status::Corruption("y_min stale");
    total += pts.size();
    const bool internal = rec.left.valid() || rec.right.valid();
    if (internal && pts.size() != region_size_) {
      return Status::Corruption("internal region not full");
    }

    if (!opts_.enable_path_caching) {
      if (rec.a_header != kInvalidPageId || rec.s_index != kInvalidPageId) {
        return Status::Corruption("cache pages on a caching-off structure");
      }
    } else {
      if (rec.a_header == kInvalidPageId || rec.s_index == kInvalidPageId) {
        return Status::Corruption("missing cache pages");
      }
      const uint32_t seg_start = (depth / seg_len_) * seg_len_;

      // --- A-cache: counts per segment-local ancestor, ascending-(x, id)
      // order, min-x directory, optional max-x trailer. ---
      PC_RETURN_IF_ERROR(dev_->Read(rec.a_header, buf.data()));
      AHeader ah;
      std::memcpy(&ah, buf.data(), sizeof(ah));
      if (sizeof(ah) + ah.pages * (sizeof(PageId) + 8ULL) >
          dev_->page_size()) {
        return Status::Corruption("A-cache block directory exceeds page");
      }
      uint64_t expect_count = 0;
      for (uint32_t j = seg_start; j <= depth; ++j) {
        expect_count += chain[j].rec.count;
      }
      if (ah.count != expect_count) {
        return Status::Corruption("A-cache count mismatch");
      }
      if (ah.pages != CeilDiv(ah.count, src_cap)) {
        return Status::Corruption("A-cache block directory size mismatch");
      }
      std::vector<PageId> a_pages(ah.pages);
      std::memcpy(a_pages.data(), buf.data() + sizeof(ah),
                  ah.pages * sizeof(PageId));
      std::vector<SrcPoint> a_recs;
      {
        BlockListCursor<SrcPoint> cur(dev_,
                                      std::span<const PageId>(a_pages));
        while (!cur.done()) PC_RETURN_IF_ERROR(cur.NextBlock(&a_recs));
      }
      if (a_recs.size() != ah.count) {
        return Status::Corruption("A-cache record count mismatch");
      }
      std::vector<uint64_t> per_src(depth - seg_start + 1, 0);
      for (size_t i = 0; i < a_recs.size(); ++i) {
        if (i > 0 && LessByXId(a_recs[i], a_recs[i - 1])) {
          return Status::Corruption("A-cache not x-ascending");
        }
        if (a_recs[i].src >= per_src.size()) {
          return Status::Corruption("A-cache source ordinal out of range");
        }
        ++per_src[a_recs[i].src];
      }
      for (uint32_t j = seg_start; j <= depth; ++j) {
        if (per_src[j - seg_start] != chain[j].rec.count) {
          return Status::Corruption("A-cache per-ancestor count mismatch");
        }
      }
      const std::byte* mn = buf.data() + sizeof(ah) +
                            ah.pages * sizeof(PageId);
      for (uint32_t bi = 0; bi < ah.pages; ++bi) {
        int64_t v;
        std::memcpy(&v, mn + bi * 8, 8);
        if (v != a_recs[static_cast<size_t>(bi) * src_cap].x) {
          return Status::Corruption("A-cache min-x directory stale");
        }
      }
      const uint64_t used = sizeof(ah) + ah.pages * (sizeof(PageId) + 8ULL);
      if (used + 8 + ah.pages * 8ULL <= dev_->page_size()) {
        const std::byte* tr = buf.data() + used;
        uint64_t magic;
        std::memcpy(&magic, tr, 8);
        if (magic != kAMaxTrailerMagic) {
          return Status::Corruption("A-cache max-x trailer missing");
        }
        for (uint32_t bi = 0; bi < ah.pages; ++bi) {
          const size_t last = std::min<size_t>(
              a_recs.size(), (static_cast<size_t>(bi) + 1) * src_cap);
          int64_t v;
          std::memcpy(&v, tr + 8 + bi * 8, 8);
          if (v != a_recs[last - 1].x) {
            return Status::Corruption("A-cache max-x trailer stale");
          }
        }
      }

      // --- S-index: one anchored sibling cache per (anchor, side), checked
      // against the actual siblings hanging off the live path. ---
      PC_RETURN_IF_ERROR(dev_->Read(rec.s_index, buf.data()));
      SIndexHeader sh;
      std::memcpy(&sh, buf.data(), sizeof(sh));
      if (sh.seg_start != seg_start) {
        return Status::Corruption("S-index segment start mismatch");
      }
      const uint32_t anchors = depth - seg_start + 1;
      if (sh.anchors != anchors) {
        return Status::Corruption("S-index anchor count mismatch");
      }
      if (sizeof(sh) + 2ULL * anchors * sizeof(PageId) > dev_->page_size()) {
        return Status::Corruption("S-index anchor directory exceeds page");
      }
      std::vector<PageId> sr(anchors), sl(anchors);
      std::memcpy(sr.data(), buf.data() + sizeof(sh),
                  anchors * sizeof(PageId));
      std::memcpy(sl.data(),
                  buf.data() + sizeof(sh) + anchors * sizeof(PageId),
                  anchors * sizeof(PageId));
      for (uint32_t k = 0; k < anchors; ++k) {
        for (int side = 0; side < 2; ++side) {
          std::vector<NodeRef> expect_sibs;
          for (uint32_t j = std::max<uint32_t>(1, seg_start + k); j <= depth;
               ++j) {
            NodeRef sib = kNullNodeRef;
            if (side == 0 && chain[j].side == 0) {
              sib = chain[j - 1].rec.right;
            } else if (side == 1 && chain[j].side == 1) {
              sib = chain[j - 1].rec.left;
            }
            if (sib.valid()) expect_sibs.push_back(sib);
          }
          const PageId hp = (side == 0 ? sr : sl)[k];
          if (expect_sibs.empty()) {
            if (hp != kInvalidPageId) {
              return Status::Corruption(
                  "anchored sibling cache present with no siblings in scope");
            }
            continue;
          }
          if (hp == kInvalidPageId) {
            return Status::Corruption("anchored sibling cache missing");
          }
          NodeCache cache;
          PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, hp, &cache));
          if (cache.sibs.size() != expect_sibs.size()) {
            return Status::Corruption(
                "anchored cache sibling directory size mismatch");
          }
          uint64_t s_sum = 0;
          for (size_t ord = 0; ord < expect_sibs.size(); ++ord) {
            Pst3NodeRec srec;
            PC_RETURN_IF_ERROR(reader.Read(expect_sibs[ord], &srec));
            const SibInfo& si = cache.sibs[ord];
            if (si.left != srec.left || si.right != srec.right) {
              return Status::Corruption("anchored cache child refs stale");
            }
            if (si.total != srec.count || si.contributed != si.total) {
              return Status::Corruption(
                  "anchored cache sibling counts mismatch");
            }
            s_sum += si.contributed;
          }
          if (cache.s_count != s_sum) {
            return Status::Corruption(
                "anchored cache contributed sum mismatch");
          }
          std::vector<SrcPoint> s_recs;
          {
            BlockListCursor<SrcPoint> cur(
                dev_, std::span<const PageId>(cache.s_pages));
            while (!cur.done()) PC_RETURN_IF_ERROR(cur.NextBlock(&s_recs));
          }
          if (s_recs.size() != cache.s_count) {
            return Status::Corruption("anchored cache record count mismatch");
          }
          std::vector<uint64_t> per(cache.sibs.size(), 0);
          for (size_t i = 0; i < s_recs.size(); ++i) {
            if (i > 0 && GreaterByY(s_recs[i].ToPoint(),
                                    s_recs[i - 1].ToPoint())) {
              return Status::Corruption("anchored cache not y-descending");
            }
            if (s_recs[i].src >= per.size()) {
              return Status::Corruption(
                  "anchored cache source ordinal out of range");
            }
            ++per[s_recs[i].src];
          }
          for (size_t ord = 0; ord < per.size(); ++ord) {
            if (per[ord] != cache.sibs[ord].contributed) {
              return Status::Corruption(
                  "anchored cache per-sibling count mismatch");
            }
          }
          if (!cache.s_tails.empty()) {
            if (cache.s_tails.size() != cache.s_pages.size()) {
              return Status::Corruption(
                  "anchored cache tail directory size mismatch");
            }
            for (size_t pg = 0; pg < cache.s_pages.size(); ++pg) {
              const size_t last = std::min<size_t>(
                  s_recs.size(), (pg + 1) * static_cast<size_t>(src_cap));
              if (cache.s_tails[pg] != s_recs[last - 1].y) {
                return Status::Corruption("anchored cache tail key stale");
              }
            }
          }
        }
      }
    }

    if (rec.left.valid()) {
      Item child = it;
      child.ref = rec.left;
      child.side = 0;
      child.parent_y_min = rec.y_min;
      child.has_x_hi = true;
      child.x_hi = rec.split_x;
      child.x_hi_id = rec.split_id;
      stack.push_back(child);
    }
    if (rec.right.valid()) {
      Item child = it;
      child.ref = rec.right;
      child.side = 1;
      child.parent_y_min = rec.y_min;
      child.has_x_lo = true;
      child.x_lo = rec.split_x;
      child.x_lo_id = rec.split_id;
      stack.push_back(child);
    }
  }
  if (total != n_) return Status::Corruption("total point count mismatch");
  return Status::OK();
}

Status ThreeSidedPst::Cluster() {
  if (!root_.valid()) return Status::OK();

  std::vector<PageTreeNode> ptree;
  PC_RETURN_IF_ERROR(
      CollectSkeletalPageTree<Pst3NodeRec>(dev_, root_, &ptree));
  const std::vector<uint32_t> veb = VanEmdeBoasOrder(ptree, 0);

  // Pass 1: skeletal pages in van Emde Boas order with every stored PageId
  // slot registered for rewrite.
  LayoutPlan plan;
  std::vector<std::byte> buf(dev_->page_size());
  for (uint32_t pi : veb) {
    const PageId pid = ptree[pi].id;
    plan.Add(pid);
    PC_RETURN_IF_ERROR(dev_->Read(pid, buf.data()));
    SkeletalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    for (uint32_t s = 0; s < hdr.count; ++s) {
      const uint32_t base =
          static_cast<uint32_t>(sizeof(hdr) + s * sizeof(Pst3NodeRec));
      plan.AddRef(pid, base + offsetof(Pst3NodeRec, left) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(Pst3NodeRec, right) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(Pst3NodeRec, points_page));
      plan.AddRef(pid, base + offsetof(Pst3NodeRec, a_header));
      plan.AddRef(pid, base + offsetof(Pst3NodeRec, s_index));
    }
  }

  // Pass 2: each node's cluster — A header + chain, S index with its
  // per-anchor sibling caches, points chain — in descent order.
  std::vector<std::byte> aux(dev_->page_size());
  for (uint32_t pi : veb) {
    const PageId pid = ptree[pi].id;
    PC_RETURN_IF_ERROR(dev_->Read(pid, buf.data()));
    SkeletalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    for (uint32_t s = 0; s < hdr.count; ++s) {
      Pst3NodeRec rec;
      std::memcpy(&rec, buf.data() + sizeof(hdr) + s * sizeof(Pst3NodeRec),
                  sizeof(rec));
      if (rec.a_header != kInvalidPageId) {
        plan.Add(rec.a_header);
        PC_RETURN_IF_ERROR(dev_->Read(rec.a_header, aux.data()));
        AHeader ah;
        std::memcpy(&ah, aux.data(), sizeof(ah));
        if (sizeof(ah) + static_cast<uint64_t>(ah.pages) *
                             (sizeof(PageId) + 8) > dev_->page_size()) {
          return Status::Corruption(
              "A-cache header block directory exceeds page");
        }
        std::vector<PageId> a_chain(ah.pages);
        std::memcpy(a_chain.data(), aux.data() + sizeof(ah),
                    ah.pages * sizeof(PageId));
        for (uint32_t i = 0; i < ah.pages; ++i) {
          plan.AddRef(rec.a_header, static_cast<uint32_t>(
                                        sizeof(ah) + i * sizeof(PageId)));
        }
        plan.AddChain(a_chain);
      }
      if (rec.s_index != kInvalidPageId) {
        plan.Add(rec.s_index);
        PC_RETURN_IF_ERROR(dev_->Read(rec.s_index, aux.data()));
        SIndexHeader sh;
        std::memcpy(&sh, aux.data(), sizeof(sh));
        if (sizeof(sh) + 2ULL * sh.anchors * sizeof(PageId) >
            dev_->page_size()) {
          return Status::Corruption("S-index anchor directory exceeds page");
        }
        std::vector<PageId> anchor_pages(2ULL * sh.anchors);
        std::memcpy(anchor_pages.data(), aux.data() + sizeof(sh),
                    anchor_pages.size() * sizeof(PageId));
        for (uint32_t k = 0; k < anchor_pages.size(); ++k) {
          plan.AddRef(rec.s_index, static_cast<uint32_t>(
                                       sizeof(sh) + k * sizeof(PageId)));
        }
        for (PageId hp : anchor_pages) {
          if (hp == kInvalidPageId) continue;
          NodeCache cache;
          PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, hp, &cache));
          AppendCachePagesToPlan(hp, cache, &plan);
        }
      }
      std::vector<PageId> points_chain;
      PC_RETURN_IF_ERROR(
          CollectChainPages(dev_, rec.points_page, &points_chain));
      plan.AddChain(points_chain);
    }
  }

  if (plan.page_count() != owned_pages_.size()) {
    return Status::FailedPrecondition(
        "layout plan covers " + std::to_string(plan.page_count()) +
        " pages but the structure owns " +
        std::to_string(owned_pages_.size()) +
        " — Cluster() must run on a finished build before Save()");
  }
  auto remap = ComputeRemap(plan);
  if (!remap.ok()) return remap.status();
  PC_RETURN_IF_ERROR(ApplyLayout(dev_, plan, remap.value()));
  root_.page = remap.value().Of(root_.page);
  for (PageId& p : owned_pages_) p = remap.value().Of(p);
  return Status::OK();
}

}  // namespace pathcache
