#include "core/pst_two_level.h"

#include "core/persist.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <unordered_set>

#include "core/pst_external.h"
#include "core/region_tree.h"
#include "util/mathutil.h"

namespace pathcache {

namespace {

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

}  // namespace

TwoLevelPst::TwoLevelPst(PageDevice* dev, TwoLevelPstOptions opts)
    : dev_(dev), opts_(opts) {
  if (opts_.levels < 2) opts_.levels = 2;
}

Status TwoLevelPst::Build(std::vector<Point> points) {
  if (root_.valid() || !second_.empty()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = points.size();
  const uint32_t B = RecordsPerPage<Point>(dev_->page_size());
  if (B == 0) return Status::InvalidArgument("page too small");
  const uint32_t factor = std::max<uint32_t>(2, FloorLog2(B));
  region_size_ = opts_.region_size != 0 ? opts_.region_size : B * factor;
  uint32_t want = opts_.segment_len != 0 ? opts_.segment_len
                                         : std::max<uint32_t>(1, FloorLog2(B));
  seg_len_ = FitSegmentLen(dev_->page_size(), want, B);
  if (n_ == 0) return Status::OK();

  auto nodes = BuildRegionTree(std::move(points), region_size_);

  // Per-node lists, second-level structures and cache pages.
  std::vector<TwoLevelNodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  std::vector<std::vector<Point>> xsorted(nodes.size());
  std::vector<BlockListInfo> xinfo(nodes.size()), yinfo(nodes.size());
  second_.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    xsorted[i] = nodes[i].pts;
    std::sort(xsorted[i].begin(), xsorted[i].end(), GreaterByX);
    auto xr = BuildBlockList<Point>(dev_, std::span<const Point>(xsorted[i]));
    if (!xr.ok()) return xr.status();
    xinfo[i] = std::move(xr).value();
    auto yr =
        BuildBlockList<Point>(dev_, std::span<const Point>(nodes[i].pts));
    if (!yr.ok()) return yr.status();
    yinfo[i] = std::move(yr).value();
    for (PageId p : xinfo[i].pages) owned_pages_.push_back(p);
    for (PageId p : yinfo[i].pages) owned_pages_.push_back(p);
    storage_.points += xinfo[i].pages.size() + yinfo[i].pages.size();

    auto cp = dev_->Allocate();
    if (!cp.ok()) return cp.status();
    owned_pages_.push_back(cp.value());
    ++storage_.cache_headers;

    // Second-level structure over this region's points (Section 4.2 picks
    // the next iterated-log region size when recursing deeper).
    std::unique_ptr<TwoSidedIndex> child;
    const uint32_t child_factor =
        std::max<uint32_t>(1, FloorLog2(std::max<uint32_t>(2, factor)));
    if (opts_.levels <= 2 || child_factor <= 1) {
      child = std::make_unique<ExternalPst>(dev_, ExternalPstOptions{});
    } else {
      TwoLevelPstOptions child_opts;
      child_opts.levels = opts_.levels - 1;
      child_opts.region_size = B * child_factor;
      child_opts.segment_len = opts_.segment_len;
      child = std::make_unique<TwoLevelPst>(dev_, child_opts);
    }
    PC_RETURN_IF_ERROR(child->Build(nodes[i].pts));
    storage_.second_level += child->storage().total();
    second_.push_back(std::move(child));

    TwoLevelNodeRec& r = recs[i];
    r.split_x = nodes[i].split_x;
    r.split_id = nodes[i].split_id;
    r.y_min = nodes[i].y_min;
    r.x_head = xinfo[i].ref.head;
    r.y_head = yinfo[i].ref.head;
    r.cache_page = cp.value();
    r.count = static_cast<uint32_t>(nodes[i].pts.size());
    r.depth = nodes[i].depth;
    r.region_ord = static_cast<uint32_t>(i);
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;
  }

  auto tree = WriteSkeletalTree<TwoLevelNodeRec>(dev_, recs, lefts, rights, 0);
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
  const auto& refs = tree.value().refs;

  // A/S caches: only the FIRST X/Y block of each covered node (Section 4's
  // space trick) with continuation pointers into the rest of the lists.
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

      NodeCache cache;
      std::vector<SrcPoint> a_recs, s_recs;
      for (uint32_t j = seg_start; j <= d; ++j) {
        const int32_t u = chain[j];
        const uint32_t ord = static_cast<uint32_t>(cache.ancs.size());
        const uint32_t contributed =
            std::min<uint32_t>(B, static_cast<uint32_t>(xsorted[u].size()));
        for (uint32_t k = 0; k < contributed; ++k) {
          a_recs.push_back(SrcPoint::From(xsorted[u][k], ord));
        }
        cache.ancs.push_back(
            AncInfo{xinfo[u].pages.size() > 1 ? xinfo[u].pages[1]
                                              : kInvalidPageId,
                    contributed, static_cast<uint32_t>(xsorted[u].size())});
      }
      for (uint32_t j = std::max<uint32_t>(1, seg_start); j <= d; ++j) {
        const int32_t u = chain[j];
        const int32_t parent = chain[j - 1];
        if (nodes[parent].left != u || nodes[parent].right < 0) continue;
        const int32_t sib = nodes[parent].right;
        const uint32_t ord = static_cast<uint32_t>(cache.sibs.size());
        const uint32_t contributed = std::min<uint32_t>(
            B, static_cast<uint32_t>(nodes[sib].pts.size()));
        for (uint32_t k = 0; k < contributed; ++k) {
          s_recs.push_back(SrcPoint::From(nodes[sib].pts[k], ord));
        }
        cache.sibs.push_back(SibInfo{
            nodes[sib].left >= 0 ? refs[nodes[sib].left] : kNullNodeRef,
            nodes[sib].right >= 0 ? refs[nodes[sib].right] : kNullNodeRef,
            yinfo[sib].pages.size() > 1 ? yinfo[sib].pages[1]
                                        : kInvalidPageId,
            contributed, static_cast<uint32_t>(nodes[sib].pts.size())});
      }
      std::sort(a_recs.begin(), a_recs.end(),
                [](const SrcPoint& a, const SrcPoint& b) {
                  return GreaterByX(a.ToPoint(), b.ToPoint());
                });
      std::sort(s_recs.begin(), s_recs.end(),
                [](const SrcPoint& a, const SrcPoint& b) {
                  return GreaterByY(a.ToPoint(), b.ToPoint());
                });
      auto a_info =
          BuildBlockList<SrcPoint>(dev_, std::span<const SrcPoint>(a_recs));
      if (!a_info.ok()) return a_info.status();
      auto s_info =
          BuildBlockList<SrcPoint>(dev_, std::span<const SrcPoint>(s_recs));
      if (!s_info.ok()) return s_info.status();
      cache.a_pages = a_info.value().pages;
      cache.s_pages = s_info.value().pages;
      cache.a_count = a_recs.size();
      cache.s_count = s_recs.size();
      storage_.cache_blocks += cache.a_pages.size() + cache.s_pages.size();
      for (PageId p : cache.a_pages) owned_pages_.push_back(p);
      for (PageId p : cache.s_pages) owned_pages_.push_back(p);
      PC_RETURN_IF_ERROR(WriteCacheHeader(dev_, recs[v].cache_page, cache));

      if (nodes[v].right >= 0) stack.push_back({nodes[v].right, 0});
      if (nodes[v].left >= 0) stack.push_back({nodes[v].left, 0});
    } else {
      chain.pop_back();
      stack.pop_back();
    }
  }
  return Status::OK();
}

Status TwoLevelPst::DescendToCorner(
    const TwoSidedQuery& q, std::vector<PathEnt>* path,
    SkeletalTreeReader<TwoLevelNodeRec>* reader) const {
  const uint64_t limit = SkeletalWalkLimit<TwoLevelNodeRec>(dev_);
  uint64_t steps = 0;
  NodeRef cur = root_;
  for (;;) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    PathEnt ent;
    ent.ref = cur;
    PC_RETURN_IF_ERROR(reader->Read(cur, &ent.rec));
    path->push_back(ent);
    if (q.y_min > ent.rec.y_min) break;
    NodeRef next = (q.x_min <= ent.rec.split_x) ? ent.rec.left : ent.rec.right;
    if (!next.valid()) break;
    cur = next;
  }
  return Status::OK();
}

Status TwoLevelPst::ScanList(const TwoSidedQuery& q, PageId page, bool by_x,
                             uint64_t QueryStats::* role,
                             std::vector<Point>* out, QueryStats* stats,
                             uint64_t* qualified, bool* hit_end) const {
  const uint32_t cap = RecordsPerPage<Point>(dev_->page_size());
  *qualified = 0;
  *hit_end = false;
  BlockPageView<Point> view;
  PageId cur = page;
  uint64_t walked = 0;
  while (cur != kInvalidPageId) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
    PC_RETURN_IF_ERROR(view.Load(dev_, cur));
    Bump(stats, role);
    uint64_t block_qual = 0;
    bool stopped = false;
    for (const Point& p : view.records()) {
      if (by_x ? (p.x < q.x_min) : (p.y < q.y_min)) {
        stopped = true;
        break;
      }
      if (q.Contains(p)) {
        out->push_back(p);
        ++block_qual;
        ++*qualified;
      }
    }
    Classify(stats, block_qual, cap);
    if (stopped) return Status::OK();
    cur = view.next();
  }
  *hit_end = true;
  return Status::OK();
}

Status TwoLevelPst::QueryTwoSided(const TwoSidedQuery& q,
                                  std::vector<Point>* out,
                                  QueryStats* stats) const {
  if (!root_.valid()) return Status::OK();
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
  SkeletalTreeReader<TwoLevelNodeRec> reader(dev_);
  std::vector<PathEnt> path;
  PC_RETURN_IF_ERROR(DescendToCorner(q, &path, &reader));
  Bump(stats, &QueryStats::navigation, reader.pages_read());
  Bump(stats, &QueryStats::wasteful, reader.pages_read());

  const size_t corner = path.size() - 1;
  std::vector<size_t> cache_nodes;
  for (size_t i = 0; i < corner; ++i) {
    if (i % seg_len_ == seg_len_ - 1) cache_nodes.push_back(i);
  }
  cache_nodes.push_back(corner);

  std::vector<NodeRef> descend_todo;
  for (size_t ci : cache_nodes) {
    NodeCache cache;
    PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, path[ci].rec.cache_page, &cache));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);
    // The corner's own first X-block sits in its A-list as the last source;
    // its points are served by the second-level query instead.
    const uint32_t self_skip =
        (ci == corner) ? static_cast<uint32_t>(cache.ancs.size()) - 1
                       : UINT32_MAX;

    // A-list scan, descending x.
    std::vector<uint32_t> anc_qual(cache.ancs.size(), 0);
    bool stop = false;
    BlockPageView<SrcPoint> aview;
    for (PageId p : cache.a_pages) {
      if (stop) break;
      PC_RETURN_IF_ERROR(aview.Load(dev_, p));
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      for (const SrcPoint& sp : aview.records()) {
        if (sp.x < q.x_min) {
          stop = true;
          break;
        }
        if (sp.src == self_skip) continue;
        if (sp.src >= anc_qual.size()) {
          return Status::Corruption(
              "A-list record names an ancestor ordinal beyond the cache's "
              "ancestor table");
        }
        if (sp.y >= q.y_min) {
          out->push_back(sp.ToPoint());
          ++qual;
          ++anc_qual[sp.src];
        }
      }
      Classify(stats, qual, src_cap);
    }
    for (size_t k = 0; k < cache.ancs.size(); ++k) {
      const AncInfo& a = cache.ancs[k];
      if (k == self_skip) continue;
      if (anc_qual[k] == a.contributed && a.contributed < a.total &&
          a.x_next != kInvalidPageId) {
        uint64_t qual;
        bool end;
        PC_RETURN_IF_ERROR(ScanList(q, a.x_next, /*by_x=*/true,
                                    &QueryStats::ancestor, out, stats, &qual,
                                    &end));
      }
    }

    // S-list scan, descending y.
    std::vector<uint32_t> sib_qual(cache.sibs.size(), 0);
    stop = false;
    BlockPageView<SrcPoint> sview;
    for (PageId p : cache.s_pages) {
      if (stop) break;
      PC_RETURN_IF_ERROR(sview.Load(dev_, p));
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      for (const SrcPoint& sp : sview.records()) {
        if (sp.y < q.y_min) {
          stop = true;
          break;
        }
        if (sp.src >= sib_qual.size()) {
          return Status::Corruption(
              "S-list record names a sibling ordinal beyond the cache's "
              "sibling table");
        }
        if (sp.x >= q.x_min) {
          out->push_back(sp.ToPoint());
          ++qual;
          ++sib_qual[sp.src];
        }
      }
      Classify(stats, qual, src_cap);
    }
    for (size_t k = 0; k < cache.sibs.size(); ++k) {
      const SibInfo& sb = cache.sibs[k];
      uint64_t qual_total = sib_qual[k];
      if (sib_qual[k] == sb.contributed && sb.contributed < sb.total &&
          sb.y_next != kInvalidPageId) {
        uint64_t qual;
        bool end;
        PC_RETURN_IF_ERROR(ScanList(q, sb.y_next, /*by_x=*/false,
                                    &QueryStats::sibling, out, stats, &qual,
                                    &end));
        qual_total += qual;
      }
      if (qual_total == sb.total) {
        if (sb.left.valid()) descend_todo.push_back(sb.left);
        if (sb.right.valid()) descend_todo.push_back(sb.right);
      }
    }
  }

  // Descendants of siblings: whole regions scanned via their Y-lists.
  const uint64_t walk_limit = SkeletalWalkLimit<TwoLevelNodeRec>(dev_);
  uint64_t walk_steps = 0;
  while (!descend_todo.empty()) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(walk_steps++, walk_limit));
    NodeRef ref = descend_todo.back();
    descend_todo.pop_back();
    uint64_t nav_before = reader.pages_read();
    TwoLevelNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(ref, &rec));
    Bump(stats, &QueryStats::descendant, reader.pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader.pages_read() - nav_before);
    uint64_t qual;
    bool end;
    PC_RETURN_IF_ERROR(ScanList(q, rec.y_head, /*by_x=*/false,
                                &QueryStats::descendant, out, stats, &qual,
                                &end));
    if (qual == rec.count) {
      if (rec.left.valid()) descend_todo.push_back(rec.left);
      if (rec.right.valid()) descend_todo.push_back(rec.right);
    }
  }

  // The corner region itself: second-level 2-sided query.
  {
    const uint32_t ord = path[corner].rec.region_ord;
    if (ord >= second_.size() || second_[ord] == nullptr) {
      return Status::Corruption(
          "corner node names a second-level ordinal beyond the opened "
          "structures");
    }
    QueryStats sub;
    PC_RETURN_IF_ERROR(second_[ord]->QueryTwoSided(q, out, &sub));
    if (stats != nullptr) {
      sub.records_reported = 0;  // avoid double counting; set below
      *stats += sub;
    }
  }
  if (stats != nullptr) stats->records_reported = out->size();
  return Status::OK();
}

Status TwoLevelPst::Destroy() {
  for (auto& child : second_) {
    if (child != nullptr) PC_RETURN_IF_ERROR(child->Destroy());
  }
  second_.clear();
  for (PageId p : owned_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  owned_pages_.clear();
  root_ = kNullNodeRef;
  n_ = 0;
  storage_ = StorageBreakdown{};
  return Status::OK();
}

}  // namespace pathcache

namespace pathcache {

Result<PageId> TwoLevelPst::Save() {
  // Children first: collect a manifest id per region in ordinal order.
  std::vector<PageId> child_manifests;
  child_manifests.reserve(second_.size());
  for (auto& child : second_) {
    PageId id = kInvalidPageId;
    if (auto* ep = dynamic_cast<ExternalPst*>(child.get())) {
      auto r = ep->Save();
      if (!r.ok()) return r.status();
      id = r.value();
    } else if (auto* tp = dynamic_cast<TwoLevelPst*>(child.get())) {
      auto r = tp->Save();
      if (!r.ok()) return r.status();
      id = r.value();
    } else {
      return Status::NotSupported("unknown second-level type");
    }
    child_manifests.push_back(id);
  }
  auto kids = BuildBlockList<PageId>(
      dev_, std::span<const PageId>(child_manifests));
  if (!kids.ok()) return kids.status();
  auto list =
      BuildBlockList<PageId>(dev_, std::span<const PageId>(owned_pages_));
  if (!list.ok()) return list.status();
  auto mp = dev_->Allocate();
  if (!mp.ok()) return mp.status();

  PstManifestHeader hdr;
  hdr.magic = kTwoLevelPstMagic;
  hdr.n = n_;
  hdr.root = root_;
  hdr.region_size = region_size_;
  hdr.seg_len = seg_len_;
  hdr.levels = opts_.levels;
  hdr.skeletal = storage_.skeletal;
  hdr.points_pages = storage_.points;
  hdr.cache_headers = storage_.cache_headers;
  hdr.cache_blocks = storage_.cache_blocks;
  hdr.second_level = storage_.second_level;
  hdr.owned_head = list.value().ref.head;
  hdr.owned_count = owned_pages_.size();
  hdr.children_head = kids.value().ref.head;
  hdr.children_count = child_manifests.size();
  PC_RETURN_IF_ERROR(internal::WriteManifestHeader(dev_, mp.value(), hdr));

  owned_pages_.push_back(mp.value());
  for (PageId p : list.value().pages) owned_pages_.push_back(p);
  for (PageId p : kids.value().pages) owned_pages_.push_back(p);
  return mp.value();
}

Status TwoLevelPst::Open(PageId manifest) {
  if (root_.valid() || !second_.empty() || !owned_pages_.empty()) {
    return Status::FailedPrecondition("Open on a non-empty structure");
  }
  PstManifestHeader hdr;
  std::vector<PageId> owned, children, chain;
  PC_RETURN_IF_ERROR(internal::ReadManifest(dev_, manifest, kTwoLevelPstMagic,
                                            &hdr, &owned, &children, &chain));
  n_ = hdr.n;
  root_ = hdr.root;
  region_size_ = hdr.region_size;
  seg_len_ = hdr.seg_len;
  opts_.levels = hdr.levels;
  storage_ = StorageBreakdown{};
  storage_.skeletal = hdr.skeletal;
  storage_.points = hdr.points_pages;
  storage_.cache_headers = hdr.cache_headers;
  storage_.cache_blocks = hdr.cache_blocks;
  storage_.second_level = hdr.second_level;
  owned_pages_ = std::move(owned);
  for (PageId p : chain) owned_pages_.push_back(p);

  second_.reserve(children.size());
  for (PageId child : children) {
    auto r = OpenTwoSidedIndex(dev_, child);
    if (!r.ok()) return r.status();
    second_.push_back(std::move(r).value());
  }
  return Status::OK();
}

}  // namespace pathcache

namespace pathcache {

Status TwoLevelPst::CheckStructure() const {
  if (!root_.valid()) {
    return n_ == 0 ? Status::OK()
                   : Status::Corruption("no root for non-empty structure");
  }
  SkeletalTreeReader<TwoLevelNodeRec> reader(dev_);
  struct Item {
    NodeRef ref;
    uint32_t depth;
    int64_t parent_y_min;
  };
  std::vector<Item> stack{{root_, 0, INT64_MAX}};
  uint64_t total = 0;
  std::vector<std::byte> buf(dev_->page_size());

  auto read_list = [&](PageId head, std::vector<Point>* out) -> Status {
    PageId page = head;
    uint64_t walked = 0;
    while (page != kInvalidPageId) {
      PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
      PC_RETURN_IF_ERROR(dev_->Read(page, buf.data()));
      BlockPageHeader bh;
      std::memcpy(&bh, buf.data(), sizeof(bh));
      PC_RETURN_IF_ERROR(
          CheckBlockPageHeader(bh, RecordsPerPage<Point>(dev_->page_size())));
      AppendBlockRecords(buf.data(), bh, out);
      page = bh.next;
    }
    return Status::OK();
  };

  const uint64_t walk_limit = SkeletalWalkLimit<TwoLevelNodeRec>(dev_);
  uint64_t walk_steps = 0;
  while (!stack.empty()) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(walk_steps++, walk_limit));
    Item it = stack.back();
    stack.pop_back();
    TwoLevelNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(it.ref, &rec));
    if (rec.depth != it.depth) return Status::Corruption("depth mismatch");

    std::vector<Point> xs, ys;
    PC_RETURN_IF_ERROR(read_list(rec.x_head, &xs));
    PC_RETURN_IF_ERROR(read_list(rec.y_head, &ys));
    if (xs.size() != rec.count || ys.size() != rec.count) {
      return Status::Corruption("X/Y list count mismatch");
    }
    for (size_t i = 1; i < xs.size(); ++i) {
      if (!GreaterByX(xs[i - 1], xs[i])) {
        return Status::Corruption("X-list not x-descending");
      }
    }
    for (size_t i = 1; i < ys.size(); ++i) {
      if (!GreaterByY(ys[i - 1], ys[i])) {
        return Status::Corruption("Y-list not y-descending");
      }
    }
    // Same multiset (ids are unique within a region).
    {
      std::vector<uint64_t> a, b;
      for (const auto& p : xs) a.push_back(p.id);
      for (const auto& p : ys) b.push_back(p.id);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) return Status::Corruption("X and Y lists differ");
    }
    if (!ys.empty() && rec.y_min != ys.back().y) {
      return Status::Corruption("y_min stale");
    }
    for (const auto& p : ys) {
      if (p.y > it.parent_y_min) {
        return Status::Corruption("heap order violated");
      }
    }
    if (rec.region_ord >= second_.size() ||
        second_[rec.region_ord] == nullptr) {
      return Status::Corruption("missing second-level structure");
    }
    if (second_[rec.region_ord]->size() != rec.count) {
      return Status::Corruption("second-level size mismatch");
    }
    total += rec.count;

    NodeCache cache;
    PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, rec.cache_page, &cache));
    const uint32_t seg_start = (rec.depth / seg_len_) * seg_len_;
    if (cache.ancs.size() != rec.depth - seg_start + 1) {
      return Status::Corruption("A-list coverage count mismatch");
    }
    uint64_t a_sum = 0, s_sum = 0;
    for (const auto& a : cache.ancs) a_sum += a.contributed;
    for (const auto& s : cache.sibs) s_sum += s.contributed;
    if (a_sum != cache.a_count || s_sum != cache.s_count) {
      return Status::Corruption("cache contributed sums mismatch");
    }

    if (rec.left.valid()) {
      stack.push_back({rec.left, it.depth + 1, rec.y_min});
    }
    if (rec.right.valid()) {
      stack.push_back({rec.right, it.depth + 1, rec.y_min});
    }
  }
  if (total != n_) return Status::Corruption("total point count mismatch");
  return Status::OK();
}

}  // namespace pathcache
