#include "core/pst_external.h"

#include "core/persist.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <unordered_set>

#include "kernels/search.h"

#include "util/mathutil.h"

namespace pathcache {

namespace {

// Reads one block-list page of Points, appending records; returns the next
// page in the chain via *next.  Scan paths that can filter in place use
// BlockPageView directly instead (zero-copy on pinning devices).
Status ReadPointBlock(PageDevice* dev, PageId page, std::vector<Point>* out,
                      PageId* next) {
  BlockPageView<Point> view;
  PC_RETURN_IF_ERROR(view.Load(dev, page));
  const std::span<const Point> recs = view.records();
  out->insert(out->end(), recs.begin(), recs.end());
  *next = view.next();
  return Status::OK();
}

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

ExternalPst::ExternalPst(PageDevice* dev, ExternalPstOptions opts)
    : dev_(dev), opts_(opts) {}

Status ExternalPst::Build(std::vector<Point> points) {
  if (root_.valid()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = points.size();
  const uint32_t pt_per_page = RecordsPerPage<Point>(dev_->page_size());
  if (pt_per_page == 0) return Status::InvalidArgument("page too small");
  region_size_ = opts_.region_size != 0 ? opts_.region_size : pt_per_page;

  uint32_t want = opts_.segment_len != 0
                      ? opts_.segment_len
                      : std::max<uint32_t>(1, FloorLog2(pt_per_page));
  seg_len_ = FitSegmentLen(dev_->page_size(), want, region_size_);

  if (n_ == 0) return Status::OK();

  auto nodes = BuildRegionTree(std::move(points), region_size_);

  // Points pages (descending y) and cache header pages.
  std::vector<PstNodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto info =
        BuildBlockList<Point>(dev_, std::span<const Point>(nodes[i].pts));
    if (!info.ok()) return info.status();
    for (PageId p : info.value().pages) owned_pages_.push_back(p);
    storage_.points += info.value().pages.size();

    PstNodeRec& r = recs[i];
    r.split_x = nodes[i].split_x;
    r.split_id = nodes[i].split_id;
    r.y_min = nodes[i].y_min;
    r.points_page = info.value().ref.head;
    r.count = static_cast<uint32_t>(nodes[i].pts.size());
    r.depth = nodes[i].depth;
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;

    if (opts_.enable_path_caching) {
      auto cp = dev_->Allocate();
      if (!cp.ok()) return cp.status();
      r.cache_page = cp.value();
      owned_pages_.push_back(cp.value());
      ++storage_.cache_headers;
    }
  }

  auto tree = WriteSkeletalTree<PstNodeRec>(dev_, recs, lefts, rights, 0);
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

  // Build each node's A/S cache over its segment-local path prefix.
  const auto& refs = tree.value().refs;
  std::vector<int32_t> chain;  // root-to-current node indices
  struct Frame {
    int32_t idx;
    uint8_t stage;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.stage == 0) {
      f.stage = 1;
      chain.push_back(f.idx);
      const int32_t v = f.idx;
      const uint32_t d = nodes[v].depth;
      const uint32_t seg_start = (d / seg_len_) * seg_len_;

      NodeCache cache;
      std::vector<SrcPoint> a_recs, s_recs;
      for (uint32_t j = seg_start; j <= d; ++j) {
        const int32_t u = chain[j];
        const uint32_t ord = static_cast<uint32_t>(cache.ancs.size());
        for (const Point& p : nodes[u].pts) {
          a_recs.push_back(SrcPoint::From(p, ord));
        }
        cache.ancs.push_back(AncInfo{
            kInvalidPageId, static_cast<uint32_t>(nodes[u].pts.size()),
            static_cast<uint32_t>(nodes[u].pts.size())});
      }
      for (uint32_t j = std::max<uint32_t>(1, seg_start); j <= d; ++j) {
        const int32_t u = chain[j];
        const int32_t parent = chain[j - 1];
        if (nodes[parent].left != u || nodes[parent].right < 0) continue;
        const int32_t sib = nodes[parent].right;
        const uint32_t ord = static_cast<uint32_t>(cache.sibs.size());
        for (const Point& p : nodes[sib].pts) {
          s_recs.push_back(SrcPoint::From(p, ord));
        }
        cache.sibs.push_back(SibInfo{
            nodes[sib].left >= 0 ? refs[nodes[sib].left] : kNullNodeRef,
            nodes[sib].right >= 0 ? refs[nodes[sib].right] : kNullNodeRef,
            kInvalidPageId, static_cast<uint32_t>(nodes[sib].pts.size()),
            static_cast<uint32_t>(nodes[sib].pts.size())});
      }
      std::sort(a_recs.begin(), a_recs.end(),
                [](const SrcPoint& a, const SrcPoint& b) {
                  return GreaterByX(a.ToPoint(), b.ToPoint());
                });
      std::sort(s_recs.begin(), s_recs.end(),
                [](const SrcPoint& a, const SrcPoint& b) {
                  return GreaterByY(a.ToPoint(), b.ToPoint());
                });
      // A-lists scan on x, S-lists on y: each packs its own scan key.
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
      // Tail keys let queries pre-compute exactly which prefix of each list
      // their early-stopping scan will touch (see NodeCache).
      const uint32_t per_pg = RecordsPerPage<SrcPoint>(dev_->page_size());
      for (size_t pg = 0; pg < cache.a_pages.size(); ++pg) {
        const size_t last =
            std::min(a_recs.size(), (pg + 1) * static_cast<size_t>(per_pg));
        cache.a_tails.push_back(a_recs[last - 1].x);
      }
      for (size_t pg = 0; pg < cache.s_pages.size(); ++pg) {
        const size_t last =
            std::min(s_recs.size(), (pg + 1) * static_cast<size_t>(per_pg));
        cache.s_tails.push_back(s_recs[last - 1].y);
      }
      storage_.cache_blocks += cache.a_pages.size() + cache.s_pages.size();
      for (PageId p : cache.a_pages) owned_pages_.push_back(p);
      for (PageId p : cache.s_pages) owned_pages_.push_back(p);
      PC_RETURN_IF_ERROR(WriteCacheHeader(dev_, recs[v].cache_page, cache));

      // Push children (right first so left is processed first).
      if (nodes[v].right >= 0) stack.push_back({nodes[v].right, 0});
      if (nodes[v].left >= 0) {
        // Insertion may have invalidated f; re-fetch via index arithmetic.
        stack.push_back({nodes[v].left, 0});
      }
    } else {
      chain.pop_back();
      stack.pop_back();
    }
  }
  return Status::OK();
}

Status ExternalPst::ReadPointsPage(PageId page, std::vector<Point>* out) const {
  PageId next;
  return ReadPointBlock(dev_, page, out, &next);
}

Status ExternalPst::DescendToCorner(
    const TwoSidedQuery& q, std::vector<PathEnt>* path,
    SkeletalTreeReader<PstNodeRec>* reader) const {
  const uint64_t limit = SkeletalWalkLimit<PstNodeRec>(dev_);
  uint64_t steps = 0;
  NodeRef cur = root_;
  for (;;) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    PathEnt ent;
    ent.ref = cur;
    PC_RETURN_IF_ERROR(reader->Read(cur, &ent.rec));
    path->push_back(ent);
    // Corner: the first node whose y-band contains q.y_min, i.e., whose
    // lowest stored y falls below the query's bottom edge.
    if (q.y_min > ent.rec.y_min) break;
    NodeRef next =
        (q.x_min <= ent.rec.split_x) ? ent.rec.left : ent.rec.right;
    if (!next.valid()) break;
    cur = next;
  }
  return Status::OK();
}

Status ExternalPst::QueryTwoSided(const TwoSidedQuery& q,
                                  std::vector<Point>* out,
                                  QueryStats* stats) const {
  if (!root_.valid()) return Status::OK();
  SkeletalTreeReader<PstNodeRec> reader(dev_);
  std::vector<PathEnt> path;
  PC_RETURN_IF_ERROR(DescendToCorner(q, &path, &reader));
  Bump(stats, &QueryStats::navigation, reader.pages_read());
  Bump(stats, &QueryStats::wasteful, reader.pages_read());

  Status s = opts_.enable_path_caching
                 ? QueryWithCaches(q, path, &reader, out, stats)
                 : QueryUncached(q, path, &reader, out, stats);
  if (stats != nullptr) stats->records_reported = out->size();
  return s;
}

Status ExternalPst::QueryWithCaches(const TwoSidedQuery& q,
                                    const std::vector<PathEnt>& path,
                                    SkeletalTreeReader<PstNodeRec>* reader,
                                    std::vector<Point>* out,
                                    QueryStats* stats) const {
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
  const size_t corner = path.size() - 1;
  std::vector<size_t> cache_nodes;
  for (size_t i = 0; i < corner; ++i) {
    if (i % seg_len_ == seg_len_ - 1) cache_nodes.push_back(i);
  }
  cache_nodes.push_back(corner);

  std::vector<NodeRef> descend_todo;
  for (size_t ci : cache_nodes) {
    NodeCache cache;
    PC_RETURN_IF_ERROR(
        ReadCacheHeader(dev_, path[ci].rec.cache_page, &cache));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);

    // A-list: descending x; stop at the first record right of nothing.
    // When tail keys are stored, the page where the stop lands is known
    // up front — the first page whose tail (its minimum x) drops below
    // q.x_min — so that exact prefix is fetched batched.  Per-page
    // accounting and the record filter are identical either way.
    bool stop = false;
    auto scan_a_page = [&](std::span<const SrcPoint> recs) {
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      // Find the stop record (first x < x_min) in one vectorized pass, then
      // filter the prefix before it; identical record-for-record to the old
      // per-record stop branch on any page contents, sorted or not.
      const size_t limit =
          recs.empty() ? 0
                       : kernels::FindFirstBelow(&recs[0].x, sizeof(SrcPoint),
                                                 recs.size(), q.x_min);
      if (limit < recs.size()) stop = true;
      for (const SrcPoint& sp : recs.first(limit)) {
        if (sp.y >= q.y_min) {
          out->push_back(sp.ToPoint());
          ++qual;
        }
      }
      Classify(stats, qual, src_cap);
    };
    if (opts_.enable_readahead &&
        cache.a_tails.size() == cache.a_pages.size()) {
      const size_t n_tails = cache.a_tails.size();
      const size_t hit = kernels::FindFirstBelow(
          cache.a_tails.data(), sizeof(int64_t), n_tails, q.x_min);
      const size_t prefix = hit == n_tails ? n_tails : hit + 1;
      BlockListCursor<SrcPoint> cur(
          dev_, std::span<const PageId>(cache.a_pages.data(), prefix));
      std::vector<SrcPoint> recs;
      while (!cur.done()) {
        recs.clear();
        PC_RETURN_IF_ERROR(cur.NextBlock(&recs));
        scan_a_page(recs);
      }
    } else {
      // Page-at-a-time early-stopping scan, filtered in place (zero-copy on
      // pinning devices).
      BlockPageView<SrcPoint> view;
      for (PageId p : cache.a_pages) {
        if (stop) break;
        PC_RETURN_IF_ERROR(view.Load(dev_, p));
        scan_a_page(view.records());
      }
    }

    // S-list: descending y; stop when below the query's bottom edge.  Same
    // exact-prefix batching, with the tails now being per-page minimum ys.
    std::vector<uint32_t> sib_qual(cache.sibs.size(), 0);
    stop = false;
    bool bad_src = false;
    auto scan_s_page = [&](std::span<const SrcPoint> recs) {
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      // Same hoisted stop as the A-list, now on y.  The sibling-ordinal
      // check only ever applied to records before the stop record, which is
      // exactly the prefix the kernel hands back.
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
        // x >= q.x_min automatically (right siblings); keep the check as a
        // correctness belt in debug-style defensive fashion.
        if (sp.x >= q.x_min) {
          out->push_back(sp.ToPoint());
          ++qual;
          ++sib_qual[sp.src];
        }
      }
      Classify(stats, qual, src_cap);
    };
    if (opts_.enable_readahead &&
        cache.s_tails.size() == cache.s_pages.size()) {
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
        scan_s_page(recs);
      }
    } else {
      BlockPageView<SrcPoint> view;
      for (PageId p : cache.s_pages) {
        if (stop) break;
        PC_RETURN_IF_ERROR(view.Load(dev_, p));
        scan_s_page(view.records());
      }
    }
    if (bad_src) {
      return Status::Corruption(
          "S-list record names a sibling ordinal beyond the cache's sibling "
          "table");
    }
    for (size_t k = 0; k < cache.sibs.size(); ++k) {
      if (sib_qual[k] == cache.sibs[k].total) {
        if (cache.sibs[k].left.valid()) descend_todo.push_back(cache.sibs[k].left);
        if (cache.sibs[k].right.valid())
          descend_todo.push_back(cache.sibs[k].right);
      }
    }
  }
  return DescendDescendants(q, std::move(descend_todo), reader, out, stats);
}

Status ExternalPst::QueryUncached(const TwoSidedQuery& q,
                                  const std::vector<PathEnt>& path,
                                  SkeletalTreeReader<PstNodeRec>* reader,
                                  std::vector<Point>* out,
                                  QueryStats* stats) const {
  const uint32_t pt_cap = RecordsPerPage<Point>(dev_->page_size());
  std::vector<NodeRef> descend_todo;
  BlockPageView<Point> view;
  // Full filter of one loaded points page.
  auto filter_page = [&](uint64_t* qual) {
    for (const Point& p : view.records()) {
      if (q.Contains(p)) {
        out->push_back(p);
        ++*qual;
      }
    }
    Classify(stats, *qual, pt_cap);
  };
  // Every path node's own block: ancestors plus the corner.
  for (size_t i = 0; i < path.size(); ++i) {
    PC_RETURN_IF_ERROR(view.Load(dev_, path[i].rec.points_page));
    Bump(stats, i + 1 == path.size() ? &QueryStats::corner
                                     : &QueryStats::ancestor);
    uint64_t qual = 0;
    filter_page(&qual);
  }
  // Right siblings of the path.
  uint64_t nav_before = reader->pages_read();
  for (size_t i = 1; i < path.size(); ++i) {
    if (!(path[i - 1].rec.left == path[i].ref)) continue;
    NodeRef sib = path[i - 1].rec.right;
    if (!sib.valid()) continue;
    PstNodeRec rec;
    PC_RETURN_IF_ERROR(reader->Read(sib, &rec));
    PC_RETURN_IF_ERROR(view.Load(dev_, rec.points_page));
    Bump(stats, &QueryStats::sibling);
    uint64_t qual = 0;
    filter_page(&qual);
    if (qual == rec.count) {
      if (rec.left.valid()) descend_todo.push_back(rec.left);
      if (rec.right.valid()) descend_todo.push_back(rec.right);
    }
  }
  Bump(stats, &QueryStats::sibling, reader->pages_read() - nav_before);
  Bump(stats, &QueryStats::wasteful, reader->pages_read() - nav_before);
  return DescendDescendants(q, std::move(descend_todo), reader, out, stats);
}

Status ExternalPst::DescendDescendants(const TwoSidedQuery& q,
                                       std::vector<NodeRef> todo,
                                       SkeletalTreeReader<PstNodeRec>* reader,
                                       std::vector<Point>* out,
                                       QueryStats* stats) const {
  const uint32_t pt_cap = RecordsPerPage<Point>(dev_->page_size());
  const uint64_t limit = SkeletalWalkLimit<PstNodeRec>(dev_);
  uint64_t steps = 0;
  while (!todo.empty()) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    NodeRef ref = todo.back();
    todo.pop_back();
    uint64_t nav_before = reader->pages_read();
    PstNodeRec rec;
    PC_RETURN_IF_ERROR(reader->Read(ref, &rec));
    Bump(stats, &QueryStats::descendant, reader->pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader->pages_read() - nav_before);

    // Scan the region's y-descending points until one falls below the edge.
    // rec.y_min >= q.y_min means the whole region qualifies on y, so the
    // early stop provably never fires and the chain can be read with
    // batched readahead; otherwise scan page-at-a-time as before.
    uint64_t qual = 0;
    bool all = true;
    if (opts_.enable_readahead && rec.y_min >= q.y_min) {
      BlockListCursor<Point> cur(dev_, rec.points_page);
      cur.EnableChainReadahead();
      std::vector<Point> pts;
      while (!cur.done()) {
        pts.clear();
        PC_RETURN_IF_ERROR(cur.NextBlock(&pts));
        Bump(stats, &QueryStats::descendant);
        uint64_t block_qual = 0;
        for (const Point& p : pts) {
          if (p.x >= q.x_min && p.y >= q.y_min) {
            out->push_back(p);
            ++block_qual;
          }
        }
        Classify(stats, block_qual, pt_cap);
        qual += block_qual;
      }
    } else {
      BlockPageView<Point> view;
      PageId page = rec.points_page;
      uint64_t walked = 0;
      while (page != kInvalidPageId && all) {
        PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
        PC_RETURN_IF_ERROR(view.Load(dev_, page));
        Bump(stats, &QueryStats::descendant);
        uint64_t block_qual = 0;
        const auto recs = view.records();
        const size_t lim =
            recs.empty() ? 0
                         : kernels::FindFirstBelow(&recs[0].y, sizeof(Point),
                                                   recs.size(), q.y_min);
        if (lim < recs.size()) all = false;
        for (const Point& p : recs.first(lim)) {
          if (p.x >= q.x_min) {
            out->push_back(p);
            ++block_qual;
          }
        }
        Classify(stats, block_qual, pt_cap);
        qual += block_qual;
        page = view.next();
      }
    }
    if (all && qual == rec.count) {
      if (rec.left.valid()) todo.push_back(rec.left);
      if (rec.right.valid()) todo.push_back(rec.right);
    }
  }
  return Status::OK();
}

Status ExternalPst::Destroy() {
  for (PageId p : owned_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  owned_pages_.clear();
  root_ = kNullNodeRef;
  n_ = 0;
  storage_ = StorageBreakdown{};
  return Status::OK();
}

}  // namespace pathcache

namespace pathcache {

Result<PageId> ExternalPst::Save() {
  auto list =
      BuildBlockList<PageId>(dev_, std::span<const PageId>(owned_pages_));
  if (!list.ok()) return list.status();
  auto mp = dev_->Allocate();
  if (!mp.ok()) return mp.status();

  PstManifestHeader hdr;
  hdr.magic = kExternalPstMagic;
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

  // The manifest chain joins the owned set of this handle, so Destroy()
  // from here also reclaims it.
  owned_pages_.push_back(mp.value());
  for (PageId p : list.value().pages) owned_pages_.push_back(p);
  return mp.value();
}

Status ExternalPst::Open(PageId manifest) {
  if (root_.valid() || !owned_pages_.empty()) {
    return Status::FailedPrecondition("Open on a non-empty structure");
  }
  PstManifestHeader hdr;
  std::vector<PageId> owned, chain;
  PC_RETURN_IF_ERROR(internal::ReadManifest(dev_, manifest, kExternalPstMagic,
                                            &hdr, &owned, nullptr, &chain));
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

Status ExternalPst::Cluster() {
  if (!root_.valid()) return Status::OK();

  std::vector<PageTreeNode> ptree;
  PC_RETURN_IF_ERROR(
      CollectSkeletalPageTree<PstNodeRec>(dev_, root_, &ptree));
  const std::vector<uint32_t> veb = VanEmdeBoasOrder(ptree, 0);

  // Pass 1: skeletal pages in van Emde Boas order, every per-slot PageId
  // (child refs, points chain head, cache header) registered for rewrite.
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
          static_cast<uint32_t>(sizeof(hdr) + s * sizeof(PstNodeRec));
      plan.AddRef(pid, base + offsetof(PstNodeRec, left) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(PstNodeRec, right) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(PstNodeRec, points_page));
      plan.AddRef(pid, base + offsetof(PstNodeRec, cache_page));
    }
  }

  // Pass 2: each node's cluster — cache header, A chain, S chain, points
  // chain — appended in descent order (vEB page order, slot order within a
  // page), so what one query touches sits together.
  for (uint32_t pi : veb) {
    const PageId pid = ptree[pi].id;
    PC_RETURN_IF_ERROR(dev_->Read(pid, buf.data()));
    SkeletalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    for (uint32_t s = 0; s < hdr.count; ++s) {
      PstNodeRec rec;
      std::memcpy(&rec, buf.data() + sizeof(hdr) + s * sizeof(PstNodeRec),
                  sizeof(rec));
      if (rec.cache_page != kInvalidPageId) {
        NodeCache cache;
        PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, rec.cache_page, &cache));
        AppendCachePagesToPlan(rec.cache_page, cache, &plan);
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

namespace pathcache {

Status ExternalPst::CheckStructure() const {
  if (!root_.valid()) {
    return n_ == 0 ? Status::OK()
                   : Status::Corruption("no root for non-empty structure");
  }
  SkeletalTreeReader<PstNodeRec> reader(dev_);
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());

  struct Item {
    NodeRef ref;
    uint32_t depth;
    int64_t parent_y_min;  // exclusive upper bound for this subtree's ys
    bool has_x_lo, has_x_hi;
    int64_t x_lo, x_hi;          // composite bounds via (x, id)
    uint64_t x_lo_id, x_hi_id;
  };
  std::vector<Item> stack{{root_, 0, INT64_MAX, false, false, 0, 0, 0, 0}};
  uint64_t total = 0;

  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    PstNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(it.ref, &rec));
    if (rec.depth != it.depth) return Status::Corruption("depth mismatch");

    // Points page: count, descending-(y,id) order, range and heap checks.
    std::vector<Point> pts;
    PC_RETURN_IF_ERROR(ReadPointsPage(rec.points_page, &pts));
    if (pts.size() != rec.count) {
      return Status::Corruption("points page count mismatch");
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

    // Cache header: shape and sort order.
    if (opts_.enable_path_caching) {
      if (rec.cache_page == kInvalidPageId) {
        return Status::Corruption("missing cache page");
      }
      NodeCache cache;
      PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, rec.cache_page, &cache));
      const uint32_t seg_start = (rec.depth / seg_len_) * seg_len_;
      if (cache.ancs.size() != rec.depth - seg_start + 1) {
        return Status::Corruption("A-list coverage count mismatch");
      }
      uint64_t a_sum = 0;
      for (const auto& a : cache.ancs) a_sum += a.contributed;
      if (a_sum != cache.a_count) {
        return Status::Corruption("A-list contributed sum mismatch");
      }
      // Full read of the A-list: batched via the page directory.
      std::vector<SrcPoint> a_recs;
      {
        BlockListCursor<SrcPoint> cur(
            dev_, std::span<const PageId>(cache.a_pages));
        while (!cur.done()) PC_RETURN_IF_ERROR(cur.NextBlock(&a_recs));
      }
      if (a_recs.size() != cache.a_count) {
        return Status::Corruption("A-list record count mismatch");
      }
      for (size_t i = 1; i < a_recs.size(); ++i) {
        if (!GreaterByX(a_recs[i - 1].ToPoint(), a_recs[i].ToPoint())) {
          return Status::Corruption("A-list not x-descending");
        }
      }
      // Tail-key trailer, if stored, must match the actual page tails.
      if (!cache.a_tails.empty()) {
        if (cache.a_tails.size() != cache.a_pages.size()) {
          return Status::Corruption("A-list tail directory size mismatch");
        }
        for (size_t pg = 0; pg < cache.a_pages.size(); ++pg) {
          const size_t last = std::min<size_t>(
              a_recs.size(), (pg + 1) * static_cast<size_t>(src_cap));
          if (cache.a_tails[pg] != a_recs[last - 1].x) {
            return Status::Corruption("A-list tail key stale");
          }
        }
      }
    }

    if (rec.left.valid()) {
      Item child = it;
      child.ref = rec.left;
      child.depth = it.depth + 1;
      child.parent_y_min = rec.y_min;
      child.has_x_hi = true;
      child.x_hi = rec.split_x;
      child.x_hi_id = rec.split_id;
      stack.push_back(child);
    }
    if (rec.right.valid()) {
      Item child = it;
      child.ref = rec.right;
      child.depth = it.depth + 1;
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

}  // namespace pathcache
