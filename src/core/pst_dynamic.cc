#include "core/pst_dynamic.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

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

// Composite heap key: (y, id) lexicographic.
bool CompositeGe(int64_t y, uint64_t id, int64_t min_y, uint64_t min_id) {
  if (y != min_y) return y > min_y;
  return id >= min_id;
}

}  // namespace

Status WriteUpdateBuffer(PageDevice* dev, PageId page,
                         std::span<const UpdateRec> recs) {
  if (recs.size() > RecordsPerPage<UpdateRec>(dev->page_size())) {
    return Status::InvalidArgument("update buffer overflows its page");
  }
  std::vector<std::byte> buf(dev->page_size());
  BlockPageHeader hdr;
  hdr.count = static_cast<uint32_t>(recs.size());
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  if (!recs.empty()) {
    std::memcpy(buf.data() + sizeof(hdr), recs.data(),
                recs.size() * sizeof(UpdateRec));
  }
  return dev->Write(page, buf.data());
}

DynamicPst::DynamicPst(PageDevice* dev, DynamicPstOptions opts)
    : dev_(dev), opts_(opts) {
  B_ = RecordsPerPage<Point>(dev_->page_size());
  buf_cap_ = RecordsPerPage<UpdateRec>(dev_->page_size());
  const uint32_t s = std::max<uint32_t>(2, FloorLog2(std::max<uint32_t>(2, B_)));
  seg_len_ = opts_.segment_len != 0
                 ? opts_.segment_len
                 : std::max<uint32_t>(1, s - FloorLog2(s));
  seg_len_ = FitSegmentLen(dev_->page_size(), seg_len_, B_);
}

DynamicPst::~DynamicPst() = default;

Status DynamicPst::Build(std::vector<Point> points) {
  if (!meta_.empty()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  live_count_ = points.size();
  return BuildInternal(std::move(points));
}

Status DynamicPst::BuildInternal(std::vector<Point> points) {
  built_count_ = points.size();
  updates_since_build_ = 0;
  const uint32_t region_size = B_ * std::max<uint32_t>(2, FloorLog2(B_));

  std::vector<RegionNode> nodes;
  if (!points.empty()) {
    nodes = BuildRegionTree(std::move(points), region_size);
  } else {
    // A single empty region keeps buffers and queries uniform.
    nodes.push_back(RegionNode{});
  }

  meta_.assign(nodes.size(), Meta{});
  second_.clear();
  second_.reserve(nodes.size());
  region_u_counts_.assign(nodes.size(), 0);

  std::vector<DynNodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    Meta& m = meta_[i];
    m.split_x = nodes[i].split_x;
    m.split_id = nodes[i].split_id;
    m.left = nodes[i].left;
    m.right = nodes[i].right;
    m.depth = nodes[i].depth;
    m.count = static_cast<uint32_t>(nodes[i].pts.size());
    if (!nodes[i].pts.empty()) {
      m.y_min = nodes[i].pts.back().y;
      m.y_min_id = nodes[i].pts.back().id;
    }
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;

    std::vector<Point> xs = nodes[i].pts;
    std::sort(xs.begin(), xs.end(), GreaterByX);
    auto xi = BuildBlockList<Point>(dev_, std::span<const Point>(xs));
    if (!xi.ok()) return xi.status();
    m.x_pages = xi.value().pages;
    auto yi = BuildBlockList<Point>(dev_, std::span<const Point>(nodes[i].pts));
    if (!yi.ok()) return yi.status();
    m.y_pages = yi.value().pages;

    auto cp = dev_->Allocate();
    if (!cp.ok()) return cp.status();
    m.cache_page = cp.value();
    auto ru = dev_->Allocate();
    if (!ru.ok()) return ru.status();
    m.region_u = ru.value();
    PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, m.region_u, {}));
    if (m.depth % seg_len_ == 0) {
      auto su = dev_->Allocate();
      if (!su.ok()) return su.status();
      m.snode_u = su.value();
      PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, m.snode_u, {}));
    }

    auto child = std::make_unique<ExternalPst>(dev_, ExternalPstOptions{});
    PC_RETURN_IF_ERROR(child->Build(nodes[i].pts));
    second_.push_back(std::move(child));
  }
  // Parent links.
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (meta_[i].left >= 0) meta_[meta_[i].left].parent = static_cast<int32_t>(i);
    if (meta_[i].right >= 0) {
      meta_[meta_[i].right].parent = static_cast<int32_t>(i);
    }
  }

  for (size_t i = 0; i < nodes.size(); ++i) {
    DynNodeRec& r = recs[i];
    const Meta& m = meta_[i];
    r.split_x = m.split_x;
    r.split_id = m.split_id;
    r.y_min = m.y_min;
    r.y_min_id = m.y_min_id;
    r.x_head = m.x_pages.empty() ? kInvalidPageId : m.x_pages[0];
    r.y_head = m.y_pages.empty() ? kInvalidPageId : m.y_pages[0];
    r.cache_page = m.cache_page;
    r.snode_u = m.snode_u;
    r.region_u = m.region_u;
    r.count = m.count;
    r.depth = m.depth;
    r.region_ord = static_cast<uint32_t>(i);
  }

  auto tree = WriteSkeletalTree<DynNodeRec>(dev_, recs, lefts, rights, 0);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree).value();

  // Caches for every node (reads the first X/Y blocks back from disk; build
  // cost is not part of the amortized update bound).
  for (size_t i = 0; i < meta_.size(); ++i) {
    const uint32_t d = meta_[i].depth;
    const uint32_t seg_start = (d / seg_len_) * seg_len_;
    std::vector<int32_t> chain(d - seg_start + 1);
    int32_t u = static_cast<int32_t>(i);
    for (size_t k = chain.size(); k-- > 0;) {
      chain[k] = u;
      u = meta_[u].parent;
    }
    PC_RETURN_IF_ERROR(RebuildCacheOf(static_cast<int32_t>(i), chain));
  }
  return Status::OK();
}

Status DynamicPst::AppendToBuffer(PageId buffer, const UpdateRec& rec,
                                  bool* overflow) {
  std::vector<UpdateRec> recs;
  PC_RETURN_IF_ERROR(ReadBlockPage(dev_, buffer, &recs));
  recs.push_back(rec);
  PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, buffer, recs));
  *overflow = recs.size() >= buf_cap_;
  return Status::OK();
}

Status DynamicPst::Insert(const Point& p) { return Update(p, 0); }
Status DynamicPst::Erase(const Point& p) { return Update(p, 1); }

Status DynamicPst::Update(const Point& p, uint32_t op) {
  if (meta_.empty()) PC_RETURN_IF_ERROR(BuildInternal({}));
  UpdateRec rec{p.x, p.y, p.id, op, next_seq_++};
  bool overflow = false;
  PC_RETURN_IF_ERROR(AppendToBuffer(meta_[0].snode_u, rec, &overflow));
  if (overflow) PC_RETURN_IF_ERROR(FlushSupernode(0));
  live_count_ += (op == 0) ? 1 : -1;
  ++updates_since_build_;
  return MaybeGlobalRebuild();
}

Status DynamicPst::FlushSupernode(int32_t snode_root) {
  ++flushes_;
  std::vector<UpdateRec> recs;
  PC_RETURN_IF_ERROR(ReadBlockPage(dev_, meta_[snode_root].snode_u, &recs));
  PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, meta_[snode_root].snode_u, {}));

  // Route each record: it belongs to the first node (from the supernode
  // root down) whose heap band contains it; records crossing into a child
  // supernode are forwarded to that supernode's buffer.
  std::unordered_map<int32_t, std::vector<UpdateRec>> apply;
  for (const UpdateRec& rec : recs) {
    int32_t v = snode_root;
    for (;;) {
      const Meta& m = meta_[v];
      if (v != snode_root && IsSupernodeRoot(v)) {
        bool overflow = false;
        PC_RETURN_IF_ERROR(AppendToBuffer(m.snode_u, rec, &overflow));
        if (overflow) PC_RETURN_IF_ERROR(FlushSupernode(v));
        break;
      }
      const bool here =
          CompositeGe(rec.y, rec.id, m.y_min, m.y_min_id) ||
          (m.left < 0 && m.right < 0);
      if (here) {
        apply[v].push_back(rec);
        break;
      }
      // Composite-x routing mirrors the build-time median split.
      const bool go_left =
          (rec.x != m.split_x) ? rec.x < m.split_x : rec.id <= m.split_id;
      int32_t next = go_left ? m.left : m.right;
      if (next < 0) next = go_left ? m.right : m.left;  // lopsided node
      if (next < 0) {
        apply[v].push_back(rec);
        break;
      }
      v = next;
    }
  }

  std::vector<int32_t> changed;
  std::unordered_set<int32_t> affected;
  for (auto& [v, vrecs] : apply) {
    PC_RETURN_IF_ERROR(ApplyToRegion(v, vrecs));
    changed.push_back(v);
    affected.insert(v);
  }
  if (!affected.empty()) {
    PC_RETURN_IF_ERROR(SyncRecsToDisk(changed));
    PC_RETURN_IF_ERROR(RebuildCachesOfSupernode(snode_root));
  }
  return Status::OK();
}

Status DynamicPst::ReadRegionPoints(int32_t v, std::vector<Point>* out) const {
  if (meta_[v].x_pages.empty()) return Status::OK();
  PageId page = meta_[v].x_pages[0];
  while (page != kInvalidPageId) {
    PC_RETURN_IF_ERROR(ReadBlockPage(dev_, page, out, &page));
  }
  return Status::OK();
}

Status DynamicPst::ApplyToRegion(int32_t v,
                                 const std::vector<UpdateRec>& recs) {
  Meta& m = meta_[v];
  std::vector<Point> pts;
  PC_RETURN_IF_ERROR(ReadRegionPoints(v, &pts));
  for (const UpdateRec& rec : recs) {
    if (rec.op == 0) {
      pts.push_back(rec.ToPoint());
    } else {
      for (size_t k = 0; k < pts.size(); ++k) {
        if (pts[k].id == rec.id) {
          pts.erase(pts.begin() + k);
          break;
        }
      }
    }
  }

  // Rewrite the X and Y lists.
  for (PageId p : m.x_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
  for (PageId p : m.y_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
  std::sort(pts.begin(), pts.end(), GreaterByX);
  auto xi = BuildBlockList<Point>(dev_, std::span<const Point>(pts));
  if (!xi.ok()) return xi.status();
  m.x_pages = xi.value().pages;
  std::vector<Point> ys = pts;
  std::sort(ys.begin(), ys.end(), GreaterByY);
  auto yi = BuildBlockList<Point>(dev_, std::span<const Point>(ys));
  if (!yi.ok()) return yi.status();
  m.y_pages = yi.value().pages;
  m.count = static_cast<uint32_t>(pts.size());
  if (ys.empty()) {
    m.y_min = INT64_MAX;
    m.y_min_id = 0;
  } else {
    m.y_min = ys.back().y;
    m.y_min_id = ys.back().id;
  }

  // Pending-for-second-level buffer; overflow rebuilds the second level.
  std::vector<UpdateRec> pending;
  PC_RETURN_IF_ERROR(ReadBlockPage(dev_, m.region_u, &pending));
  pending.insert(pending.end(), recs.begin(), recs.end());
  if (pending.size() >= buf_cap_) {
    PC_RETURN_IF_ERROR(second_[v]->Destroy());
    second_[v] = std::make_unique<ExternalPst>(dev_, ExternalPstOptions{});
    std::sort(pts.begin(), pts.end(), GreaterByY);
    PC_RETURN_IF_ERROR(second_[v]->Build(pts));
    pending.clear();
  }
  PC_RETURN_IF_ERROR(WriteUpdateBuffer(dev_, m.region_u, pending));
  region_u_counts_[v] = static_cast<uint32_t>(pending.size());
  return Status::OK();
}

Status DynamicPst::RebuildCachesOfSupernode(int32_t snode_root) {
  // Enumerate the supernode's nodes top-down with their segment chains.
  struct Item {
    int32_t idx;
    std::vector<int32_t> chain;  // segment-local root..idx
  };
  std::vector<Item> stack{{snode_root, {snode_root}}};
  const uint32_t top_depth = meta_[snode_root].depth;
  while (!stack.empty()) {
    Item it = std::move(stack.back());
    stack.pop_back();
    PC_RETURN_IF_ERROR(RebuildCacheOf(it.idx, it.chain));
    for (int32_t c : {meta_[it.idx].left, meta_[it.idx].right}) {
      if (c < 0) continue;
      if (meta_[c].depth >= top_depth + seg_len_) continue;  // next supernode
      Item child;
      child.idx = c;
      child.chain = it.chain;
      child.chain.push_back(c);
      stack.push_back(std::move(child));
    }
  }
  return Status::OK();
}

Status DynamicPst::RebuildCacheOf(int32_t v,
                                  const std::vector<int32_t>& chain) {
  Meta& m = meta_[v];
  // Free the previous cache block lists.
  for (PageId p : m.cache_a_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
  for (PageId p : m.cache_s_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
  m.cache_a_pages.clear();
  m.cache_s_pages.clear();

  NodeCache cache;
  std::vector<SrcPoint> a_recs, s_recs;
  for (size_t j = 0; j < chain.size(); ++j) {
    const int32_t u = chain[j];
    const uint32_t ord = static_cast<uint32_t>(cache.ancs.size());
    std::vector<Point> first;
    if (!meta_[u].x_pages.empty()) {
      PC_RETURN_IF_ERROR(
          ReadBlockPage(dev_, meta_[u].x_pages[0], &first, nullptr));
    }
    for (const Point& p : first) a_recs.push_back(SrcPoint::From(p, ord));
    cache.ancs.push_back(
        AncInfo{meta_[u].x_pages.size() > 1 ? meta_[u].x_pages[1]
                                            : kInvalidPageId,
                static_cast<uint32_t>(first.size()), meta_[u].count});
  }
  for (size_t j = 1; j < chain.size(); ++j) {
    const int32_t u = chain[j];
    const int32_t parent = chain[j - 1];
    if (meta_[parent].left != u || meta_[parent].right < 0) continue;
    const int32_t sib = meta_[parent].right;
    const uint32_t ord = static_cast<uint32_t>(cache.sibs.size());
    std::vector<Point> first;
    if (!meta_[sib].y_pages.empty()) {
      PC_RETURN_IF_ERROR(
          ReadBlockPage(dev_, meta_[sib].y_pages[0], &first, nullptr));
    }
    for (const Point& p : first) s_recs.push_back(SrcPoint::From(p, ord));
    cache.sibs.push_back(SibInfo{
        meta_[sib].left >= 0 ? tree_.refs[meta_[sib].left] : kNullNodeRef,
        meta_[sib].right >= 0 ? tree_.refs[meta_[sib].right] : kNullNodeRef,
        meta_[sib].y_pages.size() > 1 ? meta_[sib].y_pages[1]
                                      : kInvalidPageId,
        static_cast<uint32_t>(first.size()), meta_[sib].count});
  }
  std::sort(a_recs.begin(), a_recs.end(),
            [](const SrcPoint& a, const SrcPoint& b) {
              return GreaterByX(a.ToPoint(), b.ToPoint());
            });
  std::sort(s_recs.begin(), s_recs.end(),
            [](const SrcPoint& a, const SrcPoint& b) {
              return GreaterByY(a.ToPoint(), b.ToPoint());
            });
  auto ai = BuildBlockList<SrcPoint>(dev_, std::span<const SrcPoint>(a_recs));
  if (!ai.ok()) return ai.status();
  auto si = BuildBlockList<SrcPoint>(dev_, std::span<const SrcPoint>(s_recs));
  if (!si.ok()) return si.status();
  cache.a_pages = ai.value().pages;
  cache.s_pages = si.value().pages;
  cache.a_count = a_recs.size();
  cache.s_count = s_recs.size();
  m.cache_a_pages = cache.a_pages;
  m.cache_s_pages = cache.s_pages;
  return WriteCacheHeader(dev_, m.cache_page, cache);
}

Status DynamicPst::SyncRecsToDisk(const std::vector<int32_t>& changed) {
  // Group changed node indices by skeletal page and rewrite those pages.
  std::unordered_set<PageId> pages;
  for (int32_t v : changed) pages.insert(tree_.refs[v].page);
  std::vector<std::byte> buf(dev_->page_size());
  for (size_t pi = 0; pi < tree_.page_ids.size(); ++pi) {
    if (pages.find(tree_.page_ids[pi]) == pages.end()) continue;
    std::memset(buf.data(), 0, buf.size());
    SkeletalPageHeader hdr;
    hdr.count = static_cast<uint32_t>(tree_.page_members[pi].size());
    hdr.rec_size = sizeof(DynNodeRec);
    std::memcpy(buf.data(), &hdr, sizeof(hdr));
    for (uint32_t s = 0; s < tree_.page_members[pi].size(); ++s) {
      const int32_t idx = tree_.page_members[pi][s];
      const Meta& m = meta_[idx];
      DynNodeRec rec;
      rec.split_x = m.split_x;
      rec.split_id = m.split_id;
      rec.y_min = m.y_min;
      rec.y_min_id = m.y_min_id;
      rec.left = m.left >= 0 ? tree_.refs[m.left] : kNullNodeRef;
      rec.right = m.right >= 0 ? tree_.refs[m.right] : kNullNodeRef;
      rec.x_head = m.x_pages.empty() ? kInvalidPageId : m.x_pages[0];
      rec.y_head = m.y_pages.empty() ? kInvalidPageId : m.y_pages[0];
      rec.cache_page = m.cache_page;
      rec.snode_u = m.snode_u;
      rec.region_u = m.region_u;
      rec.count = m.count;
      rec.depth = m.depth;
      rec.region_ord = static_cast<uint32_t>(idx);
      std::memcpy(buf.data() + sizeof(hdr) + s * sizeof(DynNodeRec), &rec,
                  sizeof(DynNodeRec));
    }
    PC_RETURN_IF_ERROR(dev_->Write(tree_.page_ids[pi], buf.data()));
  }
  return Status::OK();
}

Status DynamicPst::CollectAllPoints(std::vector<Point>* out) const {
  std::unordered_map<uint64_t, Point> points;
  for (size_t v = 0; v < meta_.size(); ++v) {
    std::vector<Point> pts;
    PC_RETURN_IF_ERROR(ReadRegionPoints(static_cast<int32_t>(v), &pts));
    for (const Point& p : pts) points[p.id] = p;
  }
  // Apply pending supernode-buffer updates in sequence order.
  std::vector<UpdateRec> pending;
  for (size_t v = 0; v < meta_.size(); ++v) {
    if (meta_[v].snode_u != kInvalidPageId) {
      PC_RETURN_IF_ERROR(ReadBlockPage(dev_, meta_[v].snode_u, &pending));
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const UpdateRec& a, const UpdateRec& b) { return a.seq < b.seq; });
  for (const UpdateRec& rec : pending) {
    if (rec.op == 0) {
      points[rec.id] = rec.ToPoint();
    } else {
      points.erase(rec.id);
    }
  }
  out->reserve(points.size());
  for (const auto& [id, p] : points) out->push_back(p);
  return Status::OK();
}

Status DynamicPst::MaybeGlobalRebuild() {
  const uint64_t threshold = std::max<uint64_t>(
      buf_cap_, static_cast<uint64_t>(static_cast<double>(built_count_) *
                                      opts_.rebuild_fraction));
  if (updates_since_build_ < threshold) return Status::OK();
  std::vector<Point> points;
  PC_RETURN_IF_ERROR(CollectAllPoints(&points));
  PC_RETURN_IF_ERROR(DestroyInternal());
  ++rebuilds_;
  return BuildInternal(std::move(points));
}

Status DynamicPst::DestroyInternal() {
  for (auto& child : second_) {
    if (child != nullptr) PC_RETURN_IF_ERROR(child->Destroy());
  }
  second_.clear();
  for (const Meta& m : meta_) {
    for (PageId p : m.x_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
    for (PageId p : m.y_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
    for (PageId p : m.cache_a_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
    for (PageId p : m.cache_s_pages) PC_RETURN_IF_ERROR(dev_->Free(p));
    if (m.cache_page != kInvalidPageId) {
      PC_RETURN_IF_ERROR(dev_->Free(m.cache_page));
    }
    if (m.region_u != kInvalidPageId) {
      PC_RETURN_IF_ERROR(dev_->Free(m.region_u));
    }
    if (m.snode_u != kInvalidPageId) {
      PC_RETURN_IF_ERROR(dev_->Free(m.snode_u));
    }
  }
  for (PageId p : tree_.page_ids) PC_RETURN_IF_ERROR(dev_->Free(p));
  meta_.clear();
  tree_ = SkeletalTreeInfo{};
  region_u_counts_.clear();
  return Status::OK();
}

Status DynamicPst::Destroy() {
  PC_RETURN_IF_ERROR(DestroyInternal());
  live_count_ = 0;
  built_count_ = 0;
  return Status::OK();
}

StorageBreakdown DynamicPst::storage() const {
  StorageBreakdown s;
  s.skeletal = tree_.pages;
  for (const Meta& m : meta_) {
    s.points += m.x_pages.size() + m.y_pages.size();
    s.cache_blocks += m.cache_a_pages.size() + m.cache_s_pages.size();
    s.cache_headers += 1;                            // cache header
    s.cache_headers += (m.region_u != kInvalidPageId) ? 1 : 0;
    s.cache_headers += (m.snode_u != kInvalidPageId) ? 1 : 0;
  }
  for (const auto& child : second_) {
    if (child != nullptr) s.second_level += child->storage().total();
  }
  return s;
}

Status DynamicPst::QueryTwoSided(const TwoSidedQuery& q,
                                 std::vector<Point>* out,
                                 QueryStats* stats) const {
  if (meta_.empty()) return Status::OK();
  const uint32_t src_cap = RecordsPerPage<SrcPoint>(dev_->page_size());
  const uint32_t pt_cap = B_;
  SkeletalTreeReader<DynNodeRec> reader(dev_);

  struct PathEnt {
    NodeRef ref;
    DynNodeRec rec;
  };
  std::vector<PathEnt> path;
  {
    NodeRef cur = tree_.root;
    for (;;) {
      PathEnt ent;
      ent.ref = cur;
      PC_RETURN_IF_ERROR(reader.Read(cur, &ent.rec));
      path.push_back(ent);
      if (q.y_min > ent.rec.y_min) break;
      NodeRef next =
          (q.x_min <= ent.rec.split_x) ? ent.rec.left : ent.rec.right;
      if (!next.valid()) break;
      cur = next;
    }
  }
  Bump(stats, &QueryStats::navigation, reader.pages_read());
  Bump(stats, &QueryStats::wasteful, reader.pages_read());

  // Buffers to replay: supernode buffers on the path now; descendants add
  // theirs as they are entered.
  std::vector<UpdateRec> pending_ops;
  std::unordered_set<PageId> buffers_read;
  auto read_snode_buffer = [&](PageId page) -> Status {
    if (page == kInvalidPageId || !buffers_read.insert(page).second) {
      return Status::OK();
    }
    Bump(stats, &QueryStats::buffer);
    Bump(stats, &QueryStats::wasteful);
    return ReadBlockPage(dev_, page, &pending_ops);
  };
  for (const PathEnt& ent : path) {
    PC_RETURN_IF_ERROR(read_snode_buffer(ent.rec.snode_u));
  }

  // Scans a y- or x-ordered point list with the usual stop rule.
  auto scan_list = [&](PageId page, bool by_x, uint64_t QueryStats::* role,
                       uint64_t* qualified) -> Status {
    *qualified = 0;
    PageId cur = page;
    uint64_t walked = 0;
    while (cur != kInvalidPageId) {
      PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
      std::vector<Point> pts;
      PageId next;
      PC_RETURN_IF_ERROR(ReadBlockPage(dev_, cur, &pts, &next));
      Bump(stats, role);
      uint64_t block_qual = 0;
      for (const Point& p : pts) {
        if (by_x ? (p.x < q.x_min) : (p.y < q.y_min)) {
          Classify(stats, block_qual, pt_cap);
          return Status::OK();
        }
        if (q.Contains(p)) {
          out->push_back(p);
          ++block_qual;
          ++*qualified;
        }
      }
      Classify(stats, block_qual, pt_cap);
      cur = next;
    }
    return Status::OK();
  };

  const size_t corner = path.size() - 1;
  std::vector<size_t> cache_nodes;
  for (size_t i = 0; i < corner; ++i) {
    if (i % seg_len_ == seg_len_ - 1) cache_nodes.push_back(i);
  }
  cache_nodes.push_back(corner);

  std::vector<NodeRef> descend_todo;

  // Siblings attached at supernode-boundary depths are deliberately NOT in
  // any S-cache (caches never cross supernodes, so they can be rebuilt
  // locally); the query visits them directly — at most one per segment,
  // within the O(log_B n) budget.
  for (size_t i = seg_len_; i <= corner; i += seg_len_) {
    if (!(path[i - 1].rec.left == path[i].ref) ||
        !path[i - 1].rec.right.valid()) {
      continue;
    }
    uint64_t nav_before = reader.pages_read();
    DynNodeRec sib;
    PC_RETURN_IF_ERROR(reader.Read(path[i - 1].rec.right, &sib));
    Bump(stats, &QueryStats::sibling, reader.pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader.pages_read() - nav_before);
    PC_RETURN_IF_ERROR(read_snode_buffer(sib.snode_u));
    uint64_t qual;
    PC_RETURN_IF_ERROR(
        scan_list(sib.y_head, /*by_x=*/false, &QueryStats::sibling, &qual));
    if (qual == sib.count) {
      if (sib.left.valid()) descend_todo.push_back(sib.left);
      if (sib.right.valid()) descend_todo.push_back(sib.right);
    }
  }
  for (size_t ci : cache_nodes) {
    NodeCache cache;
    PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, path[ci].rec.cache_page, &cache));
    Bump(stats, &QueryStats::cache);
    Bump(stats, &QueryStats::wasteful);
    const uint32_t self_skip =
        (ci == corner) ? static_cast<uint32_t>(cache.ancs.size()) - 1
                       : UINT32_MAX;

    std::vector<uint32_t> anc_qual(cache.ancs.size(), 0);
    bool stop = false;
    for (PageId p : cache.a_pages) {
      if (stop) break;
      std::vector<SrcPoint> recs;
      PC_RETURN_IF_ERROR(ReadBlockPage(dev_, p, &recs));
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      for (const SrcPoint& sp : recs) {
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
        PC_RETURN_IF_ERROR(
            scan_list(a.x_next, /*by_x=*/true, &QueryStats::ancestor, &qual));
      }
    }

    std::vector<uint32_t> sib_qual(cache.sibs.size(), 0);
    stop = false;
    for (PageId p : cache.s_pages) {
      if (stop) break;
      std::vector<SrcPoint> recs;
      PC_RETURN_IF_ERROR(ReadBlockPage(dev_, p, &recs));
      Bump(stats, &QueryStats::cache);
      uint64_t qual = 0;
      for (const SrcPoint& sp : recs) {
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
        PC_RETURN_IF_ERROR(
            scan_list(sb.y_next, /*by_x=*/false, &QueryStats::sibling, &qual));
        qual_total += qual;
      }
      // An emptied (drifted) region is vacuously fully-qualified; its
      // children may still hold query points.
      if (qual_total == sb.total) {
        if (sb.left.valid()) descend_todo.push_back(sb.left);
        if (sb.right.valid()) descend_todo.push_back(sb.right);
      }
    }
  }

  while (!descend_todo.empty()) {
    NodeRef ref = descend_todo.back();
    descend_todo.pop_back();
    uint64_t nav_before = reader.pages_read();
    DynNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(ref, &rec));
    Bump(stats, &QueryStats::descendant, reader.pages_read() - nav_before);
    Bump(stats, &QueryStats::wasteful, reader.pages_read() - nav_before);
    PC_RETURN_IF_ERROR(read_snode_buffer(rec.snode_u));
    uint64_t qual;
    PC_RETURN_IF_ERROR(
        scan_list(rec.y_head, /*by_x=*/false, &QueryStats::descendant, &qual));
    if (qual == rec.count) {
      if (rec.left.valid()) descend_todo.push_back(rec.left);
      if (rec.right.valid()) descend_todo.push_back(rec.right);
    }
  }

  // Corner region: second-level query corrected by the region's pending u.
  {
    const DynNodeRec& crec = path[corner].rec;
    std::vector<Point> sub;
    QueryStats sub_stats;
    PC_RETURN_IF_ERROR(
        second_[crec.region_ord]->QueryTwoSided(q, &sub, &sub_stats));
    if (stats != nullptr) {
      sub_stats.records_reported = 0;
      *stats += sub_stats;
    }
    std::vector<UpdateRec> region_pending;
    PC_RETURN_IF_ERROR(ReadBlockPage(dev_, crec.region_u, &region_pending));
    Bump(stats, &QueryStats::buffer);
    Bump(stats, &QueryStats::wasteful);
    std::sort(region_pending.begin(), region_pending.end(),
              [](const UpdateRec& a, const UpdateRec& b) {
                return a.seq < b.seq;
              });
    for (const UpdateRec& rec : region_pending) {
      if (rec.op == 0) {
        if (q.Contains(rec.ToPoint())) sub.push_back(rec.ToPoint());
      } else {
        for (size_t k = 0; k < sub.size(); ++k) {
          if (sub[k].id == rec.id) {
            sub.erase(sub.begin() + k);
            break;
          }
        }
      }
    }
    out->insert(out->end(), sub.begin(), sub.end());
  }

  // Replay pending supernode-buffer operations in global order.
  if (!pending_ops.empty()) {
    std::sort(pending_ops.begin(), pending_ops.end(),
              [](const UpdateRec& a, const UpdateRec& b) {
                return a.seq < b.seq;
              });
    std::unordered_map<uint64_t, Point> added;
    std::unordered_set<uint64_t> removed;
    for (const UpdateRec& rec : pending_ops) {
      if (rec.op == 0) {
        // A pending insert never cancels an earlier delete: the delete
        // targeted the OLD record of this id, which must stay removed.
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

}  // namespace pathcache
