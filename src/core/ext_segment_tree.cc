#include "core/ext_segment_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>

#include "core/persist.h"
#include "kernels/search.h"
#include "util/mathutil.h"

namespace pathcache {

namespace {

// Closed input intervals are handled over half-open slabs by treating hi as
// the exclusive bound hi + 1.
int64_t ExclusiveHi(const Interval& iv) { return iv.hi + 1; }

struct MemNode {
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t split = 0;
  int32_t left = -1;
  int32_t right = -1;
  int32_t parent = -1;
  bool is_leaf = false;
  std::vector<Interval> cover;
  std::vector<Interval> ends;  // fat leaves: partially-overlapping intervals
};

}  // namespace

ExtSegmentTree::ExtSegmentTree(PageDevice* dev, ExtSegmentTreeOptions opts)
    : dev_(dev), opts_(opts) {}

Status ExtSegmentTree::Build(std::vector<Interval> intervals) {
  if (root_.valid()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = intervals.size();
  const uint32_t B = RecordsPerPage<Interval>(dev_->page_size());
  if (B == 0) return Status::InvalidArgument("page too small");
  if (n_ == 0) return Status::OK();

  // Slab boundaries: the sorted distinct endpoints.
  std::vector<int64_t> endpoints;
  endpoints.reserve(n_ * 2 + 1);
  for (const auto& iv : intervals) {
    endpoints.push_back(iv.lo);
    endpoints.push_back(ExclusiveHi(iv));
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  if (endpoints.size() == 1) endpoints.push_back(endpoints[0] + 1);

  // Fat-slab tree: leaves span ~B consecutive elementary slabs.
  const size_t fat_cap = std::max<uint32_t>(2, B);
  std::vector<MemNode> nodes;
  struct BuildFrame {
    size_t lo, hi;  // endpoint index range; node spans [e_lo, e_hi)
    int32_t parent;
    bool right_child;
  };
  std::vector<BuildFrame> stack{{0, endpoints.size() - 1, -1, false}};
  int32_t root_idx = -1;
  while (!stack.empty()) {
    BuildFrame f = stack.back();
    stack.pop_back();
    int32_t idx = static_cast<int32_t>(nodes.size());
    nodes.push_back(MemNode{});
    nodes[idx].lo = endpoints[f.lo];
    nodes[idx].hi = endpoints[f.hi];
    nodes[idx].parent = f.parent;
    if (f.parent >= 0) {
      (f.right_child ? nodes[f.parent].right : nodes[f.parent].left) = idx;
    } else {
      root_idx = idx;
    }
    if (f.hi - f.lo <= fat_cap) {
      nodes[idx].is_leaf = true;
      nodes[idx].split = endpoints[f.lo];
      continue;
    }
    size_t mid = (f.lo + f.hi) / 2;
    nodes[idx].split = endpoints[mid];
    stack.push_back({mid, f.hi, idx, true});
    stack.push_back({f.lo, mid, idx, false});
  }

  // Allocate intervals: cover-lists at allocation nodes, end-lists at fat
  // leaves the interval only partially overlaps.
  stored_copies_ = 0;
  for (const auto& iv : intervals) {
    const int64_t ivhi = ExclusiveHi(iv);
    std::vector<int32_t> todo{root_idx};
    while (!todo.empty()) {
      int32_t x = todo.back();
      todo.pop_back();
      MemNode& nd = nodes[x];
      if (iv.lo <= nd.lo && nd.hi <= ivhi) {
        nd.cover.push_back(iv);
        ++stored_copies_;
        continue;
      }
      if (nd.is_leaf) {
        nd.ends.push_back(iv);  // partial overlap: an endpoint lies inside
        continue;
      }
      if (iv.lo < nd.split) todo.push_back(nd.left);
      if (ivhi > nd.split) todo.push_back(nd.right);
    }
  }

  // Cover/end lists to disk.
  std::vector<SegNodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    SegNodeRec& r = recs[i];
    r.lo = nodes[i].lo;
    r.hi = nodes[i].hi;
    r.split = nodes[i].split;
    r.cover_count = static_cast<uint32_t>(nodes[i].cover.size());
    r.is_leaf = nodes[i].is_leaf ? 1 : 0;
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;
    if (!nodes[i].cover.empty()) {
      auto info = BuildBlockList<Interval>(
          dev_, std::span<const Interval>(nodes[i].cover));
      if (!info.ok()) return info.status();
      for (PageId p : info.value().pages) owned_pages_.push_back(p);
      storage_.points += info.value().pages.size();
      r.cover_head = info.value().ref.head;
    }
    if (!nodes[i].ends.empty()) {
      auto info = BuildBlockList<Interval>(
          dev_, std::span<const Interval>(nodes[i].ends));
      if (!info.ok()) return info.status();
      for (PageId p : info.value().pages) owned_pages_.push_back(p);
      storage_.points += info.value().pages.size();
      r.end_page = info.value().ref.head;
    }
  }

  auto tree =
      WriteSkeletalTree<SegNodeRec>(dev_, recs, lefts, rights, root_idx);
  if (!tree.ok()) return tree.status();
  const SkeletalTreeInfo& info = tree.value();
  root_ = info.root;
  storage_.skeletal = info.pages;
  for (PageId p : info.page_ids) owned_pages_.push_back(p);
  if (!opts_.enable_path_caching) return Status::OK();

  // C(v) for page roots and fat leaves: coalesced underfull cover-lists of
  // v and of v's ancestors strictly inside v's (parent) page.
  auto is_page_root = [&](int32_t idx) { return info.refs[idx].slot == 0; };
  for (size_t i = 0; i < nodes.size(); ++i) {
    const bool boundary = is_page_root(static_cast<int32_t>(i)) ||
                          nodes[i].is_leaf;
    if (!boundary) continue;
    std::vector<Interval> cache_ivs;
    if (nodes[i].cover.size() < B) {
      cache_ivs.insert(cache_ivs.end(), nodes[i].cover.begin(),
                       nodes[i].cover.end());
    }
    for (int32_t u = nodes[i].parent; u >= 0 && !is_page_root(u);
         u = nodes[u].parent) {
      if (nodes[u].cover.size() < B) {
        cache_ivs.insert(cache_ivs.end(), nodes[u].cover.begin(),
                         nodes[u].cover.end());
      }
    }
    if (cache_ivs.empty()) continue;
    auto ci =
        BuildBlockList<Interval>(dev_, std::span<const Interval>(cache_ivs));
    if (!ci.ok()) return ci.status();
    for (PageId p : ci.value().pages) owned_pages_.push_back(p);
    storage_.cache_blocks += ci.value().pages.size();
    recs[i].cache_page = ci.value().ref.head;
  }
  return RewriteSkeletalPages(dev_, info, recs, lefts, rights);
}

Status ExtSegmentTree::ReadIntervalList(PageId head,
                                        uint64_t QueryStats::* role,
                                        int64_t q, std::vector<Interval>* out,
                                        QueryStats* stats) const {
  // Every caller consumes the whole chain, so chain readahead is exact:
  // same pages, same per-page accounting, fewer device round trips.
  const uint32_t cap = RecordsPerPage<Interval>(dev_->page_size());
  BlockListCursor<Interval> cur(dev_, head);
  if (opts_.enable_readahead) cur.EnableChainReadahead();
  std::vector<Interval> ivs;
  while (!cur.done()) {
    ivs.clear();
    PC_RETURN_IF_ERROR(cur.NextBlock(&ivs));
    if (stats != nullptr) stats->*role += 1;
    uint64_t qual = 0;
    // Segment-tree cover lists are allocated to nodes whose span the
    // interval covers, so "every record on the page stabs q" is the common
    // case; confirm it with one vectorized pass and bulk-append, falling
    // back to the per-record filter on mixed pages.
    if (kernels::AllContain24(ivs.data(), ivs.size(), q)) {
      out->insert(out->end(), ivs.begin(), ivs.end());
      qual = ivs.size();
    } else {
      for (const auto& iv : ivs) {
        if (iv.Contains(q)) {
          out->push_back(iv);
          ++qual;
        }
      }
    }
    if (stats != nullptr) {
      if (qual >= cap) {
        ++stats->useful;
      } else {
        ++stats->wasteful;
      }
    }
  }
  return Status::OK();
}

Status ExtSegmentTree::Stab(int64_t q, std::vector<Interval>* out,
                            QueryStats* stats) const {
  if (!root_.valid()) return Status::OK();
  const uint32_t B = RecordsPerPage<Interval>(dev_->page_size());
  SkeletalTreeReader<SegNodeRec> reader(dev_);

  NodeRef cur = root_;
  uint64_t nav_before = reader.pages_read();
  const uint64_t limit = SkeletalWalkLimit<SegNodeRec>(dev_);
  uint64_t steps = 0;
  for (;;) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    SegNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(cur, &rec));
    if (q < rec.lo || q >= rec.hi) break;  // outside the indexed domain

    const bool boundary = (cur.slot == 0) || rec.is_leaf != 0;
    if (boundary && opts_.enable_path_caching &&
        rec.cache_page != kInvalidPageId) {
      PC_RETURN_IF_ERROR(
          ReadIntervalList(rec.cache_page, &QueryStats::cache, q, out,
                           stats));
    }
    // Underfull lists come from the caches; full lists pay for themselves.
    const bool read_direct =
        !opts_.enable_path_caching || rec.cover_count >= B;
    if (read_direct && rec.cover_count > 0 &&
        rec.cover_head != kInvalidPageId) {
      PC_RETURN_IF_ERROR(ReadIntervalList(rec.cover_head,
                                          &QueryStats::ancestor, q, out,
                                          stats));
    }
    if (rec.is_leaf != 0) {
      if (rec.end_page != kInvalidPageId) {
        PC_RETURN_IF_ERROR(ReadIntervalList(rec.end_page,
                                            &QueryStats::descendant, q, out,
                                            stats));
      }
      break;
    }
    NodeRef next = (q < rec.split) ? rec.left : rec.right;
    if (!next.valid()) break;
    cur = next;
  }
  if (stats != nullptr) {
    stats->navigation += reader.pages_read() - nav_before;
    stats->wasteful += reader.pages_read() - nav_before;
    stats->records_reported = out->size();
  }
  return Status::OK();
}

Status ExtSegmentTree::Destroy() {
  for (PageId p : owned_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  owned_pages_.clear();
  root_ = kNullNodeRef;
  n_ = 0;
  stored_copies_ = 0;
  storage_ = StorageBreakdown{};
  return Status::OK();
}

Result<PageId> ExtSegmentTree::Save() {
  auto list =
      BuildBlockList<PageId>(dev_, std::span<const PageId>(owned_pages_));
  if (!list.ok()) return list.status();
  auto mp = dev_->Allocate();
  if (!mp.ok()) return mp.status();

  PstManifestHeader hdr;
  hdr.magic = kExtSegTreeMagic;
  hdr.n = n_;
  hdr.root = root_;
  hdr.caching = opts_.enable_path_caching ? 1 : 0;
  hdr.skeletal = storage_.skeletal;
  hdr.points_pages = storage_.points;
  hdr.cache_headers = storage_.cache_headers;
  hdr.cache_blocks = storage_.cache_blocks;
  hdr.owned_head = list.value().ref.head;
  hdr.owned_count = owned_pages_.size();
  hdr.aux = stored_copies_;
  PC_RETURN_IF_ERROR(internal::WriteManifestHeader(dev_, mp.value(), hdr));

  owned_pages_.push_back(mp.value());
  for (PageId p : list.value().pages) owned_pages_.push_back(p);
  return mp.value();
}

Status ExtSegmentTree::Open(PageId manifest) {
  if (root_.valid() || !owned_pages_.empty()) {
    return Status::FailedPrecondition("Open on a non-empty structure");
  }
  PstManifestHeader hdr;
  std::vector<PageId> owned, chain;
  PC_RETURN_IF_ERROR(internal::ReadManifest(
      dev_, manifest, kExtSegTreeMagic, &hdr, &owned, nullptr, &chain));
  n_ = hdr.n;
  root_ = hdr.root;
  opts_.enable_path_caching = hdr.caching != 0;
  stored_copies_ = hdr.aux;
  storage_ = StorageBreakdown{};
  storage_.skeletal = hdr.skeletal;
  storage_.points = hdr.points_pages;
  storage_.cache_headers = hdr.cache_headers;
  storage_.cache_blocks = hdr.cache_blocks;
  owned_pages_ = std::move(owned);
  for (PageId p : chain) owned_pages_.push_back(p);
  return Status::OK();
}

Status ExtSegmentTree::CheckStructure() const {
  if (!root_.valid()) {
    return n_ == 0 ? Status::OK()
                   : Status::Corruption("no root for non-empty structure");
  }
  const uint32_t B = RecordsPerPage<Interval>(dev_->page_size());
  SkeletalTreeReader<SegNodeRec> reader(dev_);
  const uint64_t walk_limit = SkeletalWalkLimit<SegNodeRec>(dev_);
  uint64_t walk_steps = 0;

  // DFS with an explicit unwind marker: a node's cache coalesces the
  // underfull cover-lists of its strictly-in-page ancestors, so those lists
  // ride along on the chain for exact content comparison.
  struct ChainEnt {
    bool page_root;
    std::vector<Interval> underfull;  // the cover-list when count < B
  };
  struct Item {
    NodeRef ref;
    bool has_parent = false;
    int64_t lo = 0, hi = 0;             // expected slab (from parent split)
    int64_t parent_lo = 0, parent_hi = 0;
    bool unwind = false;
  };
  std::vector<ChainEnt> chain;
  std::vector<Item> stack;
  stack.push_back(Item{root_});
  uint64_t copies = 0;

  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    if (it.unwind) {
      chain.pop_back();
      continue;
    }
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(walk_steps++, walk_limit));

    SegNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(it.ref, &rec));
    if (rec.lo >= rec.hi) return Status::Corruption("empty slab");
    if (it.has_parent && (rec.lo != it.lo || rec.hi != it.hi)) {
      return Status::Corruption("child slab does not match parent split");
    }
    const bool leaf = rec.is_leaf != 0;
    if (leaf && (rec.left.valid() || rec.right.valid())) {
      return Status::Corruption("fat leaf with children");
    }
    if (!leaf) {
      if (!(rec.lo < rec.split && rec.split < rec.hi)) {
        return Status::Corruption("split outside slab");
      }
      if (!rec.left.valid() || !rec.right.valid()) {
        return Status::Corruption("internal node missing a child");
      }
    }

    // Cover-list: every interval covers this slab but not the parent's
    // (allocation nodes are maximal).
    std::vector<Interval> cover;
    PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.cover_head,
                                                &cover));
    if (cover.size() != rec.cover_count) {
      return Status::Corruption("cover-list count mismatch");
    }
    for (const Interval& iv : cover) {
      if (!(iv.lo <= rec.lo && rec.hi <= iv.hi + 1)) {
        return Status::Corruption("cover interval does not cover its slab");
      }
      if (it.has_parent && iv.lo <= it.parent_lo &&
          it.parent_hi <= iv.hi + 1) {
        return Status::Corruption(
            "cover interval covers the parent slab (allocated too low)");
      }
    }
    copies += cover.size();

    // End-list: fat leaves only; partial overlaps by definition.
    if (!leaf && rec.end_page != kInvalidPageId) {
      return Status::Corruption("end-list on an internal node");
    }
    if (leaf && rec.end_page != kInvalidPageId) {
      std::vector<Interval> ends;
      PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.end_page,
                                                  &ends));
      for (const Interval& iv : ends) {
        const bool overlaps = iv.lo < rec.hi && iv.hi + 1 > rec.lo;
        const bool covers = iv.lo <= rec.lo && rec.hi <= iv.hi + 1;
        if (!overlaps || covers) {
          return Status::Corruption(
              "end-list interval does not partially overlap its leaf");
        }
      }
    }

    chain.push_back(ChainEnt{it.ref.slot == 0,
                             cover.size() < B ? std::move(cover)
                                              : std::vector<Interval>{}});
    {
      Item unwind;
      unwind.unwind = true;
      stack.push_back(unwind);
    }

    // Cache: page roots and fat leaves coalesce the underfull cover-lists
    // of themselves and their strictly-in-page ancestors, in that order.
    const bool boundary = (it.ref.slot == 0) || leaf;
    if (!opts_.enable_path_caching || !boundary) {
      if (rec.cache_page != kInvalidPageId) {
        return Status::Corruption("cache on a non-boundary node");
      }
    } else {
      std::vector<Interval> expect = chain.back().underfull;
      for (size_t j = chain.size() - 1; j-- > 0;) {
        if (chain[j].page_root) break;
        expect.insert(expect.end(), chain[j].underfull.begin(),
                      chain[j].underfull.end());
      }
      if (expect.empty()) {
        if (rec.cache_page != kInvalidPageId) {
          return Status::Corruption(
              "cache present with no underfull cover-lists in scope");
        }
      } else {
        if (rec.cache_page == kInvalidPageId) {
          return Status::Corruption("missing cache");
        }
        std::vector<Interval> got;
        PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.cache_page,
                                                    &got));
        if (got.size() != expect.size()) {
          return Status::Corruption("cache record count mismatch");
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].lo != expect[i].lo || got[i].hi != expect[i].hi ||
              got[i].id != expect[i].id) {
            return Status::Corruption(
                "cache contents diverge from the in-scope cover-lists");
          }
        }
      }
    }

    if (!leaf) {
      Item right;
      right.ref = rec.right;
      right.has_parent = true;
      right.lo = rec.split;
      right.hi = rec.hi;
      right.parent_lo = rec.lo;
      right.parent_hi = rec.hi;
      stack.push_back(right);
      Item left;
      left.ref = rec.left;
      left.has_parent = true;
      left.lo = rec.lo;
      left.hi = rec.split;
      left.parent_lo = rec.lo;
      left.parent_hi = rec.hi;
      stack.push_back(left);
    }
  }
  if (copies != stored_copies_) {
    return Status::Corruption("stored-copies total mismatch");
  }
  return Status::OK();
}

Status ExtSegmentTree::Cluster() {
  if (!root_.valid()) return Status::OK();

  std::vector<PageTreeNode> ptree;
  PC_RETURN_IF_ERROR(
      CollectSkeletalPageTree<SegNodeRec>(dev_, root_, &ptree));
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
          static_cast<uint32_t>(sizeof(hdr) + s * sizeof(SegNodeRec));
      plan.AddRef(pid, base + offsetof(SegNodeRec, left) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(SegNodeRec, right) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(SegNodeRec, cover_head));
      plan.AddRef(pid, base + offsetof(SegNodeRec, cache_page));
      plan.AddRef(pid, base + offsetof(SegNodeRec, end_page));
    }
  }

  // Pass 2: each node's chains — cache, cover, end-list — in the order a
  // descending stab touches them.
  for (uint32_t pi : veb) {
    const PageId pid = ptree[pi].id;
    PC_RETURN_IF_ERROR(dev_->Read(pid, buf.data()));
    SkeletalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    for (uint32_t s = 0; s < hdr.count; ++s) {
      SegNodeRec rec;
      std::memcpy(&rec, buf.data() + sizeof(hdr) + s * sizeof(SegNodeRec),
                  sizeof(rec));
      for (PageId head : {rec.cache_page, rec.cover_head, rec.end_page}) {
        if (head == kInvalidPageId) continue;
        std::vector<PageId> chain;
        PC_RETURN_IF_ERROR(CollectChainPages(dev_, head, &chain));
        plan.AddChain(chain);
      }
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
