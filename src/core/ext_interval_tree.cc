#include "core/ext_interval_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <tuple>

#include "core/persist.h"
#include "kernels/search.h"
#include "util/mathutil.h"

namespace pathcache {

namespace {

struct MemNode {
  int64_t center = 0;
  int32_t left = -1;
  int32_t right = -1;
  int32_t parent = -1;
  bool is_leaf = false;
  std::vector<Interval> ivs;  // crossing set (internal) or pool (leaf)
};

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

ExtIntervalTree::ExtIntervalTree(PageDevice* dev, ExtIntervalTreeOptions opts)
    : dev_(dev), opts_(opts) {}

Status ExtIntervalTree::Build(std::vector<Interval> intervals) {
  if (root_.valid()) {
    return Status::FailedPrecondition("Build on a non-empty structure");
  }
  n_ = intervals.size();
  const uint32_t B = RecordsPerPage<Interval>(dev_->page_size());
  if (B == 0) return Status::InvalidArgument("page too small");
  if (n_ == 0) return Status::OK();

  std::vector<int64_t> values;
  values.reserve(n_ * 2);
  for (const auto& iv : intervals) {
    values.push_back(iv.lo);
    values.push_back(iv.hi);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // Fat-leaf threshold: ~B endpoint values per leaf.
  const size_t fat_cap = std::max<uint32_t>(2, B);

  std::vector<MemNode> nodes;
  struct BuildFrame {
    size_t lo, hi;  // value index range [lo, hi)
    int32_t parent;
    bool right_child;
  };
  std::vector<BuildFrame> stack{{0, values.size(), -1, false}};
  int32_t root_idx = -1;
  while (!stack.empty()) {
    BuildFrame f = stack.back();
    stack.pop_back();
    int32_t idx = static_cast<int32_t>(nodes.size());
    nodes.push_back(MemNode{});
    nodes[idx].parent = f.parent;
    if (f.parent >= 0) {
      (f.right_child ? nodes[f.parent].right : nodes[f.parent].left) = idx;
    } else {
      root_idx = idx;
    }
    if (f.hi - f.lo <= fat_cap) {
      nodes[idx].is_leaf = true;
      nodes[idx].center = values[(f.lo + f.hi) / 2];
      continue;
    }
    size_t mid = (f.lo + f.hi) / 2;
    nodes[idx].center = values[mid];
    stack.push_back({mid + 1, f.hi, idx, true});
    stack.push_back({f.lo, mid, idx, false});
  }

  // Allocate each interval to the first node whose center it contains, or
  // to the fat leaf it falls inside.
  for (const auto& iv : intervals) {
    int32_t cur = root_idx;
    for (;;) {
      MemNode& nd = nodes[cur];
      if (nd.is_leaf || iv.Contains(nd.center)) {
        nd.ivs.push_back(iv);
        break;
      }
      cur = (iv.hi < nd.center) ? nd.left : nd.right;
    }
  }

  // Lists / pools to disk.
  std::vector<IntNodeRec> recs(nodes.size());
  std::vector<int32_t> lefts(nodes.size()), rights(nodes.size());
  // Keep L-page directories for the cache continuations.
  std::vector<std::vector<PageId>> l_pages(nodes.size()), r_pages(nodes.size());
  std::vector<std::vector<Interval>> l_sorted(nodes.size()),
      r_sorted(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    IntNodeRec& r = recs[i];
    r.center = nodes[i].center;
    r.count = static_cast<uint32_t>(nodes[i].ivs.size());
    r.is_leaf = nodes[i].is_leaf ? 1 : 0;
    lefts[i] = nodes[i].left;
    rights[i] = nodes[i].right;
    if (nodes[i].is_leaf) {
      auto pl = BuildBlockList<Interval>(
          dev_, std::span<const Interval>(nodes[i].ivs));
      if (!pl.ok()) return pl.status();
      for (PageId p : pl.value().pages) owned_pages_.push_back(p);
      storage_.points += pl.value().pages.size();
      r.pool_page = pl.value().ref.head;
      continue;
    }
    l_sorted[i] = nodes[i].ivs;
    std::sort(l_sorted[i].begin(), l_sorted[i].end(),
              [](const Interval& a, const Interval& b) {
                if (a.lo != b.lo) return a.lo < b.lo;
                return a.id < b.id;
              });
    r_sorted[i] = nodes[i].ivs;
    std::sort(r_sorted[i].begin(), r_sorted[i].end(),
              [](const Interval& a, const Interval& b) {
                if (a.hi != b.hi) return a.hi > b.hi;
                return a.id < b.id;
              });
    auto li =
        BuildBlockList<Interval>(dev_, std::span<const Interval>(l_sorted[i]));
    if (!li.ok()) return li.status();
    auto ri =
        BuildBlockList<Interval>(dev_, std::span<const Interval>(r_sorted[i]));
    if (!ri.ok()) return ri.status();
    for (PageId p : li.value().pages) owned_pages_.push_back(p);
    for (PageId p : ri.value().pages) owned_pages_.push_back(p);
    storage_.points += li.value().pages.size() + ri.value().pages.size();
    r.l_head = li.value().ref.head;
    r.r_head = ri.value().ref.head;
    l_pages[i] = li.value().pages;
    r_pages[i] = ri.value().pages;
  }

  auto tree =
      WriteSkeletalTree<IntNodeRec>(dev_, recs, lefts, rights, root_idx);
  if (!tree.ok()) return tree.status();
  const SkeletalTreeInfo& info = tree.value();
  root_ = info.root;
  storage_.skeletal = info.pages;
  for (PageId p : info.page_ids) owned_pages_.push_back(p);
  if (!opts_.enable_path_caching) return Status::OK();

  // Direction-split caches at page roots and fat leaves.
  auto is_page_root = [&](int32_t idx) { return info.refs[idx].slot == 0; };
  for (size_t i = 0; i < nodes.size(); ++i) {
    const bool boundary = is_page_root(static_cast<int32_t>(i)) ||
                          nodes[i].is_leaf;
    if (!boundary) continue;

    NodeCache cache;
    std::vector<SrcInterval> cl, cr;
    int32_t child = static_cast<int32_t>(i);
    for (int32_t u = nodes[i].parent; u >= 0 && !is_page_root(u);
         u = nodes[u].parent) {
      const bool went_left = (nodes[u].left == child);
      child = u;
      const auto& lst = went_left ? l_sorted[u] : r_sorted[u];
      const auto& pages = went_left ? l_pages[u] : r_pages[u];
      const uint32_t contributed =
          std::min<uint32_t>(B, static_cast<uint32_t>(lst.size()));
      if (went_left) {
        const uint32_t ord = static_cast<uint32_t>(cache.ancs.size());
        for (uint32_t k = 0; k < contributed; ++k) {
          cl.push_back(SrcInterval::From(lst[k], ord));
        }
        cache.ancs.push_back(
            AncInfo{pages.size() > 1 ? pages[1] : kInvalidPageId, contributed,
                    static_cast<uint32_t>(lst.size())});
      } else {
        const uint32_t ord = static_cast<uint32_t>(cache.sibs.size());
        for (uint32_t k = 0; k < contributed; ++k) {
          cr.push_back(SrcInterval::From(lst[k], ord));
        }
        cache.sibs.push_back(
            SibInfo{kNullNodeRef, kNullNodeRef,
                    pages.size() > 1 ? pages[1] : kInvalidPageId, contributed,
                    static_cast<uint32_t>(lst.size())});
      }
    }
    if (cache.ancs.empty() && cache.sibs.empty()) continue;
    std::sort(cl.begin(), cl.end(), [](const SrcInterval& a,
                                       const SrcInterval& b) {
      if (a.lo != b.lo) return a.lo < b.lo;
      return a.id < b.id;
    });
    std::sort(cr.begin(), cr.end(), [](const SrcInterval& a,
                                       const SrcInterval& b) {
      if (a.hi != b.hi) return a.hi > b.hi;
      return a.id < b.id;
    });
    auto cli =
        BuildBlockList<SrcInterval>(dev_, std::span<const SrcInterval>(cl));
    if (!cli.ok()) return cli.status();
    auto cri =
        BuildBlockList<SrcInterval>(dev_, std::span<const SrcInterval>(cr));
    if (!cri.ok()) return cri.status();
    cache.a_pages = cli.value().pages;
    cache.s_pages = cri.value().pages;
    cache.a_count = cl.size();
    cache.s_count = cr.size();
    // Tail keys for exact-prefix batching: CL scans ascending lo and stops
    // past q, CR scans descending hi and stops below q, so each page's last
    // record key bounds where the stop can land (see NodeCache).
    {
      const uint32_t src_cap = RecordsPerPage<SrcInterval>(dev_->page_size());
      for (size_t pg = 0; pg < cache.a_pages.size(); ++pg) {
        const size_t last =
            std::min(cl.size(), (pg + 1) * static_cast<size_t>(src_cap));
        cache.a_tails.push_back(cl[last - 1].lo);
      }
      for (size_t pg = 0; pg < cache.s_pages.size(); ++pg) {
        const size_t last =
            std::min(cr.size(), (pg + 1) * static_cast<size_t>(src_cap));
        cache.s_tails.push_back(cr[last - 1].hi);
      }
    }
    for (PageId p : cache.a_pages) owned_pages_.push_back(p);
    for (PageId p : cache.s_pages) owned_pages_.push_back(p);
    auto hp = dev_->Allocate();
    if (!hp.ok()) return hp.status();
    owned_pages_.push_back(hp.value());
    PC_RETURN_IF_ERROR(WriteCacheHeader(dev_, hp.value(), cache));
    storage_.cache_headers += 1;
    storage_.cache_blocks += cache.a_pages.size() + cache.s_pages.size();
    recs[i].cache_page = hp.value();
  }
  return RewriteSkeletalPages(dev_, info, recs, lefts, rights);
}

Status ExtIntervalTree::ScanList(int64_t q, PageId page, bool is_l_list,
                                 uint64_t QueryStats::* role,
                                 std::vector<Interval>* out,
                                 QueryStats* stats,
                                 uint64_t* consumed) const {
  const uint32_t cap = RecordsPerPage<Interval>(dev_->page_size());
  if (consumed != nullptr) *consumed = 0;
  // Early-stopping scan, filtered in place via a pinned frame: one counted
  // read per page either way.
  BlockPageView<Interval> view;
  PageId cur = page;
  uint64_t walked = 0;
  while (cur != kInvalidPageId) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, dev_->live_pages()));
    PC_RETURN_IF_ERROR(view.Load(dev_, cur));
    Bump(stats, role);
    uint64_t qual = 0;
    const auto recs = view.records();
    // The stop record (first lo > q on L-lists, first hi < q on R-lists)
    // is found in one vectorized pass over the key column.
    const size_t lim =
        recs.empty()
            ? 0
            : (is_l_list ? kernels::FindFirstAbove(&recs[0].lo,
                                                   sizeof(Interval),
                                                   recs.size(), q)
                         : kernels::FindFirstBelow(&recs[0].hi,
                                                   sizeof(Interval),
                                                   recs.size(), q));
    for (const auto& iv : recs.first(lim)) {
      if (consumed != nullptr) ++*consumed;
      if (iv.Contains(q)) {
        out->push_back(iv);
        ++qual;
      }
    }
    Classify(stats, qual, cap);
    if (lim < recs.size()) return Status::OK();
    cur = view.next();
  }
  return Status::OK();
}

Status ExtIntervalTree::ProcessCache(int64_t q, PageId cache_page,
                                     std::vector<Interval>* out,
                                     QueryStats* stats) const {
  if (cache_page == kInvalidPageId) return Status::OK();
  const uint32_t src_cap = RecordsPerPage<SrcInterval>(dev_->page_size());
  NodeCache cache;
  PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, cache_page, &cache));
  Bump(stats, &QueryStats::cache);
  Bump(stats, &QueryStats::wasteful);

  // CL: left-direction ancestors, ascending lo, scan while lo <= q.  With
  // tail keys the stop page — the first whose last lo exceeds q — is known
  // up front, so the exact prefix is fetched batched.
  std::vector<uint32_t> cl_consumed(cache.ancs.size(), 0);
  bool stop = false;
  bool bad_src = false;
  auto scan_cl_page = [&](std::span<const SrcInterval> recs) {
    Bump(stats, &QueryStats::cache);
    uint64_t qual = 0;
    // Hoisted stop (first lo > q), then the unchanged per-record tally and
    // containment filter over the prefix before it.
    const size_t limit =
        recs.empty() ? 0
                     : kernels::FindFirstAbove(&recs[0].lo,
                                               sizeof(SrcInterval),
                                               recs.size(), q);
    if (limit < recs.size()) stop = true;
    for (const SrcInterval& si : recs.first(limit)) {
      if (si.src >= cl_consumed.size()) {
        bad_src = true;
        stop = true;
        break;
      }
      ++cl_consumed[si.src];
      if (si.ToInterval().Contains(q)) {
        out->push_back(si.ToInterval());
        ++qual;
      }
    }
    Classify(stats, qual, src_cap);
  };
  if (opts_.enable_readahead &&
      cache.a_tails.size() == cache.a_pages.size()) {
    const size_t n_tails = cache.a_tails.size();
    const size_t hit = kernels::FindFirstAbove(cache.a_tails.data(),
                                               sizeof(int64_t), n_tails, q);
    const size_t prefix = hit == n_tails ? n_tails : hit + 1;
    BlockListCursor<SrcInterval> cur(
        dev_, std::span<const PageId>(cache.a_pages.data(), prefix));
    std::vector<SrcInterval> recs;
    while (!cur.done()) {
      recs.clear();
      PC_RETURN_IF_ERROR(cur.NextBlock(&recs));
      scan_cl_page(recs);
    }
  } else {
    BlockPageView<SrcInterval> view;
    for (PageId p : cache.a_pages) {
      if (stop) break;
      PC_RETURN_IF_ERROR(view.Load(dev_, p));
      scan_cl_page(view.records());
    }
  }
  if (bad_src) {
    return Status::Corruption(
        "CL cache record names a source ordinal beyond the cache's ancestor "
        "table");
  }
  for (size_t k = 0; k < cache.ancs.size(); ++k) {
    const AncInfo& a = cache.ancs[k];
    if (cl_consumed[k] == a.contributed && a.contributed < a.total &&
        a.x_next != kInvalidPageId) {
      PC_RETURN_IF_ERROR(ScanList(q, a.x_next, /*is_l_list=*/true,
                                  &QueryStats::ancestor, out, stats,
                                  nullptr));
    }
  }

  // CR: right-direction ancestors, descending hi, scan while hi >= q.
  std::vector<uint32_t> cr_consumed(cache.sibs.size(), 0);
  stop = false;
  bad_src = false;
  auto scan_cr_page = [&](std::span<const SrcInterval> recs) {
    Bump(stats, &QueryStats::cache);
    uint64_t qual = 0;
    const size_t limit =
        recs.empty() ? 0
                     : kernels::FindFirstBelow(&recs[0].hi,
                                               sizeof(SrcInterval),
                                               recs.size(), q);
    if (limit < recs.size()) stop = true;
    for (const SrcInterval& si : recs.first(limit)) {
      if (si.src >= cr_consumed.size()) {
        bad_src = true;
        stop = true;
        break;
      }
      ++cr_consumed[si.src];
      if (si.ToInterval().Contains(q)) {
        out->push_back(si.ToInterval());
        ++qual;
      }
    }
    Classify(stats, qual, src_cap);
  };
  if (opts_.enable_readahead &&
      cache.s_tails.size() == cache.s_pages.size()) {
    const size_t n_tails = cache.s_tails.size();
    const size_t hit = kernels::FindFirstBelow(cache.s_tails.data(),
                                               sizeof(int64_t), n_tails, q);
    const size_t prefix = hit == n_tails ? n_tails : hit + 1;
    BlockListCursor<SrcInterval> cur(
        dev_, std::span<const PageId>(cache.s_pages.data(), prefix));
    std::vector<SrcInterval> recs;
    while (!cur.done()) {
      recs.clear();
      PC_RETURN_IF_ERROR(cur.NextBlock(&recs));
      scan_cr_page(recs);
    }
  } else {
    BlockPageView<SrcInterval> view;
    for (PageId p : cache.s_pages) {
      if (stop) break;
      PC_RETURN_IF_ERROR(view.Load(dev_, p));
      scan_cr_page(view.records());
    }
  }
  if (bad_src) {
    return Status::Corruption(
        "CR cache record names a source ordinal beyond the cache's sibling "
        "table");
  }
  for (size_t k = 0; k < cache.sibs.size(); ++k) {
    const SibInfo& s = cache.sibs[k];
    if (cr_consumed[k] == s.contributed && s.contributed < s.total &&
        s.y_next != kInvalidPageId) {
      PC_RETURN_IF_ERROR(ScanList(q, s.y_next, /*is_l_list=*/false,
                                  &QueryStats::ancestor, out, stats,
                                  nullptr));
    }
  }
  return Status::OK();
}

Status ExtIntervalTree::Stab(int64_t q, std::vector<Interval>* out,
                             QueryStats* stats) const {
  if (!root_.valid()) return Status::OK();
  SkeletalTreeReader<IntNodeRec> reader(dev_);
  NodeRef cur = root_;
  uint64_t nav_before = reader.pages_read();
  const uint64_t limit = SkeletalWalkLimit<IntNodeRec>(dev_);
  uint64_t steps = 0;
  for (;;) {
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(steps++, limit));
    IntNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(cur, &rec));
    if (rec.is_leaf != 0) {
      if (stats != nullptr) {
        stats->navigation += reader.pages_read() - nav_before;
        stats->wasteful += reader.pages_read() - nav_before;
      }
      if (opts_.enable_path_caching) {
        PC_RETURN_IF_ERROR(ProcessCache(q, rec.cache_page, out, stats));
      }
      if (rec.pool_page != kInvalidPageId) {
        // Pool: O(1) blocks, filtered in memory; always a full-chain read,
        // so chain readahead is exact.
        const uint32_t cap = RecordsPerPage<Interval>(dev_->page_size());
        BlockListCursor<Interval> pool(dev_, rec.pool_page);
        if (opts_.enable_readahead) pool.EnableChainReadahead();
        std::vector<Interval> ivs;
        while (!pool.done()) {
          ivs.clear();
          PC_RETURN_IF_ERROR(pool.NextBlock(&ivs));
          Bump(stats, &QueryStats::descendant);
          uint64_t qual = 0;
          for (const auto& iv : ivs) {
            if (iv.Contains(q)) {
              out->push_back(iv);
              ++qual;
            }
          }
          Classify(stats, qual, cap);
        }
      }
      break;
    }

    const bool boundary = (cur.slot == 0);
    if (boundary && opts_.enable_path_caching) {
      PC_RETURN_IF_ERROR(ProcessCache(q, rec.cache_page, out, stats));
    }
    if ((boundary || !opts_.enable_path_caching) && rec.count > 0) {
      // Own list read directly: L when the stab is left of the center.
      const bool left_dir = q < rec.center;
      PC_RETURN_IF_ERROR(ScanList(q, left_dir ? rec.l_head : rec.r_head,
                                  left_dir, &QueryStats::ancestor, out, stats,
                                  nullptr));
    }
    cur = (q < rec.center) ? rec.left : rec.right;
    if (!cur.valid()) break;  // defensive; internals always have children
  }
  if (stats != nullptr) stats->records_reported = out->size();
  return Status::OK();
}

Status ExtIntervalTree::Destroy() {
  for (PageId p : owned_pages_) PC_RETURN_IF_ERROR(dev_->Free(p));
  owned_pages_.clear();
  root_ = kNullNodeRef;
  n_ = 0;
  storage_ = StorageBreakdown{};
  return Status::OK();
}

Result<PageId> ExtIntervalTree::Save() {
  auto list =
      BuildBlockList<PageId>(dev_, std::span<const PageId>(owned_pages_));
  if (!list.ok()) return list.status();
  auto mp = dev_->Allocate();
  if (!mp.ok()) return mp.status();

  PstManifestHeader hdr;
  hdr.magic = kExtIntTreeMagic;
  hdr.n = n_;
  hdr.root = root_;
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

Status ExtIntervalTree::Open(PageId manifest) {
  if (root_.valid() || !owned_pages_.empty()) {
    return Status::FailedPrecondition("Open on a non-empty structure");
  }
  PstManifestHeader hdr;
  std::vector<PageId> owned, chain;
  PC_RETURN_IF_ERROR(internal::ReadManifest(
      dev_, manifest, kExtIntTreeMagic, &hdr, &owned, nullptr, &chain));
  n_ = hdr.n;
  root_ = hdr.root;
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

Status ExtIntervalTree::CheckStructure() const {
  if (!root_.valid()) {
    return n_ == 0 ? Status::OK()
                   : Status::Corruption("no root for non-empty structure");
  }
  const uint32_t B = RecordsPerPage<Interval>(dev_->page_size());
  const uint32_t src_cap = RecordsPerPage<SrcInterval>(dev_->page_size());
  SkeletalTreeReader<IntNodeRec> reader(dev_);
  const uint64_t walk_limit = SkeletalWalkLimit<IntNodeRec>(dev_);
  uint64_t walk_steps = 0;

  auto lt_lo = [](const SrcInterval& a, const SrcInterval& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.id < b.id;
  };
  auto lt_hi = [](const SrcInterval& a, const SrcInterval& b) {
    if (a.hi != b.hi) return a.hi > b.hi;
    return a.id < b.id;
  };
  // Ties under the build's sort keys are stored in unspecified order, so
  // cache contents are compared as multisets under a total order.
  auto lt_full = [](const SrcInterval& a, const SrcInterval& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    if (a.hi != b.hi) return a.hi < b.hi;
    if (a.id != b.id) return a.id < b.id;
    return a.src < b.src;
  };

  // DFS with an explicit unwind marker: the caches replicate the first
  // blocks of the strictly-in-page ancestors' L/R lists, so those blocks
  // (and the lists' continuation pages) ride along on the chain.
  struct ChainEnt {
    bool page_root;
    int8_t side;  // 0 = left child of its parent, 1 = right, -1 = root
    uint32_t count = 0;
    std::vector<Interval> l_first, r_first;  // first list block each
    PageId l_next = kInvalidPageId, r_next = kInvalidPageId;
  };
  struct Item {
    NodeRef ref;
    int8_t side = -1;
    bool has_lo = false, has_hi = false;
    int64_t lo = 0, hi = 0;  // open bounds on centers and interval spans
    bool unwind = false;
  };
  std::vector<ChainEnt> chain;
  std::vector<Item> stack;
  stack.push_back(Item{root_});
  uint64_t total = 0;

  while (!stack.empty()) {
    Item it = stack.back();
    stack.pop_back();
    if (it.unwind) {
      chain.pop_back();
      continue;
    }
    PC_RETURN_IF_ERROR(CheckSkeletalWalkStep(walk_steps++, walk_limit));

    IntNodeRec rec;
    PC_RETURN_IF_ERROR(reader.Read(it.ref, &rec));
    if (it.has_lo && rec.center <= it.lo) {
      return Status::Corruption("center below subtree bound");
    }
    if (it.has_hi && rec.center >= it.hi) {
      return Status::Corruption("center above subtree bound");
    }
    const bool leaf = rec.is_leaf != 0;
    total += rec.count;

    auto in_bounds = [&](const Interval& iv) {
      if (it.has_lo && iv.lo <= it.lo) return false;
      if (it.has_hi && iv.hi >= it.hi) return false;
      return true;
    };

    ChainEnt ent;
    ent.page_root = it.ref.slot == 0;
    ent.side = it.side;
    ent.count = rec.count;

    if (leaf) {
      if (rec.left.valid() || rec.right.valid()) {
        return Status::Corruption("fat leaf with children");
      }
      if (rec.l_head != kInvalidPageId || rec.r_head != kInvalidPageId) {
        return Status::Corruption("L/R lists on a fat leaf");
      }
      std::vector<Interval> pool;
      PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.pool_page,
                                                  &pool));
      if (pool.size() != rec.count) {
        return Status::Corruption("leaf pool count mismatch");
      }
      for (const Interval& iv : pool) {
        if (!in_bounds(iv)) {
          return Status::Corruption("leaf pool interval escapes its span");
        }
      }
    } else {
      if (!rec.left.valid() || !rec.right.valid()) {
        return Status::Corruption("internal node missing a child");
      }
      if (rec.pool_page != kInvalidPageId) {
        return Status::Corruption("pool on an internal node");
      }
      if (rec.count == 0) {
        if (rec.l_head != kInvalidPageId || rec.r_head != kInvalidPageId) {
          return Status::Corruption("lists on an empty crossing set");
        }
      } else if (rec.l_head == kInvalidPageId ||
                 rec.r_head == kInvalidPageId) {
        return Status::Corruption("missing L/R list");
      }
      std::vector<Interval> l, r;
      PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.l_head, &l,
                                                  &ent.l_next));
      PC_RETURN_IF_ERROR(ReadBlockChain<Interval>(dev_, rec.r_head, &r,
                                                  &ent.r_next));
      if (l.size() != rec.count || r.size() != rec.count) {
        return Status::Corruption("L/R list count mismatch");
      }
      for (size_t i = 0; i < l.size(); ++i) {
        if (i > 0 && (l[i].lo < l[i - 1].lo ||
                      (l[i].lo == l[i - 1].lo && l[i].id < l[i - 1].id))) {
          return Status::Corruption("L-list not ascending by lo");
        }
        if (i > 0 && (r[i].hi > r[i - 1].hi ||
                      (r[i].hi == r[i - 1].hi && r[i].id < r[i - 1].id))) {
          return Status::Corruption("R-list not descending by hi");
        }
        if (!l[i].Contains(rec.center) || !r[i].Contains(rec.center)) {
          return Status::Corruption(
              "crossing-set interval misses its center");
        }
        if (!in_bounds(l[i])) {
          return Status::Corruption("crossing-set interval escapes bounds");
        }
      }
      auto key = [](const Interval& iv) {
        return std::tuple<uint64_t, int64_t, int64_t>(iv.id, iv.lo, iv.hi);
      };
      std::vector<std::tuple<uint64_t, int64_t, int64_t>> lk, rk;
      for (const Interval& iv : l) lk.push_back(key(iv));
      for (const Interval& iv : r) rk.push_back(key(iv));
      std::sort(lk.begin(), lk.end());
      std::sort(rk.begin(), rk.end());
      if (lk != rk) {
        return Status::Corruption("L and R lists hold different intervals");
      }
      ent.l_first.assign(l.begin(),
                         l.begin() + std::min<size_t>(l.size(), B));
      ent.r_first.assign(r.begin(),
                         r.begin() + std::min<size_t>(r.size(), B));
    }

    chain.push_back(std::move(ent));
    {
      Item unwind;
      unwind.unwind = true;
      stack.push_back(unwind);
    }

    // Cache: page roots and fat leaves carry a direction-split copy of the
    // first L- or R-blocks of the strictly-in-page ancestor path.
    const bool boundary = (it.ref.slot == 0) || leaf;
    if (!opts_.enable_path_caching || !boundary) {
      if (rec.cache_page != kInvalidPageId) {
        return Status::Corruption("cache on a non-boundary node");
      }
    } else {
      struct ExpectEnt {
        PageId next;
        uint32_t contributed, total;
      };
      std::vector<ExpectEnt> expect_ancs, expect_sibs;
      std::vector<SrcInterval> expect_cl, expect_cr;
      for (size_t j = chain.size() - 1; j-- > 0;) {
        if (chain[j].page_root) break;
        const ChainEnt& u = chain[j];
        const bool went_left = chain[j + 1].side == 0;
        const uint32_t contributed =
            std::min<uint32_t>(B, u.count);
        if (went_left) {
          const uint32_t ord = static_cast<uint32_t>(expect_ancs.size());
          for (uint32_t k = 0; k < contributed; ++k) {
            expect_cl.push_back(SrcInterval::From(u.l_first[k], ord));
          }
          expect_ancs.push_back(ExpectEnt{u.l_next, contributed, u.count});
        } else {
          const uint32_t ord = static_cast<uint32_t>(expect_sibs.size());
          for (uint32_t k = 0; k < contributed; ++k) {
            expect_cr.push_back(SrcInterval::From(u.r_first[k], ord));
          }
          expect_sibs.push_back(ExpectEnt{u.r_next, contributed, u.count});
        }
      }
      if (expect_ancs.empty() && expect_sibs.empty()) {
        if (rec.cache_page != kInvalidPageId) {
          return Status::Corruption("cache present with no in-page ancestors");
        }
      } else {
        if (rec.cache_page == kInvalidPageId) {
          return Status::Corruption("missing cache");
        }
        NodeCache cache;
        PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, rec.cache_page, &cache));
        if (cache.ancs.size() != expect_ancs.size() ||
            cache.sibs.size() != expect_sibs.size()) {
          return Status::Corruption("cache directory size mismatch");
        }
        uint64_t cl_sum = 0, cr_sum = 0;
        for (size_t ord = 0; ord < expect_ancs.size(); ++ord) {
          const AncInfo& a = cache.ancs[ord];
          if (a.x_next != expect_ancs[ord].next ||
              a.contributed != expect_ancs[ord].contributed ||
              a.total != expect_ancs[ord].total) {
            return Status::Corruption("CL directory entry stale");
          }
          cl_sum += a.contributed;
        }
        for (size_t ord = 0; ord < expect_sibs.size(); ++ord) {
          const SibInfo& s = cache.sibs[ord];
          if (s.left != kNullNodeRef || s.right != kNullNodeRef ||
              s.y_next != expect_sibs[ord].next ||
              s.contributed != expect_sibs[ord].contributed ||
              s.total != expect_sibs[ord].total) {
            return Status::Corruption("CR directory entry stale");
          }
          cr_sum += s.contributed;
        }
        if (cache.a_count != cl_sum || cache.s_count != cr_sum) {
          return Status::Corruption("cache contributed sums mismatch");
        }
        std::vector<SrcInterval> cl, cr;
        {
          BlockListCursor<SrcInterval> cur(
              dev_, std::span<const PageId>(cache.a_pages));
          while (!cur.done()) PC_RETURN_IF_ERROR(cur.NextBlock(&cl));
          BlockListCursor<SrcInterval> cur2(
              dev_, std::span<const PageId>(cache.s_pages));
          while (!cur2.done()) PC_RETURN_IF_ERROR(cur2.NextBlock(&cr));
        }
        if (cl.size() != cache.a_count || cr.size() != cache.s_count) {
          return Status::Corruption("cache record count mismatch");
        }
        for (size_t i = 1; i < cl.size(); ++i) {
          if (lt_lo(cl[i], cl[i - 1])) {
            return Status::Corruption("CL not ascending by lo");
          }
        }
        for (size_t i = 1; i < cr.size(); ++i) {
          if (lt_hi(cr[i], cr[i - 1])) {
            return Status::Corruption("CR not descending by hi");
          }
        }
        // Tail keys against the stored order (what the query batches on).
        if (!cache.a_tails.empty()) {
          if (cache.a_tails.size() != cache.a_pages.size()) {
            return Status::Corruption("CL tail directory size mismatch");
          }
          for (size_t pg = 0; pg < cache.a_pages.size(); ++pg) {
            const size_t last = std::min<size_t>(
                cl.size(), (pg + 1) * static_cast<size_t>(src_cap));
            if (cache.a_tails[pg] != cl[last - 1].lo) {
              return Status::Corruption("CL tail key stale");
            }
          }
        }
        if (!cache.s_tails.empty()) {
          if (cache.s_tails.size() != cache.s_pages.size()) {
            return Status::Corruption("CR tail directory size mismatch");
          }
          for (size_t pg = 0; pg < cache.s_pages.size(); ++pg) {
            const size_t last = std::min<size_t>(
                cr.size(), (pg + 1) * static_cast<size_t>(src_cap));
            if (cache.s_tails[pg] != cr[last - 1].hi) {
              return Status::Corruption("CR tail key stale");
            }
          }
        }
        std::sort(cl.begin(), cl.end(), lt_full);
        std::sort(cr.begin(), cr.end(), lt_full);
        std::sort(expect_cl.begin(), expect_cl.end(), lt_full);
        std::sort(expect_cr.begin(), expect_cr.end(), lt_full);
        auto same = [](const std::vector<SrcInterval>& a,
                       const std::vector<SrcInterval>& b) {
          for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].lo != b[i].lo || a[i].hi != b[i].hi ||
                a[i].id != b[i].id || a[i].src != b[i].src) {
              return false;
            }
          }
          return true;
        };
        if (!same(cl, expect_cl) || !same(cr, expect_cr)) {
          return Status::Corruption(
              "cache contents diverge from the ancestor lists");
        }
      }
    }

    if (!leaf) {
      Item right = it;
      right.ref = rec.right;
      right.side = 1;
      right.has_lo = true;
      right.lo = rec.center;
      stack.push_back(right);
      Item left = it;
      left.ref = rec.left;
      left.side = 0;
      left.has_hi = true;
      left.hi = rec.center;
      stack.push_back(left);
    }
  }
  if (total != n_) return Status::Corruption("total interval count mismatch");
  return Status::OK();
}

Status ExtIntervalTree::Cluster() {
  if (!root_.valid()) return Status::OK();

  std::vector<PageTreeNode> ptree;
  PC_RETURN_IF_ERROR(
      CollectSkeletalPageTree<IntNodeRec>(dev_, root_, &ptree));
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
          static_cast<uint32_t>(sizeof(hdr) + s * sizeof(IntNodeRec));
      plan.AddRef(pid, base + offsetof(IntNodeRec, left) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(IntNodeRec, right) +
                           offsetof(NodeRef, page));
      plan.AddRef(pid, base + offsetof(IntNodeRec, l_head));
      plan.AddRef(pid, base + offsetof(IntNodeRec, r_head));
      plan.AddRef(pid, base + offsetof(IntNodeRec, pool_page));
      plan.AddRef(pid, base + offsetof(IntNodeRec, cache_page));
    }
  }

  // Pass 2: each node's cluster — direction-split cache (header + CL/CR
  // chains; its continuation pointers into ancestors' lists are registered
  // by AppendCachePagesToPlan and remapped with those lists), then the L/R
  // lists or the leaf pool — in descent order.
  for (uint32_t pi : veb) {
    const PageId pid = ptree[pi].id;
    PC_RETURN_IF_ERROR(dev_->Read(pid, buf.data()));
    SkeletalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    for (uint32_t s = 0; s < hdr.count; ++s) {
      IntNodeRec rec;
      std::memcpy(&rec, buf.data() + sizeof(hdr) + s * sizeof(IntNodeRec),
                  sizeof(rec));
      if (rec.cache_page != kInvalidPageId) {
        NodeCache cache;
        PC_RETURN_IF_ERROR(ReadCacheHeader(dev_, rec.cache_page, &cache));
        AppendCachePagesToPlan(rec.cache_page, cache, &plan);
      }
      for (PageId head : {rec.l_head, rec.r_head, rec.pool_page}) {
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
