// Fully dynamic two-level external PST for 2-sided queries — Section 5 of
// the paper (Theorem 5.1): O(log_B n + t/B) queries and O(log_B n)
// amortized I/Os per insert or delete at O((n/B) log log B) space.
//
// Dynamization follows the paper's buffer scheme:
//
//  * The top tree is partitioned into SUPERNODES: subtrees of height
//    hs = log B - log log B.  Cache path-segments are aligned with
//    supernodes, so no A/S cache ever references data outside its
//    supernode — rebuilding a supernode's caches after updates costs
//    O((B / log B) * log B) = O(B) I/Os, amortized O(1) over the ~B
//    updates that trigger it.
//  * Every supernode root carries an update buffer U of one page.  An
//    update appends to the ROOT supernode's buffer (O(1) I/Os); overflow
//    flushes the buffer, routing each record down by heap position — a
//    record belongs to the first region whose y-band contains it — either
//    applying it to a region in this supernode (X/Y lists rebuilt, caches
//    of the supernode refreshed) or forwarding it to a child supernode's
//    buffer, recursively.
//  * Each region keeps a second buffer u of records already applied to its
//    X/Y lists but not yet to its second-level structure; overflow rebuilds
//    the second level (O(log B log log B) I/Os, amortized O(1)).
//  * Queries run the static two-level algorithm, then consult the buffers
//    of every supernode the query visited (path supernodes plus any entered
//    while chasing descendants) and the corner region's u, replaying the
//    pending operations in global sequence order.  Routing by y-band
//    guarantees a pending insert in an unvisited supernode lies outside the
//    query, so nothing is missed.
//
// Deviation from the paper (documented in DESIGN.md): instead of the
// per-supernode y-repartition with push/borrow, region sizes drift between
// flushes and a full rebuild runs every n/2 updates; the global rebuild
// amortizes to O(polylog(B)/B) = o(log_B n) per update, so the stated
// amortized bound is preserved and is verified empirically by bench E7.

#ifndef PATHCACHE_CORE_PST_DYNAMIC_H_
#define PATHCACHE_CORE_PST_DYNAMIC_H_

#include <memory>
#include <span>
#include <vector>

#include "core/pst_common.h"
#include "core/pst_external.h"
#include "core/query_stats.h"
#include "io/page_device.h"

namespace pathcache {

/// A buffered update: insert or delete of a point, with a global sequence
/// number so queries can replay pending operations in order.
struct UpdateRec {
  int64_t x = 0;
  int64_t y = 0;
  uint64_t id = 0;
  uint32_t op = 0;  // 0 = insert, 1 = delete
  uint32_t seq = 0;

  Point ToPoint() const { return Point{x, y, id}; }
};
static_assert(sizeof(UpdateRec) == 32);

/// Overwrites the one-page update buffer `page` with `recs`; more than
/// RecordsPerPage<UpdateRec> records is InvalidArgument.  Buffers are read
/// back with ReadBlockPage (io/block_list.h), which checks the count word.
Status WriteUpdateBuffer(PageDevice* dev, PageId page,
                         std::span<const UpdateRec> recs);

/// Skeletal node record of the dynamic two-level PST.
struct DynNodeRec {
  int64_t split_x = 0;
  uint64_t split_id = 0;
  int64_t y_min = INT64_MAX;   // composite (y_min, y_min_id) orders ties
  uint64_t y_min_id = 0;
  NodeRef left;
  NodeRef right;
  PageId x_head = kInvalidPageId;
  PageId y_head = kInvalidPageId;
  PageId cache_page = kInvalidPageId;
  PageId snode_u = kInvalidPageId;   // supernode buffer; supernode roots only
  PageId region_u = kInvalidPageId;  // second-level pending buffer
  uint32_t count = 0;
  uint32_t depth = 0;
  uint32_t region_ord = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(DynNodeRec) == 120);

struct DynamicPstOptions {
  /// Supernode height / cache segment length; 0 derives
  /// max(1, log2 B - log2 log2 B) from the page size.
  uint32_t segment_len = 0;
  /// Rebuild everything after this fraction-of-n updates (default 1/2).
  double rebuild_fraction = 0.5;
};

class DynamicPst {
 public:
  explicit DynamicPst(PageDevice* dev, DynamicPstOptions opts = {});
  ~DynamicPst();

  /// Bulk-builds the initial point set.  Point ids must be unique.
  Status Build(std::vector<Point> points);

  /// Inserts a point; the id must not currently exist in the structure.
  Status Insert(const Point& p);

  /// Deletes a point previously inserted (exact x, y, id).
  Status Erase(const Point& p);

  /// Reports all points with x >= q.x_min && y >= q.y_min.
  Status QueryTwoSided(const TwoSidedQuery& q, std::vector<Point>* out,
                       QueryStats* stats = nullptr) const;

  Status Destroy();

  uint64_t size() const { return live_count_; }
  uint32_t segment_len() const { return seg_len_; }
  StorageBreakdown storage() const;
  uint64_t rebuilds() const { return rebuilds_; }
  uint64_t flushes() const { return flushes_; }

 private:
  // In-memory mirror of the top-tree metadata (structure only, no data).
  struct Meta {
    int64_t split_x = 0;
    uint64_t split_id = 0;
    int64_t y_min = INT64_MAX;
    uint64_t y_min_id = 0;
    int32_t left = -1;
    int32_t right = -1;
    int32_t parent = -1;
    uint32_t depth = 0;
    uint32_t count = 0;
    std::vector<PageId> x_pages;
    std::vector<PageId> y_pages;
    std::vector<PageId> cache_a_pages;  // current A-list blocks
    std::vector<PageId> cache_s_pages;  // current S-list blocks
    PageId cache_page = kInvalidPageId;
    PageId snode_u = kInvalidPageId;
    PageId region_u = kInvalidPageId;
  };

  bool IsSupernodeRoot(int32_t idx) const {
    return meta_[idx].depth % seg_len_ == 0;
  }

  Status BuildInternal(std::vector<Point> points);
  Status DestroyInternal();
  Status AppendToBuffer(PageId buffer, const UpdateRec& rec, bool* overflow);
  Status Update(const Point& p, uint32_t op);
  Status FlushSupernode(int32_t snode_root);
  Status ApplyToRegion(int32_t v, const std::vector<UpdateRec>& recs);
  Status RebuildCachesOfSupernode(int32_t snode_root);
  Status RebuildCacheOf(int32_t v, const std::vector<int32_t>& chain);
  Status ReadRegionPoints(int32_t v, std::vector<Point>* out) const;
  Status MaybeGlobalRebuild();
  Status CollectAllPoints(std::vector<Point>* out) const;
  Status SyncRecsToDisk(const std::vector<int32_t>& changed);

  PageDevice* dev_;
  DynamicPstOptions opts_;
  uint32_t B_ = 0;          // points per page
  uint32_t seg_len_ = 1;    // supernode height == cache segment length
  uint32_t buf_cap_ = 0;    // UpdateRecs per buffer page
  uint64_t live_count_ = 0;
  uint64_t built_count_ = 0;        // points at last full (re)build
  uint64_t updates_since_build_ = 0;
  uint32_t next_seq_ = 1;
  uint64_t rebuilds_ = 0;
  uint64_t flushes_ = 0;

  std::vector<Meta> meta_;
  SkeletalTreeInfo tree_;  // layout of the top tree (refs, page members)
  std::vector<std::unique_ptr<ExternalPst>> second_;
  std::vector<uint32_t> region_u_counts_;  // mirror of on-disk u sizes
};

}  // namespace pathcache

#endif  // PATHCACHE_CORE_PST_DYNAMIC_H_
