// On-disk formats shared by the external priority-search-tree variants.
//
// Terminology (Sections 3-4 of the paper):
//  * A-list: cache of the points of a node's segment-local ancestors, sorted
//    right-to-left (descending x).  Ancestor points automatically satisfy the
//    y-constraint of a query whose corner is at/below the node, so scanning
//    the A-list until x drops below the query edge reports them with at most
//    one wasteful I/O.
//  * S-list: cache of the points of the right siblings hanging off the
//    segment-local path, sorted top-to-bottom (descending y) and tagged with
//    their source sibling so the query can tell when a sibling was consumed
//    entirely (the signal to descend into its children).
//  * Path segments: the root-to-node path is cut into pieces of `seg_len`
//    (~log2 B) nodes; every node caches only its segment-local prefix, and a
//    query reads one cache per segment — O(log_B n) caches total.

#ifndef PATHCACHE_CORE_PST_COMMON_H_
#define PATHCACHE_CORE_PST_COMMON_H_

#include <vector>

#include "core/skeletal.h"
#include "io/block_list.h"
#include "io/layout.h"
#include "util/geometry.h"

namespace pathcache {

/// A cached point tagged with the ordinal of its source node within the
/// cache's directory.
struct SrcPoint {
  int64_t x = 0;
  int64_t y = 0;
  uint64_t id = 0;
  uint32_t src = 0;
  uint32_t pad = 0;

  Point ToPoint() const { return Point{x, y, id}; }
  static SrcPoint From(const Point& p, uint32_t src_ordinal) {
    return SrcPoint{p.x, p.y, p.id, src_ordinal, 0};
  }
};
static_assert(sizeof(SrcPoint) == 32);

/// Directory entry for one ancestor covered by an A-list (two-level scheme:
/// the cache holds only the ancestor's first X-block, and `x_next` continues
/// into the rest of its X-list).
struct AncInfo {
  PageId x_next = kInvalidPageId;  // X-list continuation (invalid if none)
  uint32_t contributed = 0;        // points of this ancestor in the A-list
  uint32_t total = 0;              // total points stored at the ancestor
};
static_assert(sizeof(AncInfo) == 16);

/// Directory entry for one sibling covered by an S-list.
struct SibInfo {
  NodeRef left;                    // children of the sibling region
  NodeRef right;
  PageId y_next = kInvalidPageId;  // Y-list continuation (two-level scheme)
  uint32_t contributed = 0;        // points of this sibling in the S-list
  uint32_t total = 0;              // total points stored at the sibling
};
static_assert(sizeof(SibInfo) == 48);

/// Fixed-size prefix of a cache header page; the variable arrays follow it
/// back to back: PageId a_pages[], PageId s_pages[], AncInfo[], SibInfo[].
struct CachePageHeader {
  uint32_t a_pages = 0;
  uint32_t s_pages = 0;
  uint32_t anc_count = 0;
  uint32_t sib_count = 0;
  uint64_t a_count = 0;  // records across the A blocks
  uint64_t s_count = 0;  // records across the S blocks
};
static_assert(sizeof(CachePageHeader) == 32);

/// In-memory form of a node's cache, (de)serialized to one header page plus
/// BlockLists for the A and S record streams.
///
/// `a_tails` / `s_tails` hold the sort key of the LAST record of each A/S
/// page (descending x for A, descending y for S).  A scan that stops at
/// `key < bound` therefore ends in the first page whose tail key is below
/// the bound, so the exact set of pages it will touch is computable before
/// issuing any I/O — that is what lets the query batch its cache reads
/// without ever reading a page the sequential scan would not have.  The
/// tails are an optional trailer on the header page (see WriteCacheHeader);
/// when absent after a read, the vectors are empty and callers fall back to
/// page-at-a-time scanning.
struct NodeCache {
  std::vector<PageId> a_pages;
  std::vector<PageId> s_pages;
  std::vector<AncInfo> ancs;
  std::vector<SibInfo> sibs;
  std::vector<int64_t> a_tails;
  std::vector<int64_t> s_tails;
  uint64_t a_count = 0;
  uint64_t s_count = 0;
};

/// Marker preceding the optional tail-key trailer on a cache header page.
/// Pages are zero-initialized, so a pre-trailer header can never alias it.
inline constexpr uint64_t kCacheTailMagic = 0x5043'5441'494C'5331ULL;

/// Serializes `cache` into the (already allocated) header page.
Status WriteCacheHeader(PageDevice* dev, PageId page, const NodeCache& cache);

/// Reads a cache header page back.
Status ReadCacheHeader(PageDevice* dev, PageId page, NodeCache* out);

/// Registers a cache header page and its A/S chains in a layout plan:
/// appends [header, A chain, S chain] to the plan's order and registers
/// every PageId slot the header page stores (the A/S page directories, the
/// ancestors' X-list continuations, the siblings' child NodeRefs and Y-list
/// continuations), so ApplyLayout can relocate and rewrite the whole
/// cluster.  `cache` must be the header's current contents.
void AppendCachePagesToPlan(PageId header_page, const NodeCache& cache,
                            LayoutPlan* plan);

/// Bytes the header page needs for the given shape.
uint64_t CacheHeaderBytes(uint32_t a_pages, uint32_t s_pages,
                          uint32_t anc_count, uint32_t sib_count);

/// Largest segment length s <= want such that a worst-case cache header
/// (s+1 ancestors and s siblings contributing up to `max_contrib_per_node`
/// cached records each) fits one page.  Returns at least 1.
uint32_t FitSegmentLen(uint32_t page_size, uint32_t want,
                       uint32_t max_contrib_per_node);

/// Skeletal node record of the flat (one-level) external PST.
struct PstNodeRec {
  int64_t split_x = 0;
  uint64_t split_id = 0;
  int64_t y_min = INT64_MAX;
  NodeRef left;
  NodeRef right;
  PageId points_page = kInvalidPageId;  // region points, descending y
  PageId cache_page = kInvalidPageId;   // invalid when caching is off
  uint32_t count = 0;
  uint32_t depth = 0;
};
static_assert(sizeof(PstNodeRec) == 80);

/// On-disk manifest shared by the persistable structures: Save() writes one
/// of these plus a chained list of the owned pages (and, for recursive
/// structures, a chained list of child manifest ids); Open() restores the
/// in-memory handle from it.  The magic doubles as the type tag for
/// polymorphic reopening.
inline constexpr uint64_t kExternalPstMagic = 0x31545350'43500001ULL;
inline constexpr uint64_t kTwoLevelPstMagic = 0x32545350'43500002ULL;
inline constexpr uint64_t kThreeSidedPstMagic = 0x33545350'43500003ULL;
inline constexpr uint64_t kExtSegTreeMagic = 0x34545350'43500004ULL;
inline constexpr uint64_t kExtIntTreeMagic = 0x35545350'43500005ULL;

/// Manifest format history.  Version 1 (implicit: the field reads 0 from
/// pre-versioning manifests, accepted as 1) is the original layout; version
/// 2 adds the trailing `format_version` itself and blesses stores written
/// through a ChecksumPageDevice (the header layout is unchanged — page
/// payloads just shrink by the checksum trailer); version 3 stamps
/// `header_crc` (CRC32C over the header bytes with that field zeroed) so a
/// single flipped bit anywhere in the header — including fields no open
/// path interprets, like the storage breakdown — degrades to Corruption
/// instead of a silently wrong handle; version 4 marked stores whose block
/// pages and B+-tree nodes might use the deinterleaved page format v3
/// (keys split from payloads).  That format is dropped: no reader decodes
/// it, so a version-4 manifest is rejected with NotSupported.  Version 5
/// writes only the interleaved layout, the same bytes versions 1-3 always
/// held, so those older stores open unchanged.  Readers verify the CRC on
/// every manifest (all extant stores are written by this code), accept
/// versions 1-3 and 5, and reject newer ones with Corruption instead of
/// misparsing pages from a future writer.
inline constexpr uint32_t kManifestFormatVersion = 5;

/// The one manifest version that may hold page format v3, now unreadable.
inline constexpr uint32_t kDroppedPackedManifestVersion = 4;

struct PstManifestHeader {
  uint64_t magic = 0;
  uint64_t n = 0;
  NodeRef root;
  uint32_t region_size = 0;
  uint32_t seg_len = 0;
  uint32_t caching = 1;
  uint32_t levels = 0;
  uint64_t skeletal = 0;
  uint64_t points_pages = 0;
  uint64_t cache_headers = 0;
  uint64_t cache_blocks = 0;
  uint64_t second_level = 0;
  PageId owned_head = kInvalidPageId;     // BlockList<PageId> of owned pages
  uint64_t owned_count = 0;
  PageId children_head = kInvalidPageId;  // BlockList<PageId> of manifests
  uint64_t children_count = 0;
  uint64_t aux = 0;  // structure-specific (ExtSegmentTree: stored copies)
  // New fields go below so legacy manifests (zero-filled slack) read 0.
  uint32_t format_version = 0;  // stamped by WriteManifestHeader
  uint32_t header_crc = 0;      // CRC32C of the header, this field as 0
};
static_assert(sizeof(PstManifestHeader) <= 256);
// The CRC is computed over the raw struct bytes, so the layout must stay
// free of implicit padding (whose value memcpy would not pin down).
static_assert(sizeof(PstManifestHeader) == 136);

/// Page accounting for the space-bound experiments (Lemmas 3.1/4.1/4.2).
struct StorageBreakdown {
  uint64_t skeletal = 0;
  uint64_t points = 0;         // region point pages (X+Y lists in 2-level)
  uint64_t cache_headers = 0;
  uint64_t cache_blocks = 0;
  uint64_t second_level = 0;   // two-level scheme only

  uint64_t total() const {
    return skeletal + points + cache_headers + cache_blocks + second_level;
  }
};

}  // namespace pathcache

#endif  // PATHCACHE_CORE_PST_COMMON_H_
