// BlockList: a list of fixed-size records packed B-to-a-page on a
// PageDevice, scanned a block at a time.
//
// This is the storage shape the paper's accounting argument lives on: a list
// is read front-to-back, every full block read is a "useful" I/O (returns B
// records) and only the final partial block can be "wasteful".  Cover-lists,
// X/Y-lists and the A/S caches are all BlockLists.
//
// On-page layout:  [BlockPageHeader][record 0][record 1]...[record k-1]
// Records are stored interleaved, exactly as they sit in memory, so a loaded
// page is read in place.  Pages are chained via `next`; builders also return
// the page-id vector so callers that need random block access can keep a
// directory.

#ifndef PATHCACHE_IO_BLOCK_LIST_H_
#define PATHCACHE_IO_BLOCK_LIST_H_

#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "io/page_device.h"
#include "util/mathutil.h"

namespace pathcache {

struct BlockPageHeader {
  uint32_t count = 0;   // records on this page
  uint32_t contig = 0;  // id-contiguous successors: the next `contig` pages
                        // of the chain are this page's id + 1, + 2, ...
  PageId next = kInvalidPageId;
};
static_assert(sizeof(BlockPageHeader) == 16);

/// Default prefetch window (pages per batch) for readahead cursors.
constexpr uint32_t kDefaultReadahead = 8;

/// Handle to a stored BlockList.
struct BlockListRef {
  PageId head = kInvalidPageId;
  uint64_t count = 0;  // total records

  bool empty() const { return count == 0; }
};

/// Records per page for record type T on a device with the given page size.
template <typename T>
constexpr uint32_t RecordsPerPage(uint32_t page_size) {
  static_assert(std::is_trivially_copyable_v<T>);
  return (page_size - sizeof(BlockPageHeader)) / sizeof(T);
}

/// Validates a block page header read from untrusted storage: the record
/// count must fit the page.  A count word with stray high bits (such as the
/// flag bit 31 of the dropped packed page format) fails the same check.
/// (A `next` pointer cannot be validated locally — chain walkers bound
/// their step count by the device's live pages instead, so a corrupt
/// pointer that forms a cycle degrades to Corruption rather than an
/// infinite loop.)
inline Status CheckBlockPageHeader(const BlockPageHeader& hdr,
                                   uint32_t records_per_page) {
  if (hdr.count > records_per_page) {
    return Status::Corruption(
        "block page record count " + std::to_string(hdr.count) +
        " exceeds page capacity " + std::to_string(records_per_page));
  }
  return Status::OK();
}

/// Returns Corruption once a chain walk has consumed more pages than the
/// device held when the walk started — the only way that happens is a
/// corrupt `next` pointer forming a cycle.  Capture `device_live_pages`
/// before the walk (it may shrink mid-walk if the walker frees pages).
inline Status CheckChainStep(uint64_t pages_walked,
                             uint64_t device_live_pages) {
  if (pages_walked >= device_live_pages) {
    return Status::Corruption(
        "block chain longer than the device's " +
        std::to_string(device_live_pages) + " live pages (corrupt next "
        "pointer forming a cycle)");
  }
  return Status::OK();
}

/// Result of building a list: the scan handle plus the page directory.
struct BlockListInfo {
  BlockListRef ref;
  std::vector<PageId> pages;
};

/// Writes `records` as a chained BlockList.  One device write per page.
template <typename T>
Result<BlockListInfo> BuildBlockList(PageDevice* dev,
                                     std::span<const T> records) {
  BlockListInfo info;
  info.ref.count = records.size();
  if (records.empty()) return info;

  const uint32_t per_page = RecordsPerPage<T>(dev->page_size());
  const uint64_t num_pages = CeilDiv(records.size(), per_page);
  info.pages.reserve(num_pages);
  for (uint64_t i = 0; i < num_pages; ++i) {
    auto r = dev->Allocate();
    if (!r.ok()) return r.status();
    info.pages.push_back(r.value());
  }
  info.ref.head = info.pages[0];

  // contig[i] = length of the id-contiguous run following page i, so a
  // scanner that knows it will consume the rest of the chain can fetch the
  // run in one batch without a persisted directory.
  std::vector<uint32_t> contig(num_pages, 0);
  for (uint64_t i = num_pages - 1; i-- > 0;) {
    if (info.pages[i + 1] == info.pages[i] + 1) contig[i] = contig[i + 1] + 1;
  }

  std::vector<std::byte> buf(dev->page_size());
  uint64_t off = 0;
  for (uint64_t i = 0; i < num_pages; ++i) {
    const uint32_t here = static_cast<uint32_t>(
        std::min<uint64_t>(per_page, records.size() - off));
    BlockPageHeader hdr;
    hdr.count = here;
    hdr.contig = contig[i];
    hdr.next = (i + 1 < num_pages) ? info.pages[i + 1] : kInvalidPageId;
    std::memset(buf.data(), 0, buf.size());
    std::memcpy(buf.data(), &hdr, sizeof(hdr));
    std::memcpy(buf.data() + sizeof(hdr), records.data() + off,
                here * sizeof(T));
    PC_RETURN_IF_ERROR(dev->Write(info.pages[i], buf.data()));
    off += here;
  }
  return info;
}

/// Appends the records of one already-validated block page to `out`.
template <typename T>
void AppendBlockRecords(const std::byte* page, const BlockPageHeader& hdr,
                        std::vector<T>* out) {
  const size_t old = out->size();
  out->resize(old + hdr.count);
  if (hdr.count == 0) return;  // empty vector data() is null; memcpy forbids it
  std::memcpy(out->data() + old, page + sizeof(BlockPageHeader),
              hdr.count * sizeof(T));
}

/// Collects the page ids of a chain starting at `head` by following the
/// `next` pointers.  One read per page; used by layout passes that need a
/// chain's directory without a persisted one.
inline Status CollectChainPages(PageDevice* dev, PageId head,
                                std::vector<PageId>* out) {
  std::vector<std::byte> buf(dev->page_size());
  const uint64_t limit = dev->live_pages();
  uint64_t walked = 0;
  for (PageId id = head; id != kInvalidPageId;) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, limit));
    out->push_back(id);
    PC_RETURN_IF_ERROR(dev->Read(id, buf.data()));
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    id = hdr.next;
  }
  return Status::OK();
}

/// Reads every record of the chain starting at `head` with the full set of
/// corruption guards (bounded walk, per-page header validation), appending
/// to `out`.  `second_page`, when non-null, receives the id of the chain's
/// second page (kInvalidPageId for chains of <= 1 page) — the continuation
/// pointer the cache builders persist.  Verification passes use this where
/// query paths use BlockListCursor.
template <typename T>
Status ReadBlockChain(PageDevice* dev, PageId head, std::vector<T>* out,
                      PageId* second_page = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (second_page != nullptr) *second_page = kInvalidPageId;
  const uint32_t cap = RecordsPerPage<T>(dev->page_size());
  std::vector<std::byte> buf(dev->page_size());
  const uint64_t limit = dev->live_pages();
  uint64_t walked = 0;
  for (PageId id = head; id != kInvalidPageId;) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, limit));
    PC_RETURN_IF_ERROR(dev->Read(id, buf.data()));
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckBlockPageHeader(hdr, cap));
    AppendBlockRecords(buf.data(), hdr, out);
    if (walked == 1 && second_page != nullptr) *second_page = hdr.next;
    id = hdr.next;
  }
  return Status::OK();
}

/// Frees every page of a list built by BuildBlockList.
inline Status FreeBlockList(PageDevice* dev, const BlockListRef& ref) {
  PageId id = ref.head;
  std::vector<std::byte> buf(dev->page_size());
  const uint64_t limit = dev->live_pages();
  uint64_t walked = 0;
  while (id != kInvalidPageId) {
    PC_RETURN_IF_ERROR(CheckChainStep(walked++, limit));
    PC_RETURN_IF_ERROR(dev->Read(id, buf.data()));
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(dev->Free(id));
    id = hdr.next;
  }
  return Status::OK();
}

/// Zero-copy view of one BlockList page: the page is pinned in the device's
/// own storage when the device supports Pin(), otherwise read into an
/// internal buffer (see PagePin).  Either way exactly one counted read, so
/// scan paths can iterate records in place without touching the paper's
/// accounting.
template <typename T>
class BlockPageView {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  /// Loads `id`, replacing any previously viewed page.  Rejects a page
  /// whose header claims more records than fit, so records() can never span
  /// past the frame.
  Status Load(PageDevice* dev, PageId id) {
    PC_RETURN_IF_ERROR(pin_.Load(dev, id));
    std::memcpy(&hdr_, pin_.data(), sizeof(hdr_));
    return CheckBlockPageHeader(hdr_, RecordsPerPage<T>(dev->page_size()));
  }

  const BlockPageHeader& header() const { return hdr_; }
  PageId next() const { return hdr_.next; }
  uint32_t count() const { return hdr_.count; }

  /// The page's records, in place.  Valid until the next Load() or until
  /// the view is destroyed.  (Records are written with memcpy and the frame
  /// is new[]-aligned, so reading them through a T* is well-formed for the
  /// trivially copyable record types block lists hold.)
  std::span<const T> records() const {
    return {reinterpret_cast<const T*>(pin_.data() + sizeof(BlockPageHeader)),
            count()};
  }

 private:
  PagePin pin_;
  BlockPageHeader hdr_;
};

/// Forward scanner over a BlockList.  Every page is read exactly once and
/// counted exactly once on the device, so the paper's I/O accounting is
/// independent of the transport mode:
///
///  - Plain chain mode (default): one device Read per NextBlock().
///  - Chain readahead (EnableChainReadahead): when a page's header says the
///    next `contig` pages are id-adjacent, the cursor fetches up to
///    window-1 of them in one batch.  ONLY correct when the caller will
///    consume the whole remainder of the list — an early-stopping scan
///    would pay for pages it never looks at.
///  - Directory mode: the caller hands the exact pages the scan will
///    consume (e.g. a tail-key-computed prefix of a cache list) and the
///    cursor batches through them window pages at a time.
///
/// Multi-page fetches are pipelined: the cursor submits each batch through
/// the device's async engine (AsyncBatchReader) and only awaits it when the
/// caller asks for the batch's first page, so on an async-capable device the
/// transfer lands underneath the caller's in-page compute.  In directory
/// mode the NEXT window is submitted as soon as the current one is awaited.
/// Devices without an async engine degrade to the blocking ReadBatch at
/// submit time — same pages, same counted reads, no overlap.
template <typename T>
class BlockListCursor {
 public:
  BlockListCursor(PageDevice* dev, const BlockListRef& ref)
      : dev_(dev), next_(ref.head), buf_(dev->page_size()) {}

  /// Starts mid-list at a known page (from a BlockListInfo directory).
  BlockListCursor(PageDevice* dev, PageId start_page)
      : dev_(dev), next_(start_page), buf_(dev->page_size()) {}

  /// Directory mode over exactly `pages` (copied), batching `readahead`
  /// pages per device call.  The caller asserts it will consume every page
  /// listed; `next` chaining in the page headers is ignored for traversal.
  BlockListCursor(PageDevice* dev, std::span<const PageId> pages,
                  uint32_t readahead = kDefaultReadahead)
      : dev_(dev),
        next_(pages.empty() ? kInvalidPageId : pages.front()),
        buf_(dev->page_size()),
        dir_(pages.begin(), pages.end()),
        readahead_(readahead == 0 ? 1 : readahead) {}

  /// Switches chain traversal to batched readahead with the given window.
  /// Call only when the whole remainder of the list will be consumed.
  void EnableChainReadahead(uint32_t window = kDefaultReadahead) {
    readahead_ = window == 0 ? 1 : window;
  }

  bool done() const {
    if (!dir_.empty()) {
      return dir_pos_ >= dir_.size() && !pending_ready_ &&
             batch_pos_ >= batch_cnt_;
    }
    return batch_pos_ >= batch_cnt_ && !pending_ready_ &&
           next_ == kInvalidPageId;
  }

  /// Advances to the next page, validates its header and appends its
  /// records to `out`; no-op once done().
  Status NextBlock(std::vector<T>* out) {
    if (done()) return Status::OK();
    // In chain mode a corrupt `next` pointer can form a cycle; no walk can
    // legitimately visit more pages than the device holds.
    if (dir_.empty()) {
      PC_RETURN_IF_ERROR(CheckChainStep(blocks_read_, dev_->live_pages()));
    }
    const std::byte* page = nullptr;
    const uint32_t psz = dev_->page_size();
    if (batch_pos_ < batch_cnt_) {
      page = batch_buf_.data() + static_cast<size_t>(batch_pos_) * psz;
      ++batch_pos_;
    } else if (pending_ready_) {
      PC_RETURN_IF_ERROR(PromotePending());
      page = batch_buf_.data();
      batch_pos_ = 1;
      if (!dir_.empty()) PC_RETURN_IF_ERROR(SubmitNextDirWindow());
    } else if (!dir_.empty()) {
      const size_t n = std::min<size_t>(readahead_, dir_.size() - dir_pos_);
      PC_RETURN_IF_ERROR(
          FetchBatch(std::span<const PageId>(dir_.data() + dir_pos_, n)));
      dir_pos_ += n;
      page = batch_buf_.data();
      batch_pos_ = 1;
      PC_RETURN_IF_ERROR(SubmitNextDirWindow());
    } else {
      PC_RETURN_IF_ERROR(dev_->Read(next_, buf_.data()));
      page = buf_.data();
      if (readahead_ > 1) {
        BlockPageHeader hdr;
        std::memcpy(&hdr, buf_.data(), sizeof(hdr));
        if (hdr.contig > 0) {
          const uint32_t n = std::min(hdr.contig, readahead_ - 1);
          run_ids_.resize(n);
          for (uint32_t k = 0; k < n; ++k) run_ids_[k] = next_ + 1 + k;
          // The run lands while the caller works on the page in buf_.
          PC_RETURN_IF_ERROR(SubmitPending(run_ids_));
        }
      }
    }
    ++blocks_read_;
    BlockPageHeader hdr;
    std::memcpy(&hdr, page, sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckBlockPageHeader(hdr, RecordsPerPage<T>(psz)));
    next_ = hdr.next;
    AppendBlockRecords(page, hdr, out);
    return Status::OK();
  }

  uint64_t blocks_read() const { return blocks_read_; }

 private:
  // Blocking fetch into the serving buffer (first directory window, or a
  // single page).  A single page gains nothing from the batch path; keep
  // the device's batch_reads counter meaningful (one tick == one
  // multi-page batch).
  Status FetchBatch(std::span<const PageId> ids) {
    batch_buf_.resize(ids.size() * static_cast<size_t>(dev_->page_size()));
    if (ids.size() == 1) {
      PC_RETURN_IF_ERROR(dev_->Read(ids[0], batch_buf_.data()));
    } else {
      PC_RETURN_IF_ERROR(dev_->ReadBatch(ids, batch_buf_.data()));
    }
    batch_pos_ = 0;
    batch_cnt_ = ids.size();
    return Status::OK();
  }

  // Starts filling the pending buffer with `ids` (async when the device
  // supports it).  Single pages stay on the Read path for counter parity.
  Status SubmitPending(std::span<const PageId> ids) {
    pending_buf_.resize(ids.size() * static_cast<size_t>(dev_->page_size()));
    if (ids.size() == 1) {
      PC_RETURN_IF_ERROR(dev_->Read(ids[0], pending_buf_.data()));
    } else {
      PC_RETURN_IF_ERROR(async_.Start(dev_, ids, pending_buf_.data()));
    }
    pending_cnt_ = ids.size();
    pending_ready_ = true;
    return Status::OK();
  }

  // Awaits the pending batch and makes it the serving batch.
  Status PromotePending() {
    PC_RETURN_IF_ERROR(async_.Wait());
    batch_buf_.swap(pending_buf_);
    batch_pos_ = 0;
    batch_cnt_ = pending_cnt_;
    pending_cnt_ = 0;
    pending_ready_ = false;
    return Status::OK();
  }

  // Directory mode: pipeline the next window while the current one serves.
  Status SubmitNextDirWindow() {
    if (dir_pos_ >= dir_.size()) return Status::OK();
    const size_t n = std::min<size_t>(readahead_, dir_.size() - dir_pos_);
    PC_RETURN_IF_ERROR(
        SubmitPending(std::span<const PageId>(dir_.data() + dir_pos_, n)));
    dir_pos_ += n;
    return Status::OK();
  }

  PageDevice* dev_;
  PageId next_;
  std::vector<std::byte> buf_;
  std::vector<PageId> dir_;  // directory mode: the exact pages to read
  size_t dir_pos_ = 0;
  uint32_t readahead_ = 1;
  std::vector<std::byte> batch_buf_;
  size_t batch_pos_ = 0;
  size_t batch_cnt_ = 0;
  std::vector<std::byte> pending_buf_;  // in-flight double buffer
  size_t pending_cnt_ = 0;
  bool pending_ready_ = false;
  std::vector<PageId> run_ids_;
  AsyncBatchReader async_;
  uint64_t blocks_read_ = 0;
};

/// Reads an entire list into memory (used by rebuild paths and tests).
/// Always a full scan, so chain readahead is exact here.
template <typename T>
Status ReadBlockList(PageDevice* dev, const BlockListRef& ref,
                     std::vector<T>* out,
                     uint32_t readahead = kDefaultReadahead) {
  BlockListCursor<T> cur(dev, ref);
  cur.EnableChainReadahead(readahead);
  while (!cur.done()) PC_RETURN_IF_ERROR(cur.NextBlock(out));
  return Status::OK();
}

}  // namespace pathcache

#endif  // PATHCACHE_IO_BLOCK_LIST_H_
