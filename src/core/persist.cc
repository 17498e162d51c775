#include "core/persist.h"

#include <cstring>
#include <string>
#include <unordered_set>

#include "core/ext_interval_tree.h"
#include "core/ext_segment_tree.h"
#include "core/pst_common.h"
#include "core/pst_external.h"
#include "core/pst_two_level.h"
#include "core/three_sided.h"
#include "io/block_list.h"
#include "io/crc32c.h"

namespace pathcache {

namespace {

// CRC32C over the header bytes with `header_crc` itself zeroed — the value
// WriteManifestHeader stamps and ReadManifestHeader demands back.
uint32_t ManifestHeaderCrc(const PstManifestHeader& hdr) {
  PstManifestHeader scratch = hdr;
  scratch.header_crc = 0;
  return Crc32c(&scratch, sizeof(scratch));
}

Status ReadManifestHeader(PageDevice* dev, PageId page,
                          PstManifestHeader* out) {
  if (dev->page_size() < sizeof(PstManifestHeader)) {
    return Status::InvalidArgument("page size below manifest header size");
  }
  std::vector<std::byte> buf(dev->page_size());
  PC_RETURN_IF_ERROR(dev->Read(page, buf.data()));
  std::memcpy(out, buf.data(), sizeof(*out));
  if (out->magic != kExternalPstMagic && out->magic != kTwoLevelPstMagic &&
      out->magic != kThreeSidedPstMagic && out->magic != kExtSegTreeMagic &&
      out->magic != kExtIntTreeMagic) {
    return Status::Corruption("page " + std::to_string(page) +
                              " is not a pathcache manifest");
  }
  // The CRC gate comes before any field is trusted (only the magic, which
  // the CRC also covers, is peeked first to give unrelated pages a clearer
  // error).  A failed gate means SOME header byte changed since Save() —
  // maybe one that merely skews storage accounting — so nothing below may
  // interpret the rest.
  if (out->header_crc != ManifestHeaderCrc(*out)) {
    return Status::Corruption("manifest page " + std::to_string(page) +
                              " header checksum mismatch");
  }
  if (out->format_version > kManifestFormatVersion) {
    return Status::Corruption(
        "manifest format version " + std::to_string(out->format_version) +
        " is newer than this build understands (" +
        std::to_string(kManifestFormatVersion) + ")");
  }
  if (out->format_version == kDroppedPackedManifestVersion) {
    return Status::NotSupported(
        "manifest format version 4 may hold pages in the packed page format "
        "v3, which this build no longer reads; rebuild the store");
  }
  return Status::OK();
}

/// Walks the block-list chain holding one of the manifest's PageId lists,
/// appending its pages to `manifest_chain` and its records to `out`, with
/// the count and chain length cross-checked against the header so a torn or
/// truncated chain degrades to Corruption.
Status ReadManifestList(PageDevice* dev, PageId head, uint64_t count,
                        const char* what, std::vector<PageId>* out,
                        std::vector<PageId>* manifest_chain) {
  if (head == kInvalidPageId) {
    if (count != 0) {
      return Status::Corruption(std::string("manifest ") + what +
                                " list lost: count is " +
                                std::to_string(count) + " but head is null");
    }
    return Status::OK();
  }
  const uint64_t expect_pages =
      CeilDiv(count, RecordsPerPage<PageId>(dev->page_size()));
  std::vector<std::byte> buf(dev->page_size());
  uint64_t walked = 0;
  for (PageId walk = head; walk != kInvalidPageId;) {
    if (walked++ >= expect_pages) {
      return Status::Corruption(std::string("manifest ") + what +
                                " chain longer than its record count needs");
    }
    manifest_chain->push_back(walk);
    PC_RETURN_IF_ERROR(dev->Read(walk, buf.data()));
    BlockPageHeader bh;
    std::memcpy(&bh, buf.data(), sizeof(bh));
    PC_RETURN_IF_ERROR(
        CheckBlockPageHeader(bh, RecordsPerPage<PageId>(dev->page_size())));
    walk = bh.next;
  }
  const size_t before = out->size();
  PC_RETURN_IF_ERROR(ReadBlockList<PageId>(dev, BlockListRef{head, count}, out));
  if (out->size() - before != count) {
    return Status::Corruption(
        std::string("manifest ") + what + " list truncated: header promises " +
        std::to_string(count) + " entries, chain holds " +
        std::to_string(out->size() - before));
  }
  return Status::OK();
}

}  // namespace

namespace internal {

Status WriteManifestHeader(PageDevice* dev, PageId page,
                           const PstManifestHeader& hdr) {
  if (dev->page_size() < sizeof(PstManifestHeader)) {
    return Status::InvalidArgument("page size below manifest header size");
  }
  std::vector<std::byte> buf(dev->page_size());
  PstManifestHeader stamped = hdr;
  stamped.format_version = kManifestFormatVersion;
  stamped.header_crc = 0;
  stamped.header_crc = ManifestHeaderCrc(stamped);
  std::memcpy(buf.data(), &stamped, sizeof(stamped));
  return dev->Write(page, buf.data());
}

Status ReadManifest(PageDevice* dev, PageId page, uint64_t expected_magic,
                    PstManifestHeader* hdr, std::vector<PageId>* owned,
                    std::vector<PageId>* children,
                    std::vector<PageId>* manifest_chain) {
  PC_RETURN_IF_ERROR(ReadManifestHeader(dev, page, hdr));
  if (hdr->magic != expected_magic) {
    return Status::InvalidArgument("manifest type mismatch");
  }
  manifest_chain->push_back(page);
  PC_RETURN_IF_ERROR(ReadManifestList(dev, hdr->owned_head, hdr->owned_count,
                                      "owned-page", owned, manifest_chain));
  if (children != nullptr) {
    PC_RETURN_IF_ERROR(ReadManifestList(dev, hdr->children_head,
                                        hdr->children_count, "child-manifest",
                                        children, manifest_chain));
  }
  return Status::OK();
}

}  // namespace internal

Status VerifyStore(PageDevice* dev, std::span<const PageId> manifests,
                   const VerifyStoreOptions& opts,
                   VerifyStoreReport* report) {
  VerifyStoreReport local;
  std::unordered_set<PageId> owned_set;
  auto claim = [&owned_set](PageId p) -> Status {
    if (!owned_set.insert(p).second) {
      return Status::Corruption("page " + std::to_string(p) +
                                " is owned twice across the store's "
                                "manifests");
    }
    return Status::OK();
  };

  // Ownership walk: every manifest's chain + owned list, descending into
  // child manifests (the two-level scheme's per-region structures).
  std::vector<PageId> todo(manifests.begin(), manifests.end());
  for (size_t i = 0; i < todo.size(); ++i) {
    if (i > dev->live_pages()) {
      return Status::Corruption(
          "manifest graph larger than the device (corrupt child list)");
    }
    PstManifestHeader hdr;
    PC_RETURN_IF_ERROR(ReadManifestHeader(dev, todo[i], &hdr));
    std::vector<PageId> owned, children, chain;
    PC_RETURN_IF_ERROR(internal::ReadManifest(dev, todo[i], hdr.magic, &hdr,
                                              &owned, &children, &chain));
    ++local.manifests;
    for (PageId p : chain) PC_RETURN_IF_ERROR(claim(p));
    for (PageId p : owned) PC_RETURN_IF_ERROR(claim(p));
    for (PageId c : children) todo.push_back(c);
  }
  local.owned_pages = owned_set.size();

  // Scrub: one read per owned page.  On a ChecksumPageDevice stack the read
  // verifies the CRC, so this pass catches rot on pages queries never touch.
  if (opts.scrub_pages) {
    std::vector<std::byte> buf(dev->page_size());
    for (PageId p : owned_set) {
      PC_RETURN_IF_ERROR(dev->Read(p, buf.data()));
      ++local.scrubbed_pages;
    }
  }

  // Deep structural validation, dispatched by manifest magic.  Child
  // manifests are covered by their parent's CheckStructure().
  if (opts.check_structures) {
    for (PageId m : manifests) {
      PstManifestHeader hdr;
      PC_RETURN_IF_ERROR(ReadManifestHeader(dev, m, &hdr));
      if (hdr.magic == kExternalPstMagic) {
        ExternalPst s(dev);
        PC_RETURN_IF_ERROR(s.Open(m));
        PC_RETURN_IF_ERROR(s.CheckStructure());
      } else if (hdr.magic == kTwoLevelPstMagic) {
        TwoLevelPst s(dev);
        PC_RETURN_IF_ERROR(s.Open(m));
        PC_RETURN_IF_ERROR(s.CheckStructure());
      } else if (hdr.magic == kThreeSidedPstMagic) {
        ThreeSidedPst s(dev);
        PC_RETURN_IF_ERROR(s.Open(m));
        PC_RETURN_IF_ERROR(s.CheckStructure());
      } else if (hdr.magic == kExtSegTreeMagic) {
        ExtSegmentTree s(dev);
        PC_RETURN_IF_ERROR(s.Open(m));
        PC_RETURN_IF_ERROR(s.CheckStructure());
      } else {
        ExtIntervalTree s(dev);
        PC_RETURN_IF_ERROR(s.Open(m));
        PC_RETURN_IF_ERROR(s.CheckStructure());
      }
      ++local.structures_checked;
    }
  }

  // Coverage: every live page should be spoken for.
  const uint64_t live = dev->live_pages();
  if (live < owned_set.size()) {
    return Status::Corruption(
        "manifests own " + std::to_string(owned_set.size()) +
        " pages but only " + std::to_string(live) + " are live");
  }
  local.leaked_pages = live - owned_set.size();
  if (opts.collect_claimed) {
    local.claimed_pages.assign(owned_set.begin(), owned_set.end());
  }
  if (report != nullptr) *report = local;
  if (opts.expect_full_coverage && local.leaked_pages != 0) {
    return Status::Corruption(
        std::to_string(local.leaked_pages) +
        " live pages are owned by no manifest (leaked)");
  }
  return Status::OK();
}

Result<uint64_t> PeekManifestMagic(PageDevice* dev, PageId manifest) {
  PstManifestHeader hdr;
  PC_RETURN_IF_ERROR(ReadManifestHeader(dev, manifest, &hdr));
  return hdr.magic;
}

Result<std::unique_ptr<TwoSidedIndex>> OpenTwoSidedIndex(PageDevice* dev,
                                                         PageId manifest) {
  PstManifestHeader hdr;
  PC_RETURN_IF_ERROR(ReadManifestHeader(dev, manifest, &hdr));
  if (hdr.magic == kExternalPstMagic) {
    auto pst = std::make_unique<ExternalPst>(dev);
    PC_RETURN_IF_ERROR(pst->Open(manifest));
    return std::unique_ptr<TwoSidedIndex>(std::move(pst));
  }
  if (hdr.magic != kTwoLevelPstMagic) {
    return Status::InvalidArgument("manifest is not a 2-sided index");
  }
  auto pst = std::make_unique<TwoLevelPst>(dev);
  PC_RETURN_IF_ERROR(pst->Open(manifest));
  return std::unique_ptr<TwoSidedIndex>(std::move(pst));
}

}  // namespace pathcache
