#include "dynamic/dynamic_fsck.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "core/pst_common.h"
#include "dynamic/wal.h"
#include "io/block_list.h"
#include "io/crc32c.h"

namespace pathcache {

namespace {

uint32_t RootCrc(DynamicRootHeader h) {
  h.header_crc = 0;
  return Crc32c(&h, sizeof(h));
}

uint32_t SlotCrc(DynamicSlotHeader h) {
  h.header_crc = 0;
  return Crc32c(&h, sizeof(h));
}

bool IsStructureMagic(uint64_t magic) {
  return magic == kExternalPstMagic || magic == kTwoLevelPstMagic ||
         magic == kThreeSidedPstMagic || magic == kExtSegTreeMagic ||
         magic == kExtIntTreeMagic;
}

struct Claimer {
  std::unordered_set<PageId> owned;
  Status Claim(PageId p) {
    if (!owned.insert(p).second) {
      return Status::Corruption("page " + std::to_string(p) +
                                " is owned twice across the dynamic store");
    }
    return Status::OK();
  }
};

// Claims the WAL chain reachable from `head`: WAL-magic pages linked by
// their `next` pointers, plus the trailing pre-allocated (never-written,
// zeroed) successor.  Junk pages past a torn tail are WAL-magic pages on
// the same chain, so they are claimed too — they belong to the log and get
// recycled by future appends.
Status ClaimWalChain(PageDevice* dev, PageId head, Claimer* c,
                     uint64_t* wal_pages) {
  std::vector<std::byte> buf(dev->page_size());
  const uint64_t bound = dev->live_pages() + 2;
  uint64_t walked = 0;
  PageId cursor = head;
  bool first = true;
  while (cursor != kInvalidPageId) {
    if (++walked > bound) return Status::Corruption("WAL chain cycle");
    if (!dev->Read(cursor, buf.data()).ok()) {
      if (first) return Status::Corruption("WAL head is unreadable");
      break;  // ran off the durable end of the chain
    }
    WalPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    if (hdr.magic != kWalPageMagic) {
      if (first) return Status::Corruption("WAL head is not a WAL page");
      // The tail's pre-allocated successor: allocated, zeroed, owned.
      PC_RETURN_IF_ERROR(c->Claim(cursor));
      ++*wal_pages;
      break;
    }
    PC_RETURN_IF_ERROR(c->Claim(cursor));
    ++*wal_pages;
    cursor = hdr.next;
    first = false;
  }
  return Status::OK();
}

Status ClaimItemsChain(PageDevice* dev, PageId head, uint64_t expect_count,
                       Claimer* c, uint64_t* items_pages) {
  const uint32_t cap = RecordsPerPage<DynamicItem>(dev->page_size());
  std::vector<std::byte> buf(dev->page_size());
  const uint64_t bound = dev->live_pages() + 2;
  uint64_t walked = 0;
  uint64_t records = 0;
  for (PageId id = head; id != kInvalidPageId;) {
    if (++walked > bound) return Status::Corruption("items chain cycle");
    PC_RETURN_IF_ERROR(dev->Read(id, buf.data()));
    BlockPageHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckBlockPageHeader(hdr, cap));
    PC_RETURN_IF_ERROR(c->Claim(id));
    ++*items_pages;
    records += hdr.count;
    id = hdr.next;
  }
  if (records != expect_count) {
    return Status::Corruption("items snapshot holds " +
                              std::to_string(records) + " records, slot says " +
                              std::to_string(expect_count));
  }
  return Status::OK();
}

}  // namespace

bool IsDynamicRoot(PageDevice* dev, PageId id) {
  std::vector<std::byte> buf(dev->page_size());
  if (!dev->Read(id, buf.data()).ok()) return false;
  DynamicRootHeader h;
  std::memcpy(&h, buf.data(), sizeof(h));
  return h.magic == kDynamicRootMagic && h.header_crc == RootCrc(h);
}

std::string DynamicFsckReport::ToString() const {
  std::string s;
  s += "dynamic fsck: stores=" + std::to_string(stores);
  s += " meta_pages=" + std::to_string(meta_pages);
  s += " generation_pages=" + std::to_string(generation_pages);
  s += " items_pages=" + std::to_string(items_pages);
  s += " wal_pages=" + std::to_string(wal_pages);
  if (static_pages != 0) s += " static_pages=" + std::to_string(static_pages);
  s += " structures_checked=" + std::to_string(structures_checked);
  s += "\n  orphaned_generations=" + std::to_string(orphaned_generations);
  s += " (" + std::to_string(orphaned_generation_pages) + " pages)";
  s += " dangling_wal_pages=" + std::to_string(dangling_wal_pages);
  s += " unreachable_pages=" + std::to_string(unreachable_pages);
  if (freed_pages != 0) s += " freed_pages=" + std::to_string(freed_pages);
  if (classification_skipped) s += " (classification skipped: no page list)";
  return s;
}

Status VerifyDynamicStores(PageDevice* dev, std::span<const PageId> roots,
                           const DynamicFsckOptions& opts,
                           DynamicFsckReport* report) {
  DynamicFsckReport local;
  Claimer c;
  std::vector<std::byte> buf(dev->page_size());

  for (PageId root : roots) {
    PC_RETURN_IF_ERROR(dev->Read(root, buf.data()));
    DynamicRootHeader rh;
    std::memcpy(&rh, buf.data(), sizeof(rh));
    if (rh.magic != kDynamicRootMagic) {
      return Status::Corruption("page " + std::to_string(root) +
                                " is not a dynamic store root");
    }
    if (rh.header_crc != RootCrc(rh)) {
      return Status::Corruption("dynamic root checksum mismatch");
    }
    PC_RETURN_IF_ERROR(c.Claim(root));
    ++local.meta_pages;

    // Winner slot: valid header, highest version.
    DynamicSlotHeader winner;
    bool have_winner = false;
    for (int i = 0; i < 2; ++i) {
      PC_RETURN_IF_ERROR(dev->Read(rh.slot[i], buf.data()));
      DynamicSlotHeader h;
      std::memcpy(&h, buf.data(), sizeof(h));
      PC_RETURN_IF_ERROR(c.Claim(rh.slot[i]));
      ++local.meta_pages;
      if (h.magic == kDynamicSlotMagic && h.header_crc == SlotCrc(h) &&
          h.version > 0 && (!have_winner || h.version > winner.version)) {
        winner = h;
        have_winner = true;
      }
    }
    if (!have_winner) {
      return Status::Corruption("dynamic store has no valid publish slot");
    }

    PC_RETURN_IF_ERROR(ClaimWalChain(dev, winner.wal_head, &c,
                                     &local.wal_pages));
    if (winner.items_head != kInvalidPageId) {
      PC_RETURN_IF_ERROR(ClaimItemsChain(dev, winner.items_head,
                                         winner.items_count, &c,
                                         &local.items_pages));
    } else if (winner.items_count != 0) {
      return Status::Corruption("slot names items but no items chain");
    }

    if (winner.inner_manifest != kInvalidPageId) {
      VerifyStoreOptions vs;
      vs.scrub_pages = opts.scrub_pages;
      vs.check_structures = opts.check_structures;
      vs.expect_full_coverage = false;
      vs.collect_claimed = true;
      VerifyStoreReport vr;
      PageId manifest = winner.inner_manifest;
      PC_RETURN_IF_ERROR(VerifyStore(dev, {&manifest, 1}, vs, &vr));
      for (PageId p : vr.claimed_pages) PC_RETURN_IF_ERROR(c.Claim(p));
      local.generation_pages += vr.owned_pages;
      local.structures_checked += vr.structures_checked;
    }
    ++local.stores;
  }

  // Static co-tenants: walk their manifest graphs with the same deep checks
  // and claim their pages, so the classification below never mistakes a
  // healthy static store for an orphaned generation.
  for (PageId m : opts.static_manifests) {
    VerifyStoreOptions vs;
    vs.scrub_pages = opts.scrub_pages;
    vs.check_structures = opts.check_structures;
    vs.expect_full_coverage = false;
    vs.collect_claimed = true;
    VerifyStoreReport vr;
    PC_RETURN_IF_ERROR(VerifyStore(dev, {&m, 1}, vs, &vr));
    for (PageId p : vr.claimed_pages) PC_RETURN_IF_ERROR(c.Claim(p));
    local.static_pages += vr.owned_pages;
    local.structures_checked += vr.structures_checked;
  }

  // Coverage pass: classify every live page the stores do not own.
  std::vector<PageId> live;
  Status ls = dev->ListLivePages(&live);
  if (!ls.ok()) {
    if (ls.code() == StatusCode::kNotSupported) {
      local.classification_skipped = true;
      if (report != nullptr) *report = local;
      return Status::OK();
    }
    return ls;
  }

  std::vector<PageId> unclaimed;
  for (PageId p : live) {
    if (c.owned.count(p) == 0) unclaimed.push_back(p);
  }

  // Pass 1: find orphaned generations — unclaimed pages that parse as
  // complete, walkable manifests.  A two-level structure's child manifests
  // also parse, so an orphan counts as a generation only if no OTHER
  // candidate's walk claims it (i.e. it is a top-level root).
  struct OrphanCandidate {
    PageId manifest;
    std::vector<PageId> claimed;
  };
  std::vector<OrphanCandidate> candidates;
  for (PageId p : unclaimed) {
    if (!dev->Read(p, buf.data()).ok()) continue;
    uint64_t magic = 0;
    std::memcpy(&magic, buf.data(), sizeof(magic));
    if (!IsStructureMagic(magic)) continue;
    VerifyStoreOptions vs;
    vs.scrub_pages = false;
    vs.check_structures = false;
    vs.expect_full_coverage = false;
    vs.collect_claimed = true;
    VerifyStoreReport vr;
    if (VerifyStore(dev, {&p, 1}, vs, &vr).ok()) {
      candidates.push_back(OrphanCandidate{p, std::move(vr.claimed_pages)});
    }
  }
  std::unordered_set<PageId> child_manifests;
  for (const OrphanCandidate& cand : candidates) {
    for (PageId q : cand.claimed) {
      if (q != cand.manifest) child_manifests.insert(q);
    }
  }
  std::unordered_set<PageId> orphan_owned;
  for (const OrphanCandidate& cand : candidates) {
    if (child_manifests.count(cand.manifest) != 0) continue;  // nested
    ++local.orphaned_generations;
    for (PageId q : cand.claimed) {
      if (c.owned.count(q) == 0) orphan_owned.insert(q);
    }
  }
  local.orphaned_generation_pages = orphan_owned.size();

  // Pass 2: classify what remains.
  std::vector<PageId> reclaimable(orphan_owned.begin(), orphan_owned.end());
  for (PageId p : unclaimed) {
    if (orphan_owned.count(p) != 0) continue;
    reclaimable.push_back(p);
    uint64_t magic = 0;
    if (dev->Read(p, buf.data()).ok()) {
      std::memcpy(&magic, buf.data(), sizeof(magic));
    }
    if (magic == kWalPageMagic) {
      ++local.dangling_wal_pages;
    } else {
      // Half-built debris, orphaned items chains, torn manifests.
      ++local.unreachable_pages;
    }
  }

  if (opts.gc) {
    for (PageId p : reclaimable) {
      PC_RETURN_IF_ERROR(dev->Free(p));
      ++local.freed_pages;
    }
  }

  if (report != nullptr) *report = local;
  return Status::OK();
}

}  // namespace pathcache
