#include "btree/bplus_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>

#include "kernels/search.h"

namespace pathcache {

namespace {

// On-page node layout (interleaved records):
//
//     NodeHeader            (24 bytes)
//     leaf:     BTreeEntry  x count        (16 bytes each)
//     internal: ChildEntry  x count        (24 bytes each; count children)
//
// NodeHeader.pad[0] carries the body format version and must be kNodeV2;
// any other value (including 1, the dropped deinterleaved v3 body) is
// rejected as Corruption.
//
// Internal nodes route on lower fences: entries_[i].sep is <= every entry in
// the subtree of entries_[i].child and > every entry in subtrees 0..i-1.
// sep[0] is a -infinity sentinel at the root path boundary.

struct NodeHeader {
  uint8_t is_leaf = 0;
  uint8_t pad[3] = {0, 0, 0};
  uint32_t count = 0;
  PageId next = kInvalidPageId;  // leaf chain; unused in internal nodes
  uint64_t reserved = 0;
};
static_assert(sizeof(NodeHeader) == 24);

struct ChildEntry {
  BTreeEntry sep;
  PageId child = kInvalidPageId;
};
static_assert(sizeof(ChildEntry) == 24);

constexpr uint8_t kNodeV2 = 0;  // interleaved records

// The in-page search kernels read BTreeEntry as a packed {int64 key,
// uint64 value} record and ChildEntry as the same record with 8 trailing
// bytes of stride; pin the layouts they assume.
static_assert(sizeof(BTreeEntry) == 16);
static_assert(offsetof(BTreeEntry, key) == 0);
static_assert(offsetof(BTreeEntry, value) == 8);
static_assert(offsetof(ChildEntry, sep) == 0);

constexpr BTreeEntry kMinEntry{INT64_MIN, 0};

// kernels:: equivalents of std::lower_bound / std::upper_bound with
// EntryLess over a decoded leaf (bit-identical results, SIMD-dispatched).
std::vector<BTreeEntry>::iterator LeafLowerBound(std::vector<BTreeEntry>& leaf,
                                                 const BTreeEntry& e) {
  return leaf.begin() + static_cast<ptrdiff_t>(kernels::LowerBoundKV(
                            leaf.data(), leaf.size(), e.key, e.value));
}

std::vector<BTreeEntry>::iterator LeafUpperBound(std::vector<BTreeEntry>& leaf,
                                                 const BTreeEntry& e) {
  return leaf.begin() + static_cast<ptrdiff_t>(kernels::UpperBoundKV(
                            leaf.data(), leaf.size(), e.key, e.value));
}

// Decoded node, mutated in memory and re-encoded on write.
struct Node {
  bool is_leaf = true;
  PageId next = kInvalidPageId;
  std::vector<BTreeEntry> leaf;       // valid if is_leaf
  std::vector<ChildEntry> children;   // valid if !is_leaf

  uint32_t count() const {
    return static_cast<uint32_t>(is_leaf ? leaf.size() : children.size());
  }
};

// Validates a node header against the page geometry before any body bytes
// are trusted: a corrupt count or version must fail loudly, never index off
// the frame.
Status CheckNodeHeader(const NodeHeader& hdr, size_t page_size) {
  if (hdr.pad[0] != kNodeV2) {
    return Status::Corruption("btree node format version " +
                              std::to_string(hdr.pad[0]) + " unsupported");
  }
  const size_t entry =
      hdr.is_leaf != 0 ? sizeof(BTreeEntry) : sizeof(ChildEntry);
  if (sizeof(hdr) + static_cast<size_t>(hdr.count) * entry > page_size) {
    return Status::Corruption("btree node count " + std::to_string(hdr.count) +
                              " exceeds page capacity");
  }
  return Status::OK();
}

Status Decode(const std::vector<std::byte>& buf, Node* n) {
  NodeHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  PC_RETURN_IF_ERROR(CheckNodeHeader(hdr, buf.size()));
  n->is_leaf = hdr.is_leaf != 0;
  n->next = hdr.next;
  n->leaf.clear();
  n->children.clear();
  const std::byte* body = buf.data() + sizeof(hdr);
  const size_t cnt = hdr.count;
  if (cnt == 0) return Status::OK();  // empty data() may be null for memcpy
  if (n->is_leaf) {
    n->leaf.resize(cnt);
    std::memcpy(n->leaf.data(), body, cnt * sizeof(BTreeEntry));
  } else {
    n->children.resize(cnt);
    std::memcpy(n->children.data(), body, cnt * sizeof(ChildEntry));
  }
  return Status::OK();
}

void Encode(const Node& n, std::vector<std::byte>* buf) {
  std::memset(buf->data(), 0, buf->size());
  NodeHeader hdr;
  hdr.is_leaf = n.is_leaf ? 1 : 0;
  hdr.pad[0] = kNodeV2;
  hdr.count = n.count();
  hdr.next = n.next;
  std::memcpy(buf->data(), &hdr, sizeof(hdr));
  std::byte* body = buf->data() + sizeof(hdr);
  if (hdr.count == 0) return;  // empty data() may be null for memcpy
  if (n.is_leaf) {
    std::memcpy(body, n.leaf.data(), hdr.count * sizeof(BTreeEntry));
  } else {
    std::memcpy(body, n.children.data(), hdr.count * sizeof(ChildEntry));
  }
}

}  // namespace

BPlusTree::BPlusTree(PageDevice* dev) : dev_(dev) {
  const uint32_t body = dev->page_size() - sizeof(NodeHeader);
  leaf_cap_ = body / sizeof(BTreeEntry);
  internal_cap_ = body / sizeof(ChildEntry);
}

Status BPlusTree::ReadPage(PageId id, std::vector<std::byte>* buf) const {
  buf->resize(dev_->page_size());
  return dev_->Read(id, buf->data());
}

Status BPlusTree::WritePage(PageId id, const std::vector<std::byte>& buf) const {
  return dev_->Write(id, buf.data());
}

Status BPlusTree::Init() {
  auto r = dev_->Allocate();
  if (!r.ok()) return r.status();
  root_ = r.value();
  Node n;
  n.is_leaf = true;
  std::vector<std::byte> buf(dev_->page_size());
  Encode(n, &buf);
  PC_RETURN_IF_ERROR(WritePage(root_, buf));
  size_ = 0;
  height_ = 1;
  return Status::OK();
}

Status BPlusTree::BulkLoad(std::span<const BTreeEntry> sorted, double fill) {
  if (root_ != kInvalidPageId) {
    return Status::FailedPrecondition("BulkLoad on a non-empty tree");
  }
  if (sorted.empty()) return Init();
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (!EntryLess(sorted[i - 1], sorted[i])) {
      return Status::InvalidArgument("BulkLoad input not strictly sorted");
    }
  }
  const uint32_t leaf_fill = std::max<uint32_t>(
      1, static_cast<uint32_t>(static_cast<double>(leaf_cap_) * fill));
  const uint32_t int_fill = std::max<uint32_t>(
      3, static_cast<uint32_t>(static_cast<double>(internal_cap_) * fill));

  // Chunk `rem_total` items into nodes of ~`fill_count` items such that no
  // node (in particular the last one) drops below `min_count`.
  auto chunk = [](size_t rem_total, size_t fill_count, size_t cap,
                  size_t min_count) -> size_t {
    if (rem_total <= cap) return rem_total;
    size_t take = std::min<size_t>(fill_count, rem_total);
    if (rem_total - take < min_count) take = rem_total - min_count;
    return take;
  };

  std::vector<std::byte> buf(dev_->page_size());

  // Build the leaf level.
  std::vector<ChildEntry> level;  // (min entry, page) per node built
  {
    size_t i = 0;
    PageId prev = kInvalidPageId;
    std::vector<std::byte> prev_buf;
    Node prev_node;
    while (i < sorted.size()) {
      size_t take = chunk(sorted.size() - i, leaf_fill, leaf_cap_,
                          std::max<uint32_t>(1, leaf_cap_ / 2));
      auto r = dev_->Allocate();
      if (!r.ok()) return r.status();
      PageId id = r.value();
      Node n;
      n.is_leaf = true;
      n.leaf.assign(sorted.begin() + i, sorted.begin() + i + take);
      if (prev != kInvalidPageId) {
        prev_node.next = id;
        Encode(prev_node, &prev_buf);
        PC_RETURN_IF_ERROR(WritePage(prev, prev_buf));
      }
      prev = id;
      prev_node = n;
      prev_buf.resize(dev_->page_size());
      level.push_back({n.leaf.front(), id});
      i += take;
    }
    Encode(prev_node, &prev_buf);
    PC_RETURN_IF_ERROR(WritePage(prev, prev_buf));
  }

  // Build internal levels bottom-up.
  height_ = 1;
  while (level.size() > 1) {
    std::vector<ChildEntry> next_level;
    size_t i = 0;
    while (i < level.size()) {
      size_t take = chunk(level.size() - i, int_fill, internal_cap_,
                          std::max<uint32_t>(2, internal_cap_ / 2));
      auto r = dev_->Allocate();
      if (!r.ok()) return r.status();
      PageId id = r.value();
      Node n;
      n.is_leaf = false;
      n.children.assign(level.begin() + i, level.begin() + i + take);
      Encode(n, &buf);
      PC_RETURN_IF_ERROR(WritePage(id, buf));
      next_level.push_back({n.children.front().sep, id});
      i += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level.front().child;
  size_ = sorted.size();
  return Status::OK();
}

Status BPlusTree::DescendToLeaf(const BTreeEntry& e,
                                std::vector<PathElem>* path,
                                PageId* leaf) const {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("tree not initialized");
  }
  std::vector<std::byte> buf;
  PageId cur = root_;
  for (;;) {
    PC_RETURN_IF_ERROR(ReadPage(cur, &buf));
    // Route in place: the separator search runs directly on the page body's
    // strided records, so the descent never materializes a node.
    NodeHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckNodeHeader(hdr, buf.size()));
    if (hdr.is_leaf != 0) {
      *leaf = cur;
      return Status::OK();
    }
    if (hdr.count == 0) {
      return Status::Corruption("internal node with no children");
    }
    const std::byte* body = buf.data() + sizeof(hdr);
    // Largest i with sep[i] <= e; sep[0] acts as -infinity, which the upper
    // bound honors by clamping 0 (no separator <= e) to child 0.
    const size_t ub = kernels::UpperBoundKVStrided(
        body, sizeof(ChildEntry), hdr.count, e.key, e.value);
    const uint32_t idx = ub == 0 ? 0 : static_cast<uint32_t>(ub - 1);
    PageId child;
    std::memcpy(&child,
                body + idx * sizeof(ChildEntry) + offsetof(ChildEntry, child),
                sizeof(PageId));
    if (path != nullptr) path->push_back({cur, idx});
    cur = child;
  }
}

Status BPlusTree::Insert(const BTreeEntry& e) {
  std::vector<PathElem> path;
  PageId leaf;
  PC_RETURN_IF_ERROR(DescendToLeaf(e, &path, &leaf));

  std::vector<std::byte> buf;
  PC_RETURN_IF_ERROR(ReadPage(leaf, &buf));
  Node n;
  PC_RETURN_IF_ERROR(Decode(buf, &n));
  auto it = LeafLowerBound(n.leaf, e);
  if (it != n.leaf.end() && *it == e) {
    return Status::InvalidArgument("duplicate entry");
  }
  n.leaf.insert(it, e);
  ++size_;

  if (n.leaf.size() <= leaf_cap_) {
    Encode(n, &buf);
    return WritePage(leaf, buf);
  }

  // Split the leaf.
  auto r = dev_->Allocate();
  if (!r.ok()) return r.status();
  PageId right_id = r.value();
  Node right;
  right.is_leaf = true;
  size_t mid = n.leaf.size() / 2;
  right.leaf.assign(n.leaf.begin() + mid, n.leaf.end());
  n.leaf.resize(mid);
  right.next = n.next;
  n.next = right_id;
  Encode(n, &buf);
  PC_RETURN_IF_ERROR(WritePage(leaf, buf));
  Encode(right, &buf);
  PC_RETURN_IF_ERROR(WritePage(right_id, buf));
  return InsertIntoParent(&path, right.leaf.front(), right_id);
}

Status BPlusTree::InsertIntoParent(std::vector<PathElem>* path, BTreeEntry sep,
                                   PageId right_child) {
  std::vector<std::byte> buf(dev_->page_size());
  for (;;) {
    if (path->empty()) {
      // Split reached the root: grow the tree by one level.
      auto r = dev_->Allocate();
      if (!r.ok()) return r.status();
      PageId new_root = r.value();
      Node n;
      n.is_leaf = false;
      n.children.push_back({kMinEntry, root_});
      n.children.push_back({sep, right_child});
      Encode(n, &buf);
      PC_RETURN_IF_ERROR(WritePage(new_root, buf));
      root_ = new_root;
      ++height_;
      return Status::OK();
    }
    PathElem pe = path->back();
    path->pop_back();
    PC_RETURN_IF_ERROR(ReadPage(pe.page, &buf));
    Node n;
    PC_RETURN_IF_ERROR(Decode(buf, &n));
    n.children.insert(n.children.begin() + pe.child_idx + 1,
                      {sep, right_child});
    if (n.children.size() <= internal_cap_) {
      Encode(n, &buf);
      return WritePage(pe.page, buf);
    }
    // Split the internal node; the right half's first separator moves up.
    auto r = dev_->Allocate();
    if (!r.ok()) return r.status();
    PageId right_id = r.value();
    Node right;
    right.is_leaf = false;
    size_t mid = n.children.size() / 2;
    right.children.assign(n.children.begin() + mid, n.children.end());
    n.children.resize(mid);
    Encode(n, &buf);
    PC_RETURN_IF_ERROR(WritePage(pe.page, buf));
    Encode(right, &buf);
    PC_RETURN_IF_ERROR(WritePage(right_id, buf));
    sep = right.children.front().sep;
    right_child = right_id;
  }
}

Status BPlusTree::Delete(const BTreeEntry& e) {
  std::vector<PathElem> path;
  PageId leaf;
  PC_RETURN_IF_ERROR(DescendToLeaf(e, &path, &leaf));

  std::vector<std::byte> buf;
  PC_RETURN_IF_ERROR(ReadPage(leaf, &buf));
  Node n;
  PC_RETURN_IF_ERROR(Decode(buf, &n));
  auto it = LeafLowerBound(n.leaf, e);
  if (it == n.leaf.end() || !(*it == e)) {
    return Status::NotFound("entry not present");
  }
  n.leaf.erase(it);
  --size_;
  Encode(n, &buf);
  PC_RETURN_IF_ERROR(WritePage(leaf, buf));

  const uint32_t min_leaf = leaf_cap_ / 2;
  if (n.leaf.size() >= min_leaf || path.empty()) return Status::OK();
  return RebalanceAfterDelete(&path, leaf);
}

Status BPlusTree::RebalanceAfterDelete(std::vector<PathElem>* path,
                                       PageId node_id) {
  std::vector<std::byte> buf, buf2, buf3;
  for (;;) {
    PathElem pe = path->back();
    path->pop_back();

    PC_RETURN_IF_ERROR(ReadPage(pe.page, &buf));
    Node parent;
    PC_RETURN_IF_ERROR(Decode(buf, &parent));
    PC_RETURN_IF_ERROR(ReadPage(node_id, &buf2));
    Node node;
    PC_RETURN_IF_ERROR(Decode(buf2, &node));

    const uint32_t min_count = (node.is_leaf ? leaf_cap_ : internal_cap_) / 2;
    if (node.count() >= min_count) return Status::OK();

    const uint32_t idx = pe.child_idx;
    // Try borrowing from the left sibling.
    if (idx > 0) {
      PageId left_id = parent.children[idx - 1].child;
      PC_RETURN_IF_ERROR(ReadPage(left_id, &buf3));
      Node left;
      PC_RETURN_IF_ERROR(Decode(buf3, &left));
      if (left.count() > min_count) {
        if (node.is_leaf) {
          node.leaf.insert(node.leaf.begin(), left.leaf.back());
          left.leaf.pop_back();
          parent.children[idx].sep = node.leaf.front();
        } else {
          node.children.insert(node.children.begin(), left.children.back());
          left.children.pop_back();
          parent.children[idx].sep = node.children.front().sep;
        }
        Encode(left, &buf3);
        PC_RETURN_IF_ERROR(WritePage(left_id, buf3));
        Encode(node, &buf2);
        PC_RETURN_IF_ERROR(WritePage(node_id, buf2));
        Encode(parent, &buf);
        return WritePage(pe.page, buf);
      }
    }
    // Try borrowing from the right sibling.
    if (idx + 1 < parent.count()) {
      PageId right_id = parent.children[idx + 1].child;
      PC_RETURN_IF_ERROR(ReadPage(right_id, &buf3));
      Node right;
      PC_RETURN_IF_ERROR(Decode(buf3, &right));
      if (right.count() > min_count) {
        if (node.is_leaf) {
          node.leaf.push_back(right.leaf.front());
          right.leaf.erase(right.leaf.begin());
          parent.children[idx + 1].sep = right.leaf.front();
        } else {
          node.children.push_back(right.children.front());
          right.children.erase(right.children.begin());
          parent.children[idx + 1].sep = right.children.front().sep;
        }
        Encode(right, &buf3);
        PC_RETURN_IF_ERROR(WritePage(right_id, buf3));
        Encode(node, &buf2);
        PC_RETURN_IF_ERROR(WritePage(node_id, buf2));
        Encode(parent, &buf);
        return WritePage(pe.page, buf);
      }
    }

    // Merge with a sibling; keep the left partner, free the right.
    uint32_t left_idx = (idx > 0) ? idx - 1 : idx;
    PageId left_id = parent.children[left_idx].child;
    PageId right_id = parent.children[left_idx + 1].child;
    Node left, right;
    if (left_id == node_id) {
      left = node;
      PC_RETURN_IF_ERROR(ReadPage(right_id, &buf3));
      PC_RETURN_IF_ERROR(Decode(buf3, &right));
    } else {
      PC_RETURN_IF_ERROR(ReadPage(left_id, &buf3));
      PC_RETURN_IF_ERROR(Decode(buf3, &left));
      right = node;
    }
    if (left.is_leaf) {
      left.leaf.insert(left.leaf.end(), right.leaf.begin(), right.leaf.end());
      left.next = right.next;
    } else {
      left.children.insert(left.children.end(), right.children.begin(),
                           right.children.end());
    }
    Encode(left, &buf3);
    PC_RETURN_IF_ERROR(WritePage(left_id, buf3));
    PC_RETURN_IF_ERROR(dev_->Free(right_id));
    parent.children.erase(parent.children.begin() + left_idx + 1);

    if (path->empty()) {
      // pe.page is the root.
      if (parent.count() == 1) {
        PC_RETURN_IF_ERROR(dev_->Free(pe.page));
        root_ = parent.children.front().child;
        --height_;
        return Status::OK();
      }
      Encode(parent, &buf);
      return WritePage(pe.page, buf);
    }
    Encode(parent, &buf);
    PC_RETURN_IF_ERROR(WritePage(pe.page, buf));
    if (parent.count() >= internal_cap_ / 2) return Status::OK();
    node_id = pe.page;
  }
}

Status BPlusTree::Get(int64_t key, uint64_t* value, bool* found) {
  *found = false;
  PageId leaf;
  PC_RETURN_IF_ERROR(DescendToLeaf({key, 0}, nullptr, &leaf));
  std::vector<std::byte> buf;
  // Probe the leaf in place, without decoding it into a Node.
  auto probe = [&](size_t* pos, PageId* next) -> Status {
    NodeHeader hdr;
    std::memcpy(&hdr, buf.data(), sizeof(hdr));
    PC_RETURN_IF_ERROR(CheckNodeHeader(hdr, buf.size()));
    if (hdr.is_leaf == 0) return Status::Corruption("expected a leaf node");
    *next = hdr.next;
    const std::byte* body = buf.data() + sizeof(hdr);
    const size_t i = kernels::LowerBoundKV(body, hdr.count, key, 0);
    if (i < hdr.count) {
      BTreeEntry e;
      std::memcpy(&e, body + i * sizeof(BTreeEntry), sizeof(e));
      if (e.key == key) {
        *found = true;
        *value = e.value;
      }
    }
    *pos = hdr.count - i;  // records at or after the probe
    return Status::OK();
  };
  PC_RETURN_IF_ERROR(ReadPage(leaf, &buf));
  size_t after = 0;
  PageId next = kInvalidPageId;
  PC_RETURN_IF_ERROR(probe(&after, &next));
  if (*found) return Status::OK();
  // The first entry with this key may start the next leaf only if this leaf
  // ends exactly before it; handle the boundary by peeking the chain.
  if (after == 0 && next != kInvalidPageId) {
    PC_RETURN_IF_ERROR(ReadPage(next, &buf));
    PageId next2;
    PC_RETURN_IF_ERROR(probe(&after, &next2));
  }
  return Status::OK();
}

Status BPlusTree::FindFloor(int64_t key, BTreeEntry* out, bool* found) {
  *found = false;
  std::vector<PathElem> path;
  PageId leaf;
  // Descend for the maximal entry with this key.
  PC_RETURN_IF_ERROR(DescendToLeaf({key, UINT64_MAX}, &path, &leaf));
  std::vector<std::byte> buf;
  PC_RETURN_IF_ERROR(ReadPage(leaf, &buf));
  Node n;
  PC_RETURN_IF_ERROR(Decode(buf, &n));
  auto it = LeafUpperBound(n.leaf, BTreeEntry{key, UINT64_MAX});
  if (it != n.leaf.begin()) {
    *out = *(it - 1);
    *found = true;
    return Status::OK();
  }
  // The floor lives in the rightmost leaf of the nearest left subtree.
  while (!path.empty()) {
    PathElem pe = path.back();
    path.pop_back();
    if (pe.child_idx == 0) continue;
    PC_RETURN_IF_ERROR(ReadPage(pe.page, &buf));
    PC_RETURN_IF_ERROR(Decode(buf, &n));
    PageId cur = n.children[pe.child_idx - 1].child;
    for (;;) {
      PC_RETURN_IF_ERROR(ReadPage(cur, &buf));
      PC_RETURN_IF_ERROR(Decode(buf, &n));
      if (n.is_leaf) break;
      cur = n.children.back().child;
    }
    if (n.leaf.empty()) return Status::OK();
    *out = n.leaf.back();
    *found = true;
    return Status::OK();
  }
  return Status::OK();
}

Status BPlusTree::ScanFrom(int64_t lo,
                           const std::function<bool(const BTreeEntry&)>& cb) {
  PageId leaf;
  PC_RETURN_IF_ERROR(DescendToLeaf({lo, 0}, nullptr, &leaf));
  std::vector<std::byte> buf;
  PageId cur = leaf;
  bool first = true;
  while (cur != kInvalidPageId) {
    PC_RETURN_IF_ERROR(ReadPage(cur, &buf));
    Node n;
    PC_RETURN_IF_ERROR(Decode(buf, &n));
    size_t start = 0;
    if (first) {
      start = kernels::LowerBoundKV(n.leaf.data(), n.leaf.size(), lo, 0);
      first = false;
    }
    for (size_t i = start; i < n.leaf.size(); ++i) {
      if (!cb(n.leaf[i])) return Status::OK();
    }
    cur = n.next;
  }
  return Status::OK();
}

Status BPlusTree::RangeScan(int64_t lo, int64_t hi,
                            std::vector<BTreeEntry>* out) {
  return ScanFrom(lo, [&](const BTreeEntry& e) {
    if (e.key > hi) return false;
    out->push_back(e);
    return true;
  });
}

Status BPlusTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("tree not initialized");
  }
  std::vector<PageId> leaves_in_order;
  uint64_t counted = 0;

  // Iterative DFS carrying (page, depth, lower bound, upper bound).
  struct Item {
    PageId page;
    uint32_t depth;
    BTreeEntry lo;
    bool has_lo;
    BTreeEntry hi;
    bool has_hi;
  };
  std::vector<Item> stack;
  stack.push_back({root_, 1, {}, false, {}, false});
  std::vector<std::byte> buf;
  uint32_t leaf_depth = 0;

  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    PC_RETURN_IF_ERROR(ReadPage(item.page, &buf));
    Node n;
    PC_RETURN_IF_ERROR(Decode(buf, &n));
    if (n.is_leaf) {
      if (leaf_depth == 0) leaf_depth = item.depth;
      if (leaf_depth != item.depth) {
        return Status::Corruption("leaves at differing depths");
      }
      if (item.depth != height_) {
        return Status::Corruption("height_ does not match leaf depth");
      }
      if (item.page != root_ && n.leaf.size() < leaf_cap_ / 2) {
        return Status::Corruption("leaf underfull");
      }
      for (size_t i = 0; i < n.leaf.size(); ++i) {
        if (i > 0 && !EntryLess(n.leaf[i - 1], n.leaf[i])) {
          return Status::Corruption("leaf entries out of order");
        }
        if (item.has_lo && EntryLess(n.leaf[i], item.lo)) {
          return Status::Corruption("leaf entry below lower fence");
        }
        if (item.has_hi && !EntryLess(n.leaf[i], item.hi)) {
          return Status::Corruption("leaf entry above upper fence");
        }
      }
      counted += n.leaf.size();
      leaves_in_order.push_back(item.page);
      continue;
    }
    if (n.children.size() < 2) {
      return Status::Corruption("internal node with < 2 children");
    }
    if (item.page != root_ && n.children.size() < internal_cap_ / 2) {
      return Status::Corruption("internal node underfull");
    }
    for (size_t i = 1; i < n.children.size(); ++i) {
      if (!EntryLess(n.children[i - 1].sep, n.children[i].sep)) {
        return Status::Corruption("separators out of order");
      }
    }
    // Push children right-to-left so DFS visits them left-to-right.
    for (size_t ri = n.children.size(); ri-- > 0;) {
      Item child;
      child.page = n.children[ri].child;
      child.depth = item.depth + 1;
      if (ri == 0) {
        child.lo = item.lo;
        child.has_lo = item.has_lo;
      } else {
        child.lo = n.children[ri].sep;
        child.has_lo = true;
      }
      if (ri + 1 < n.children.size()) {
        child.hi = n.children[ri + 1].sep;
        child.has_hi = true;
      } else {
        child.hi = item.hi;
        child.has_hi = item.has_hi;
      }
      stack.push_back(child);
    }
  }

  if (counted != size_) {
    return Status::Corruption("size_ mismatch: counted " +
                              std::to_string(counted) + " expected " +
                              std::to_string(size_));
  }

  // Verify the leaf chain visits the leaves in DFS (key) order.
  PageId cur = leaves_in_order.front();
  for (PageId expect : leaves_in_order) {
    if (cur != expect) return Status::Corruption("leaf chain out of order");
    PC_RETURN_IF_ERROR(ReadPage(cur, &buf));
    Node n;
    PC_RETURN_IF_ERROR(Decode(buf, &n));
    cur = n.next;
  }
  if (cur != kInvalidPageId) {
    return Status::Corruption("leaf chain does not terminate");
  }
  return Status::OK();
}

}  // namespace pathcache
