#include "btree/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "io/mem_page_device.h"
#include "util/mathutil.h"
#include "util/random.h"

namespace pathcache {
namespace {

struct EntryCmp {
  bool operator()(const BTreeEntry& a, const BTreeEntry& b) const {
    return EntryLess(a, b);
  }
};
using OracleSet = std::set<BTreeEntry, EntryCmp>;

std::vector<BTreeEntry> SortedEntries(uint64_t n, uint64_t seed = 1,
                                      int64_t key_span = 1'000'000) {
  Rng rng(seed);
  OracleSet set;
  while (set.size() < n) {
    set.insert({rng.UniformRange(0, key_span), rng.Next()});
  }
  return {set.begin(), set.end()};
}

TEST(BTreeTest, EmptyTree) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1u);
  bool found = true;
  uint64_t v;
  ASSERT_TRUE(t.Get(5, &v, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeTest, BulkLoadAndGet) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  auto entries = SortedEntries(10000);
  ASSERT_TRUE(t.BulkLoad(entries).ok());
  EXPECT_EQ(t.size(), entries.size());
  ASSERT_TRUE(t.CheckInvariants().ok());

  for (size_t i = 0; i < entries.size(); i += 97) {
    bool found = false;
    uint64_t v = 0;
    ASSERT_TRUE(t.Get(entries[i].key, &v, &found).ok());
    EXPECT_TRUE(found) << "key " << entries[i].key;
  }
  bool found = true;
  uint64_t v;
  ASSERT_TRUE(t.Get(-12345, &v, &found).ok());
  EXPECT_FALSE(found);
}

TEST(BTreeTest, UnknownNodeFormatIsCorruption) {
  // Byte 1 of a node (NodeHeader.pad[0]) is the body format version; only
  // the interleaved version 0 is readable.  Version 1 was the dropped
  // deinterleaved layout.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    MemPageDevice dev(4096);
    BPlusTree t(&dev);
    ASSERT_TRUE(t.Init().ok());  // the root leaf is the device's page 0
    ASSERT_TRUE(t.Insert({5, 7}).ok());
    std::vector<std::byte> buf(dev.page_size());
    ASSERT_TRUE(dev.Read(0, buf.data()).ok());
    buf[1] = std::byte{version};
    ASSERT_TRUE(dev.Write(0, buf.data()).ok());
    bool found = false;
    uint64_t v = 0;
    Status s = t.Get(5, &v, &found);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    EXPECT_FALSE(found);
  }
}

TEST(BTreeTest, BulkLoadRejectsUnsorted) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  std::vector<BTreeEntry> bad = {{5, 0}, {3, 0}};
  EXPECT_TRUE(t.BulkLoad(bad).IsInvalidArgument());
}

TEST(BTreeTest, BulkLoadRejectsNonEmptyTree) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  std::vector<BTreeEntry> e = {{1, 1}};
  EXPECT_EQ(t.BulkLoad(e).code(), StatusCode::kFailedPrecondition);
}

TEST(BTreeTest, RangeScanMatchesOracle) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  auto entries = SortedEntries(5000, 3);
  ASSERT_TRUE(t.BulkLoad(entries).ok());

  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    int64_t a = rng.UniformRange(0, 1'000'000);
    int64_t b = rng.UniformRange(0, 1'000'000);
    if (a > b) std::swap(a, b);
    std::vector<BTreeEntry> got;
    ASSERT_TRUE(t.RangeScan(a, b, &got).ok());
    std::vector<BTreeEntry> want;
    for (const auto& e : entries) {
      if (e.key >= a && e.key <= b) want.push_back(e);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(BTreeTest, InsertThenGetAll) {
  MemPageDevice dev(512);  // small pages to force a deep tree
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  auto entries = SortedEntries(2000, 7);
  // Insert in shuffled order.
  std::vector<BTreeEntry> shuffled = entries;
  Rng rng(11);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const auto& e : shuffled) ASSERT_TRUE(t.Insert(e).ok());
  EXPECT_EQ(t.size(), entries.size());
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_GT(t.height(), 2u);

  std::vector<BTreeEntry> all;
  ASSERT_TRUE(t.RangeScan(INT64_MIN, INT64_MAX, &all).ok());
  EXPECT_EQ(all, entries);
}

TEST(BTreeTest, DuplicateInsertRejected) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  ASSERT_TRUE(t.Insert({1, 2}).ok());
  EXPECT_TRUE(t.Insert({1, 2}).IsInvalidArgument());
  ASSERT_TRUE(t.Insert({1, 3}).ok());  // same key, new value is fine
  EXPECT_EQ(t.size(), 2u);
}

TEST(BTreeTest, DeleteMissingIsNotFound) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  ASSERT_TRUE(t.Insert({1, 1}).ok());
  EXPECT_TRUE(t.Delete({2, 2}).IsNotFound());
}

TEST(BTreeTest, MixedInsertDeleteAgainstOracle) {
  MemPageDevice dev(512);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  OracleSet oracle;
  Rng rng(13);

  for (int op = 0; op < 8000; ++op) {
    if (oracle.empty() || rng.Bernoulli(0.6)) {
      BTreeEntry e{rng.UniformRange(0, 5000), rng.Uniform(1 << 20)};
      if (oracle.insert(e).second) {
        ASSERT_TRUE(t.Insert(e).ok());
      } else {
        EXPECT_TRUE(t.Insert(e).IsInvalidArgument());
      }
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      ASSERT_TRUE(t.Delete(*it).ok()) << "op " << op;
      oracle.erase(it);
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(t.CheckInvariants().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(t.CheckInvariants().ok());
  std::vector<BTreeEntry> all;
  ASSERT_TRUE(t.RangeScan(INT64_MIN, INT64_MAX, &all).ok());
  std::vector<BTreeEntry> want(oracle.begin(), oracle.end());
  EXPECT_EQ(all, want);
}

TEST(BTreeTest, DeleteDownToEmpty) {
  MemPageDevice dev(512);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  auto entries = SortedEntries(1000, 17);
  for (const auto& e : entries) ASSERT_TRUE(t.Insert(e).ok());
  Rng rng(19);
  std::vector<BTreeEntry> shuffled = entries;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const auto& e : shuffled) ASSERT_TRUE(t.Delete(e).ok());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1u);
  ASSERT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeTest, PointQueryIoIsLogarithmic) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  auto entries = SortedEntries(200000, 23, 100'000'000);
  ASSERT_TRUE(t.BulkLoad(entries).ok());

  // The paper's Section 1 claim: key lookups in O(log_B n) I/Os.
  dev.ResetStats();
  bool found;
  uint64_t v;
  ASSERT_TRUE(t.Get(entries[12345].key, &v, &found).ok());
  EXPECT_TRUE(found);
  // height should be ~ log_B n; allow the +1 leaf-peek.
  uint64_t bound = CeilLogBase(entries.size(), t.leaf_capacity()) + 2;
  EXPECT_LE(dev.stats().reads, bound);
}

TEST(BTreeTest, RangeScanIoIsOutputSensitive) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  auto entries = SortedEntries(100000, 29, 100'000'000);
  ASSERT_TRUE(t.BulkLoad(entries).ok());

  dev.ResetStats();
  std::vector<BTreeEntry> got;
  ASSERT_TRUE(t.RangeScan(0, 50'000'000, &got).ok());
  // O(log_B n + t/B): generous constant of 3 on the t/B term (fill factor
  // ~0.9 plus partial boundary leaves).
  uint64_t bound = t.height() + 3 * CeilDiv(got.size(), t.leaf_capacity()) + 2;
  EXPECT_LE(dev.stats().reads, bound);
  EXPECT_GT(got.size(), 10000u);
}

TEST(BTreeTest, UpdateIoIsLogarithmic) {
  MemPageDevice dev(4096);
  BPlusTree t(&dev);
  auto entries = SortedEntries(100000, 31, 100'000'000);
  ASSERT_TRUE(t.BulkLoad(entries).ok());

  dev.ResetStats();
  Rng rng(37);
  const int kOps = 200;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        t.Insert({rng.UniformRange(0, 100'000'000), 1ULL << 40 | i}).ok());
  }
  // Amortized I/O per insert stays within a small multiple of the height.
  double per_op = static_cast<double>(dev.stats().total()) / kOps;
  EXPECT_LE(per_op, 4.0 * t.height() + 4);
}

TEST(BTreeTest, FindFloorBasics) {
  MemPageDevice dev(512);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  bool found;
  BTreeEntry e;
  ASSERT_TRUE(t.FindFloor(10, &e, &found).ok());
  EXPECT_FALSE(found);  // empty tree

  for (int64_t k : {10, 20, 30, 40}) ASSERT_TRUE(t.Insert({k, 0}).ok());
  ASSERT_TRUE(t.FindFloor(5, &e, &found).ok());
  EXPECT_FALSE(found);  // below the minimum
  ASSERT_TRUE(t.FindFloor(10, &e, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(e.key, 10);
  ASSERT_TRUE(t.FindFloor(25, &e, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(e.key, 20);
  ASSERT_TRUE(t.FindFloor(99, &e, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(e.key, 40);
}

TEST(BTreeTest, FindFloorAcrossLeafBoundaries) {
  MemPageDevice dev(512);  // small pages force many leaves
  BPlusTree t(&dev);
  auto entries = SortedEntries(3000, 43);
  ASSERT_TRUE(t.BulkLoad(entries).ok());
  Rng rng(47);
  for (int i = 0; i < 200; ++i) {
    int64_t key = rng.UniformRange(-10, 1'000'010);
    bool found;
    BTreeEntry e;
    ASSERT_TRUE(t.FindFloor(key, &e, &found).ok());
    // Oracle: last entry with key <= target.
    const BTreeEntry* want = nullptr;
    for (const auto& ent : entries) {
      if (ent.key <= key) want = &ent;
    }
    if (want == nullptr) {
      EXPECT_FALSE(found) << key;
    } else {
      ASSERT_TRUE(found) << key;
      EXPECT_EQ(e, *want) << key;
    }
  }
}

TEST(BTreeTest, FindFloorWithDuplicateKeys) {
  MemPageDevice dev(512);
  BPlusTree t(&dev);
  ASSERT_TRUE(t.Init().ok());
  for (uint64_t v = 0; v < 300; ++v) ASSERT_TRUE(t.Insert({7, v}).ok());
  bool found;
  BTreeEntry e;
  ASSERT_TRUE(t.FindFloor(7, &e, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(e.key, 7);
  EXPECT_EQ(e.value, 299u);  // the maximal (key, value) pair at this key
}

class BTreePageSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreePageSizeTest, WorksAcrossPageSizes) {
  MemPageDevice dev(GetParam());
  BPlusTree t(&dev);
  auto entries = SortedEntries(3000, 41);
  ASSERT_TRUE(t.BulkLoad(entries).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  std::vector<BTreeEntry> all;
  ASSERT_TRUE(t.RangeScan(INT64_MIN, INT64_MAX, &all).ok());
  EXPECT_EQ(all, entries);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BTreePageSizeTest,
                         ::testing::Values(256, 512, 1024, 4096, 16384));

}  // namespace
}  // namespace pathcache
