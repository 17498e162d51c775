// Persistence: Save()/Open() round trips, including across a process-style
// close-and-reopen of a FilePageDevice store.

#include "core/persist.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "core/pst_external.h"
#include "core/pst_two_level.h"
#include "core/three_sided.h"
#include "io/crc32c.h"
#include "io/file_page_device.h"
#include "io/mem_page_device.h"
#include "workload/generators.h"
#include "workload/oracle.h"

namespace pathcache {
namespace {

std::vector<Point> UniformPts(uint64_t n, uint64_t seed) {
  PointGenOptions o;
  o.n = n;
  o.seed = seed;
  o.coord_max = 300'000;
  return GenPointsUniform(o);
}

TEST(PersistTest, ExternalPstRoundTrip) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  auto pts = UniformPts(20000, 3);
  ASSERT_TRUE(pst.Build(pts).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  ExternalPst reopened(&dev);
  ASSERT_TRUE(reopened.Open(manifest.value()).ok());
  EXPECT_EQ(reopened.size(), pst.size());
  EXPECT_EQ(reopened.segment_len(), pst.segment_len());

  Rng rng(5);
  for (int i = 0; i < 15; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> a, b;
    ASSERT_TRUE(pst.QueryTwoSided(q, &a).ok());
    ASSERT_TRUE(reopened.QueryTwoSided(q, &b).ok());
    ASSERT_TRUE(SameResult(a, b));
  }
  // Destroy through the reopened handle reclaims every page.
  ASSERT_TRUE(reopened.Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(PersistTest, TwoLevelPstRoundTripViaDispatcher) {
  MemPageDevice dev(4096);
  TwoLevelPst pst(&dev);
  auto pts = UniformPts(30000, 7);
  ASSERT_TRUE(pst.Build(pts).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  auto reopened = OpenTwoSidedIndex(&dev, manifest.value());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->size(), pts.size());

  Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    QueryStats qs;
    ASSERT_TRUE(reopened.value()->QueryTwoSided(q, &got, &qs).ok());
    ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q)));
  }
  ASSERT_TRUE(reopened.value()->Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(PersistTest, OpenRejectsWrongTypeAndGarbage) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(1000, 11)).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  TwoLevelPst wrong(&dev);
  EXPECT_TRUE(wrong.Open(manifest.value()).IsInvalidArgument());

  PageId garbage = dev.Allocate().value();
  ExternalPst bad(&dev);
  EXPECT_TRUE(bad.Open(garbage).IsCorruption());

  ExternalPst busy(&dev);
  ASSERT_TRUE(busy.Build(UniformPts(100, 13)).ok());
  EXPECT_EQ(busy.Open(manifest.value()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistTest, SurvivesFileDeviceReopen) {
  const std::string path = ::testing::TempDir() + "/pc_persist.db";
  auto pts = UniformPts(15000, 17);
  PageId manifest;
  {
    auto r = FilePageDevice::Create(path, 4096);
    ASSERT_TRUE(r.ok());
    auto dev = std::move(r).value();
    TwoLevelPst pst(dev.get());
    ASSERT_TRUE(pst.Build(pts).ok());
    auto m = pst.Save();
    ASSERT_TRUE(m.ok());
    manifest = m.value();
    // Device closes when dev goes out of scope (process "exit").
  }
  {
    auto r = FilePageDevice::Open(path, 4096);
    ASSERT_TRUE(r.ok());
    auto dev = std::move(r).value();
    TwoLevelPst pst(dev.get());
    ASSERT_TRUE(pst.Open(manifest).ok());
    EXPECT_EQ(pst.size(), pts.size());
    Rng rng(19);
    for (int i = 0; i < 10; ++i) {
      auto q = SampleTwoSidedQuery(pts, &rng);
      std::vector<Point> got;
      ASSERT_TRUE(pst.QueryTwoSided(q, &got).ok());
      ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q)));
    }
  }
}

TEST(PersistTest, FileDeviceOpenValidations) {
  EXPECT_FALSE(FilePageDevice::Open("/nonexistent/pc.db", 4096).ok());
  const std::string path = ::testing::TempDir() + "/pc_badsize.db";
  {
    auto r = FilePageDevice::Create(path, 512);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value()->Allocate().ok());
  }
  // Reopening with a mismatched page size that does not divide the file.
  auto bad = FilePageDevice::Open(path, 4096);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace pathcache

namespace pathcache {
namespace {

TEST(PersistTest, NestedMultilevelRoundTrip) {
  MemPageDevice dev(1024);  // small B so levels=3 really nests
  TwoLevelPstOptions opts;
  opts.levels = 3;
  TwoLevelPst pst(&dev, opts);
  auto pts = UniformPts(20000, 23);
  ASSERT_TRUE(pst.Build(pts).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  TwoLevelPst reopened(&dev);
  ASSERT_TRUE(reopened.Open(manifest.value()).ok());
  EXPECT_EQ(reopened.levels(), 3u);
  Rng rng(29);
  for (int i = 0; i < 10; ++i) {
    auto q = SampleTwoSidedQuery(pts, &rng);
    std::vector<Point> got;
    ASSERT_TRUE(reopened.QueryTwoSided(q, &got).ok());
    ASSERT_TRUE(SameResult(got, BruteTwoSided(pts, q)));
  }
  ASSERT_TRUE(reopened.Destroy().ok());
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST(PersistTest, TruncatedOwnedListChainIsCorruption) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(20000, 37)).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  // Zero the first page of the owned-list chain: the header still promises
  // owned_count entries, so the reader must flag the truncation.
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(dev.Read(manifest.value(), buf.data()).ok());
  PstManifestHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  ASSERT_NE(hdr.owned_head, kInvalidPageId);
  ASSERT_GT(hdr.owned_count, 0u);
  std::vector<std::byte> zeros(4096, std::byte{0});
  ASSERT_TRUE(dev.Write(hdr.owned_head, zeros.data()).ok());

  ExternalPst reopened(&dev);
  Status s = reopened.Open(manifest.value());
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST(PersistTest, ScribbledMagicIsCorruption) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(2000, 41)).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(dev.Read(manifest.value(), buf.data()).ok());
  const uint64_t garbage = 0xDEADBEEFDEADBEEFull;
  std::memcpy(buf.data(), &garbage, sizeof(garbage));
  ASSERT_TRUE(dev.Write(manifest.value(), buf.data()).ok());

  ExternalPst reopened(&dev);
  Status s = reopened.Open(manifest.value());
  ASSERT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("not a pathcache manifest"),
            std::string_view::npos);
}

// Restamps a manifest header's CRC in place, the way a (possibly future)
// writer would — used to forge headers that must fail on semantic checks
// rather than on the checksum gate.
void RestampHeaderCrc(std::byte* page) {
  PstManifestHeader hdr;
  std::memcpy(&hdr, page, sizeof(hdr));
  hdr.header_crc = 0;
  std::memcpy(page, &hdr, sizeof(hdr));
  hdr.header_crc = Crc32c(page, sizeof(hdr));
  std::memcpy(page + offsetof(PstManifestHeader, header_crc), &hdr.header_crc,
              sizeof(hdr.header_crc));
}

TEST(PersistTest, FutureFormatVersionIsRejected) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(2000, 43)).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());

  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(dev.Read(manifest.value(), buf.data()).ok());
  const uint32_t future = kManifestFormatVersion + 7;
  std::memcpy(buf.data() + offsetof(PstManifestHeader, format_version),
              &future, sizeof(future));
  // A future writer stamps a valid CRC; forge one so the version check —
  // not the checksum gate — is what rejects the manifest.
  RestampHeaderCrc(buf.data());
  ASSERT_TRUE(dev.Write(manifest.value(), buf.data()).ok());

  ExternalPst reopened(&dev);
  Status s = reopened.Open(manifest.value());
  ASSERT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("newer"), std::string_view::npos);
}

// Every single-byte corruption anywhere in the header region must surface
// as Corruption (or InvalidArgument), never a crash and never a structure
// that silently opens with a skewed header — the header CRC's whole job.
// Swept over two structure families so both manifest writers are covered.
template <typename Structure, typename BuildInput>
void ByteFlipSweep(const BuildInput& input) {
  MemPageDevice dev(4096);
  Structure built(&dev);
  ASSERT_TRUE(built.Build(input).ok());
  auto manifest = built.Save();
  ASSERT_TRUE(manifest.ok());

  std::vector<std::byte> pristine(4096);
  ASSERT_TRUE(dev.Read(manifest.value(), pristine.data()).ok());
  std::vector<std::byte> buf = pristine;
  for (size_t off = 0; off < sizeof(PstManifestHeader); ++off) {
    buf[off] ^= std::byte{0xFF};
    ASSERT_TRUE(dev.Write(manifest.value(), buf.data()).ok());
    Structure reopened(&dev);
    Status s = reopened.Open(manifest.value());
    ASSERT_FALSE(s.ok()) << "byte " << off << " flip opened successfully";
    EXPECT_TRUE(s.IsCorruption() || s.IsInvalidArgument())
        << "byte " << off << ": " << s.ToString();
    buf[off] = pristine[off];
  }
  // The unflipped manifest still opens — the sweep always restored cleanly.
  ASSERT_TRUE(dev.Write(manifest.value(), pristine.data()).ok());
  Structure ok(&dev);
  EXPECT_TRUE(ok.Open(manifest.value()).ok());
}

TEST(PersistTest, HeaderByteFlipSweepExternalPst) {
  ByteFlipSweep<ExternalPst>(UniformPts(2000, 47));
}

TEST(PersistTest, HeaderByteFlipSweepThreeSidedPst) {
  ByteFlipSweep<ThreeSidedPst>(UniformPts(2000, 53));
}

TEST(PersistTest, SaveIsRepeatable) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(5000, 31)).ok());
  auto m1 = pst.Save();
  ASSERT_TRUE(m1.ok());
  auto m2 = pst.Save();
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(m1.value(), m2.value());
  // Either manifest opens; the later one owns the earlier one's pages too.
  ExternalPst a(&dev);
  ASSERT_TRUE(a.Open(m2.value()).ok());
  std::vector<Point> out;
  ASSERT_TRUE(a.QueryTwoSided({0, 0}, &out).ok());
  EXPECT_EQ(out.size(), 5000u);
}

// Builds a ThreeSidedPst, saves it, and rewrites the manifest header's
// format_version (restamping the CRC, as a writer of that version would).
struct RestampedStore {
  MemPageDevice dev{4096};
  std::vector<Point> pts;
  PageId manifest = kInvalidPageId;

  RestampedStore(uint64_t seed, uint32_t version) {
    pts = UniformPts(15000, seed);
    ThreeSidedPst pst(&dev);
    EXPECT_TRUE(pst.Build(pts).ok());
    auto m = pst.Save();
    EXPECT_TRUE(m.ok());
    manifest = m.value();
    std::vector<std::byte> buf(dev.page_size());
    EXPECT_TRUE(dev.Read(manifest, buf.data()).ok());
    std::memcpy(buf.data() + offsetof(PstManifestHeader, format_version),
                &version, sizeof(version));
    RestampHeaderCrc(buf.data());
    EXPECT_TRUE(dev.Write(manifest, buf.data()).ok());
  }
};

TEST(PersistTest, InterleavedManifestVersionsStillOpen) {
  // Versions 1-3 only ever held the interleaved page layout this build
  // writes, so their stores must open, verify and answer like the oracle.
  for (uint32_t version : {1u, 2u, 3u}) {
    RestampedStore store(41, version);
    ThreeSidedPst reopened(&store.dev);
    Status opened = reopened.Open(store.manifest);
    ASSERT_TRUE(opened.ok()) << "version " << version << ": "
                             << opened.ToString();
    Status checked = reopened.CheckStructure();
    EXPECT_TRUE(checked.ok()) << checked.ToString();
    Rng rng(7);
    for (int i = 0; i < 15; ++i) {
      auto q = SampleThreeSidedQuery(store.pts, 0.05, &rng);
      std::vector<Point> got;
      ASSERT_TRUE(reopened.QueryThreeSided(q, &got).ok());
      EXPECT_TRUE(SameResult(got, BruteThreeSided(store.pts, q)))
          << "version " << version << " query " << i;
    }
  }
}

TEST(PersistTest, DroppedPackedFormatVersionIsNotSupported) {
  // Version 4 was the only manifest whose pages could use the dropped
  // packed page format; it is refused by type, before any page is decoded.
  RestampedStore store(43, kDroppedPackedManifestVersion);
  ThreeSidedPst reopened(&store.dev);
  Status s = reopened.Open(store.manifest);
  ASSERT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
  EXPECT_NE(s.message().find("v3"), std::string_view::npos) << s.ToString();
}

TEST(PersistTest, ManifestStampsCurrentFormatVersion) {
  MemPageDevice dev(4096);
  ExternalPst pst(&dev);
  ASSERT_TRUE(pst.Build(UniformPts(2000, 43)).ok());
  auto manifest = pst.Save();
  ASSERT_TRUE(manifest.ok());
  std::vector<std::byte> buf(dev.page_size());
  ASSERT_TRUE(dev.Read(manifest.value(), buf.data()).ok());
  PstManifestHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  EXPECT_EQ(hdr.format_version, kManifestFormatVersion);
  EXPECT_EQ(hdr.format_version, 5u);
}

}  // namespace
}  // namespace pathcache
