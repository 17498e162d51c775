// FilePageDevice failure paths against a real filesystem: truncated stores,
// short reads, and the File -> Checksum / File -> Retry stacks.

#include "io/file_page_device.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "io/checksum_page_device.h"
#include "io/fault_page_device.h"
#include "io/retry_page_device.h"

namespace pathcache {
namespace {

std::string TmpPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::byte> Pattern(uint32_t page_size, uint8_t seed) {
  std::vector<std::byte> buf(page_size);
  for (uint32_t i = 0; i < page_size; ++i) {
    buf[i] = static_cast<std::byte>((seed + i * 13) & 0xff);
  }
  return buf;
}

TEST(FileRobustnessTest, OpenRejectsTruncatedStore) {
  const std::string path = TmpPath("pc_truncated.db");
  {
    auto r = FilePageDevice::Create(path, 512);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value()->Allocate().ok());
    ASSERT_TRUE(r.value()->Allocate().ok());
  }
  ASSERT_EQ(::truncate(path.c_str(), 2 * 512 - 100), 0);
  auto bad = FilePageDevice::Open(path, 512);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("not a multiple"),
            std::string_view::npos);
}

TEST(FileRobustnessTest, ZeroLengthReadMidPageIsCorruption) {
  const std::string path = TmpPath("pc_shortread.db");
  auto r = FilePageDevice::Create(path, 512);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  ASSERT_TRUE(dev->Allocate().ok());
  ASSERT_TRUE(dev->Allocate().ok());
  auto data = Pattern(512, 1);
  ASSERT_TRUE(dev->Write(1, data.data()).ok());

  // Chop the file under the open device: page 1 now ends mid-page, so the
  // retried pread hits EOF and must surface Corruption, not a partial page.
  ASSERT_EQ(::truncate(path.c_str(), 512 + 100), 0);
  std::vector<std::byte> buf(512);
  Status s = dev->Read(1, buf.data());
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("short read"), std::string_view::npos);

  // Page 0 is still whole and must read fine.
  EXPECT_TRUE(dev->Read(0, buf.data()).ok());
}

TEST(FileRobustnessTest, TruncatedFileFailsReadBatchWithCorruption) {
  const std::string path = TmpPath("pc_batch_trunc.db");
  auto r = FilePageDevice::Create(path, 512);
  ASSERT_TRUE(r.ok());
  auto dev = std::move(r).value();
  for (uint8_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(dev->Allocate().ok());
    ASSERT_TRUE(dev->Write(p, Pattern(512, p).data()).ok());
  }

  // Cut the file while the device still believes all 10 pages exist; pages
  // 6..9 are now beyond EOF and must surface as Corruption ("short read"),
  // never as silently zero-filled buffers.
  ASSERT_EQ(::truncate(path.c_str(), 6 * 512), 0);
  std::vector<PageId> batch{0, 1, 5, 6, 8, 9};  // several runs, some past EOF
  std::vector<std::byte> buf(batch.size() * 512);
  Status s = dev->ReadBatch(batch, buf.data());
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("short read"), std::string_view::npos);

  // The device stays usable: the healthy prefix reads clean afterwards.
  std::vector<PageId> healthy{0, 2, 4};
  std::vector<std::byte> ok_buf(healthy.size() * 512);
  ASSERT_TRUE(dev->ReadBatch(healthy, ok_buf.data()).ok());
  for (size_t k = 0; k < healthy.size(); ++k) {
    auto want = Pattern(512, static_cast<uint8_t>(healthy[k]));
    EXPECT_EQ(std::memcmp(ok_buf.data() + k * 512, want.data(), 512), 0);
  }
}

TEST(FileRobustnessTest, RetryStackRecoversTransientFileFault) {
  const std::string path = TmpPath("pc_retry.db");
  auto r = FilePageDevice::Create(path, 512);
  ASSERT_TRUE(r.ok());
  FaultPageDevice fault(r.value().get());
  RetryPageDevice dev(&fault);
  auto id = dev.Allocate();
  ASSERT_TRUE(id.ok());
  auto data = Pattern(512, 2);
  ASSERT_TRUE(dev.Write(id.value(), data.data()).ok());

  fault.FailReadAt(0);
  std::vector<std::byte> back(512);
  ASSERT_TRUE(dev.Read(id.value(), back.data()).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), 512), 0);
  EXPECT_EQ(dev.recovered(), 1u);
}

TEST(FileRobustnessTest, ChecksumStackDetectsTornWriteOnDisk) {
  const std::string path = TmpPath("pc_torn.db");
  auto r = FilePageDevice::Create(path, 512);
  ASSERT_TRUE(r.ok());
  FaultPageDevice fault(r.value().get());
  ChecksumPageDevice dev(&fault);
  auto id = dev.Allocate();
  ASSERT_TRUE(id.ok());

  std::vector<std::byte> v1(dev.page_size(), std::byte{0xaa});
  std::vector<std::byte> v2(dev.page_size(), std::byte{0x55});
  ASSERT_TRUE(dev.Write(id.value(), v1.data()).ok());
  fault.TearWriteAt(1, /*keep_bytes=*/64);
  ASSERT_TRUE(dev.Write(id.value(), v2.data()).ok());

  std::vector<std::byte> back(dev.page_size());
  EXPECT_EQ(dev.Read(id.value(), back.data()).code(),
            StatusCode::kCorruption);
}

TEST(FileRobustnessTest, ChecksumSurvivesFileReopen) {
  const std::string path = TmpPath("pc_sum_reopen.db");
  std::vector<std::byte> data;
  {
    auto r = FilePageDevice::Create(path, 512);
    ASSERT_TRUE(r.ok());
    ChecksumPageDevice dev(r.value().get());
    auto id = dev.Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(id.value(), 0u);
    data = Pattern(dev.page_size(), 3);
    ASSERT_TRUE(dev.Write(id.value(), data.data()).ok());
  }
  {
    auto r = FilePageDevice::Open(path, 512);
    ASSERT_TRUE(r.ok());
    ChecksumPageDevice dev(r.value().get());
    std::vector<std::byte> back(dev.page_size());
    ASSERT_TRUE(dev.Read(0, back.data()).ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
    EXPECT_EQ(dev.checksum_failures(), 0u);
  }
}

}  // namespace
}  // namespace pathcache
