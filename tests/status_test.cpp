#include "util/status.h"

#include <gtest/gtest.h>

#include <iterator>

namespace pathcache {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(Status::Overloaded("x").IsOverloaded());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
}

TEST(StatusTest, CopyPreservesMessage) {
  Status a = Status::Corruption("bad page");
  Status b = a;
  EXPECT_EQ(b.message(), "bad page");
  EXPECT_TRUE(b.IsCorruption());
}

TEST(StatusTest, WithPrefixKeepsEveryCode) {
  const Status errors[] = {
      Status::InvalidArgument("m"), Status::NotFound("m"),
      Status::IoError("m"),         Status::Corruption("m"),
      Status::NotSupported("m"),    Status::OutOfRange("m"),
      Status::FailedPrecondition("m"), Status::Overloaded("m"),
      Status::DeadlineExceeded("m")};
  // One factory per non-OK code, in enum order: a new code must join here.
  ASSERT_EQ(std::size(errors),
            static_cast<size_t>(StatusCode::kDeadlineExceeded));
  for (size_t i = 0; i < std::size(errors); ++i) {
    const Status& s = errors[i];
    EXPECT_EQ(static_cast<size_t>(s.code()), i + 1);
    const Status p = s.WithPrefix("shard 3: ");
    EXPECT_EQ(p.code(), s.code()) << s.ToString();
    EXPECT_EQ(p.message(), "shard 3: m");
  }
  EXPECT_TRUE(Status::OK().WithPrefix("shard 3: ").ok());
  EXPECT_TRUE(Status::OK().WithPrefix("shard 3: ").message().empty());
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IOError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOverloaded), "Overloaded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.ToStatus().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_TRUE(r.ToStatus().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsThrough() {
  PC_RETURN_IF_ERROR(Status::IoError("inner"));
  return Status::OK();
}

Status Succeeds() {
  PC_RETURN_IF_ERROR(Status::OK());
  return Status::InvalidArgument("reached end");
}

TEST(MacroTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsThrough().IsIoError());
  EXPECT_TRUE(Succeeds().IsInvalidArgument());
}

Result<int> MakeValue(bool ok) {
  if (ok) return 41;
  return Status::NotFound("no value");
}

Status UseAssign(bool ok, int* out) {
  PC_ASSIGN_OR_RETURN(int v, MakeValue(ok));
  *out = v + 1;
  return Status::OK();
}

TEST(MacroTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UseAssign(true, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseAssign(false, &out).IsNotFound());
}

}  // namespace
}  // namespace pathcache
