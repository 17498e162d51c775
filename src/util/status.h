// Status / Result error-handling primitives.
//
// Modeled on the RocksDB/Arrow convention: fallible operations on the I/O
// path return a Status (or a Result<T> when they produce a value) instead of
// throwing.  A Status is cheap to copy in the OK case (no allocation).

#ifndef PATHCACHE_UTIL_STATUS_H_
#define PATHCACHE_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace pathcache {

/// Error taxonomy for the library.  Kept deliberately small; the message
/// carries the detail.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIoError = 3,
  kCorruption = 4,
  kNotSupported = 5,
  kOutOfRange = 6,
  kFailedPrecondition = 7,
  kOverloaded = 8,         // admission control: request rejected, retry later
  kDeadlineExceeded = 9,   // request expired before (or instead of) running
};

/// Returns a human-readable name for a StatusCode ("OK", "IOError", ...).
std::string_view StatusCodeToString(StatusCode code);

/// The result of a fallible operation: a code plus an optional message.
/// OK statuses carry no allocation and copy for free.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// Message attached at construction; empty for OK.
  std::string_view message() const {
    return message_ ? std::string_view(*message_) : std::string_view();
  }

  /// "OK" or "IOError: <message>".
  std::string ToString() const;

  /// The same code with `prefix` put in front of the message, so a caller
  /// can add context ("shard 1: ") without re-deciding the error class.
  /// OK stays OK.
  Status WithPrefix(std::string_view prefix) const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code),
        message_(msg.empty() ? nullptr
                             : std::make_shared<std::string>(std::move(msg))) {
  }

  StatusCode code_;
  std::shared_ptr<std::string> message_;
};

/// A value or an error.  `ok()` selects which accessor is valid.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : v_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(v_); }
  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }
  const Status& status() const { return std::get<Status>(v_); }

  /// Status::OK() if this holds a value.
  Status ToStatus() const { return ok() ? Status::OK() : status(); }

 private:
  std::variant<T, Status> v_;
};

// Propagates a non-OK Status to the caller.
#define PC_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::pathcache::Status _pc_st = (expr);         \
    if (!_pc_st.ok()) return _pc_st;             \
  } while (0)

// Evaluates a Result<T> expression; on error returns its Status, otherwise
// moves the value into `lhs`.
#define PC_ASSIGN_OR_RETURN(lhs, expr)           \
  auto PC_CONCAT_(_pc_res, __LINE__) = (expr);   \
  if (!PC_CONCAT_(_pc_res, __LINE__).ok())       \
    return PC_CONCAT_(_pc_res, __LINE__).status(); \
  lhs = std::move(PC_CONCAT_(_pc_res, __LINE__)).value()

#define PC_CONCAT_INNER_(a, b) a##b
#define PC_CONCAT_(a, b) PC_CONCAT_INNER_(a, b)

}  // namespace pathcache

#endif  // PATHCACHE_UTIL_STATUS_H_
