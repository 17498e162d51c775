#include "util/status.h"

namespace pathcache {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIoError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOverloaded:
      return "Overloaded";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  if (message_ && !message_->empty()) {
    out += ": ";
    out += *message_;
  }
  return out;
}

Status Status::WithPrefix(std::string_view prefix) const {
  if (ok()) return *this;
  std::string msg(prefix);
  msg += message();
  return Status(code_, std::move(msg));
}

}  // namespace pathcache
