// Status / Result error model for libgus.
//
// Follows the Arrow/RocksDB idiom: library functions that can fail return
// Status (or Result<T> when they produce a value) instead of throwing.
// Internal invariant violations use GUS_CHECK (logging.h) and abort.

#ifndef GUS_UTIL_STATUS_H_
#define GUS_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace gus {

/// Machine-readable category of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotImplemented,
  kInternal,
  kKeyError,
  kTypeError,
  /// A deadline elapsed before the operation completed. Retryable: the
  /// operation may succeed if re-attempted with a fresh deadline.
  kDeadlineExceeded,
  /// A transient availability failure (lost worker, torn or missing
  /// transport frame). Retryable: re-executing the same work is expected
  /// to succeed once the fault clears — unlike kInvalidArgument, which
  /// marks divergent state (seed/catalog/version skew) that no retry fixes.
  kUnavailable,
};

/// \brief Outcome of an operation that can fail.
///
/// A Status is cheap to copy in the OK case (no allocation). Error statuses
/// carry a code and a human-readable message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// The same code carrying `msg` (for adding context to a failure).
  Status WithMessage(std::string msg) const {
    return Status(code_, std::move(msg));
  }

  /// Renders "OK" or "<Code>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kNotImplemented: return "NotImplemented";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kKeyError: return "KeyError";
      case StatusCode::kTypeError: return "TypeError";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief Value-or-error: holds either a T or a non-OK Status.
///
/// Mirrors arrow::Result. Accessing the value of an errored Result is a
/// programming error (checked in debug via the variant).
template <typename T>
class Result {
 public:
  /// Implicit from a value (OK result).
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from a non-OK status.
  Result(Status status) : state_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// Error status (Status::OK() when ok()).
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(state_);
  }

  const T& ValueOrDie() const& { return std::get<T>(state_); }
  T& ValueOrDie() & { return std::get<T>(state_); }
  T&& ValueOrDie() && { return std::get<T>(std::move(state_)); }

  /// Alias matching Arrow naming.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> state_;
};

}  // namespace gus

/// Propagates a non-OK Status from an expression.
#define GUS_RETURN_NOT_OK(expr)                \
  do {                                         \
    ::gus::Status _st = (expr);                \
    if (!_st.ok()) return _st;                 \
  } while (0)

/// Assigns the value of a Result expression to `lhs`, propagating errors.
#define GUS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).ValueOrDie();

#define GUS_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define GUS_ASSIGN_OR_RETURN_NAME(x, y) GUS_ASSIGN_OR_RETURN_CONCAT(x, y)
#define GUS_ASSIGN_OR_RETURN(lhs, rexpr) \
  GUS_ASSIGN_OR_RETURN_IMPL(             \
      GUS_ASSIGN_OR_RETURN_NAME(_gus_result_, __COUNTER__), lhs, rexpr)

#endif  // GUS_UTIL_STATUS_H_
