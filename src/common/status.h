// Error-handling primitives for the Seraph library.
//
// The library does not throw exceptions across API boundaries. Fallible
// operations return a `Status` (or a `Result<T>`, see result.h). The design
// follows the widely-used RocksDB/Abseil convention: a status is either OK
// or carries an error code plus a human-readable message.
#ifndef SERAPH_COMMON_STATUS_H_
#define SERAPH_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace seraph {

// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // Caller passed a malformed value (bad ISO string, ...).
  kParseError,        // Query text could not be parsed.
  kSemanticError,     // Query parsed but violates language rules.
  kEvaluationError,   // Runtime evaluation failure (type error, div by 0, ...).
  kInconsistent,      // Property-graph union inputs conflict (Def. 5.4).
  kNotFound,          // Named entity (query, node, ...) does not exist.
  kAlreadyExists,     // Registering a duplicate name.
  kOutOfRange,        // Time instant / index outside the valid domain.
  kUnimplemented,     // Feature outside the supported Cypher/Seraph subset.
  kInternal,          // Invariant violation; indicates a library bug.
  kUnavailable,       // Transient failure (transport/sink hiccup); retryable.
  kDeadlineExceeded,  // Cooperative cancellation: a deadline expired mid-work.
  kFailedPrecondition,  // Valid request the current state cannot serve.
};

// The highest StatusCode: decoders of persisted codes accept up to it, so
// new codes go at the end of the enum and this moves with them.
inline constexpr StatusCode kLastStatusCode = StatusCode::kFailedPrecondition;

// Returns a stable lower-case name for `code` (e.g. "parse_error").
const char* StatusCodeToString(StatusCode code);

// Value type describing the outcome of a fallible operation.
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status SemanticError(std::string msg) {
    return Status(StatusCode::kSemanticError, std::move(msg));
  }
  static Status EvaluationError(std::string msg) {
    return Status(StatusCode::kEvaluationError, std::move(msg));
  }
  static Status Inconsistent(std::string msg) {
    return Status(StatusCode::kInconsistent, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  // Transient failures are worth retrying; everything else is permanent.
  bool IsTransient() const { return code_ == StatusCode::kUnavailable; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace seraph

// Propagates a non-OK status to the caller.
#define SERAPH_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::seraph::Status _seraph_status_tmp = (expr);      \
    if (!_seraph_status_tmp.ok()) {                    \
      return _seraph_status_tmp;                       \
    }                                                  \
  } while (false)

#endif  // SERAPH_COMMON_STATUS_H_
