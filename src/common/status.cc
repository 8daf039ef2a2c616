#include "common/status.h"

namespace seraph {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kSemanticError:
      return "semantic_error";
    case StatusCode::kEvaluationError:
      return "evaluation_error";
    case StatusCode::kInconsistent:
      return "inconsistent";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace seraph
