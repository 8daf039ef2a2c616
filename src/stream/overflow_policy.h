// Producer-side overflow policies for the bounded EventQueue.
// docs/INTERNALS.md "Overload & backpressure" documents the policy
// matrix.
#ifndef SERAPH_STREAM_OVERFLOW_POLICY_H_
#define SERAPH_STREAM_OVERFLOW_POLICY_H_

#include <string>

namespace seraph {

enum class OverflowPolicy {
  // Producer gets kUnavailable immediately; the caller pumps the
  // consumer and retries.
  kReject,
  // Oldest unconsumed element is evicted (counted + dead-lettered) to
  // admit the new one.
  kShedOldest,
};

inline const char* OverflowPolicyName(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kReject:
      return "reject";
    case OverflowPolicy::kShedOldest:
      return "shed_oldest";
  }
  return "unknown";
}

// Parses "reject" / "shed_oldest"; returns false on anything else.
inline bool ParseOverflowPolicy(const std::string& text, OverflowPolicy* out) {
  if (text == "reject") {
    *out = OverflowPolicy::kReject;
    return true;
  }
  if (text == "shed_oldest") {
    *out = OverflowPolicy::kShedOldest;
    return true;
  }
  return false;
}

}  // namespace seraph

#endif  // SERAPH_STREAM_OVERFLOW_POLICY_H_
