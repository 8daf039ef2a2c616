// Dead-letter capture for the fault-tolerant pipeline.
//
// Three producers feed the queue (see docs/INTERNALS.md, "Failure
// model"):
//  * the engine, with evaluation results a sink permanently rejected
//    (after per-sink retries were exhausted or the error was permanent);
//  * the engine, with evaluations that themselves failed at runtime
//    (query isolation: the failed instant is recorded here, the fleet
//    keeps running);
//  * the stream driver, with poison elements whose delivery kept failing
//    past the per-element error budget.
//
// Nothing in the pipeline silently drops data: what cannot be delivered
// is counted here by kind, and the newest kDeadLetterCapacity letters are
// kept with the status that rejected them and the attempt count, so an
// operator (or seraph_run --dead-letter=<path>) can inspect them. The
// JSON-lines export is for reading only; a restart gets its letters and
// totals back from the checkpoint (DeadLetterQueue::Restore).
#ifndef SERAPH_SERAPH_DEAD_LETTER_H_
#define SERAPH_SERAPH_DEAD_LETTER_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "stream/graph_stream.h"
#include "table/time_table.h"

namespace seraph {

struct DeadLetterEntry {
  enum class Kind { kSinkResult, kStreamElement, kEvaluation };

  // The size of a dead-lettered element's graph. The graph itself is not
  // kept: under a sustained shed_oldest overload every shed element lands
  // here, and holding graphs would grow memory with uptime.
  struct ElementSummary {
    int64_t nodes = 0;
    int64_t relationships = 0;
  };

  Kind kind;
  // Sink name (kSinkResult), consumer name (kStreamElement), or "engine"
  // (kEvaluation).
  std::string source;
  // Registered query whose result was rejected (kSinkResult) or whose
  // evaluation failed (kEvaluation).
  std::string query;
  // Evaluation time (kSinkResult, kEvaluation) or element timestamp
  // (kStreamElement).
  Timestamp timestamp;
  // The status that permanently rejected the payload.
  Status error;
  // Delivery attempts made before giving up.
  int64_t attempts = 0;

  // At most one of the two payloads is set, matching `kind` (kEvaluation
  // has no payload: the evaluation produced no result to capture).
  std::optional<TimeAnnotatedTable> result;
  std::optional<ElementSummary> element;
};

// Letters a DeadLetterQueue keeps. A sustained shed_oldest overload
// dead-letters thousands of elements a second, so the queue keeps only
// the newest ones (about 1.3 MB at this size) and counts the rest.
inline constexpr size_t kDeadLetterCapacity = 4096;

// Letters added per kind since the run began, evicted ones included.
struct DeadLetterTotals {
  int64_t sink_results = 0;
  int64_t elements = 0;
  int64_t evaluation_failures = 0;

  int64_t total() const {
    return sink_results + elements + evaluation_failures;
  }
};

// An in-memory ring of the newest kDeadLetterCapacity dead letters, with
// exact per-kind totals. Not thread-safe, like the engine that feeds it.
class DeadLetterQueue {
 public:
  void AddSinkResult(const std::string& sink, const std::string& query,
                     Timestamp evaluation_time,
                     const TimeAnnotatedTable& result, Status error,
                     int64_t attempts);
  void AddElement(const std::string& consumer, const StreamElement& element,
                  Status error, int64_t attempts);
  // A query evaluation that failed at runtime; the instant is recorded so
  // an operator can see exactly which ET points of the query's grid are
  // missing from the output.
  void AddEvaluationFailure(const std::string& query,
                            Timestamp evaluation_time, Status error);
  // Replaces the contents with letters and totals captured in an earlier
  // life (the checkpoint restore path).
  void Restore(std::vector<DeadLetterEntry> entries, DeadLetterTotals totals);

  // Letters held, at most kDeadLetterCapacity.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // The newest letters, oldest first.
  const std::deque<DeadLetterEntry>& entries() const { return entries_; }

  int64_t sink_results() const { return totals_.sink_results; }
  int64_t elements() const { return totals_.elements; }
  int64_t evaluation_failures() const { return totals_.evaluation_failures; }
  int64_t total() const { return totals_.total(); }

  // Mirrors size() into a registry gauge (`seraph_dead_letter_depth`) on
  // every mutation, so live scrapers see how full the ring is without
  // touching the (non-thread-safe) queue itself. Not owned; null detaches.
  void BindDepthGauge(Gauge* gauge) {
    depth_gauge_ = gauge;
    UpdateDepth();
  }

  // One JSON object per held entry (the format documented in
  // docs/INTERNALS.md): sink results carry the full rows payload;
  // elements carry their node/relationship summary.
  Status WriteJsonLines(std::ostream* os) const;

 private:
  // Appends `entry`, evicting the oldest letter when the ring is full.
  void Push(DeadLetterEntry entry);
  // Pushes the current size into the bound gauge (no-op when unbound).
  void UpdateDepth() {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(entries_.size()));
    }
  }

  std::deque<DeadLetterEntry> entries_;
  DeadLetterTotals totals_;
  Gauge* depth_gauge_ = nullptr;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_DEAD_LETTER_H_
