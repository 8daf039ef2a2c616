// A simulated event queue in the role of the paper's central Kafka topic
// (Section 2 / Listing 4): producers append timestamped property-graph
// events; consumers poll them in order, each with its own offset, and can
// seek for replay. This is the transport substitution documented in
// DESIGN.md §5 — delivery order and timestamps are what the Seraph
// semantics depend on, not the wire protocol.
//
// The queue can be bounded (Options::capacity) with a producer-side
// overflow policy, and retention-trims entries that every consumer has
// committed past — queue memory is then proportional to consumer lag,
// not stream length. A checkpoint records consumer offsets but pins
// nothing: a restart re-produces its source from the restored offset
// into an empty queue (RestoreOffset). Offsets are *absolute* (the log's
// positions): trimming moves the log's base, never renumbers, so driver
// backlog math and checkpointed offsets stay valid. See
// docs/INTERNALS.md, "Overload & backpressure".
#ifndef SERAPH_STREAM_EVENT_QUEUE_H_
#define SERAPH_STREAM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "stream/graph_stream.h"
#include "stream/overflow_policy.h"

namespace seraph {

// Poll / Seek / OffsetOf are virtual so fault-tolerance tests can model
// a flaky transport (see tests/fault_doubles.h); the queue also carries
// the "queue.poll" and "queue.produce" fault points. Poll can therefore
// fail like a real broker call — a failed poll consumes nothing (the
// offset is only advanced after the log read succeeds), so callers simply
// re-poll. A failed produce admits nothing.
//
// The queue is not internally synchronized (like the rest of the ingest
// path it runs under the single-threaded pump loop), so nothing can free
// space while a produce waits: a full queue refuses or sheds at once,
// and the caller pumps the consumer before it retries.
class EventQueue {
 public:
  struct Options {
    // 0 = unbounded (the default, and what the default constructor gives
    // fault doubles that subclass the queue).
    size_t capacity = 0;
    OverflowPolicy overflow_policy = OverflowPolicy::kReject;
  };

  EventQueue() = default;
  explicit EventQueue(Options options) : options_(options) {}
  virtual ~EventQueue() = default;

  // Invoked with each element evicted by the shed_oldest policy, before
  // the element is dropped. Callers wire this to a dead-letter queue so
  // shed elements are observable, not silently lost.
  using ShedCallback = std::function<void(const StreamElement& element)>;
  void SetShedCallback(ShedCallback callback) {
    shed_callback_ = std::move(callback);
  }

  // Appends an event; timestamps must be non-decreasing (the queue is the
  // stream order authority): a late event fails with kOutOfRange and
  // changes nothing, however full the queue is. Each event is stamped
  // with its processing-time arrival (the emit-latency layer's t0 — see
  // docs/INTERNALS.md, "Latency accounting & lag"). On a bounded queue a
  // log that is still full after a retention trim is resolved by the
  // overflow policy: reject returns kUnavailable, and shed_oldest evicts
  // the oldest retained element (counted and passed to the shed
  // callback).
  Status Produce(PropertyGraph graph, Timestamp timestamp);
  Status Produce(std::shared_ptr<const PropertyGraph> graph,
                 Timestamp timestamp);

  // Substitutes the arrival-stamp clock (tests inject a ManualClock for
  // deterministic latency histograms). Not owned; must outlive the queue.
  void SetClock(const Clock* clock) {
    clock_ = clock != nullptr ? clock : Clock::Steady();
  }

  // Creates (or resets) a consumer at the oldest retained offset (0 on a
  // never-trimmed queue).
  void Subscribe(const std::string& consumer) {
    offsets_[consumer] = log_.base_offset();
  }

  // Forgets a consumer's committed offset, releasing its hold on the
  // TrimCommitted retention floor. Returns whether it was registered.
  bool RemoveConsumer(const std::string& consumer) {
    return offsets_.erase(consumer) > 0;
  }

  // Returns up to `max_events` events past the consumer's offset and
  // advances it. Consumers must be registered first (Subscribe /
  // Seek / RestoreOffset): polling under an unknown name fails with
  // kNotFound instead of implicitly registering it — a stray name would
  // otherwise pin the retention floor forever. A transient transport
  // failure (injected or simulated) advances nothing.
  virtual Result<std::vector<StreamElement>> Poll(const std::string& consumer,
                                                  size_t max_events);

  // Repositions a consumer (replay / delivery-failure recovery). Fails
  // with kOutOfRange past the end or below the retention base.
  virtual Status Seek(const std::string& consumer, size_t offset);

  // Recovery: re-bases a queue nothing was ever appended to at
  // `consumer`'s checkpointed `offset`. The next append lands at `offset`
  // and is delivered, so a source that resumes at the offset re-produces
  // only what the checkpoint does not cover, and an append older than
  // `floor` (the newest timestamp the restored engine holds) fails as
  // late. Any other queue fails with kFailedPrecondition.
  Status RestoreOffset(const std::string& consumer, size_t offset,
                       Timestamp floor);

  // The consumer's committed offset, or nullopt for consumers that never
  // subscribed/polled/sought. The distinction matters for recovery: a
  // checkpointed consumer at offset 0 must re-seek to 0, while an unknown
  // consumer has no committed position to resume from.
  virtual std::optional<size_t> OffsetOf(const std::string& consumer) const;

  // Whether the queue has a committed offset for `consumer`.
  bool HasConsumer(const std::string& consumer) const {
    return offsets_.contains(consumer);
  }

  // Total elements ever appended (absolute offset of the next append).
  // `size() - OffsetOf(c)` is consumer c's backlog whether or not the
  // queue has been trimmed.
  size_t size() const { return log_.size(); }
  // Elements currently retained in memory.
  size_t depth() const { return log_.retained(); }
  // Absolute offset of the oldest retained element.
  size_t base_offset() const { return log_.base_offset(); }
  // Timestamp of the newest element ever appended (epoch when none).
  Timestamp MaxTimestamp() const { return log_.MaxTimestamp(); }
  const PropertyGraphStream& log() const { return log_; }
  const Options& options() const { return options_; }

  // Drops retained entries below every committed consumer offset; with
  // no consumers registered nothing is provably consumed, so nothing is
  // dropped. Returns the number trimmed. Runs automatically on produce
  // when the queue is bounded; harmless to call at any time.
  size_t TrimCommitted();

  // Overflow accounting (exact; see the chaos tests' partition invariant).
  int64_t shed_total() const { return shed_total_; }
  int64_t rejected_total() const { return rejected_total_; }
  int64_t trimmed_total() const { return trimmed_total_; }

 private:
  // Enforces the capacity bound for one incoming element.
  Status AdmitOne();
  // Evicts the oldest retained element (shed_oldest policy).
  void ShedOldest();

  // Offsets are the log's absolute positions: log_ retains
  // [log_.base_offset(), size()).
  PropertyGraphStream log_;
  std::map<std::string, size_t> offsets_;
  const Clock* clock_ = Clock::Steady();
  Options options_;
  ShedCallback shed_callback_;
  int64_t shed_total_ = 0;
  int64_t rejected_total_ = 0;
  int64_t trimmed_total_ = 0;
};

}  // namespace seraph

#endif  // SERAPH_STREAM_EVENT_QUEUE_H_
