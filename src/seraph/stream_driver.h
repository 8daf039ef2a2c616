// Transport glue: pumps a (Kafka-like) EventQueue into a ContinuousEngine.
// This closes the paper's Fig. 1 loop end to end: event queue → property
// graph stream → windows → continuous evaluation. The queue is the stream
// order authority (EventQueue::Produce refuses a late element), so the
// driver delivers what it polls as it comes.
//
//   EventQueue queue;            // producers append events
//   ContinuousEngine engine;     // queries registered, sinks attached
//   StreamDriver driver(&queue, &engine, {});
//   ... while producing: driver.PumpAll();   // deliver + evaluate
//
// Delivery is loss-free under transient failures (docs/INTERNALS.md,
// "Failure model"):
//  * consumer offsets are committed only after successful hand-off — on a
//    delivery failure the driver re-seeks to the first unconsumed offset,
//    so the next PumpAll re-polls exactly the in-flight elements;
//  * transient failures are retried in-pump per `delivery_retry`; an
//    element still failing after `element_error_budget` pumps (or failing
//    permanently) is routed to the dead-letter queue instead of aborting
//    the pump forever.
#ifndef SERAPH_SERAPH_STREAM_DRIVER_H_
#define SERAPH_SERAPH_STREAM_DRIVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/fault.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "stream/event_queue.h"

namespace seraph {

class StreamDriver {
 public:
  struct Options {
    // Queue consumer-group name (offset key).
    std::string consumer = "seraph-engine";
    // Engine stream to deliver into ("" = default stream).
    std::string target_stream;
    // Max elements fetched per queue poll.
    size_t poll_batch = 64;
    // In-pump retries of transient (kUnavailable) delivery failures.
    // Backoff delays are deterministic and accounted, not slept.
    RetryPolicy delivery_retry;
    // Failed pumps an element may accumulate before it is declared
    // poison and routed to `dead_letter` (each pump already spends
    // `delivery_retry.max_attempts` tries). Permanent (non-transient)
    // errors skip the budget and dead-letter immediately.
    int element_error_budget = 3;
    // Destination for poison elements (not owned). When null, poison
    // elements keep failing the pump instead of being dropped — the
    // caller decides; nothing is ever lost silently.
    DeadLetterQueue* dead_letter = nullptr;
    // When false, the driver delivers elements but never calls
    // engine->AdvanceTo(): the caller owns the engine clock. Used by the
    // sharded tier, where several lanes feed one engine and the
    // coordinator advances the shard once per pump to its watermark —
    // otherwise the first lane to pump an instant would trigger
    // evaluations before sibling lanes deliver their equal-timestamp
    // elements.
    bool advance_engine_clock = true;
  };

  // Registers the driver's series in the engine's registry. Neither
  // `queue` nor `engine` is owned; both must outlive the driver.
  StreamDriver(EventQueue* queue, ContinuousEngine* engine, Options options);

  // Polls the queue until empty, delivering every element to the engine
  // and advancing its clock (which triggers due evaluations) by
  // AdvanceEngineClock: to the delivered horizon, or, for a pump made
  // because a full queue refused an element at `waiting`, to just before
  // `waiting`. Returns the number of elements delivered by this pump. A
  // pump that hands off everything it polled ends with
  // EventQueue::TrimCommitted, so the queue keeps only what some consumer
  // still needs. On a transient failure that survives the retry policy
  // the pump returns the error with nothing lost: unconsumed queue
  // elements stay behind the (re-seeked) consumer offset, and the next
  // PumpAll resumes exactly there. A pump with
  // nothing new to deliver re-advances the clock to the same horizon,
  // which runs no evaluation twice.
  Result<int64_t> PumpAll(std::optional<Timestamp> waiting = std::nullopt);

  // Cumulative counts, read off the driver's `seraph_driver_*_total`
  // series (a second driver with the same consumer name on the same
  // engine shares them): elements delivered to the engine, in-pump
  // delivery retries, poison elements routed to the dead-letter queue,
  // and offset rollbacks after mid-batch failures.
  int64_t delivered_total() const { return delivered_counter_->value(); }
  int64_t retries() const { return retries_counter_->value(); }
  int64_t dead_lettered() const { return dead_letter_counter_->value(); }
  int64_t reseeks() const { return reseeks_counter_->value(); }

 private:
  Status Deliver(const StreamElement& element);
  // Deliver with in-pump retries per options_.delivery_retry.
  Status DeliverWithRetry(const StreamElement& element);
  // Tries to consume the element at queue offset `offset`: returns true
  // when delivered, false when dead-lettered, or a transient error when
  // the element should be retried on a later pump. The element's
  // failed-pump count carries across pumps while the same offset keeps
  // failing.
  Result<bool> TryConsume(const StreamElement& element, size_t offset);
  // Refreshes the backlog and shed health gauges (end of each pump).
  void UpdateBacklogGauges();

  EventQueue* queue_;
  ContinuousEngine* engine_;
  Options options_;
  // Poison tracking: the offset that failed last and its failed pumps.
  size_t failing_offset_ = 0;
  int failing_attempts_ = 0;
  // Highest timestamp delivered to the engine so far (none before the
  // first delivery).
  std::optional<Timestamp> delivered_horizon_;
  // Registry handles (owned by the engine's registry).
  Counter* delivered_counter_ = nullptr;
  Counter* retries_counter_ = nullptr;
  Counter* dead_letter_counter_ = nullptr;
  Counter* reseeks_counter_ = nullptr;
  Counter* backoff_counter_ = nullptr;
  // Health gauges (docs/INTERNALS.md, "Latency accounting & lag"): the
  // undelivered queue depth, and the queue's cumulative shed count per
  // stream.
  Gauge* backlog_gauge_ = nullptr;
  Gauge* stream_shed_gauge_ = nullptr;
};

// The one clock rule of a pump. Without `waiting` the engine clock moves
// to `horizon`, the newest delivered timestamp. A pump made because a
// full queue refused an element at `waiting` stops at
// min(horizon, waiting - 1 ms), and never moves the clock backwards:
// the refused element and everything produced after it are at or past
// `waiting`, so every instant that fires has all of its elements.
Status AdvanceEngineClock(ContinuousEngine* engine, Timestamp horizon,
                          std::optional<Timestamp> waiting);

// Produces into `queue` with the caller's pump-and-retry, the only relief
// for a full queue: a refused produce runs `pump(timestamp)`, which must
// deliver what is queued and advance the clock by AdvanceEngineClock,
// then retries. Three pumps in a row that neither deliver nor trim mean
// the consumer cannot free space (another consumer of the queue lags);
// the error names the remedy. `refusals`, when set, counts refused
// produces.
Status ProduceWithBackpressure(
    EventQueue* queue, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp,
    const std::function<Result<int64_t>(Timestamp waiting)>& pump,
    int64_t* refusals = nullptr);

}  // namespace seraph

#endif  // SERAPH_SERAPH_STREAM_DRIVER_H_
