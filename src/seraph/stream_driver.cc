#include "seraph/stream_driver.h"

#include <algorithm>

#include "common/logging.h"

namespace seraph {

void StreamDriver::EnsureMetrics() {
  if (delivered_counter_ != nullptr) return;
  MetricsRegistry& registry = engine_->metrics();
  const MetricLabels labels{{"consumer", options_.consumer}};
  delivered_counter_ =
      registry.CounterFor("seraph_driver_delivered_total", labels);
  retries_counter_ = registry.CounterFor("seraph_driver_retries_total", labels);
  dead_letter_counter_ =
      registry.CounterFor("seraph_driver_dead_lettered_total", labels);
  reseeks_counter_ = registry.CounterFor("seraph_driver_reseeks_total", labels);
  backoff_counter_ =
      registry.CounterFor("seraph_driver_backoff_millis_total", labels);
  backlog_gauge_ = registry.GaugeFor("seraph_driver_backlog", labels);
  reorder_pending_gauge_ =
      registry.GaugeFor("seraph_driver_reorder_pending", labels);
  stream_shed_gauge_ = registry.GaugeFor(
      "seraph_stream_shed_total",
      {{"stream", options_.target_stream.empty() ? "<default>"
                                                 : options_.target_stream}});
}

void StreamDriver::UpdateBacklogGauges() {
  // Backlog = events appended to the queue but not yet committed past by
  // this consumer, plus releases parked for retry. Both are health
  // signals for the /metrics endpoint: a growing backlog means the
  // consumer is not keeping up with producers.
  const size_t offset = queue_->OffsetOf(options_.consumer).value_or(0);
  const size_t total = queue_->size();
  backlog_gauge_->Set(static_cast<int64_t>(total > offset ? total - offset
                                                          : 0) +
                      static_cast<int64_t>(pending_.size()));
  reorder_pending_gauge_->Set(
      reorder_.has_value() ? static_cast<int64_t>(reorder_->pending()) : 0);
  // Cumulative elements this stream lost to overload: the bounded queue
  // is the only layer that sheds, and it counts at the moment it drops.
  stream_shed_gauge_->Set(queue_->shed_total());
}

Status StreamDriver::Deliver(const StreamElement& element) {
  SERAPH_FAULT_POINT("driver.deliver");
  // The arrival stamp rides through from EventQueue::Produce so emit
  // latency covers the element's full queue wait, not just engine time.
  SERAPH_RETURN_IF_ERROR(engine_->IngestTo(options_.target_stream,
                                           element.graph, element.timestamp,
                                           element.arrival_micros));
  if (!delivered_any_ || element.timestamp > delivered_horizon_) {
    delivered_horizon_ = element.timestamp;
    delivered_any_ = true;
  }
  return Status::OK();
}

Status StreamDriver::DeliverWithRetry(const StreamElement& element) {
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = Deliver(element);
    if (status.ok()) return status;
    if (!options_.delivery_retry.ShouldRetry(status, attempt)) return status;
    ++retries_;
    retries_counter_->Increment();
    // Deterministic backoff, accounted rather than slept (simulated
    // time; see common/fault.h).
    backoff_counter_->Increment(
        options_.delivery_retry.DelayMillisFor(attempt));
  }
}

Result<bool> StreamDriver::TryConsume(const StreamElement& element,
                                      int* attempts) {
  Status status = DeliverWithRetry(element);
  if (status.ok()) {
    *attempts = 0;
    ++delivered_total_;
    delivered_counter_->Increment();
    return true;
  }
  ++*attempts;
  const bool budget_spent = *attempts >= options_.element_error_budget;
  if ((!status.IsTransient() || budget_spent) &&
      options_.dead_letter != nullptr) {
    // Poison: quarantine the element instead of wedging the pump.
    options_.dead_letter->AddElement(options_.consumer, element, status,
                                     *attempts);
    ++dead_lettered_;
    dead_letter_counter_->Increment();
    SERAPH_LOG(WARNING) << "dead-lettering element at "
                        << element.timestamp.ToString() << " after "
                        << *attempts << " failed pump(s): " << status;
    *attempts = 0;
    return false;
  }
  return status;
}

Status StreamDriver::DrainPending(int64_t* delivered) {
  while (!pending_.empty()) {
    SERAPH_ASSIGN_OR_RETURN(bool was_delivered,
                            TryConsume(pending_.front(), &pending_attempts_));
    pending_.pop_front();
    if (was_delivered) ++*delivered;
  }
  return Status::OK();
}

Result<int64_t> StreamDriver::PumpAll(std::optional<Timestamp> waiting) {
  EnsureMetrics();
  // The driver owns its consumer registration: the queue rejects polls
  // from unknown names (a stray name must not pin retention), so attach
  // explicitly — but only when the queue has no committed offset yet, so
  // a recovery-restored position is never clobbered back to the base.
  if (!queue_->HasConsumer(options_.consumer)) {
    queue_->Subscribe(options_.consumer);
  }
  int64_t delivered = 0;
  // Elements released by an earlier pump whose delivery failed retry
  // first, preserving timestamp order into the engine.
  SERAPH_RETURN_IF_ERROR(DrainPending(&delivered));
  while (true) {
    // Subscribed above (or restored by recovery), so the offset exists;
    // value_or guards fault doubles that track offsets out of band.
    const size_t batch_start =
        queue_->OffsetOf(options_.consumer).value_or(0);
    auto batch = queue_->Poll(options_.consumer, options_.poll_batch);
    // A failed poll consumed nothing; surface it and let the caller
    // re-pump.
    if (!batch.ok()) return batch.status();
    if (batch->empty()) break;
    size_t consumed = 0;  // Elements of this batch safely handed off.
    Status error;
    for (const StreamElement& element : *batch) {
      if (reorder_.has_value()) {
        // Offering transfers custody to the (driver-owned) buffer: the
        // element is either held or counted as a late drop. Releases are
        // parked in pending_ so a failed delivery cannot lose them (they
        // are no longer re-pollable from the queue).
        reorder_->Offer(element);
        ++consumed;
        for (StreamElement& released : reorder_->Release()) {
          pending_.push_back(std::move(released));
        }
        error = DrainPending(&delivered);
        if (!error.ok()) break;
      } else {
        const size_t offset = batch_start + consumed;
        if (offset != failing_offset_) {
          failing_offset_ = offset;
          failing_attempts_ = 0;
        }
        auto consumed_result = TryConsume(element, &failing_attempts_);
        if (!consumed_result.ok()) {
          error = consumed_result.status();
          break;
        }
        if (*consumed_result) ++delivered;
        ++consumed;
      }
    }
    if (consumed < batch->size()) {
      // Commit only what was handed off; the failing element and its
      // successors are re-polled by the next pump (at-least-once with
      // the engine's order checks making redelivery exact-once).
      Status seek = queue_->Seek(options_.consumer, batch_start + consumed);
      if (!seek.ok()) {
        // The offset is within the polled range by construction; a
        // failing seek means the queue itself regressed.
        return Status::Internal("recovery seek failed: " + seek.ToString());
      }
      ++reseeks_;
      reseeks_counter_->Increment();
      return error;
    }
    // A delivery failure on the batch's final element leaves nothing to
    // re-poll (everything was consumed into the buffer / pending queue)
    // but must still surface so the caller re-pumps the pending work.
    if (!error.ok()) return error;
  }
  // Everything polled was handed off: release what every consumer has
  // committed past, so a driver-fed queue holds only consumer lag. A
  // checkpoint-coupled queue keeps its uncheckpointed suffix (the
  // horizon is part of the trim floor).
  queue_->TrimCommitted();
  UpdateBacklogGauges();
  if (delivered_any_ && options_.advance_engine_clock) {
    SERAPH_RETURN_IF_ERROR(
        AdvanceEngineClock(engine_, delivered_horizon_, waiting));
  }
  return delivered;
}

Status StreamDriver::Finish() {
  EnsureMetrics();
  if (reorder_.has_value()) {
    for (StreamElement& released : reorder_->Flush()) {
      pending_.push_back(std::move(released));
    }
  }
  int64_t delivered = 0;
  SERAPH_RETURN_IF_ERROR(DrainPending(&delivered));
  UpdateBacklogGauges();
  if (delivered_any_ && options_.advance_engine_clock) {
    SERAPH_RETURN_IF_ERROR(engine_->AdvanceTo(delivered_horizon_));
  }
  return Status::OK();
}

Status AdvanceEngineClock(ContinuousEngine* engine, Timestamp horizon,
                          std::optional<Timestamp> waiting) {
  if (!waiting.has_value()) return engine->AdvanceTo(horizon);
  const Timestamp target =
      std::min(horizon, *waiting - Duration::FromMillis(1));
  const std::optional<Timestamp> clock = engine->clock();
  if (clock.has_value() && target < *clock) return Status::OK();
  return engine->AdvanceTo(target);
}

Status ProduceWithBackpressure(
    EventQueue* queue, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp,
    const std::function<Result<int64_t>(Timestamp waiting)>& pump,
    int64_t* refusals) {
  int stalled = 0;
  while (true) {
    Status status = queue->Produce(graph, timestamp);
    if (status.code() != StatusCode::kUnavailable) return status;
    if (refusals != nullptr) ++*refusals;
    const int64_t trimmed_before = queue->trimmed_total();
    SERAPH_ASSIGN_OR_RETURN(int64_t delivered, pump(timestamp));
    if (delivered > 0 || queue->trimmed_total() != trimmed_before) {
      stalled = 0;
    } else if (++stalled >= 3) {
      return Status::Unavailable(
          "event queue full (capacity " +
          std::to_string(queue->options().capacity) +
          ") and the consumer cannot free space; increase "
          "--queue-capacity, lower --checkpoint-every, or use "
          "--overflow-policy=shed_oldest");
    }
  }
}

}  // namespace seraph
