#include "seraph/stream_driver.h"

#include <algorithm>

#include "common/logging.h"

namespace seraph {

namespace {

// The one clock rule of a pump (see StreamDriver::PumpAll).
Status AdvanceEngineClock(ContinuousEngine* engine, Timestamp horizon,
                          std::optional<Timestamp> waiting) {
  if (!waiting.has_value()) return engine->AdvanceTo(horizon);
  const Timestamp target =
      std::min(horizon, *waiting - Duration::FromMillis(1));
  const std::optional<Timestamp> clock = engine->clock();
  if (clock.has_value() && target < *clock) return Status::OK();
  return engine->AdvanceTo(target);
}

}  // namespace

StreamDriver::StreamDriver(EventQueue* queue, ContinuousEngine* engine,
                           Options options)
    : queue_(queue), engine_(engine), options_(std::move(options)) {
  MetricsRegistry& registry = engine_->metrics();
  const MetricLabels labels{{"consumer", options_.consumer}};
  delivered_counter_ =
      registry.CounterFor("seraph_driver_delivered_total", labels);
  retries_counter_ = registry.CounterFor("seraph_driver_retries_total", labels);
  dead_letter_counter_ =
      registry.CounterFor("seraph_driver_dead_lettered_total", labels);
  reseeks_counter_ = registry.CounterFor("seraph_driver_reseeks_total", labels);
  backlog_gauge_ = registry.GaugeFor("seraph_driver_backlog", labels);
  stream_shed_gauge_ = registry.GaugeFor(
      "seraph_stream_shed_total",
      {{"stream", options_.target_stream.empty() ? "<default>"
                                                 : options_.target_stream}});
}

void StreamDriver::UpdateBacklogGauges() {
  // Backlog = events appended to the queue but not yet committed past by
  // this consumer: a health signal for the /metrics endpoint (a growing
  // backlog means the consumer is not keeping up with producers).
  const size_t offset = queue_->OffsetOf(options_.consumer).value_or(0);
  const size_t total = queue_->size();
  backlog_gauge_->Set(
      static_cast<int64_t>(total > offset ? total - offset : 0));
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
  // The queue hands out elements in timestamp order.
  delivered_horizon_ = element.timestamp;
  return Status::OK();
}

Status StreamDriver::DeliverWithRetry(const StreamElement& element) {
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = Deliver(element);
    if (status.ok()) return status;
    if (!options_.delivery_retry.ShouldRetry(status, attempt)) return status;
    retries_counter_->Increment();
  }
}

Result<bool> StreamDriver::TryConsume(const StreamElement& element,
                                      size_t offset) {
  if (offset != failing_offset_) {
    failing_offset_ = offset;
    failing_attempts_ = 0;
  }
  Status status = DeliverWithRetry(element);
  if (status.ok()) {
    failing_attempts_ = 0;
    delivered_counter_->Increment();
    return true;
  }
  ++failing_attempts_;
  const bool budget_spent = failing_attempts_ >= options_.element_error_budget;
  if ((!status.IsTransient() || budget_spent) &&
      options_.dead_letter != nullptr) {
    // Poison: quarantine the element instead of wedging the pump.
    options_.dead_letter->AddElement(options_.consumer, element, status,
                                     failing_attempts_);
    dead_letter_counter_->Increment();
    SERAPH_LOG(WARNING) << "dead-lettering element at "
                        << element.timestamp.ToString() << " after "
                        << failing_attempts_ << " failed pump(s): " << status;
    failing_attempts_ = 0;
    return false;
  }
  return status;
}

Result<int64_t> StreamDriver::PumpAll(std::optional<Timestamp> waiting) {
  // The driver owns its consumer registration: the queue rejects polls
  // from unknown names (a stray name must not pin retention), so attach
  // explicitly — but only when the queue has no committed offset yet, so
  // a recovery-restored position is never clobbered back to the base.
  if (!queue_->HasConsumer(options_.consumer)) {
    queue_->Subscribe(options_.consumer);
  }
  int64_t delivered = 0;
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
    for (const StreamElement& element : *batch) {
      auto consumed_result = TryConsume(element, batch_start + consumed);
      if (!consumed_result.ok()) {
        // Commit only what was handed off; the failing element and its
        // successors are re-polled by the next pump (at-least-once with
        // the engine's order checks making redelivery exact-once).
        Status seek = queue_->Seek(options_.consumer, batch_start + consumed);
        if (!seek.ok()) {
          // The offset is within the polled range by construction; a
          // failing seek means the queue itself regressed.
          return Status::Internal("recovery seek failed: " +
                                  seek.ToString());
        }
        reseeks_counter_->Increment();
        return consumed_result.status();
      }
      if (*consumed_result) ++delivered;
      ++consumed;
    }
  }
  // Everything polled was handed off: release what every consumer has
  // committed past, so a driver-fed queue holds only consumer lag.
  queue_->TrimCommitted();
  UpdateBacklogGauges();
  if (delivered_horizon_.has_value()) {
    SERAPH_RETURN_IF_ERROR(
        AdvanceEngineClock(engine_, *delivered_horizon_, waiting));
  }
  return delivered;
}

}  // namespace seraph
