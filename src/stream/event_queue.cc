#include "stream/event_queue.h"

#include <algorithm>

#include "common/fault.h"

namespace seraph {

Status EventQueue::Produce(PropertyGraph graph, Timestamp timestamp) {
  return Produce(std::make_shared<const PropertyGraph>(std::move(graph)),
                 timestamp);
}

Status EventQueue::Produce(std::shared_ptr<const PropertyGraph> graph,
                           Timestamp timestamp) {
  // Fires before admission: a failed produce admits nothing.
  SERAPH_FAULT_POINT("queue.produce");
  // A late element fails before admission too, so it neither sheds the
  // oldest element nor counts as a refusal.
  SERAPH_RETURN_IF_ERROR(log_.CheckOrder(timestamp));
  if (options_.capacity > 0) {
    SERAPH_RETURN_IF_ERROR(AdmitOne());
  }
  return log_.Append(std::move(graph), timestamp, clock_->NowMicros());
}

Status EventQueue::AdmitOne() {
  TrimCommitted();
  if (depth() < options_.capacity) return Status::OK();
  if (options_.overflow_policy == OverflowPolicy::kShedOldest) {
    // Evict exactly one: we admit exactly one.
    ShedOldest();
    return Status::OK();
  }
  ++rejected_total_;
  return Status::Unavailable("event queue full (capacity " +
                             std::to_string(options_.capacity) +
                             ", policy reject)");
}

void EventQueue::ShedOldest() {
  if (depth() == 0) return;
  if (shed_callback_) shed_callback_(log_.at(log_.base_offset()));
  log_.DropFront(1);
  ++shed_total_;
  // Consumers that had not consumed the victim lose it; their committed
  // position moves to the new base so the next poll starts at the oldest
  // retained element. The loss is exactly the shed-accounted element.
  for (auto& [name, offset] : offsets_) {
    offset = std::max(offset, log_.base_offset());
  }
}

size_t EventQueue::TrimCommitted() {
  // Retention floor = min(committed consumer offsets, checkpoint
  // horizon). With no consumers attached the horizon alone governs — a
  // durable run that produces before its driver subscribes can still
  // trim checkpoint-covered entries (everything below the horizon is
  // recoverable from the checkpoint, and new consumers start at the
  // retention base anyway). With neither consumers nor a horizon
  // nothing is provably consumed, so nothing is dropped.
  if (offsets_.empty() && checkpoint_horizon_ == kNoCheckpointHorizon) {
    return 0;
  }
  size_t floor = checkpoint_horizon_;
  for (const auto& [name, offset] : offsets_) {
    floor = std::min(floor, offset);
  }
  if (floor <= log_.base_offset()) return 0;
  // The floor can run ahead of what has been appended (a restored
  // checkpoint horizon while the tool is still re-producing the log
  // prefix); DropFront clamps to the retained elements, so the base
  // always equals the count of appended-and-discarded elements and
  // offsets keep their meaning.
  const size_t n = log_.DropFront(floor - log_.base_offset());
  trimmed_total_ += static_cast<int64_t>(n);
  return n;
}

Result<std::vector<StreamElement>> EventQueue::Poll(
    const std::string& consumer, size_t max_events) {
  // Fires before the offset moves: a failed poll consumes nothing.
  SERAPH_FAULT_POINT("queue.poll");
  auto it = offsets_.find(consumer);
  if (it == offsets_.end()) {
    // Polling must not implicitly register: a stray (e.g. misspelled)
    // consumer name would otherwise join the TrimCommitted floor forever
    // and freeze retention on a bounded queue.
    return Status::NotFound("unknown consumer '" + consumer +
                            "': Subscribe (or restore an offset) before "
                            "polling");
  }
  size_t& offset = it->second;
  // A consumer below the retention base (first poll on a trimmed queue,
  // or its unconsumed prefix was shed) resumes at the oldest retained
  // element; shed losses were accounted at eviction time.
  offset = std::max(offset, log_.base_offset());
  std::vector<StreamElement> out;
  while (offset < size() && out.size() < max_events) {
    out.push_back(log_.at(offset));
    ++offset;
  }
  return out;
}

Status EventQueue::Seek(const std::string& consumer, size_t offset) {
  if (offset > size()) {
    return Status::OutOfRange("seek offset past end of queue");
  }
  if (offset < log_.base_offset()) {
    return Status::OutOfRange(
        "seek offset " + std::to_string(offset) +
        " below retention base " + std::to_string(log_.base_offset()) +
        " (entry trimmed or shed)");
  }
  offsets_[consumer] = offset;
  return Status::OK();
}

Status EventQueue::RestoreOffset(const std::string& consumer,
                                 size_t offset) {
  if (offset <= size()) return Seek(consumer, offset);
  offsets_[consumer] = offset;
  return Status::OK();
}

std::optional<size_t> EventQueue::OffsetOf(
    const std::string& consumer) const {
  auto it = offsets_.find(consumer);
  if (it == offsets_.end()) return std::nullopt;
  return it->second;
}

}  // namespace seraph
