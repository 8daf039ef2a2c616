#include "stream/graph_stream.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace seraph {

Status PropertyGraphStream::Append(PropertyGraph graph, Timestamp timestamp,
                                   int64_t arrival_micros) {
  return Append(std::make_shared<const PropertyGraph>(std::move(graph)),
                timestamp, arrival_micros);
}

Status PropertyGraphStream::Append(std::shared_ptr<const PropertyGraph> graph,
                                   Timestamp timestamp,
                                   int64_t arrival_micros) {
  SERAPH_RETURN_IF_ERROR(CheckOrder(timestamp));
  elements_.push_back(StreamElement{std::move(graph), timestamp,
                                    arrival_micros});
  last_timestamp_ = timestamp;
  return Status::OK();
}

Status PropertyGraphStream::CheckOrder(Timestamp timestamp) const {
  if (!empty() && timestamp < last_timestamp_) {
    return Status::OutOfRange(
        "stream timestamps must be non-decreasing: got " +
        timestamp.ToString() + " after " + last_timestamp_.ToString());
  }
  return Status::OK();
}

size_t PropertyGraphStream::DropFront(size_t n) {
  n = std::min(n, retained());
  if (n == 0) return 0;
  trimmed_through_ = elements_[n - 1].timestamp;
  elements_.erase(elements_.begin(),
                  elements_.begin() + static_cast<std::ptrdiff_t>(n));
  base_ += n;
  return n;
}

Status PropertyGraphStream::Restore(size_t base_offset,
                                    Timestamp trimmed_through,
                                    Timestamp max_timestamp,
                                    std::vector<StreamElement> elements) {
  if (!empty()) {
    return Status::InvalidArgument(
        "stream restore requires a never-appended stream");
  }
  if (elements.size() > std::numeric_limits<size_t>::max() - base_offset) {
    return Status::InvalidArgument("restored stream positions overflow");
  }
  for (size_t i = 0; i < elements.size(); ++i) {
    const bool has_floor = i > 0 || base_offset > 0;
    const Timestamp floor = i > 0 ? elements[i - 1].timestamp : trimmed_through;
    if (has_floor && elements[i].timestamp < floor) {
      return Status::InvalidArgument(
          "restored stream suffix is not ordered after its trimmed prefix");
    }
  }
  if (!elements.empty() && elements.back().timestamp != max_timestamp) {
    return Status::InvalidArgument(
        "restored stream suffix does not end at its max timestamp");
  }
  elements_.assign(std::make_move_iterator(elements.begin()),
                   std::make_move_iterator(elements.end()));
  base_ = base_offset;
  trimmed_through_ = trimmed_through;
  last_timestamp_ = max_timestamp;
  return Status::OK();
}

std::vector<StreamElement> PropertyGraphStream::Substream(
    const TimeInterval& interval, IntervalBounds bounds) const {
  std::vector<StreamElement> out;
  for (size_t i = LowerBound(interval.start); i < size(); ++i) {
    const StreamElement& e = at(i);
    if (e.timestamp > interval.end) break;
    if (interval.Contains(e.timestamp, bounds)) out.push_back(e);
  }
  return out;
}

size_t PropertyGraphStream::LowerBound(Timestamp t) const {
  auto it = std::lower_bound(
      elements_.begin(), elements_.end(), t,
      [](const StreamElement& e, Timestamp v) { return e.timestamp < v; });
  return base_ + static_cast<size_t>(it - elements_.begin());
}

}  // namespace seraph
