#include "stream/reorder_buffer.h"

namespace seraph {

bool ReorderBuffer::Offer(std::shared_ptr<const PropertyGraph> graph,
                          Timestamp timestamp) {
  return Offer(StreamElement{std::move(graph), timestamp, 0});
}

bool ReorderBuffer::Offer(StreamElement element) {
  if (any_seen_ && element.timestamp < watermark()) {
    ++dropped_;
    return false;
  }
  if (!any_seen_ || element.timestamp > max_seen_) {
    max_seen_ = element.timestamp;
    any_seen_ = true;
  }
  Timestamp timestamp = element.timestamp;
  held_.emplace(timestamp, std::move(element));
  return true;
}

Timestamp ReorderBuffer::watermark() const {
  if (!any_seen_) return Timestamp::FromMillis(INT64_MIN / 2);
  return max_seen_ - allowed_lateness_;
}

std::vector<StreamElement> ReorderBuffer::Release() {
  std::vector<StreamElement> out;
  Timestamp mark = watermark();
  auto it = held_.begin();
  while (it != held_.end() && it->first <= mark) {
    out.push_back(std::move(it->second));
    it = held_.erase(it);
  }
  return out;
}

std::vector<StreamElement> ReorderBuffer::Flush() {
  std::vector<StreamElement> out;
  for (auto& [ts, element] : held_) {
    out.push_back(std::move(element));
  }
  held_.clear();
  return out;
}

}  // namespace seraph
