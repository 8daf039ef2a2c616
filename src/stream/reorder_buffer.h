// Out-of-order arrival handling in front of the (order-requiring) stream.
//
// The paper's Def. 5.2 assumes non-decreasing stream timestamps, which a
// real transport only guarantees per partition. A ReorderBuffer accepts
// elements out of order within a bounded lateness: an element is held
// until the watermark — the maximum seen timestamp minus the allowed
// lateness — passes it, then released in timestamp order. Elements older
// than the watermark at arrival are counted and dropped.
#ifndef SERAPH_STREAM_REORDER_BUFFER_H_
#define SERAPH_STREAM_REORDER_BUFFER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "stream/graph_stream.h"
#include "temporal/duration.h"

namespace seraph {

class ReorderBuffer {
 public:
  explicit ReorderBuffer(Duration allowed_lateness)
      : allowed_lateness_(allowed_lateness) {}

  // Offers an element. Returns false (and counts a drop) when the element
  // is already older than the watermark.
  bool Offer(std::shared_ptr<const PropertyGraph> graph, Timestamp timestamp);
  // Same, preserving the element's arrival stamp through the buffer (so
  // reordering delay is charged to the element's emit latency).
  bool Offer(StreamElement element);

  // The current watermark: max seen timestamp − allowed lateness (epoch
  // before any element was offered).
  Timestamp watermark() const;

  // Removes and returns all held elements with timestamp <= watermark,
  // in timestamp order (stable for ties).
  std::vector<StreamElement> Release();

  // Removes and returns everything (end of stream).
  std::vector<StreamElement> Flush();

  size_t pending() const { return held_.size(); }
  int64_t dropped() const { return dropped_; }

 private:
  Duration allowed_lateness_;
  std::multimap<Timestamp, StreamElement> held_;
  Timestamp max_seen_;
  bool any_seen_ = false;
  int64_t dropped_ = 0;
};

}  // namespace seraph

#endif  // SERAPH_STREAM_REORDER_BUFFER_H_
