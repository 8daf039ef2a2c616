// Property graph streams (Defs. 5.2–5.3): sequences of timestamped
// property graphs with non-decreasing timestamps, plus substream selection
// over time intervals.
#ifndef SERAPH_STREAM_GRAPH_STREAM_H_
#define SERAPH_STREAM_GRAPH_STREAM_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/property_graph.h"
#include "temporal/interval.h"
#include "temporal/timestamp.h"

namespace seraph {

// One stream element (G, ω). Graphs are shared immutably once appended.
struct StreamElement {
  std::shared_ptr<const PropertyGraph> graph;
  Timestamp timestamp;
  // Processing-time arrival stamp (Clock::Steady() microseconds; see
  // common/clock.h), set at EventQueue::Produce or engine ingestion and
  // carried to sink delivery, where `delivery - arrival` is the element's
  // ingest→emit latency (docs/INTERNALS.md, "Latency accounting & lag").
  // 0 = unstamped (latency accounting skips the element). Deliberately
  // not persisted: a recovered element's first life already reported its
  // latency.
  int64_t arrival_micros = 0;
};

// An in-memory property graph stream: the retained suffix of the prefix
// observed so far of the conceptually unbounded sequence S. Elements must
// arrive with non-decreasing timestamps (Def. 5.2).
//
// Positions are *absolute*: element i is the i-th element ever appended,
// whether or not a retention trim (DropFront) has since released the
// prefix before it. `size()` counts elements ever appended, `at` and
// `LowerBound` take and return absolute positions in
// [base_offset(), size()), so ranges and cursors held by readers stay
// valid across trims without rebasing (docs/INTERNALS.md, "Stream
// retention").
class PropertyGraphStream {
 public:
  PropertyGraphStream() = default;

  // Appends (graph, ω). Fails with kOutOfRange if ω precedes the last
  // appended timestamp (CheckOrder). `arrival_micros` carries the
  // element's processing-time arrival stamp (0 = unstamped).
  Status Append(PropertyGraph graph, Timestamp timestamp,
                int64_t arrival_micros = 0);
  Status Append(std::shared_ptr<const PropertyGraph> graph,
                Timestamp timestamp, int64_t arrival_micros = 0);
  // The order check of Append alone: kOutOfRange if ω precedes the last
  // appended timestamp.
  Status CheckOrder(Timestamp timestamp) const;

  // Elements ever appended: the absolute position of the next append.
  size_t size() const { return base_ + elements_.size(); }
  // Whether nothing was ever appended (a trimmed-to-empty stream is not
  // empty: its MaxTimestamp is still meaningful).
  bool empty() const { return size() == 0; }
  // Absolute position of the oldest retained element.
  size_t base_offset() const { return base_; }
  // Elements currently held in memory: positions [base_offset(), size()).
  size_t retained() const { return elements_.size(); }
  // The element at absolute position i; requires
  // base_offset() <= i < size().
  const StreamElement& at(size_t i) const {
    SERAPH_DCHECK(i >= base_ && i < size())
        << "stream position " << i << " outside retained [" << base_ << ", "
        << size() << ")";
    return elements_[i - base_];
  }

  // Timestamp of the last element ever appended (epoch when none was).
  // Survives DropFront so the non-decreasing check and watermark math
  // keep working on a retention-trimmed log.
  Timestamp MaxTimestamp() const { return last_timestamp_; }
  // Timestamp of the newest element a trim released; meaningful only
  // when base_offset() > 0. Windows reaching back to it or earlier can no
  // longer be rebuilt from this stream.
  Timestamp TrimmedThrough() const { return trimmed_through_; }

  // Releases the `n` oldest retained elements (clamped to retained()),
  // graphs included, in O(1) per element and returns how many were
  // released. Absolute positions of the survivors do not change. The
  // non-decreasing append invariant is still checked against the last
  // *appended* timestamp, not the last retained one.
  size_t DropFront(size_t n);

  // Reinstates a checkpointed stream into this never-appended one: the
  // retained suffix `elements` at absolute positions starting at
  // `base_offset`, with the stream's max and trimmed-through timestamps
  // (persist/codec.h, format v2). Fails with kInvalidArgument when the
  // stream already has elements or the suffix is inconsistent with the
  // timestamps.
  Status Restore(size_t base_offset, Timestamp trimmed_through,
                 Timestamp max_timestamp, std::vector<StreamElement> elements);

  // The substream S_τ: retained elements whose timestamps fall in
  // `interval` under `bounds` (Def. 5.3 with the bounds policy of
  // DESIGN.md §2).
  std::vector<StreamElement> Substream(const TimeInterval& interval,
                                       IntervalBounds bounds) const;

  // Absolute position of the first retained element with timestamp >= t
  // (elements are sorted by timestamp); size() when there is none. Used
  // for incremental window maintenance.
  size_t LowerBound(Timestamp t) const;

 private:
  // The retained suffix; elements_[0] sits at absolute position base_.
  std::deque<StreamElement> elements_;
  size_t base_ = 0;
  Timestamp last_timestamp_;
  Timestamp trimmed_through_;
};

}  // namespace seraph

#endif  // SERAPH_STREAM_GRAPH_STREAM_H_
