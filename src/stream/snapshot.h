// Snapshot graphs (Def. 5.5): the union of all property graphs in a
// window's substream, applied in timestamp order with ingestion-merge
// semantics (Def. 5.4 / Listing 4 — label sets union, later property
// values win).
//
// Two construction strategies are provided:
//  * `BuildSnapshot` — rebuild from scratch for one window (the baseline
//    the §3.3 polling workaround is stuck with);
//  * `IncrementalSnapshotter` — maintains the snapshot across sliding
//    windows by applying only the delta (added / evicted stream elements),
//    one of the §6 "efficient window maintenance" optimizations. The two
//    are observationally equal (property-tested).
#ifndef SERAPH_STREAM_SNAPSHOT_H_
#define SERAPH_STREAM_SNAPSHOT_H_

#include <deque>
#include <map>
#include <memory>

#include "common/result.h"
#include "graph/property_graph.h"
#include "stream/graph_stream.h"
#include "temporal/interval.h"

namespace seraph {

// Cumulative window-maintenance counters of an IncrementalSnapshotter —
// the raw material for the engine's per-query maintenance metrics and for
// the bench ablations (how much delta work a slide actually did).
struct SnapshotterStats {
  int64_t advances = 0;            // Advance() calls that succeeded.
  int64_t elements_added = 0;      // Stream elements entering the window.
  int64_t elements_evicted = 0;    // Stream elements leaving the window.
  int64_t entities_recomputed = 0; // Dirty nodes+rels re-merged by Rebuild.
};

// Builds the snapshot graph G_τ for `interval` by merging the substream's
// graphs in timestamp order.
Result<PropertyGraph> BuildSnapshot(const PropertyGraphStream& stream,
                                    const TimeInterval& interval,
                                    IntervalBounds bounds);

// Maintains a window's snapshot graph incrementally as the window slides
// forward over a stream.
//
// Each graph entity keeps its ordered list of per-element contributions;
// sliding the window appends new contributions and drops expired ones, and
// only entities whose contribution set changed are recomputed.
class IncrementalSnapshotter {
 public:
  // `stream` must outlive the snapshotter and is observed in place (new
  // appends become visible to later Advance calls).
  IncrementalSnapshotter(const PropertyGraphStream* stream,
                         IntervalBounds bounds)
      : stream_(stream), bounds_(bounds) {}

  // Installs a static background graph (§8 future work (iii)): its
  // entities are present in every snapshot, underneath the stream's
  // contributions (stream property values win). Must be called before the
  // first Advance.
  Status SetBase(std::shared_ptr<const PropertyGraph> base);

  // Slides the maintained window to `interval` (must not move backwards)
  // and updates the snapshot graph with the element delta.
  Status Advance(const TimeInterval& interval);

  const PropertyGraph& graph() const { return snapshot_; }

  // The currently-covered range [window_begin(), window_end()) of
  // absolute stream positions. The next Advance evicts from
  // window_begin(), so a started snapshotter needs the stream to retain
  // every position from there on (the engine's retention horizon).
  size_t window_begin() const { return lo_; }
  size_t window_end() const { return hi_; }
  // Whether Advance ran at least once (before that, the range is empty
  // and pins nothing).
  bool started() const { return started_; }

  // Cumulative maintenance counters (monotone; callers diff snapshots).
  const SnapshotterStats& stats() const { return stats_; }

  // Entities whose effective payload was recomputed (added, changed, or
  // removed) by the most recent Advance/SetBase: sorted ascending,
  // deduplicated, and a conservative superset of the entities that
  // actually differ. This is the churn feed for delta matching — any
  // match touching one of these may be stale, and any new match must
  // bind at least one of them.
  const std::vector<NodeId>& last_dirty_nodes() const {
    return last_dirty_nodes_;
  }
  const std::vector<RelId>& last_dirty_rels() const {
    return last_dirty_rels_;
  }

 private:
  struct NodeContribution {
    Timestamp timestamp;
    // Keeps the owning element graph alive.
    std::shared_ptr<const PropertyGraph> owner;
    const NodeData* data;
  };
  struct RelContribution {
    Timestamp timestamp;
    std::shared_ptr<const PropertyGraph> owner;
    const RelData* data;
  };

  // Applies one element's contributions (append at window tail).
  void AddElement(const StreamElement& element);
  // Drops one element's contributions (evict at window head). The element
  // must be the oldest contributor of every entity it touched.
  void EvictElement(const StreamElement& element);

  // Recomputes the effective payloads of entities marked dirty and patches
  // the snapshot graph.
  Status Rebuild();

  const PropertyGraphStream* stream_;
  IntervalBounds bounds_;
  PropertyGraph snapshot_;

  std::map<NodeId, std::deque<NodeContribution>> node_contribs_;
  std::map<RelId, std::deque<RelContribution>> rel_contribs_;
  std::vector<NodeId> dirty_nodes_;
  std::vector<RelId> dirty_rels_;
  std::vector<NodeId> last_dirty_nodes_;
  std::vector<RelId> last_dirty_rels_;

  // Current half-open absolute position range [lo_, hi_) covered by the
  // window.
  size_t lo_ = 0;
  size_t hi_ = 0;
  bool started_ = false;
  TimeInterval last_interval_{};
  SnapshotterStats stats_;
};

}  // namespace seraph

#endif  // SERAPH_STREAM_SNAPSHOT_H_
