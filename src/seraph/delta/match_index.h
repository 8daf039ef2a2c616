// The shared half of delta matching (docs/INTERNALS.md, "Incremental
// evaluation"): one partial-match index per (shared window, pattern
// skeleton), kept synchronized with the window's snapshot graph so each
// advance costs work proportional to the window *churn* (the
// snapshotter's dirty sets) instead of the window *size*. Its readers
// (DeltaIndex, the per-query half) filter what it publishes.
//
// The index stores every current match of the skeleton keyed so that
// iterating the index reproduces the serial DFS matcher's emission order
// bit-identically — content and order. This hinges on two invariants:
//  * PropertyGraph adjacency lists are in ascending relationship-id order
//    (content-determined, not insertion-ordered), and
//  * the matcher seeds node scans in ascending node-id order.
// Under them, the serial matcher emits matches in lexicographic order of
// the key [n0, b0, r0, b1, r1, ...] where n0 is the seed node, r_i the
// i-th traversed relationship, and b_i the adjacency bucket it was found
// in (0 = outgoing list, 1 = incoming list). The key also uniquely
// determines the trail, so a std::map over keys *is* the canonical match
// bag. The key does not depend on property maps, so a query whose
// pattern adds property values to the skeleton matches a subset of the
// keys, in the same order.
//
// After each snapshotter Advance, the index repairs itself from the
// published dirty sets: every indexed match touching a dirty entity is
// removed, then every current match containing a dirty entity is
// rediscovered by anchored bidirectional DFS (anchor each dirty entity at
// each pattern position; duplicate discoveries collapse in the keyed
// map). Each Build or repair publishes what it changed, so a reader
// consumes only the churn.
#ifndef SERAPH_SERAPH_DELTA_MATCH_INDEX_H_
#define SERAPH_SERAPH_DELTA_MATCH_INDEX_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "cypher/ast.h"
#include "graph/property_graph.h"
#include "stream/snapshot.h"
#include "value/value.h"

namespace seraph {

// A pattern's inline property values, evaluated once: per node position
// and per relationship position, the (key, value) pairs the entity bound
// there must carry (Cypher equality, a missing key fails).
struct PatternProperties {
  std::vector<std::vector<std::pair<std::string, Value>>> nodes;
  std::vector<std::vector<std::pair<std::string, Value>>> rels;

  friend bool operator==(const PatternProperties&,
                         const PatternProperties&) = default;

  // Whether every entity of `trail` carries the values of its position.
  bool Hold(const PropertyGraph& graph, const PathValue& trail) const;
};

class MatchIndex {
 public:
  // [n0, b0, r0, b1, r1, ...]; lexicographic order == serial DFS order.
  using Key = std::vector<int64_t>;
  using Matches = std::map<Key, PathValue>;

  // The skeleton of a fixed-length pattern: its length, the labels of
  // each node, the types and direction of each relationship, and which
  // positions repeat an earlier position's variable. Variable names, the
  // path variable and property maps are left out. Patterns with equal
  // skeletons share one index.
  static std::string SkeletonKey(const PathPattern& pattern);

  explicit MatchIndex(const PathPattern& pattern);

  // The property values of each reader. The DFS applies only the pairs
  // every reader requires (same position, key and value), so it holds a
  // superset of each reader's matches; a reader re-checks its own. A
  // change of readers that changes that intersection invalidates the
  // index. The values must outlive their registration.
  void AddReader(const PatternProperties* properties);
  void RemoveReader(const PatternProperties* properties);
  size_t readers() const { return readers_.size(); }

  // Whether the index tracks a snapshot state (a Build succeeded and
  // nothing invalidated it since).
  bool valid() const { return valid_; }
  size_t size() const { return matches_.size(); }
  const Matches& matches() const { return matches_; }

  // Drops all state; the next maintenance must Build.
  void Invalidate();

  // Full build against `graph` by the repair DFS, anchoring every
  // candidate of pattern node 0, recorded as the snapshot of advance
  // `advances`. `cancellation` (may be null) is checked per seed.
  Status Build(const PropertyGraph& graph, int64_t advances,
               const CancellationToken* cancellation);

  // Counter-synchronization with the snapshotter, called right after its
  // Advance: a single new advance is repaired from the published dirty
  // sets; anything else (missed advances, a failed repair) invalidates
  // the index. No-op while invalid.
  void ObserveAdvance(const IncrementalSnapshotter& snapshotter);

  // What the last Build or repair changed. `version()` counts them; a
  // repair took the index from `published_from()` to `version()`, erasing
  // `erased()` (every match touching a dirty entity, some of which it
  // re-inserted) and then inserting `inserted()` (both in key order). A
  // Build replaced everything (`published_build()`): a reader refills
  // from `matches()`. The iterators stay valid until the next Build,
  // repair or Invalidate.
  uint64_t version() const { return version_; }
  uint64_t published_from() const { return published_from_; }
  bool published_build() const { return published_build_; }
  const std::vector<Key>& erased() const { return erased_; }
  const std::vector<Matches::const_iterator>& inserted() const {
    return inserted_;
  }

 private:
  // Removes matches touching dirty entities, then rediscovers all current
  // matches containing at least one dirty entity via anchored DFS.
  Status ApplyDirty(const PropertyGraph& graph,
                    const std::vector<NodeId>& dirty_nodes,
                    const std::vector<RelId>& dirty_rels);

  // The intersection of the readers' property values.
  PatternProperties Required() const;

  // Skeleton and required-value checks.
  bool NodeOk(const PropertyGraph& graph, size_t pos, NodeId id) const;
  bool RelOk(const PropertyGraph& graph, size_t pos, RelId id) const;

  // Indexes a match (no-op when already indexed) and publishes it.
  void AddMatch(Key key, PathValue trail);
  void RemoveMatch(const Key& key);
  // Starts publishing a new Build (`build`) or repair.
  void Publish(bool build);

  // Anchored rediscovery state and expansion (see match_index.cc).
  struct Search;
  Status AnchorNode(const PropertyGraph& graph, NodeId id, size_t pos);
  Status AnchorRel(const PropertyGraph& graph, RelId id, size_t pos);
  Status ExtendRight(const PropertyGraph& graph, Search* s, size_t right,
                     size_t left);
  Status ExtendLeft(const PropertyGraph& graph, Search* s, size_t left);
  void RecordMatch(const Search& s);

  // The skeleton, per position: node labels, relationship types and
  // directions, and the position whose variable each one repeats (its own
  // when it repeats none), so repeated variables pin one entity.
  std::vector<std::vector<std::string>> labels_;
  std::vector<std::vector<std::string>> types_;
  std::vector<RelDirection> directions_;
  std::vector<size_t> node_class_;
  std::vector<size_t> rel_class_;

  std::vector<const PatternProperties*> readers_;
  PatternProperties required_;

  bool valid_ = false;
  int64_t applied_advances_ = 0;

  // The match bag, keyed in canonical order, plus the inverted
  // entity→match index driving churn-proportional repair. Key pointers
  // and iterators are stable (node-based map).
  Matches matches_;
  std::map<NodeId, std::set<const Key*>> node_keys_;
  std::map<RelId, std::set<const Key*>> rel_keys_;

  uint64_t version_ = 0;
  uint64_t published_from_ = 0;
  bool published_build_ = false;
  std::vector<Key> erased_;
  std::vector<Matches::const_iterator> inserted_;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_DELTA_MATCH_INDEX_H_
