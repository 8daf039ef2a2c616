// Delta matching (docs/INTERNALS.md, "Incremental evaluation"): a
// per-query partial-match index that keeps the MATCH-stage output of one
// fixed-length pattern synchronized with the sliding window's snapshot
// graph, so each evaluation costs work proportional to the window *churn*
// (the snapshotter's dirty sets) instead of the window *size*.
//
// The index stores every current match of the pattern keyed so that
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
// bag.
//
// After each snapshotter Advance, the index repairs itself from the
// published dirty sets: every indexed match touching a dirty entity is
// removed, then every current match containing a dirty entity is
// rediscovered by anchored bidirectional DFS (anchor each dirty entity at
// each pattern position; duplicate discoveries collapse in the keyed
// map).
//
// An index built with the query's projection also caches each match's
// output — whether it passes WHERE and, if so, its projected row —
// computed once, at the first Output after the match was indexed. The
// cached row stays exact because WHERE and the projection of an eligible
// query read only parameters and the match's own entities, and repair
// re-inserts (so re-projects) every match touching a changed entity. A
// parameter holding an entity breaks that premise (see ParametersAdmit).
// Correctness is pinned by randomized delta-vs-full equivalence property
// tests (tests/delta_equivalence_test.cc).
#ifndef SERAPH_SERAPH_DELTA_DELTA_INDEX_H_
#define SERAPH_SERAPH_DELTA_DELTA_INDEX_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cypher/ast.h"
#include "cypher/executor.h"
#include "graph/property_graph.h"
#include "seraph/seraph_query.h"
#include "stream/snapshot.h"
#include "table/record.h"
#include "table/table.h"
#include "value/value.h"

namespace seraph {

class DeltaIndex {
 public:
  // Whether `query` can be served by delta matching. Deliberately
  // conservative: EMIT mode, window-content-deterministic, exactly one
  // non-OPTIONAL MATCH clause with a single fixed-length kNormal pattern,
  // no exists() predicates anywhere, no aggregates in the projection, and
  // every inline property value a literal, a parameter, or a list or map
  // of those (Build evaluates them once, up front, so no value may fail
  // where the matcher would never have evaluated it). Variable-length
  // patterns, shortestPath, and aggregation are follow-on work (see
  // ROADMAP.md).
  static bool Eligible(const RegisteredQuery& query);

  // Whether the index serves the Eligible `query` exactly under
  // `parameters`: false when a parameter an inline property value names is
  // unbound (Build would fail on it), or when a value holds a node,
  // relationship or path (at any depth) — WHERE or the projection could
  // read an entity through it that no match binds, so a change to that
  // entity would re-insert no match and leave rows stale.
  static bool ParametersAdmit(const RegisteredQuery& query,
                              const std::map<std::string, Value>& parameters);

  // `match` must satisfy Eligible's structural checks and outlive the
  // index (it points into the registered query's clause list). An index
  // built this way serves Emit only.
  explicit DeltaIndex(const MatchClause* match);
  // Additionally caches each match's output under `projection` (the
  // query's EMIT body, which must outlive the index) and serves Output.
  DeltaIndex(const MatchClause* match, const ProjectionBody* projection);

  // Whether the index currently tracks some snapshot state (Build
  // succeeded and no invalidation happened since).
  bool valid() const { return valid_; }
  // Matches currently indexed.
  size_t size() const { return matches_.size(); }
  int64_t applied_advances() const { return applied_advances_; }
  // Matches whose WHERE and projection Output ran, over the index's life.
  int64_t rows_projected() const { return rows_projected_; }

  // Drops all state; the next evaluation must Build from scratch.
  // Called on evaluation failure, checkpoint restore, and query revive —
  // any point where the index may have diverged from the snapshot.
  void Invalidate();

  // Full build against `graph` (the snapshotter's current snapshot) by the
  // repair DFS, anchoring every candidate of pattern node 0, and records
  // the snapshotter advance count the build corresponds to. `exec`
  // supplies parameters and the cooperative deadline, checked per seed.
  Status Build(const PropertyGraph& graph, int64_t advances,
               const ExecutionOptions& exec);

  // Counter-synchronization with the snapshotter, called right after its
  // Advance: a single new advance is applied from the published dirty
  // sets; anything else (missed advances, internal repair failure)
  // invalidates the index. No-op while invalid.
  void ObserveAdvance(const IncrementalSnapshotter& snapshotter);

  // The MATCH-stage output table (post-WHERE, null-padded) in the
  // canonical serial emission order — bit-identical to ApplyMatch over
  // Table::Unit(). Requires valid(). The reference the cached rows are
  // tested against; the engine serves Output instead.
  Result<Table> Emit(const PropertyGraph& graph,
                     const ExecutionOptions& exec) const;

  // The query's output table — bit-identical to ExecuteSingleQuery of the
  // projection alone over Emit(). Runs WHERE over the matches indexed
  // since the last call (in key order, then the projection over those that
  // pass, so a failing call reports the first error the full path would),
  // then copies every cached row out in key order and applies the
  // bag-level half (FinishProjection). Requires valid() and the
  // projection constructor. A failed call leaves those matches pending,
  // so a retry recomputes them.
  Result<Table> Output(const PropertyGraph& graph,
                       const ExecutionOptions& exec);

 private:
  // [n0, b0, r0, b1, r1, ...]; lexicographic order == serial DFS order.
  using Key = std::vector<int64_t>;

  // One indexed match and, once Output has run since it was indexed, its
  // output.
  struct Entry {
    PathValue trail;
    bool passes = false;  // WHERE held.
    Record row;           // The projected row, when it passes.
  };
  using Matches = std::map<Key, Entry>;
  struct ByKey {
    bool operator()(Matches::iterator a, Matches::iterator b) const {
      return a->first < b->first;
    }
  };

  // Removes matches touching dirty entities, then rediscovers all current
  // matches containing at least one dirty entity via anchored DFS.
  Status ApplyDirty(const PropertyGraph& graph,
                    const std::vector<NodeId>& dirty_nodes,
                    const std::vector<RelId>& dirty_rels);

  // Evaluates the pattern's property values once (literals and parameters
  // — Eligible guarantees it) into plain value lists.
  Status PrecomputeProperties(const PropertyGraph& graph,
                              const ExecutionOptions& exec);

  // Constraint checks against precomputed property values.
  bool NodeOk(const PropertyGraph& graph, size_t pos, NodeId id) const;
  bool RelOk(const PropertyGraph& graph, size_t pos, RelId id) const;

  // Indexes a match (no-op when already indexed) and, with a projection,
  // marks it pending for the next Output.
  void AddMatch(Key key, PathValue trail);
  void RemoveMatch(const Key& key);

  // Anchored rediscovery state and expansion (see delta_index.cc).
  struct Search;
  Status AnchorNode(const PropertyGraph& graph, NodeId id, size_t pos);
  Status AnchorRel(const PropertyGraph& graph, RelId id, size_t pos);
  Status ExtendRight(const PropertyGraph& graph, Search* s, size_t right,
                     size_t left);
  Status ExtendLeft(const PropertyGraph& graph, Search* s, size_t left);
  Status RecordMatch(const Search& s);

  // Reassembles the record the serial matcher would have emitted for
  // `trail` (node/rel/path variable bindings; repeated variables pin).
  Record ReconstructRecord(const PathValue& trail) const;

  const MatchClause* match_;
  const PathPattern* pattern_;
  std::set<std::string> new_vars_;  // All pattern variables.
  // The EMIT body and its per-row half, for Output; null / empty when the
  // index serves Emit only.
  const ProjectionBody* body_ = nullptr;
  std::optional<RowProjection> projection_;

  bool valid_ = false;
  int64_t applied_advances_ = 0;
  int64_t rows_projected_ = 0;

  // Precomputed pattern property constraints, per position.
  std::vector<std::vector<std::pair<std::string, Value>>> node_props_;
  std::vector<std::vector<std::pair<std::string, Value>>> rel_props_;
  bool props_ready_ = false;

  // The match bag, keyed in canonical order, plus the inverted
  // entity→match index driving churn-proportional repair. Key pointers
  // and iterators are stable (node-based map).
  Matches matches_;
  std::map<NodeId, std::set<const Key*>> node_keys_;
  std::map<RelId, std::set<const Key*>> rel_keys_;
  // Matches indexed since the last Output, in key order (projection only).
  std::set<Matches::iterator, ByKey> pending_;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_DELTA_DELTA_INDEX_H_
