// Delta matching (docs/INTERNALS.md, "Incremental evaluation"): the
// per-query half. A DeltaIndex reads a MatchIndex (the shared half, one
// per shared window and pattern skeleton) and keeps the query's own part
// of the MATCH-stage output in step with it, so each evaluation costs
// work proportional to the window *churn* instead of the window *size*.
//
// A reader holds its pattern's inline property values, evaluated once,
// and re-checks them on every match the index hands it (the index applies
// only the values all of its readers share). Per match that holds them it
// caches its output — whether the match passes WHERE and, if so, its
// projected row — computed once, at the first Output after the match
// reached the reader. The cached row stays exact because WHERE and the
// projection of an eligible query read only parameters and the match's
// own entities, and the index's repair re-publishes every match touching
// a changed entity. A parameter holding an entity breaks that premise (see
// ParametersAdmit). Iterating the reader's matches in key order yields
// the index's canonical order, filtered — the serial matcher's order.
//
// Per evaluation a reader consumes only what the index's last Build or
// repair published (Sync). A reader that missed some (invalidated after a
// failure, a revive, a late registration or a restore) rebuilds its cache
// with one walk of the index (Build), without a DFS and without touching
// the index or its other readers. Correctness is pinned by randomized
// delta-vs-full equivalence property tests
// (tests/delta_equivalence_test.cc).
#ifndef SERAPH_SERAPH_DELTA_DELTA_INDEX_H_
#define SERAPH_SERAPH_DELTA_DELTA_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "cypher/ast.h"
#include "cypher/executor.h"
#include "graph/property_graph.h"
#include "seraph/delta/match_index.h"
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
  // of those (they are evaluated once, up front, so no value may fail
  // where the matcher would never have evaluated it). Variable-length
  // patterns, shortestPath, and aggregation are follow-on work (see
  // ROADMAP.md).
  static bool Eligible(const RegisteredQuery& query);

  // Whether the index serves the Eligible `query` exactly under
  // `parameters`: false when a parameter an inline property value names is
  // unbound (evaluating it would fail), or when a value holds a node,
  // relationship or path (at any depth) — WHERE or the projection could
  // read an entity through it that no match binds, so a change to that
  // entity would re-publish no match and leave rows stale.
  static bool ParametersAdmit(const RegisteredQuery& query,
                              const std::map<std::string, Value>& parameters);

  // The inline property values of an Eligible `pattern`, evaluated once
  // under `parameters` (they cannot fail when ParametersAdmit holds).
  static Result<PatternProperties> EvaluateProperties(
      const PathPattern& pattern,
      const std::map<std::string, Value>& parameters);

  // A reader of the shared `index`, whose skeleton is `match`'s pattern's
  // (MatchIndex::SkeletonKey), with the pattern's `properties`
  // (EvaluateProperties). `match`, `projection` (the query's EMIT body) and
  // `index` must outlive the reader; it registers with the index here and
  // deregisters on destruction. A reader of an index that is not built yet
  // takes its first Build whole; one joining a built index walks it at its
  // first Build call.
  DeltaIndex(const MatchClause* match, const ProjectionBody* projection,
             MatchIndex* index, PatternProperties properties);

  // A standalone index: the reader owns an index of its own, built by
  // Build and repaired by ObserveAdvance. `match` must satisfy Eligible's
  // structural checks and outlive the index. Built this way it serves
  // Emit only; with `projection` (which must outlive it) Output too.
  explicit DeltaIndex(const MatchClause* match);
  DeltaIndex(const MatchClause* match, const ProjectionBody* projection);

  ~DeltaIndex();
  DeltaIndex(const DeltaIndex&) = delete;
  DeltaIndex& operator=(const DeltaIndex&) = delete;

  // Whether the reader is in step with a valid index (Build succeeded and
  // nothing invalidated it since).
  bool valid() const;
  // Matches the index holds (a superset of the reader's own).
  size_t size() const { return index_->size(); }
  // Matches whose WHERE and projection Output ran, over the reader's life.
  int64_t rows_projected() const { return rows_projected_; }

  // Drops the reader's cache; the next evaluation must Build. Called on
  // evaluation failure, checkpoint restore, and query revive — any point
  // where the reader may have diverged from the index. A standalone index
  // drops its own index too.
  void Invalidate();

  // Standalone: evaluates the property values under `exec`'s parameters,
  // builds the owned index against `graph` (the snapshotter's current
  // snapshot) by DFS as of advance `advances`, then fills the cache.
  // Reader of a shared index: refills the cache with one walk of the
  // index, which must be valid and current. `exec` supplies the
  // cooperative deadline.
  Status Build(const PropertyGraph& graph, int64_t advances,
               const ExecutionOptions& exec);

  // Standalone: repairs the owned index from the dirty sets of
  // `snapshotter`'s last advance (called right after it), then Syncs; a
  // missed advance invalidates. No-op while invalid.
  void ObserveAdvance(const IncrementalSnapshotter& snapshotter);

  // Consumes what the index published since the reader last synced: the
  // keys its repair erased and inserted (each inserted match re-checked
  // against the reader's property values over `graph`, the snapshot the
  // index was repaired against), or, after a Build, every match. A reader
  // that missed a repair invalidates itself. No-op while invalid.
  void Sync(const PropertyGraph& graph);

  // The MATCH-stage output table (post-WHERE, null-padded) in the
  // canonical serial emission order — bit-identical to ApplyMatch over
  // Table::Unit(). Requires valid(). The reference the cached rows are
  // tested against; the engine serves Output instead.
  Result<Table> Emit(const PropertyGraph& graph,
                     const ExecutionOptions& exec) const;

  // The query's output table — bit-identical to ExecuteSingleQuery of the
  // projection alone over Emit(). Runs WHERE over the matches that reached
  // the reader since the last call (in key order, then the projection over
  // those that pass, so a failing call reports the first error the full
  // path would), then copies every cached row out in key order and applies
  // the bag-level half (FinishProjection). Requires valid() and a
  // projection. A failed call leaves those matches pending, so a retry
  // recomputes them.
  Result<Table> Output(const PropertyGraph& graph,
                       const ExecutionOptions& exec);

 private:
  // One match of the reader and, once Output has run since it arrived,
  // its output. `trail` points into the index, which keeps it while the
  // reader is in step.
  struct Entry {
    const PathValue* trail = nullptr;
    bool passes = false;  // WHERE held.
    Record row;           // The projected row, when it passes.
  };
  using Entries = std::map<MatchIndex::Key, Entry>;
  struct ByKey {
    bool operator()(Entries::iterator a, Entries::iterator b) const {
      return a->first < b->first;
    }
  };

  // Takes `trail` under `key` when the reader's values hold and, with a
  // projection, marks it pending for the next Output.
  void Take(const PropertyGraph& graph, const MatchIndex::Key& key,
            const PathValue& trail);
  // Replaces the cache with every match of the index the reader's values
  // admit.
  Status Refill(const PropertyGraph& graph,
                const CancellationToken* cancellation);

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

  // The index read: owned_ for a standalone index, else shared.
  std::unique_ptr<MatchIndex> owned_;
  MatchIndex* index_;
  PatternProperties properties_;

  bool valid_ = false;
  uint64_t synced_ = 0;  // The index version the cache reflects.
  int64_t rows_projected_ = 0;

  // The reader's matches, keyed in canonical order.
  Entries entries_;
  // Matches taken since the last Output, in key order (projection only).
  std::set<Entries::iterator, ByKey> pending_;
};

}  // namespace seraph

#endif  // SERAPH_SERAPH_DELTA_DELTA_INDEX_H_
