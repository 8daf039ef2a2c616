// Pattern matching: the match(π, G, u) set of Section 3.2 (lifted to
// snapshot graphs in Section 5.3).
//
// Given the path patterns of one MATCH clause, a graph, and an input
// record u, produces every extension u · u' such that the patterns are
// satisfied under the combined assignment. Variable-length relationship
// patterns are evaluated by on-the-fly expansion of the rigid patterns
// they subsume (DFS bounded by the hop range), and Cypher's relationship
// isomorphism rule is enforced: a relationship is traversed at most once
// per match of the whole clause.
//
// shortestPath(...) / allShortestPaths(...) path patterns are evaluated by
// BFS between all candidate endpoint bindings.
//
// An optional TrailFilter prunes one path pattern's trail while it is
// expanded, dropping exactly the rows a WHERE conjunct over its
// relationships would drop later (see TrailFilter).
//
// With a MatchParallelism spec the seed candidates of the first processed
// pattern are partitioned into fixed-size morsels fanned out on a shared
// ThreadPool; morsel outputs are concatenated in ascending seed order, so
// the result bag — content *and* order — is bit-identical to serial
// execution at any thread count (docs/INTERNALS.md, "Intra-query
// parallelism").
#ifndef SERAPH_CYPHER_MATCHER_H_
#define SERAPH_CYPHER_MATCHER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "cypher/ast.h"
#include "cypher/eval.h"
#include "graph/property_graph.h"
#include "table/record.h"

namespace seraph {

// Intra-query parallelism for pattern matching. The first seed
// enumeration of a MATCH (the label-indexed node list or full node scan
// feeding the DFS) is split into `morsel_size` chunks; each morsel runs
// the full recursive match on a pool task with its own output vector and
// its own per-branch relationship-isomorphism state. Everything the
// morsels share — graph, patterns, parameters — is read-only for the
// duration of the call.
//
// Fan-out happens only when a pool with >1 worker is supplied, the first
// pattern's seed node is not pinned by a pre-bound variable, and the
// seed domain has at least `min_seeds` candidates — small graphs stay on
// the serial path untouched.
struct MatchParallelism {
  ThreadPool* pool = nullptr;  // Not owned; null = serial.
  // Fan out only when the seed domain is at least this large; below it
  // the partitioning overhead outweighs the DFS work.
  size_t min_seeds = 2048;
  // Seed candidates per morsel.
  size_t morsel_size = 512;
  // Observability; all optional (not owned). The counter/histogram are
  // written once per fan-out from the thread driving the match — for the
  // engine that is the query's single evaluating worker, preserving the
  // registry's single-writer histogram contract.
  Counter* partitions = nullptr;        // seraph_match_partitions_total
  Histogram* seed_candidates = nullptr; // seraph_match_seed_candidates
  TraceRecorder* tracer = nullptr;      // Span per morsel batch.
  std::string query_label;              // "query" arg on spans.
};

struct MatchOptions {
  // Greedy join-order optimization across the comma-separated patterns of
  // one MATCH clause: patterns whose variables are already bound (by the
  // input record or by previously processed patterns) are matched first,
  // and otherwise the pattern with the most selective label-indexed seed
  // starts. Purely an execution-order change — the result bag is
  // identical (ablated in bench_match's BM_JoinOrder).
  bool optimize_pattern_order = true;
  // Morsel-partitioned parallel seed matching (null = serial, or inherit
  // a spec from EvalContext::match_parallelism when one is set there).
  // The spec must outlive the call.
  const MatchParallelism* parallel = nullptr;
};

// A per-relationship test on one path pattern's trail: the executor's plan
// for a `WHERE ... ALL(e IN relationships(q) WHERE P)` conjunct whose
// dropped rows could not have failed on their way to it (docs/INTERNALS.md,
// "Trail filters"). Each relationship appended to q's trail, in
// relationships(q) order, is tested with `variable` bound to it, under the
// matcher's EvalContext and the record built so far:
//   - P false: the branch is dropped (ALL is false whatever follows);
//   - P true or null: the branch extends;
//   - P fails or is not boolean: the rest of the branch runs unpruned, so
//     its trails reach the WHERE, which raises the same error.
// A variable in `reads` that is unbound when q's pattern starts leaves that
// expansion unpruned.
struct TrailFilter {
  const PathPattern* path = nullptr;  // q's pattern, one of the MATCH's.
  std::string variable;               // e
  const Expr* predicate = nullptr;    // P
  std::vector<std::string> reads;     // P's variables other than e.
};

// Appends to `out` every record extending `input` with bindings for the
// free variables of `patterns` matched against `graph`. `ctx` supplies
// parameters / evaluation time for property expressions inside patterns
// (and for the trail filter's P, when given); its record pointer is
// managed internally.
Status MatchPatterns(const std::vector<PathPattern>& patterns,
                     const PropertyGraph& graph, const Record& input,
                     EvalContext& ctx, std::vector<Record>* out,
                     const MatchOptions& options = {},
                     const TrailFilter* trail_filter = nullptr);

// Single-pattern variant (the exists(<pattern>) predicate).
Status MatchSinglePattern(const PathPattern& pattern,
                          const PropertyGraph& graph, const Record& input,
                          EvalContext& ctx, std::vector<Record>* out);

// Delta-matching support (seraph/delta): matches one rigid pattern —
// kNormal mode, fixed length, no variable-length relationships — and
// records, for every emitted record, the concrete trail (node and
// relationship ids in pattern position order) that produced it.
// `out` and `trails` grow in lockstep: trails->at(i) is the witness of
// out->at(i). Always runs the serial DFS, so the emission order is the
// canonical content-determined order the delta index keys reproduce.
// Rejects variable-length / shortestPath patterns with kInvalidArgument.
Status MatchPatternWithTrails(const PathPattern& pattern,
                              const PropertyGraph& graph, const Record& input,
                              EvalContext& ctx, std::vector<Record>* out,
                              std::vector<PathValue>* trails);

// The one incident-edge walk of the serial matcher and the delta index
// (seraph/delta), which must agree on match order. Calls
// `fn(rel, other_endpoint, bucket)` for each relationship incident to
// `from` that `direction` admits: the outgoing list first (bucket 0),
// then the incoming list (bucket 1), stopping at the first error. A
// self-loop is visited once, through the outgoing list, so under
// kIncoming it never matches.
template <typename Fn>
Status ForEachIncident(const PropertyGraph& graph, NodeId from,
                       RelDirection direction, const Fn& fn) {
  if (direction != RelDirection::kIncoming) {
    for (RelId rid : graph.OutRelationships(from)) {
      SERAPH_RETURN_IF_ERROR(fn(rid, graph.relationship(rid)->trg, 0));
    }
  }
  if (direction != RelDirection::kOutgoing) {
    for (RelId rid : graph.InRelationships(from)) {
      const RelData* data = graph.relationship(rid);
      if (data->src == data->trg) continue;  // Self-loop seen via out.
      SERAPH_RETURN_IF_ERROR(fn(rid, data->src, 1));
    }
  }
  return Status::OK();
}

}  // namespace seraph

#endif  // SERAPH_CYPHER_MATCHER_H_
