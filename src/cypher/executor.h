// Clause-by-clause query evaluation with bag-table semantics
// (Section 3.2; lifted per Fig. 7 by fixing the evaluation instant).
//
// The executor is shared between one-time Cypher evaluation and Seraph's
// continuous engine: the latter fixes the evaluation time instant, supplies
// per-MATCH snapshot graphs via a GraphResolver, and exposes the active
// window bounds to expressions.
#ifndef SERAPH_CYPHER_EXECUTOR_H_
#define SERAPH_CYPHER_EXECUTOR_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "cypher/ast.h"
#include "cypher/matcher.h"
#include "graph/property_graph.h"
#include "table/table.h"
#include "temporal/interval.h"

namespace seraph {

class CancellationToken;  // common/cancel.h

struct ExecutionOptions {
  // Values for $parameters.
  std::map<std::string, Value> parameters;
  // The evaluation time instant: the value of datetime() / timestamp().
  Timestamp now;
  // Active window bounds (Seraph): resolves the reserved win_start /
  // win_end names in expressions.
  std::optional<TimeInterval> window;
  // Greedy join-order optimization within MATCH clauses (see
  // MatchOptions); disable to execute patterns in textual order.
  bool optimize_match_order = true;
  // Morsel-partitioned parallel pattern matching (cypher/matcher.h); the
  // spec must outlive the execution. Null = serial matching.
  const MatchParallelism* match_parallelism = nullptr;
  // Cooperative evaluation deadline (common/cancel.h); checked by the
  // matcher at seed/expansion boundaries. Null = no deadline. Must
  // outlive the execution.
  const CancellationToken* cancellation = nullptr;
};

// Supplies the graph each MATCH clause is evaluated against. Seraph's
// continuous engine returns the snapshot graph of the clause's WITHIN
// window; one-time Cypher uses a single graph for everything.
class GraphResolver {
 public:
  virtual ~GraphResolver() = default;

  // Graph for pattern matching of `clause` (the clause_index-th clause of
  // the single query being executed).
  virtual const PropertyGraph& GraphFor(const MatchClause& clause,
                                        size_t clause_index) const = 0;

  // Graph used for property lookups in expressions (the widest snapshot;
  // must contain every entity any clause can bind).
  virtual const PropertyGraph& BaseGraph() const = 0;
};

// Resolver using one graph for all clauses (plain Cypher).
class SingleGraphResolver final : public GraphResolver {
 public:
  explicit SingleGraphResolver(const PropertyGraph& graph) : graph_(graph) {}
  const PropertyGraph& GraphFor(const MatchClause&, size_t) const override {
    return graph_;
  }
  const PropertyGraph& BaseGraph() const override { return graph_; }

 private:
  const PropertyGraph& graph_;
};

// The two halves of a WITH/RETURN projection. The executor composes them;
// a caller that keeps rows across evaluations (the delta index,
// seraph/delta) runs the per-row half once per source row and the
// bag-level half over the rows it kept.
//
// The per-row half: a body's items ('*' expanded to `input_fields`, the
// fields of the rows it will see) evaluated over one source record.
class RowProjection {
 public:
  RowProjection(const ProjectionBody& body,
                const std::set<std::string>& input_fields);

  // The projected rows' fields (the item aliases).
  const std::set<std::string>& fields() const { return fields_; }
  const std::vector<const ProjectionItem*>& items() const { return items_; }
  // Whether an item aggregates; such a body is projected per group, not
  // per row.
  bool has_aggregates() const { return has_aggregates_; }
  // Whether FinishProjection needs each row's source record: ORDER BY
  // keys may reference pre-projection variables, unless DISTINCT
  // eliminated them.
  bool keeps_sort_context() const { return keeps_sort_context_; }

  // `source`'s projected record. `ctx` supplies the graph, parameters and
  // instant; its record binding is overwritten.
  Result<Record> Project(const Record& source, EvalContext& ctx) const;

 private:
  std::vector<ProjectionItem> star_items_;
  std::vector<const ProjectionItem*> items_;  // Into star_items_ and body.
  std::set<std::string> fields_;
  bool has_aggregates_ = false;
  bool keeps_sort_context_ = false;
};

// The bag-level half: DISTINCT, ORDER BY, SKIP and LIMIT over the
// projected `rows`. `sort_context` is empty, or holds each row's source
// record when RowProjection::keeps_sort_context(); ORDER BY keys then see
// the row extended with it.
Result<Table> FinishProjection(const ProjectionBody& body, Table rows,
                               const std::vector<Record>& sort_context,
                               EvalContext& ctx);

// The trail filter the executor pushes into clause `index` of `clauses`, a
// MATCH: a top-level ALL(e IN relationships(q) WHERE P) conjunct of the
// MATCH's WHERE, or of the WHERE of a per-row WITH right after it, when
// nothing a dropped row would run before that conjunct can fail
// (docs/INTERNALS.md, "Trail filters"); nullopt otherwise. A pure function
// of the clause list; the filter points into `clauses`.
std::optional<TrailFilter> PlanTrailFilter(const std::vector<Clause>& clauses,
                                           size_t index);

// Evaluates one clause chain against `input` (Section 3.2's functional
// composition); `input` is normally Table::Unit().
Result<Table> ExecuteSingleQuery(const SingleQuery& query,
                                 const GraphResolver& resolver,
                                 const Table& input,
                                 const ExecutionOptions& options);

// Evaluates a full query (UNION of single queries) from the unit table.
Result<Table> ExecuteQuery(const Query& query, const GraphResolver& resolver,
                           const ExecutionOptions& options);

// Convenience: output(Q, G) for a one-time Cypher query.
Result<Table> ExecuteQueryOnGraph(const Query& query,
                                  const PropertyGraph& graph,
                                  const ExecutionOptions& options);

}  // namespace seraph

#endif  // SERAPH_CYPHER_EXECUTOR_H_
