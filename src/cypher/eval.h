// Expression-evaluation context and ternary-logic helpers.
//
// Cypher expressions evaluate under three-valued logic: null propagates
// through arithmetic and comparisons, and AND/OR/NOT follow Kleene logic.
// An EvalContext supplies the current record (variable bindings), the graph
// (for property/entity access), query parameters, the evaluation time
// instant (the value of `datetime()` — in Seraph this is the ET instant
// fixed by the continuous semantics, Fig. 7), the current window bounds,
// and — during grouped projection — pre-computed aggregate results.
#ifndef SERAPH_CYPHER_EVAL_H_
#define SERAPH_CYPHER_EVAL_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "cypher/ast.h"
#include "graph/property_graph.h"
#include "table/record.h"
#include "temporal/interval.h"
#include "value/value.h"

namespace seraph {

// Intra-query parallel pattern matching spec (defined in
// cypher/matcher.h; carried here so the engine can hand it to every
// pattern-matching entry point — including exists(<pattern>) — through
// the one context object that reaches them all).
struct MatchParallelism;

class EvalContext {
 public:
  EvalContext(const PropertyGraph* graph, const Record* record)
      : graph_(graph), record_(record) {}

  const PropertyGraph* graph() const { return graph_; }
  void set_graph(const PropertyGraph* graph) { graph_ = graph; }

  const Record* record() const { return record_; }
  void set_record(const Record* record) { record_ = record; }

  void set_parameters(const std::map<std::string, Value>* params) {
    parameters_ = params;
  }
  const std::map<std::string, Value>* parameters() const {
    return parameters_;
  }

  Timestamp now() const { return now_; }
  void set_now(Timestamp now) { now_ = now; }

  // The active window at the current evaluation (Seraph only); makes the
  // reserved win_start / win_end names resolvable inside expressions.
  void set_window(std::optional<TimeInterval> window) { window_ = window; }
  const std::optional<TimeInterval>& window() const { return window_; }

  void set_aggregate_results(
      const std::unordered_map<const Expr*, Value>* results) {
    aggregate_results_ = results;
  }
  const std::unordered_map<const Expr*, Value>* aggregate_results() const {
    return aggregate_results_;
  }

  // Scoped bindings introduced by list comprehensions / quantifiers;
  // innermost binding wins over the record.
  void PushLocal(const std::string& name, Value value) {
    locals_.emplace_back(name, std::move(value));
  }
  void PopLocal() { locals_.pop_back(); }

  // Resolves `name` against locals, the record, and the reserved window
  // names. kEvaluationError when unbound.
  Result<Value> Lookup(const std::string& name) const;

  // Intra-query parallelism granted to pattern matching under this
  // context (null = serial; not owned, must outlive the context). The
  // matcher clears it on the context copies it hands to morsel workers,
  // so partitioning never nests.
  const MatchParallelism* match_parallelism() const {
    return match_parallelism_;
  }
  void set_match_parallelism(const MatchParallelism* parallelism) {
    match_parallelism_ = parallelism;
  }

  // Cooperative evaluation deadline (null = none, the default; not owned,
  // must outlive the context). Unlike match_parallelism, the token is
  // *kept* on morsel-worker context copies: all workers share one sticky
  // token, so a deadline observed by any of them aborts the whole match.
  const CancellationToken* cancellation() const { return cancellation_; }
  void set_cancellation(const CancellationToken* token) {
    cancellation_ = token;
  }
  // OK when no token is installed or the deadline holds; the hot-loop
  // check (one null test when deadlines are off).
  Status CheckCancelled() const {
    if (cancellation_ == nullptr) return Status::OK();
    return cancellation_->Check();
  }

 private:
  const PropertyGraph* graph_;
  const Record* record_;
  const std::map<std::string, Value>* parameters_ = nullptr;
  Timestamp now_;
  std::optional<TimeInterval> window_;
  const std::unordered_map<const Expr*, Value>* aggregate_results_ = nullptr;
  const MatchParallelism* match_parallelism_ = nullptr;
  const CancellationToken* cancellation_ = nullptr;
  std::vector<std::pair<std::string, Value>> locals_;
};

// ---------------------------------------------------------------------------
// Ternary logic / value operations shared by the evaluator and executor.
// ---------------------------------------------------------------------------

// Cypher equality: null if either side is null; numbers compare
// numerically; values of different (non-numeric) kinds are not equal.
Value CypherEquals(const Value& a, const Value& b);

// Ordering comparison: null when either side is null or the kinds are not
// comparable; otherwise boolean.
Value CypherCompare(CmpOp op, const Value& a, const Value& b);

// Kleene three-valued connectives over boolean-or-null operands.
Value TernaryAnd(const Value& a, const Value& b);
Value TernaryOr(const Value& a, const Value& b);
Value TernaryXor(const Value& a, const Value& b);
Value TernaryNot(const Value& a);

// True only when `v` is boolean true (null and non-booleans are not
// "passing" — the WHERE-filter rule).
bool IsTruthy(const Value& v);

// The failure of integer arithmetic whose result does not fit int64
// (kEvaluationError "integer overflow").
Status IntegerOverflow();

// x IN list: ternary membership (null element comparisons propagate).
Value CypherIn(const Value& element, const Value& list);

// Arithmetic with null propagation; type errors are reported.
Result<Value> CypherArithmetic(BinaryOp op, const Value& a, const Value& b);

}  // namespace seraph

#endif  // SERAPH_CYPHER_EVAL_H_
