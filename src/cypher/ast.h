// Abstract syntax for the supported Cypher core (Fig. 3) plus the Seraph
// per-MATCH `WITHIN` width (Fig. 6).
//
// Expressions are a small class hierarchy; each node knows how to evaluate
// itself against an EvalContext (see eval.h) and how to print itself back
// to (approximately) source form. Clause structures are plain data consumed
// by the executor.
#ifndef SERAPH_CYPHER_AST_H_
#define SERAPH_CYPHER_AST_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "temporal/duration.h"
#include "value/value.h"

namespace seraph {

class EvalContext;
class Expr;

using ExprPtr = std::unique_ptr<Expr>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

class Expr {
 public:
  virtual ~Expr() = default;

  // Evaluates under `ctx` with Cypher's ternary-logic semantics: missing
  // bindings/properties yield null; type errors yield kEvaluationError.
  virtual Result<Value> Eval(EvalContext& ctx) const = 0;

  // Approximate source rendering, for diagnostics and tests.
  virtual std::string ToString() const = 0;

  // Invokes `fn` on each direct child expression.
  virtual void VisitChildren(
      const std::function<void(const Expr&)>& fn) const {
    (void)fn;
  }

  // True for calls to aggregating functions (count, sum, collect, ...).
  virtual bool IsAggregateCall() const { return false; }

  // True for nodes whose value depends on the evaluation instant rather
  // than only on the data: zero-argument datetime(), timestamp(), and the
  // reserved win_start / win_end names. Used to decide whether results
  // may be reused across evaluations with identical window contents.
  virtual bool IsVolatile() const { return false; }

  // Appends every aggregate call in this subtree (including this node).
  void CollectAggregates(std::vector<const Expr*>* out) const;

  // True iff the subtree contains an aggregate call.
  bool ContainsAggregate() const;

  // True iff the subtree contains a volatile node (see IsVolatile).
  bool ContainsVolatile() const;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  const Value& value() const { return value_; }

 private:
  Value value_;
};

class ParameterExpr final : public Expr {
 public:
  explicit ParameterExpr(std::string name) : name_(std::move(name)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override { return "$" + name_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class VariableExpr final : public Expr {
 public:
  explicit VariableExpr(std::string name) : name_(std::move(name)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override { return name_; }
  bool IsVolatile() const override {
    // The reserved window-bound names change every evaluation even when
    // the window contents do not.
    return name_ == "win_start" || name_ == "win_end";
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

// object.key — property access on nodes, relationships, and maps.
class PropertyExpr final : public Expr {
 public:
  PropertyExpr(ExprPtr object, std::string key)
      : object_(std::move(object)), key_(std::move(key)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override {
    return object_->ToString() + "." + key_;
  }
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*object_);
  }
  const Expr& object() const { return *object_; }
  const std::string& key() const { return key_; }

 private:
  ExprPtr object_;
  std::string key_;
};

// object[index] — list indexing (negative counts from the end) and map
// key lookup.
class IndexExpr final : public Expr {
 public:
  IndexExpr(ExprPtr object, ExprPtr index)
      : object_(std::move(object)), index_(std::move(index)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override {
    return object_->ToString() + "[" + index_->ToString() + "]";
  }
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*object_);
    fn(*index_);
  }

 private:
  ExprPtr object_;
  ExprPtr index_;
};

class ListExpr final : public Expr {
 public:
  explicit ListExpr(std::vector<ExprPtr> items) : items_(std::move(items)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    for (const ExprPtr& e : items_) fn(*e);
  }
  const std::vector<ExprPtr>& items() const { return items_; }

 private:
  std::vector<ExprPtr> items_;
};

class MapExpr final : public Expr {
 public:
  explicit MapExpr(std::vector<std::pair<std::string, ExprPtr>> entries)
      : entries_(std::move(entries)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    for (const auto& [key, e] : entries_) fn(*e);
  }

 private:
  std::vector<std::pair<std::string, ExprPtr>> entries_;
};

enum class UnaryOp { kNot, kNegate, kPlus };

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*operand_);
  }
  UnaryOp op() const { return op_; }
  const Expr& operand() const { return *operand_; }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

enum class BinaryOp {
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kPower,
  kAnd,
  kOr,
  kXor,
  kIn,          // x IN list
  kStartsWith,  // string STARTS WITH prefix
  kEndsWith,
  kContains,
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*lhs_);
    fn(*rhs_);
  }
  BinaryOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

enum class CmpOp { kEq, kNeq, kLt, kLe, kGt, kGe };

// A comparison chain `e1 op1 e2 op2 e3 ...` (e.g. the paper's
// `win_start <= e.val_time <= win_end`), evaluated as the ternary
// conjunction of the pairwise comparisons.
class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(std::vector<ExprPtr> operands, std::vector<CmpOp> ops)
      : operands_(std::move(operands)), ops_(std::move(ops)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    for (const ExprPtr& e : operands_) fn(*e);
  }
  const std::vector<ExprPtr>& operands() const { return operands_; }

 private:
  std::vector<ExprPtr> operands_;
  std::vector<CmpOp> ops_;
};

// `x IS NULL` / `x IS NOT NULL` — always boolean, never null.
class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override {
    return operand_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*operand_);
  }
  const Expr& operand() const { return *operand_; }

 private:
  ExprPtr operand_;
  bool negated_;
};

// Function invocation — scalar built-ins (labels, nodes, size, ...) or
// aggregates (count, sum, avg, collect, stDev, ...). `count(*)` is
// represented with `count_star = true` and no arguments.
class FunctionCallExpr final : public Expr {
 public:
  FunctionCallExpr(std::string name, std::vector<ExprPtr> args, bool distinct,
                   bool count_star);
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    for (const ExprPtr& e : args_) fn(*e);
  }
  bool IsAggregateCall() const override { return is_aggregate_; }
  bool IsVolatile() const override {
    return (name_ == "datetime" && args_.empty()) || name_ == "timestamp";
  }

  // Lower-cased canonical function name.
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  bool distinct() const { return distinct_; }
  bool count_star() const { return count_star_; }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  bool distinct_;
  bool count_star_;
  bool is_aggregate_;
};

// [x IN list WHERE pred | projection]
class ListComprehensionExpr final : public Expr {
 public:
  ListComprehensionExpr(std::string var, ExprPtr list, ExprPtr where,
                        ExprPtr projection)
      : var_(std::move(var)),
        list_(std::move(list)),
        where_(std::move(where)),
        projection_(std::move(projection)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*list_);
    if (where_) fn(*where_);
    if (projection_) fn(*projection_);
  }
  const std::string& var() const { return var_; }
  const Expr& list() const { return *list_; }
  const Expr* where() const { return where_.get(); }
  const Expr* projection() const { return projection_.get(); }

 private:
  std::string var_;
  ExprPtr list_;
  ExprPtr where_;       // May be null.
  ExprPtr projection_;  // May be null (identity).
};

// reduce(acc = init, x IN list | body) — left fold over a list.
class ReduceExpr final : public Expr {
 public:
  ReduceExpr(std::string acc_var, ExprPtr init, std::string var, ExprPtr list,
             ExprPtr body)
      : acc_var_(std::move(acc_var)),
        init_(std::move(init)),
        var_(std::move(var)),
        list_(std::move(list)),
        body_(std::move(body)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*init_);
    fn(*list_);
    fn(*body_);
  }

 private:
  std::string acc_var_;
  ExprPtr init_;
  std::string var_;
  ExprPtr list_;
  ExprPtr body_;
};

enum class Quantifier { kAll, kAny, kNone, kSingle };

// ALL/ANY/NONE/SINGLE(x IN list WHERE pred), with Cypher's ternary result.
class QuantifierExpr final : public Expr {
 public:
  QuantifierExpr(Quantifier quantifier, std::string var, ExprPtr list,
                 ExprPtr predicate)
      : quantifier_(quantifier),
        var_(std::move(var)),
        list_(std::move(list)),
        predicate_(std::move(predicate)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    fn(*list_);
    fn(*predicate_);
  }
  Quantifier quantifier() const { return quantifier_; }
  const std::string& var() const { return var_; }
  const Expr& list() const { return *list_; }
  const Expr& predicate() const { return *predicate_; }

 private:
  Quantifier quantifier_;
  std::string var_;
  ExprPtr list_;
  ExprPtr predicate_;
};

// CASE [subject] WHEN c THEN v ... [ELSE e] END.
class CaseExpr final : public Expr {
 public:
  CaseExpr(ExprPtr subject, std::vector<std::pair<ExprPtr, ExprPtr>> branches,
           ExprPtr else_value)
      : subject_(std::move(subject)),
        branches_(std::move(branches)),
        else_(std::move(else_value)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override;
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    if (subject_) fn(*subject_);
    for (const auto& [cond, val] : branches_) {
      fn(*cond);
      fn(*val);
    }
    if (else_) fn(*else_);
  }

 private:
  ExprPtr subject_;  // Null for the searched (generic) form.
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_;  // May be null (defaults to NULL).
};

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

// (v:Label1:Label2 {key: expr, ...})
struct NodePattern {
  std::string variable;  // Empty when anonymous.
  std::vector<std::string> labels;
  std::vector<std::pair<std::string, ExprPtr>> properties;

  std::string ToString() const;
};

enum class RelDirection {
  kOutgoing,    // (a)-[r]->(b)
  kIncoming,    // (a)<-[r]-(b)
  kUndirected,  // (a)-[r]-(b)
};

// -[v:TYPE1|TYPE2 *min..max {key: expr}]->
struct RelPattern {
  std::string variable;  // Empty when anonymous.
  std::vector<std::string> types;
  RelDirection direction = RelDirection::kOutgoing;
  bool variable_length = false;
  std::optional<int64_t> min_hops;  // Defaults to 1 when variable-length.
  std::optional<int64_t> max_hops;  // Unbounded when absent.
  std::vector<std::pair<std::string, ExprPtr>> properties;

  std::string ToString() const;
};

enum class PathMode { kNormal, kShortest, kAllShortest };

// A linear path pattern: n0 r0 n1 r1 ... nk, optionally named and
// optionally wrapped in shortestPath()/allShortestPaths().
struct PathPattern {
  std::string path_variable;  // Empty when unnamed.
  PathMode mode = PathMode::kNormal;
  std::vector<NodePattern> nodes;  // size == rels.size() + 1
  std::vector<RelPattern> rels;

  std::string ToString() const;
};

// exists((a)-[:R]->(b)) — pattern-existence predicate: true iff the
// pattern has at least one match in the current graph under the current
// bindings. (Declared after the pattern types it references.)
class ExistsPatternExpr final : public Expr {
 public:
  explicit ExistsPatternExpr(PathPattern pattern)
      : pattern_(std::move(pattern)) {}
  Result<Value> Eval(EvalContext& ctx) const override;
  std::string ToString() const override {
    return "exists(" + pattern_.ToString() + ")";
  }
  void VisitChildren(
      const std::function<void(const Expr&)>& fn) const override {
    for (const NodePattern& np : pattern_.nodes) {
      for (const auto& [key, expr] : np.properties) fn(*expr);
    }
    for (const RelPattern& rp : pattern_.rels) {
      for (const auto& [key, expr] : rp.properties) fn(*expr);
    }
  }
  const PathPattern& pattern() const { return pattern_; }

 private:
  PathPattern pattern_;
};

// ---------------------------------------------------------------------------
// Clauses and queries
// ---------------------------------------------------------------------------

struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;
};

struct ProjectionItem {
  ExprPtr expr;
  std::string alias;  // Output field name (defaulted by the parser).
};

// The shared body of WITH / RETURN / EMIT.
struct ProjectionBody {
  bool distinct = false;
  bool include_all = false;  // '*'
  std::vector<ProjectionItem> items;
  std::vector<OrderByItem> order_by;
  ExprPtr skip;   // May be null.
  ExprPtr limit;  // May be null.
};

// MATCH <patterns> [WITHIN <duration> [FROM <stream>]] [WHERE <expr>]
// `within` is the Seraph extension (Fig. 6); absent for plain Cypher.
// `from_stream` names the input stream this clause's window ranges over
// (our multi-stream extension, §8 future work (i)); empty selects the
// engine's default stream.
struct MatchClause {
  bool optional = false;
  std::vector<PathPattern> patterns;
  ExprPtr where;  // May be null.
  std::optional<Duration> within;
  std::string from_stream;
};

// UNWIND <expr> AS <alias>
struct UnwindClause {
  ExprPtr list;
  std::string alias;
};

// WITH <projection> [WHERE <expr>]
struct WithClause {
  ProjectionBody body;
  ExprPtr where;  // May be null.
};

using Clause = std::variant<MatchClause, UnwindClause, WithClause>;

// RETURN <projection> — also used for Seraph's EMIT projection.
struct ReturnClause {
  ProjectionBody body;
};

// A linear clause chain ending in RETURN.
struct SingleQuery {
  std::vector<Clause> clauses;
  ReturnClause ret;
};

// query UNION [ALL] query ... (Fig. 3).
struct Query {
  std::vector<SingleQuery> parts;
  // union_all[i] applies between parts[i] and parts[i+1].
  std::vector<bool> union_all;
};

}  // namespace seraph

#endif  // SERAPH_CYPHER_AST_H_
