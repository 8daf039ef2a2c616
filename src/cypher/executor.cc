#include "cypher/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "cypher/eval.h"
#include "cypher/functions.h"
#include "cypher/matcher.h"

namespace seraph {

namespace {

// Adds the variables a path pattern introduces (node, relationship, and
// path variables) to `vars`.
void AddPathVariables(const PathPattern& path, std::set<std::string>* vars) {
  if (!path.path_variable.empty()) vars->insert(path.path_variable);
  for (const NodePattern& np : path.nodes) {
    if (!np.variable.empty()) vars->insert(np.variable);
  }
  for (const RelPattern& rp : path.rels) {
    if (!rp.variable.empty()) vars->insert(rp.variable);
  }
}

// Free variables a pattern list introduces.
std::set<std::string> PatternVariables(
    const std::vector<PathPattern>& patterns) {
  std::set<std::string> vars;
  for (const PathPattern& path : patterns) AddPathVariables(path, &vars);
  return vars;
}

// ---- Trail filters (docs/INTERNALS.md, "Trail filters") ----
//
// A conjunct ALL(e IN relationships(q) WHERE P) of the MATCH's WHERE, or of
// the WHERE of a per-row WITH right after it, drops every row whose trail
// q has a relationship with P false before any with P failing. The matcher
// drops those rows while it expands q (TrailFilter, cypher/matcher.h). That
// is exact only when nothing such a row would have run on its way to the
// ALL can fail, so the gate admits a small whitelist of infallible
// expressions; anything else keeps the post-filter alone. The WHERE stays
// in place either way.

// What the gate knows of a variable in scope: every row binds it, and,
// past kValue, to what.
struct ScopeVar {
  enum Kind { kValue, kNode, kRel, kPath, kPathRels } kind = kValue;
  // kPath / kPathRels: the MATCH's path variable the value is (the
  // relationships of).
  std::string path;
};
using Scope = std::map<std::string, ScopeVar>;

// The variables every row holds before clause `index` (kinds unknown).
Scope ScopeBefore(const std::vector<Clause>& clauses, size_t index) {
  Scope scope;
  for (size_t i = 0; i < index; ++i) {
    if (const auto* match = std::get_if<MatchClause>(&clauses[i])) {
      for (const std::string& v : PatternVariables(match->patterns)) {
        scope[v] = ScopeVar{};
      }
    } else if (const auto* unwind = std::get_if<UnwindClause>(&clauses[i])) {
      scope[unwind->alias] = ScopeVar{};
    } else if (const auto* with = std::get_if<WithClause>(&clauses[i])) {
      if (!with->body.include_all) scope.clear();
      for (const ProjectionItem& item : with->body.items) {
        scope[item.alias] = ScopeVar{};
      }
    }
  }
  return scope;
}

// Adds what a row of the non-optional `match` binds its pattern variables
// to. A name used in two roles is only known to be bound.
void AddMatchVariables(const MatchClause& match, Scope* scope) {
  Scope bound;
  auto add = [&bound](const std::string& name, ScopeVar var) {
    if (name.empty()) return;
    auto [it, inserted] = bound.emplace(name, var);
    if (!inserted &&
        (it->second.kind != var.kind || it->second.path != var.path)) {
      it->second = ScopeVar{};
    }
  };
  for (const PathPattern& path : match.patterns) {
    add(path.path_variable, {ScopeVar::kPath, path.path_variable});
    for (const NodePattern& np : path.nodes) {
      add(np.variable, {ScopeVar::kNode, ""});
    }
    for (const RelPattern& rp : path.rels) {
      // A variable-length relationship variable binds a list.
      add(rp.variable,
          rp.variable_length ? ScopeVar{} : ScopeVar{ScopeVar::kRel, ""});
    }
  }
  for (auto& [name, var] : bound) (*scope)[name] = var;
}

// The kind of `name` when `expr` is that variable in `scope`, else null.
const ScopeVar* VariableIn(const Expr& expr, const Scope& scope) {
  const auto* var = dynamic_cast<const VariableExpr*>(&expr);
  if (var == nullptr) return nullptr;
  auto it = scope.find(var->name());
  return it == scope.end() ? nullptr : &it->second;
}

// `nodes(p)` or `relationships(p)` of a path variable p in `scope`: the
// element kind (kNode / kRel) and the path, else nullopt.
std::optional<ScopeVar> PathListOf(const Expr& expr, const Scope& scope) {
  const auto* call = dynamic_cast<const FunctionCallExpr*>(&expr);
  if (call == nullptr || call->args().size() != 1) return std::nullopt;
  const ScopeVar* arg = VariableIn(*call->args()[0], scope);
  if (arg == nullptr || arg->kind != ScopeVar::kPath) return std::nullopt;
  if (call->name() == "nodes") return ScopeVar{ScopeVar::kNode, arg->path};
  if (call->name() == "relationships") {
    return ScopeVar{ScopeVar::kRel, arg->path};
  }
  return std::nullopt;
}

bool Infallible(const Expr& expr, const Scope& scope);

// A boolean-or-null expression that cannot fail: what a connective
// operand must be (any other value is an evaluation error).
bool InfalliblePredicate(const Expr& expr, const Scope& scope) {
  if (const auto* literal = dynamic_cast<const LiteralExpr*>(&expr)) {
    return literal->value().is_bool() || literal->value().is_null();
  }
  // Infallible admits no operators but IN, AND, OR, XOR and NOT, which
  // like comparisons and IS NULL yield a boolean or null.
  return (dynamic_cast<const ComparisonExpr*>(&expr) != nullptr ||
          dynamic_cast<const IsNullExpr*>(&expr) != nullptr ||
          dynamic_cast<const BinaryExpr*>(&expr) != nullptr ||
          dynamic_cast<const UnaryExpr*>(&expr) != nullptr) &&
         Infallible(expr, scope);
}

// Whether `expr` cannot fail over any row that binds `scope`. The
// whitelist: literals and variables in scope; x.k on a node or
// relationship; nodes(p), relationships(p), labels(n) and type(r);
// comparisons, IN and IS [NOT] NULL; AND, OR, XOR and NOT over predicates;
// list comprehensions over nodes(p) or relationships(p) built from these.
bool Infallible(const Expr& expr, const Scope& scope) {
  if (dynamic_cast<const LiteralExpr*>(&expr) != nullptr) return true;
  if (dynamic_cast<const VariableExpr*>(&expr) != nullptr) {
    return VariableIn(expr, scope) != nullptr;
  }
  if (const auto* property = dynamic_cast<const PropertyExpr*>(&expr)) {
    const ScopeVar* object = VariableIn(property->object(), scope);
    return object != nullptr &&
           (object->kind == ScopeVar::kNode || object->kind == ScopeVar::kRel);
  }
  if (const auto* call = dynamic_cast<const FunctionCallExpr*>(&expr)) {
    if (PathListOf(expr, scope).has_value()) return true;
    if (call->args().size() != 1) return false;
    const ScopeVar* arg = VariableIn(*call->args()[0], scope);
    if (arg == nullptr) return false;
    return (call->name() == "labels" && arg->kind == ScopeVar::kNode) ||
           (call->name() == "type" && arg->kind == ScopeVar::kRel);
  }
  if (const auto* comparison = dynamic_cast<const ComparisonExpr*>(&expr)) {
    for (const ExprPtr& operand : comparison->operands()) {
      if (!Infallible(*operand, scope)) return false;
    }
    return true;
  }
  if (const auto* is_null = dynamic_cast<const IsNullExpr*>(&expr)) {
    return Infallible(is_null->operand(), scope);
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    if (binary->op() == BinaryOp::kIn) {
      return Infallible(binary->lhs(), scope) &&
             Infallible(binary->rhs(), scope);
    }
    if (binary->op() == BinaryOp::kAnd || binary->op() == BinaryOp::kOr ||
        binary->op() == BinaryOp::kXor) {
      return InfalliblePredicate(binary->lhs(), scope) &&
             InfalliblePredicate(binary->rhs(), scope);
    }
    return false;
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    return unary->op() == UnaryOp::kNot &&
           InfalliblePredicate(unary->operand(), scope);
  }
  if (const auto* list = dynamic_cast<const ListExpr*>(&expr)) {
    for (const ExprPtr& item : list->items()) {
      if (!Infallible(*item, scope)) return false;
    }
    return true;
  }
  if (const auto* comp = dynamic_cast<const ListComprehensionExpr*>(&expr)) {
    std::optional<ScopeVar> element = PathListOf(comp->list(), scope);
    if (!element.has_value()) return false;
    Scope inner = scope;
    inner[comp->var()] = ScopeVar{element->kind, ""};
    return (comp->where() == nullptr || Infallible(*comp->where(), inner)) &&
           (comp->projection() == nullptr ||
            Infallible(*comp->projection(), inner));
  }
  return false;
}

// Every variable name `expr` reads, including the variables of exists()
// patterns (bound ones pin the pattern).
void CollectReads(const Expr& expr, std::set<std::string>* reads) {
  if (const auto* var = dynamic_cast<const VariableExpr*>(&expr)) {
    reads->insert(var->name());
  } else if (const auto* exists =
                 dynamic_cast<const ExistsPatternExpr*>(&expr)) {
    AddPathVariables(exists->pattern(), reads);
  }
  expr.VisitChildren(
      [reads](const Expr& child) { CollectReads(child, reads); });
}

// The conjuncts of `expr`'s top-level AND chain, in evaluation order.
void FlattenAnd(const Expr& expr, std::vector<const Expr*>* conjuncts) {
  const auto* binary = dynamic_cast<const BinaryExpr*>(&expr);
  if (binary != nullptr && binary->op() == BinaryOp::kAnd) {
    FlattenAnd(binary->lhs(), conjuncts);
    FlattenAnd(binary->rhs(), conjuncts);
  } else {
    conjuncts->push_back(&expr);
  }
}

// Whether `with` passes `name` through under its own name: its last item
// aliased `name` is that variable, or `*` carries it.
bool PassesThrough(const ProjectionBody& with, const std::string& name) {
  for (auto it = with.items.rbegin(); it != with.items.rend(); ++it) {
    if (it->alias != name) continue;
    const auto* var = dynamic_cast<const VariableExpr*>(it->expr.get());
    return var != nullptr && var->name() == name;
  }
  return with.include_all;
}

// The trail filter of `where`'s first ALL conjunct over a path of `match`
// (`scope` binds what `where` reads; `with` is the WITH between them, or
// null), provided every conjunct before it is an infallible predicate.
std::optional<TrailFilter> FilterFromWhere(const Expr& where,
                                           const Scope& scope,
                                           const MatchClause& match,
                                           const ProjectionBody* with) {
  std::vector<const Expr*> conjuncts;
  FlattenAnd(where, &conjuncts);
  for (const Expr* conjunct : conjuncts) {
    const auto* all = dynamic_cast<const QuantifierExpr*>(conjunct);
    if (all != nullptr && all->quantifier() == Quantifier::kAll) {
      std::optional<ScopeVar> list = PathListOf(all->list(), scope);
      if (!list.has_value()) {
        const ScopeVar* alias = VariableIn(all->list(), scope);
        if (alias != nullptr && alias->kind == ScopeVar::kPathRels) {
          list = ScopeVar{ScopeVar::kRel, alias->path};
        }
      }
      const PathPattern* trail = nullptr;
      int named = 0;
      if (list.has_value() && list->kind == ScopeVar::kRel) {
        for (const PathPattern& path : match.patterns) {
          if (path.path_variable != list->path) continue;
          ++named;
          if (path.mode == PathMode::kNormal) trail = &path;
        }
      }
      if (trail != nullptr && named == 1) {
        std::set<std::string> reads;
        CollectReads(all->predicate(), &reads);
        reads.erase(all->var());
        if (with != nullptr) {
          for (const std::string& name : reads) {
            if (!PassesThrough(*with, name)) return std::nullopt;
          }
        }
        return TrailFilter{trail, all->var(), &all->predicate(),
                           std::vector<std::string>(reads.begin(),
                                                    reads.end())};
      }
    }
    if (!InfalliblePredicate(*conjunct, scope)) return std::nullopt;
  }
  return std::nullopt;
}

// Lexicographic ordering for grouping keys.
struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

class Executor {
 public:
  Executor(const GraphResolver& resolver, const ExecutionOptions& options)
      : resolver_(resolver),
        options_(options),
        ctx_(&resolver.BaseGraph(), nullptr) {
    ctx_.set_parameters(&options_.parameters);
    ctx_.set_now(options_.now);
    ctx_.set_window(options_.window);
    ctx_.set_match_parallelism(options_.match_parallelism);
    ctx_.set_cancellation(options_.cancellation);
  }

  Result<Table> Run(const SingleQuery& query, const Table& input) {
    Table table = input;
    for (size_t i = 0; i < query.clauses.size(); ++i) {
      const Clause& clause = query.clauses[i];
      if (const auto* match = std::get_if<MatchClause>(&clause)) {
        std::optional<TrailFilter> filter =
            PlanTrailFilter(query.clauses, i);
        SERAPH_ASSIGN_OR_RETURN(
            table, ApplyMatch(*match, i, table,
                              filter.has_value() ? &*filter : nullptr));
      } else if (const auto* unwind = std::get_if<UnwindClause>(&clause)) {
        SERAPH_ASSIGN_OR_RETURN(table, ApplyUnwind(*unwind, table));
      } else if (const auto* with = std::get_if<WithClause>(&clause)) {
        SERAPH_ASSIGN_OR_RETURN(table,
                                ApplyProjection(with->body, table));
        if (with->where != nullptr) {
          SERAPH_ASSIGN_OR_RETURN(table, ApplyWhere(*with->where, table));
        }
      }
    }
    return ApplyProjection(query.ret.body, table);
  }

 private:
  // ---- MATCH ----

  Result<Table> ApplyMatch(const MatchClause& match, size_t clause_index,
                           const Table& input,
                           const TrailFilter* trail_filter) {
    const PropertyGraph& graph = resolver_.GraphFor(match, clause_index);
    std::set<std::string> fields = input.fields();
    std::set<std::string> new_vars = PatternVariables(match.patterns);
    for (const std::string& v : new_vars) fields.insert(v);
    Table out(fields);
    MatchOptions match_options;
    match_options.optimize_pattern_order = options_.optimize_match_order;
    for (const Record& row : input.rows()) {
      std::vector<Record> matches;
      SERAPH_RETURN_IF_ERROR(MatchPatterns(match.patterns, graph, row, ctx_,
                                           &matches, match_options,
                                           trail_filter));
      size_t emitted = 0;
      for (Record& m : matches) {
        if (match.where != nullptr) {
          // The WHERE attached to MATCH filters each candidate match (and,
          // for OPTIONAL MATCH, participates in the "no match" decision).
          ctx_.set_record(&m);
          SERAPH_ASSIGN_OR_RETURN(Value cond, match.where->Eval(ctx_));
          if (!IsTruthy(cond)) continue;
        }
        // Ensure every pattern variable is present (anonymous paths keep
        // records uniform).
        for (const std::string& v : new_vars) {
          if (!m.Has(v)) m.Set(v, Value::Null());
        }
        out.AppendUnchecked(std::move(m));
        ++emitted;
      }
      if (emitted == 0 && match.optional) {
        Record padded = row;
        for (const std::string& v : new_vars) {
          if (!padded.Has(v)) padded.Set(v, Value::Null());
        }
        out.AppendUnchecked(std::move(padded));
      }
    }
    return out;
  }

  // ---- UNWIND ----

  Result<Table> ApplyUnwind(const UnwindClause& unwind, const Table& input) {
    std::set<std::string> fields = input.fields();
    fields.insert(unwind.alias);
    Table out(fields);
    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      SERAPH_ASSIGN_OR_RETURN(Value list, unwind.list->Eval(ctx_));
      if (list.is_null()) continue;
      if (!list.is_list()) {
        // UNWIND of a non-list value produces that single value.
        Record extended = row;
        extended.Set(unwind.alias, std::move(list));
        out.AppendUnchecked(std::move(extended));
        continue;
      }
      for (const Value& item : list.AsList()) {
        Record extended = row;
        extended.Set(unwind.alias, item);
        out.AppendUnchecked(std::move(extended));
      }
    }
    return out;
  }

  // ---- WHERE ----

  Result<Table> ApplyWhere(const Expr& predicate, const Table& input) {
    Table out(input.fields());
    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      SERAPH_ASSIGN_OR_RETURN(Value cond, predicate.Eval(ctx_));
      if (IsTruthy(cond)) out.AppendUnchecked(row);
    }
    return out;
  }

  // ---- WITH / RETURN projection ----

  // The per-row half (RowProjection, or per group under aggregation)
  // followed by the bag-level half (FinishProjection).
  Result<Table> ApplyProjection(const ProjectionBody& body,
                                const Table& input) {
    RowProjection projection(body, input.fields());
    Table out(projection.fields());
    std::vector<Record> sort_context;
    if (!projection.has_aggregates()) {
      for (const Record& row : input.rows()) {
        SERAPH_ASSIGN_OR_RETURN(Record projected,
                                projection.Project(row, ctx_));
        out.AppendUnchecked(std::move(projected));
        if (projection.keeps_sort_context()) sort_context.push_back(row);
      }
    } else {
      SERAPH_ASSIGN_OR_RETURN(
          out, ApplyGroupedProjection(projection, input, std::move(out),
                                      &sort_context));
    }
    return FinishProjection(body, std::move(out), sort_context, ctx_);
  }

  Result<Table> ApplyGroupedProjection(const RowProjection& projection,
                                       const Table& input, Table out,
                                       std::vector<Record>* sort_context) {
    const std::vector<const ProjectionItem*>& items = projection.items();
    // Split items into grouping keys (no aggregate inside) and aggregated
    // items; collect every aggregate call.
    std::vector<const ProjectionItem*> key_items;
    std::vector<const Expr*> aggregates;
    for (const ProjectionItem* item : items) {
      if (item->expr->ContainsAggregate()) {
        item->expr->CollectAggregates(&aggregates);
      } else {
        key_items.push_back(item);
      }
    }

    struct Group {
      Record representative;
      // Per aggregate call (parallel to `aggregates`): evaluated inputs.
      std::vector<std::vector<Value>> inputs;
      std::vector<std::optional<Value>> params;
      std::vector<int64_t> row_count;  // For count(*).
    };
    std::map<std::vector<Value>, Group, ValueVectorLess> groups;
    std::vector<const std::vector<Value>*> group_order;

    for (const Record& row : input.rows()) {
      ctx_.set_record(&row);
      std::vector<Value> key;
      key.reserve(key_items.size());
      for (const ProjectionItem* item : key_items) {
        SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx_));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Group& group = it->second;
      if (inserted) {
        group.representative = row;
        group.inputs.resize(aggregates.size());
        group.params.resize(aggregates.size());
        group.row_count.assign(aggregates.size(), 0);
        group_order.push_back(&it->first);
      }
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const auto* call = static_cast<const FunctionCallExpr*>(aggregates[a]);
        ++group.row_count[a];
        if (call->count_star()) continue;
        if (call->args().empty()) {
          return Status::SemanticError("aggregate '" + call->name() +
                                       "' requires an argument");
        }
        SERAPH_ASSIGN_OR_RETURN(Value v, call->args()[0]->Eval(ctx_));
        group.inputs[a].push_back(std::move(v));
        if (call->args().size() > 1 && !group.params[a].has_value()) {
          SERAPH_ASSIGN_OR_RETURN(Value p, call->args()[1]->Eval(ctx_));
          group.params[a] = std::move(p);
        }
      }
    }

    // An aggregation with no grouping keys over an empty input still
    // produces one row (count(*) = 0 etc.).
    if (groups.empty() && key_items.empty()) {
      auto [it, inserted] = groups.try_emplace(std::vector<Value>{});
      Group& group = it->second;
      group.inputs.resize(aggregates.size());
      group.params.resize(aggregates.size());
      group.row_count.assign(aggregates.size(), 0);
      group_order.push_back(&it->first);
    }

    for (const std::vector<Value>* key : group_order) {
      Group& group = groups.at(*key);
      std::unordered_map<const Expr*, Value> results;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const auto* call = static_cast<const FunctionCallExpr*>(aggregates[a]);
        if (call->count_star()) {
          results[aggregates[a]] = Value::Int(group.row_count[a]);
          continue;
        }
        SERAPH_ASSIGN_OR_RETURN(
            Value v, ComputeAggregate(call->name(), call->distinct(),
                                      group.inputs[a], group.params[a]));
        results[aggregates[a]] = std::move(v);
      }
      ctx_.set_record(&group.representative);
      ctx_.set_aggregate_results(&results);
      Record projected;
      for (const ProjectionItem* item : items) {
        SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx_));
        projected.Set(item->alias, std::move(v));
      }
      ctx_.set_aggregate_results(nullptr);
      out.AppendUnchecked(std::move(projected));
      if (projection.keeps_sort_context()) {
        sort_context->push_back(group.representative);
      }
    }
    return out;
  }

  const GraphResolver& resolver_;
  ExecutionOptions options_;
  EvalContext ctx_;
};

}  // namespace

std::optional<TrailFilter> PlanTrailFilter(const std::vector<Clause>& clauses,
                                           size_t index) {
  const MatchClause& match = std::get<MatchClause>(clauses[index]);
  // Pruning would change OPTIONAL MATCH's "no match" decision.
  if (match.optional) return std::nullopt;
  if (std::none_of(match.patterns.begin(), match.patterns.end(),
                   [](const PathPattern& path) {
                     return !path.path_variable.empty();
                   })) {
    return std::nullopt;
  }
  const Scope input = ScopeBefore(clauses, index);
  // A dropped branch skips the property maps its extensions would test.
  for (const PathPattern& path : match.patterns) {
    for (const NodePattern& np : path.nodes) {
      for (const auto& [key, value] : np.properties) {
        if (!Infallible(*value, input)) return std::nullopt;
      }
    }
    for (const RelPattern& rp : path.rels) {
      for (const auto& [key, value] : rp.properties) {
        if (!Infallible(*value, input)) return std::nullopt;
      }
    }
  }
  Scope scope = input;
  AddMatchVariables(match, &scope);
  if (match.where != nullptr) {
    if (std::optional<TrailFilter> filter =
            FilterFromWhere(*match.where, scope, match, nullptr)) {
      return filter;
    }
    if (!Infallible(*match.where, scope)) return std::nullopt;
  }
  if (index + 1 >= clauses.size()) return std::nullopt;
  const auto* with = std::get_if<WithClause>(&clauses[index + 1]);
  if (with == nullptr || with->where == nullptr) return std::nullopt;
  const ProjectionBody& body = with->body;
  if (body.distinct || !body.order_by.empty() || body.skip != nullptr ||
      body.limit != nullptr) {
    return std::nullopt;
  }
  Scope projected = body.include_all ? scope : Scope{};
  for (const ProjectionItem& item : body.items) {
    // Infallible also rules out aggregates.
    if (!Infallible(*item.expr, scope)) return std::nullopt;
    ScopeVar var;
    if (const ScopeVar* source = VariableIn(*item.expr, scope)) {
      var = *source;
    } else if (std::optional<ScopeVar> list = PathListOf(*item.expr, scope);
               list.has_value() && list->kind == ScopeVar::kRel) {
      var = ScopeVar{ScopeVar::kPathRels, list->path};
    }
    projected[item.alias] = var;
  }
  return FilterFromWhere(*with->where, projected, match, &body);
}

RowProjection::RowProjection(const ProjectionBody& body,
                             const std::set<std::string>& input_fields) {
  // '*' expands to every input field.
  if (body.include_all) {
    for (const std::string& field : input_fields) {
      ProjectionItem item;
      item.expr = std::make_unique<VariableExpr>(field);
      item.alias = field;
      star_items_.push_back(std::move(item));
    }
  }
  for (const ProjectionItem& item : star_items_) items_.push_back(&item);
  for (const ProjectionItem& item : body.items) items_.push_back(&item);
  for (const ProjectionItem* item : items_) {
    fields_.insert(item->alias);
    if (item->expr->ContainsAggregate()) has_aggregates_ = true;
  }
  // Cypher lets ORDER BY keys reference pre-projection variables unless
  // DISTINCT eliminated them.
  keeps_sort_context_ = !body.order_by.empty() && !body.distinct;
}

Result<Record> RowProjection::Project(const Record& source,
                                      EvalContext& ctx) const {
  ctx.set_record(&source);
  Record projected;
  for (const ProjectionItem* item : items_) {
    SERAPH_ASSIGN_OR_RETURN(Value v, item->expr->Eval(ctx));
    projected.Set(item->alias, std::move(v));
  }
  return projected;
}

Result<Table> FinishProjection(const ProjectionBody& body, Table rows,
                               const std::vector<Record>& sort_context,
                               EvalContext& ctx) {
  if (body.distinct) rows = rows.Distinct();
  if (!body.order_by.empty()) {
    // Evaluate sort keys once per row against the projected record
    // extended with its source record (projected aliases shadow source
    // variables), so keys may reference pre-projection variables.
    struct Keyed {
      std::vector<Value> keys;
      Record row;
    };
    const bool has_context =
        !body.distinct && sort_context.size() == rows.size();
    std::vector<Keyed> keyed;
    keyed.reserve(rows.size());
    for (size_t i = 0; i < rows.rows().size(); ++i) {
      const Record& row = rows.rows()[i];
      Record merged = has_context ? sort_context[i].Extended(row) : row;
      ctx.set_record(&merged);
      Keyed k;
      k.row = row;
      for (const OrderByItem& item : body.order_by) {
        SERAPH_ASSIGN_OR_RETURN(Value v, item.expr->Eval(ctx));
        k.keys.push_back(std::move(v));
      }
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&body](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < body.order_by.size(); ++i) {
                         int c = Value::Compare(a.keys[i], b.keys[i]);
                         if (c != 0) {
                           return body.order_by[i].ascending ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    Table sorted(rows.fields());
    for (Keyed& k : keyed) sorted.AppendUnchecked(std::move(k.row));
    rows = std::move(sorted);
  }
  int64_t skip = 0;
  int64_t limit = -1;
  if (body.skip != nullptr) {
    ctx.set_record(nullptr);
    SERAPH_ASSIGN_OR_RETURN(Value v, body.skip->Eval(ctx));
    if (!v.is_int() || v.AsInt() < 0) {
      return Status::EvaluationError("SKIP requires a non-negative integer");
    }
    skip = v.AsInt();
  }
  if (body.limit != nullptr) {
    ctx.set_record(nullptr);
    SERAPH_ASSIGN_OR_RETURN(Value v, body.limit->Eval(ctx));
    if (!v.is_int() || v.AsInt() < 0) {
      return Status::EvaluationError("LIMIT requires a non-negative integer");
    }
    limit = v.AsInt();
  }
  if (skip > 0 || limit >= 0) {
    Table sliced(rows.fields());
    int64_t index = 0;
    for (const Record& row : rows.rows()) {
      if (index++ < skip) continue;
      if (limit >= 0 && static_cast<int64_t>(sliced.size()) >= limit) break;
      sliced.AppendUnchecked(row);
    }
    rows = std::move(sliced);
  }
  return rows;
}

Result<Table> ExecuteSingleQuery(const SingleQuery& query,
                                 const GraphResolver& resolver,
                                 const Table& input,
                                 const ExecutionOptions& options) {
  Executor executor(resolver, options);
  return executor.Run(query, input);
}

Result<Table> ExecuteQuery(const Query& query, const GraphResolver& resolver,
                           const ExecutionOptions& options) {
  if (query.parts.empty()) {
    return Status::SemanticError("empty query");
  }
  SERAPH_ASSIGN_OR_RETURN(
      Table acc, ExecuteSingleQuery(query.parts[0], resolver, Table::Unit(),
                                    options));
  bool any_distinct_union = false;
  for (size_t i = 1; i < query.parts.size(); ++i) {
    SERAPH_ASSIGN_OR_RETURN(
        Table next, ExecuteSingleQuery(query.parts[i], resolver, Table::Unit(),
                                       options));
    if (acc.fields() != next.fields()) {
      return Status::SemanticError(
          "UNION parts must return the same column names");
    }
    if (!query.union_all[i - 1]) any_distinct_union = true;
    acc = Table::BagUnion(acc, next);
  }
  if (any_distinct_union) acc = acc.Distinct();
  return acc;
}

Result<Table> ExecuteQueryOnGraph(const Query& query,
                                  const PropertyGraph& graph,
                                  const ExecutionOptions& options) {
  SingleGraphResolver resolver(graph);
  return ExecuteQuery(query, resolver, options);
}

}  // namespace seraph
