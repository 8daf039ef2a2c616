#include "cypher/executor.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cypher/eval.h"
#include "cypher/functions.h"
#include "cypher/matcher.h"

namespace seraph {

namespace {

// Free variables a pattern list introduces (node, relationship, and path
// variables).
std::set<std::string> PatternVariables(
    const std::vector<PathPattern>& patterns) {
  std::set<std::string> vars;
  for (const PathPattern& path : patterns) {
    if (!path.path_variable.empty()) vars.insert(path.path_variable);
    for (const NodePattern& np : path.nodes) {
      if (!np.variable.empty()) vars.insert(np.variable);
    }
    for (const RelPattern& rp : path.rels) {
      if (!rp.variable.empty()) vars.insert(rp.variable);
    }
  }
  return vars;
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
        SERAPH_ASSIGN_OR_RETURN(table, ApplyMatch(*match, i, table));
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
                           const Table& input) {
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
                                           &matches, match_options));
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
