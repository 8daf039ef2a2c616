#include "seraph/delta/delta_index.h"

#include "cypher/eval.h"

namespace seraph {

namespace {

// Variables introduced by the clause's patterns — must agree with the
// executor's PatternVariables so Emit's table fields match ApplyMatch's.
std::set<std::string> ClausePatternVariables(
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

// Recursive subtree test. `VisitChildren` covers every expression kind;
// ExistsPatternExpr additionally visits only its pattern property
// expressions, which is exactly what the eligibility checks need (the
// node itself is detected before recursing).
bool SubtreeContains(const Expr& e,
                     const std::function<bool(const Expr&)>& pred) {
  if (pred(e)) return true;
  bool found = false;
  e.VisitChildren([&](const Expr& child) {
    if (!found) found = SubtreeContains(child, pred);
  });
  return found;
}

bool ContainsExists(const Expr& e) {
  return SubtreeContains(e, [](const Expr& x) {
    return dynamic_cast<const ExistsPatternExpr*>(&x) != nullptr;
  });
}

// Whether `e` is a literal, a parameter, or a list or map of those: a value
// whose one evaluation can fail only on an unbound parameter. Appends the
// parameters it names to `names`.
bool IsConstant(const Expr& e, std::vector<std::string>* names) {
  if (dynamic_cast<const LiteralExpr*>(&e) != nullptr) return true;
  if (const auto* param = dynamic_cast<const ParameterExpr*>(&e)) {
    names->push_back(param->name());
    return true;
  }
  if (dynamic_cast<const ListExpr*>(&e) == nullptr &&
      dynamic_cast<const MapExpr*>(&e) == nullptr) {
    return false;
  }
  bool constant = true;
  e.VisitChildren([&](const Expr& child) {
    constant = constant && IsConstant(child, names);
  });
  return constant;
}

// Whether every inline property value of `pattern` IsConstant; the
// parameters they name go to `names`.
bool PropertiesConstant(const PathPattern& pattern,
                        std::vector<std::string>* names) {
  for (const NodePattern& np : pattern.nodes) {
    for (const auto& [key, expr] : np.properties) {
      if (!IsConstant(*expr, names)) return false;
    }
  }
  for (const RelPattern& rp : pattern.rels) {
    for (const auto& [key, expr] : rp.properties) {
      if (!IsConstant(*expr, names)) return false;
    }
  }
  return true;
}

// An expression context over `graph` with `exec`'s parameters, instant,
// window and deadline.
EvalContext ContextFor(const PropertyGraph& graph,
                       const ExecutionOptions& exec) {
  EvalContext ctx(&graph, nullptr);
  ctx.set_parameters(&exec.parameters);
  ctx.set_now(exec.now);
  ctx.set_window(exec.window);
  ctx.set_cancellation(exec.cancellation);
  return ctx;
}

// Whether `v` is, or (in a list or map) contains, a node, relationship or
// path.
bool HoldsEntity(const Value& v) {
  if (v.is_node() || v.is_relationship() || v.is_path()) return true;
  if (v.is_list()) {
    for (const Value& item : v.AsList()) {
      if (HoldsEntity(item)) return true;
    }
  }
  if (v.is_map()) {
    for (const auto& [key, item] : v.AsMap()) {
      if (HoldsEntity(item)) return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Eligibility
// ---------------------------------------------------------------------------

bool DeltaIndex::Eligible(const RegisteredQuery& query) {
  if (query.mode != OutputMode::kEmitStream) return false;
  if (!query.IsWindowContentDeterministic()) return false;
  if (query.clauses.size() != 1) return false;
  const auto* match = std::get_if<MatchClause>(&query.clauses[0]);
  if (match == nullptr || match->optional) return false;
  if (match->patterns.size() != 1) return false;
  const PathPattern& pattern = match->patterns[0];
  if (pattern.mode != PathMode::kNormal) return false;
  for (const RelPattern& rp : pattern.rels) {
    if (rp.variable_length) return false;
  }
  // The pattern's property values are evaluated once, up front, where
  // the matcher evaluates one only on reaching a candidate: a value that
  // could fail would fail windows the full path answers.
  std::vector<std::string> names;
  if (!PropertiesConstant(pattern, &names)) return false;
  // WHERE and the projection may reference the pattern variables freely:
  // a match's output is computed once and cached, and repair re-inserts
  // the match (so recomputes it) whenever one of its entities changes.
  // An exists() predicate would read entities outside the match and
  // re-introduce full pattern matching per row — excluded.
  if (match->where != nullptr && ContainsExists(*match->where)) return false;
  // Projection: aggregation is follow-on work; exists() as above.
  // DISTINCT, ORDER BY, SKIP and LIMIT run over the cached rows each
  // evaluation (the bag-level half).
  const ProjectionBody& body = query.projection;
  for (const ProjectionItem& item : body.items) {
    if (item.expr->ContainsAggregate()) return false;
    if (ContainsExists(*item.expr)) return false;
  }
  for (const OrderByItem& item : body.order_by) {
    if (item.expr->ContainsAggregate()) return false;
    if (ContainsExists(*item.expr)) return false;
  }
  if (body.skip != nullptr && ContainsExists(*body.skip)) return false;
  if (body.limit != nullptr && ContainsExists(*body.limit)) return false;
  return true;
}

bool DeltaIndex::ParametersAdmit(
    const RegisteredQuery& query,
    const std::map<std::string, Value>& parameters) {
  for (const auto& [name, value] : parameters) {
    if (HoldsEntity(value)) return false;
  }
  std::vector<std::string> names;
  const auto& match = std::get<MatchClause>(query.clauses[0]);
  PropertiesConstant(match.patterns[0], &names);
  for (const std::string& name : names) {
    if (!parameters.contains(name)) return false;
  }
  return true;
}


Result<PatternProperties> DeltaIndex::EvaluateProperties(
    const PathPattern& pattern,
    const std::map<std::string, Value>& parameters) {
  // Literals and parameters (Eligible) read no graph, instant or window.
  static const PropertyGraph* kNoGraph = new PropertyGraph();
  EvalContext ctx(kNoGraph, nullptr);
  ctx.set_parameters(&parameters);
  PatternProperties properties;
  properties.nodes.resize(pattern.nodes.size());
  properties.rels.resize(pattern.rels.size());
  for (size_t j = 0; j < pattern.nodes.size(); ++j) {
    for (const auto& [key, expr] : pattern.nodes[j].properties) {
      SERAPH_ASSIGN_OR_RETURN(Value v, expr->Eval(ctx));
      properties.nodes[j].emplace_back(key, std::move(v));
    }
  }
  for (size_t i = 0; i < pattern.rels.size(); ++i) {
    for (const auto& [key, expr] : pattern.rels[i].properties) {
      SERAPH_ASSIGN_OR_RETURN(Value v, expr->Eval(ctx));
      properties.rels[i].emplace_back(key, std::move(v));
    }
  }
  return properties;
}

DeltaIndex::DeltaIndex(const MatchClause* match)
    : match_(match),
      pattern_(&match->patterns[0]),
      new_vars_(ClausePatternVariables(match->patterns)),
      owned_(std::make_unique<MatchIndex>(*pattern_)),
      index_(owned_.get()) {}

DeltaIndex::DeltaIndex(const MatchClause* match,
                       const ProjectionBody* projection)
    : DeltaIndex(match) {
  body_ = projection;
  projection_.emplace(*projection, new_vars_);
}

DeltaIndex::DeltaIndex(const MatchClause* match,
                       const ProjectionBody* projection, MatchIndex* index,
                       PatternProperties properties)
    : match_(match),
      pattern_(&match->patterns[0]),
      new_vars_(ClausePatternVariables(match->patterns)),
      body_(projection),
      index_(index),
      properties_(std::move(properties)) {
  projection_.emplace(*projection, new_vars_);
  index_->AddReader(&properties_);
  // An index not built yet publishes its first Build whole, which the
  // reader takes in Sync; a built one has history the reader never saw.
  valid_ = !index_->valid();
  synced_ = index_->version();
}

DeltaIndex::~DeltaIndex() {
  if (owned_ == nullptr) index_->RemoveReader(&properties_);
}

bool DeltaIndex::valid() const {
  return valid_ && index_->valid() && synced_ == index_->version();
}

void DeltaIndex::Invalidate() {
  valid_ = false;
  pending_.clear();
  entries_.clear();
  if (owned_ != nullptr) owned_->Invalidate();
}

// ---------------------------------------------------------------------------
// Following the index
// ---------------------------------------------------------------------------

void DeltaIndex::Take(const PropertyGraph& graph, const MatchIndex::Key& key,
                      const PathValue& trail) {
  // The index applied only the values every reader shares.
  if (!properties_.Hold(graph, trail)) return;
  auto it = entries_.try_emplace(entries_.end(), key);
  it->second.trail = &trail;
  it->second.passes = false;
  if (projection_.has_value()) pending_.insert(pending_.end(), it);
}

Status DeltaIndex::Refill(const PropertyGraph& graph,
                          const CancellationToken* cancellation) {
  valid_ = false;
  pending_.clear();
  entries_.clear();
  for (const auto& [key, trail] : index_->matches()) {
    if (cancellation != nullptr) {
      SERAPH_RETURN_IF_ERROR(cancellation->Check());
    }
    Take(graph, key, trail);
  }
  valid_ = true;
  synced_ = index_->version();
  return Status::OK();
}

Status DeltaIndex::Build(const PropertyGraph& graph, int64_t advances,
                         const ExecutionOptions& exec) {
  if (owned_ != nullptr) {
    Invalidate();
    SERAPH_ASSIGN_OR_RETURN(properties_,
                            EvaluateProperties(*pattern_, exec.parameters));
    // A fresh index whose one reader is this one, so it applies every
    // value the pattern names.
    owned_ = std::make_unique<MatchIndex>(*pattern_);
    index_ = owned_.get();
    owned_->AddReader(&properties_);
    SERAPH_RETURN_IF_ERROR(owned_->Build(graph, advances, exec.cancellation));
  } else if (!index_->valid()) {
    return Status::Internal("delta index built before its match index");
  }
  return Refill(graph, exec.cancellation);
}

void DeltaIndex::ObserveAdvance(const IncrementalSnapshotter& snapshotter) {
  if (!valid()) return;
  if (owned_ != nullptr) owned_->ObserveAdvance(snapshotter);
  Sync(snapshotter.graph());
}

void DeltaIndex::Sync(const PropertyGraph& graph) {
  if (!valid_ || !index_->valid() || index_->version() == synced_) return;
  if (index_->published_build()) {
    (void)Refill(graph, nullptr);  // Cannot fail without a deadline.
    return;
  }
  if (index_->published_from() != synced_) {
    // Missed a repair: its erasures are gone.
    Invalidate();
    return;
  }
  for (const MatchIndex::Key& key : index_->erased()) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    pending_.erase(it);
    entries_.erase(it);
  }
  for (MatchIndex::Matches::const_iterator it : index_->inserted()) {
    Take(graph, it->first, it->second);
  }
  synced_ = index_->version();
}

// ---------------------------------------------------------------------------
// Emit / Output
// ---------------------------------------------------------------------------

Record DeltaIndex::ReconstructRecord(const PathValue& trail) const {
  Record m;
  for (size_t j = 0; j < pattern_->nodes.size(); ++j) {
    const std::string& var = pattern_->nodes[j].variable;
    if (!var.empty() && !m.Has(var)) m.Set(var, Value::Node(trail.nodes[j]));
  }
  for (size_t i = 0; i < pattern_->rels.size(); ++i) {
    const std::string& var = pattern_->rels[i].variable;
    if (!var.empty() && !m.Has(var)) {
      m.Set(var, Value::Relationship(trail.rels[i]));
    }
  }
  if (!pattern_->path_variable.empty()) {
    m.Set(pattern_->path_variable, Value::Path(trail));
  }
  return m;
}

Result<Table> DeltaIndex::Emit(const PropertyGraph& graph,
                               const ExecutionOptions& exec) const {
  if (!valid()) return Status::Internal("Emit on an invalid delta index");
  // Mirror ApplyMatch over Table::Unit() exactly: fields are the pattern
  // variables, WHERE filters each reconstructed match against the live
  // snapshot, and every variable is padded (all are bound here, but the
  // loop keeps the parity explicit).
  EvalContext ctx = ContextFor(graph, exec);
  Table out(new_vars_);
  for (const auto& [key, entry] : entries_) {
    SERAPH_RETURN_IF_ERROR(ctx.CheckCancelled());
    Record m = ReconstructRecord(*entry.trail);
    if (match_->where != nullptr) {
      ctx.set_record(&m);
      SERAPH_ASSIGN_OR_RETURN(Value cond, match_->where->Eval(ctx));
      if (!IsTruthy(cond)) continue;
    }
    for (const std::string& v : new_vars_) {
      if (!m.Has(v)) m.Set(v, Value::Null());
    }
    out.AppendUnchecked(std::move(m));
  }
  return out;
}

Result<Table> DeltaIndex::Output(const PropertyGraph& graph,
                                 const ExecutionOptions& exec) {
  if (!valid()) return Status::Internal("Output on an invalid delta index");
  if (!projection_.has_value()) {
    return Status::Internal("Output on a delta index without a projection");
  }
  EvalContext ctx = ContextFor(graph, exec);
  // The full path runs WHERE over every match before projecting any, so
  // do the same over the new matches; cached matches raise no error
  // (their output was computed without one, and nothing they read
  // changed since).
  std::vector<std::pair<Entry*, Record>> survivors;
  for (Entries::iterator it : pending_) {
    SERAPH_RETURN_IF_ERROR(ctx.CheckCancelled());
    Entry& entry = it->second;
    Record m = ReconstructRecord(*entry.trail);
    entry.passes = false;
    if (match_->where != nullptr) {
      ctx.set_record(&m);
      SERAPH_ASSIGN_OR_RETURN(Value cond, match_->where->Eval(ctx));
      if (!IsTruthy(cond)) continue;
    }
    survivors.emplace_back(&entry, std::move(m));
  }
  for (auto& [entry, m] : survivors) {
    SERAPH_RETURN_IF_ERROR(ctx.CheckCancelled());
    SERAPH_ASSIGN_OR_RETURN(entry->row, projection_->Project(m, ctx));
    entry->passes = true;
  }
  rows_projected_ += static_cast<int64_t>(pending_.size());
  pending_.clear();

  // A row's sort context is its match's record, rebuilt from the trail
  // rather than cached: only bodies that sort need it, and they evaluate
  // their sort keys over every row anyway.
  const bool keeps_context = projection_->keeps_sort_context();
  Table rows(projection_->fields());
  std::vector<Record> sort_context;
  for (const auto& [key, entry] : entries_) {
    if (!entry.passes) continue;
    rows.AppendUnchecked(entry.row);
    if (keeps_context) sort_context.push_back(ReconstructRecord(*entry.trail));
  }
  return FinishProjection(*body_, std::move(rows), sort_context, ctx);
}

}  // namespace seraph
