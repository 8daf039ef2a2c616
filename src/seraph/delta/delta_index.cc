#include "seraph/delta/delta_index.h"

#include <algorithm>

#include "cypher/eval.h"
#include "cypher/matcher.h"

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

// Enumerates the candidates for the node *left* of `at` through the
// relationship pattern between them: every (rid, left) such that the
// forward step left --rid--> at is admissible under `direction`. This is
// the backward reading of ForEachIncident (cypher/matcher.h), self-loop
// rule included, with the same bucket per visit: the adjacency list the
// forward walk takes the step from (0 = outgoing, 1 = incoming), which
// for a step from nodes[i] to nodes[i+1] via r is equivalently
// (r.src == nodes[i] ? 0 : 1).
template <typename Fn>
Status ForEachBackward(const PropertyGraph& graph, NodeId at,
                       RelDirection direction, const Fn& fn) {
  if (direction == RelDirection::kOutgoing) {
    // Forward: out-list of left, other = trg. So r.trg == at, left = src
    // (self-loops included — forward visits them through left's out
    // list).
    for (RelId rid : graph.InRelationships(at)) {
      const RelData* data = graph.relationship(rid);
      SERAPH_RETURN_IF_ERROR(fn(rid, data->src, /*bucket=*/0));
    }
    return Status::OK();
  }
  if (direction == RelDirection::kIncoming) {
    // Forward: in-list of left minus self-loops, other = src. So
    // r.src == at, left = trg, src != trg.
    for (RelId rid : graph.OutRelationships(at)) {
      const RelData* data = graph.relationship(rid);
      if (data->src == data->trg) continue;
      SERAPH_RETURN_IF_ERROR(fn(rid, data->trg, /*bucket=*/1));
    }
    return Status::OK();
  }
  // kUndirected: union of both readings. A self-loop at `at` appears only
  // through the first branch (bucket 0), matching the forward quirk.
  for (RelId rid : graph.InRelationships(at)) {
    const RelData* data = graph.relationship(rid);
    SERAPH_RETURN_IF_ERROR(fn(rid, data->src, /*bucket=*/0));
  }
  for (RelId rid : graph.OutRelationships(at)) {
    const RelData* data = graph.relationship(rid);
    if (data->src == data->trg) continue;
    SERAPH_RETURN_IF_ERROR(fn(rid, data->trg, /*bucket=*/1));
  }
  return Status::OK();
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
  // Build evaluates the pattern's property values once, up front, where
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

DeltaIndex::DeltaIndex(const MatchClause* match)
    : match_(match),
      pattern_(&match->patterns[0]),
      new_vars_(ClausePatternVariables(match->patterns)) {}

DeltaIndex::DeltaIndex(const MatchClause* match,
                       const ProjectionBody* projection)
    : DeltaIndex(match) {
  body_ = projection;
  projection_.emplace(*projection, new_vars_);
}

void DeltaIndex::Invalidate() {
  valid_ = false;
  applied_advances_ = 0;
  pending_.clear();
  matches_.clear();
  node_keys_.clear();
  rel_keys_.clear();
}

// ---------------------------------------------------------------------------
// Index maintenance
// ---------------------------------------------------------------------------

void DeltaIndex::AddMatch(Key key, PathValue trail) {
  auto [it, inserted] = matches_.try_emplace(std::move(key));
  if (!inserted) return;
  it->second.trail = std::move(trail);
  const Key* kp = &it->first;
  for (NodeId n : it->second.trail.nodes) node_keys_[n].insert(kp);
  for (RelId r : it->second.trail.rels) rel_keys_[r].insert(kp);
  if (projection_.has_value()) pending_.insert(pending_.end(), it);
}

void DeltaIndex::RemoveMatch(const Key& key) {
  auto it = matches_.find(key);
  if (it == matches_.end()) return;
  pending_.erase(it);
  const Key* kp = &it->first;
  const PathValue& trail = it->second.trail;
  for (NodeId n : trail.nodes) {
    auto nit = node_keys_.find(n);
    if (nit != node_keys_.end()) {
      nit->second.erase(kp);
      if (nit->second.empty()) node_keys_.erase(nit);
    }
  }
  for (RelId r : trail.rels) {
    auto rit = rel_keys_.find(r);
    if (rit != rel_keys_.end()) {
      rit->second.erase(kp);
      if (rit->second.empty()) rel_keys_.erase(rit);
    }
  }
  matches_.erase(it);
}

// ---------------------------------------------------------------------------
// Constraint checks (precomputed property values)
// ---------------------------------------------------------------------------

Status DeltaIndex::PrecomputeProperties(const PropertyGraph& graph,
                                        const ExecutionOptions& exec) {
  // The values are literals and parameters (Eligible), so they are
  // constant across evaluations — computed once per Build — and, with
  // their parameters bound (ParametersAdmit), cannot fail.
  EvalContext ctx = ContextFor(graph, exec);
  node_props_.assign(pattern_->nodes.size(), {});
  rel_props_.assign(pattern_->rels.size(), {});
  for (size_t j = 0; j < pattern_->nodes.size(); ++j) {
    for (const auto& [key, expr] : pattern_->nodes[j].properties) {
      SERAPH_ASSIGN_OR_RETURN(Value v, expr->Eval(ctx));
      node_props_[j].emplace_back(key, std::move(v));
    }
  }
  for (size_t i = 0; i < pattern_->rels.size(); ++i) {
    for (const auto& [key, expr] : pattern_->rels[i].properties) {
      SERAPH_ASSIGN_OR_RETURN(Value v, expr->Eval(ctx));
      rel_props_[i].emplace_back(key, std::move(v));
    }
  }
  props_ready_ = true;
  return Status::OK();
}

bool DeltaIndex::NodeOk(const PropertyGraph& graph, size_t pos,
                        NodeId id) const {
  const NodeData* data = graph.node(id);
  if (data == nullptr) return false;
  const NodePattern& np = pattern_->nodes[pos];
  for (const std::string& label : np.labels) {
    if (!data->labels.contains(label)) return false;
  }
  for (const auto& [key, expected] : node_props_[pos]) {
    auto it = data->properties.find(key);
    if (it == data->properties.end()) return false;
    if (!IsTruthy(CypherEquals(it->second, expected))) return false;
  }
  return true;
}

bool DeltaIndex::RelOk(const PropertyGraph& graph, size_t pos,
                       RelId id) const {
  const RelData* data = graph.relationship(id);
  if (data == nullptr) return false;
  const RelPattern& rp = pattern_->rels[pos];
  if (!rp.types.empty()) {
    bool any = false;
    for (const std::string& type : rp.types) {
      if (data->type == type) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  for (const auto& [key, expected] : rel_props_[pos]) {
    auto it = data->properties.find(key);
    if (it == data->properties.end()) return false;
    if (!IsTruthy(CypherEquals(it->second, expected))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Anchored rediscovery
// ---------------------------------------------------------------------------

// One in-flight anchored DFS: a contiguous range [left, right] of bound
// node positions (plus the rels between them), with repeated-variable
// pinning and per-match relationship isomorphism.
struct DeltaIndex::Search {
  std::vector<NodeId> nodes;
  std::vector<RelId> rels;
  std::vector<int> buckets;
  std::map<std::string, NodeId> node_vars;
  std::map<std::string, RelId> rel_vars;
  std::set<RelId> used_rels;

  explicit Search(size_t num_nodes)
      : nodes(num_nodes), rels(num_nodes > 0 ? num_nodes - 1 : 0),
        buckets(num_nodes > 0 ? num_nodes - 1 : 0) {}

  // Variable pinning at bind time; returns false on a clash, sets
  // *bound_here when this bind introduced the entry (so the caller can
  // undo it on unwind).
  bool BindNodeVar(const std::string& var, NodeId id, bool* bound_here) {
    *bound_here = false;
    if (var.empty()) return true;
    auto it = node_vars.find(var);
    if (it != node_vars.end()) return it->second == id;
    node_vars.emplace(var, id);
    *bound_here = true;
    return true;
  }
  bool BindRelVar(const std::string& var, RelId id, bool* bound_here) {
    *bound_here = false;
    if (var.empty()) return true;
    auto it = rel_vars.find(var);
    if (it != rel_vars.end()) return it->second == id;
    rel_vars.emplace(var, id);
    *bound_here = true;
    return true;
  }
};

Status DeltaIndex::RecordMatch(const Search& s) {
  Key key;
  key.reserve(1 + 2 * s.rels.size());
  key.push_back(s.nodes[0].value);
  for (size_t i = 0; i < s.rels.size(); ++i) {
    key.push_back(s.buckets[i]);
    key.push_back(s.rels[i].value);
  }
  PathValue trail;
  trail.nodes = s.nodes;
  trail.rels = s.rels;
  AddMatch(std::move(key), std::move(trail));
  return Status::OK();
}

Status DeltaIndex::ExtendRight(const PropertyGraph& graph, Search* s,
                               size_t right, size_t left) {
  if (right + 1 == pattern_->nodes.size()) {
    return ExtendLeft(graph, s, left);
  }
  const RelPattern& rp = pattern_->rels[right];
  return ForEachIncident(
      graph, s->nodes[right], rp.direction,
      [&](RelId rid, NodeId other, int bucket) -> Status {
        if (s->used_rels.contains(rid)) return Status::OK();
        if (!RelOk(graph, right, rid)) return Status::OK();
        if (!NodeOk(graph, right + 1, other)) return Status::OK();
        bool rel_bound = false, node_bound = false;
        if (!s->BindRelVar(rp.variable, rid, &rel_bound)) return Status::OK();
        if (!s->BindNodeVar(pattern_->nodes[right + 1].variable, other,
                            &node_bound)) {
          if (rel_bound) s->rel_vars.erase(rp.variable);
          return Status::OK();
        }
        s->used_rels.insert(rid);
        s->rels[right] = rid;
        s->buckets[right] = bucket;
        s->nodes[right + 1] = other;
        Status st = ExtendRight(graph, s, right + 1, left);
        s->used_rels.erase(rid);
        if (node_bound) s->node_vars.erase(pattern_->nodes[right + 1].variable);
        if (rel_bound) s->rel_vars.erase(rp.variable);
        return st;
      });
}

Status DeltaIndex::ExtendLeft(const PropertyGraph& graph, Search* s,
                              size_t left) {
  if (left == 0) return RecordMatch(*s);
  const RelPattern& rp = pattern_->rels[left - 1];
  return ForEachBackward(
      graph, s->nodes[left], rp.direction,
      [&](RelId rid, NodeId prev, int bucket) -> Status {
        if (s->used_rels.contains(rid)) return Status::OK();
        if (!RelOk(graph, left - 1, rid)) return Status::OK();
        if (!NodeOk(graph, left - 1, prev)) return Status::OK();
        bool rel_bound = false, node_bound = false;
        if (!s->BindRelVar(rp.variable, rid, &rel_bound)) return Status::OK();
        if (!s->BindNodeVar(pattern_->nodes[left - 1].variable, prev,
                            &node_bound)) {
          if (rel_bound) s->rel_vars.erase(rp.variable);
          return Status::OK();
        }
        s->used_rels.insert(rid);
        s->rels[left - 1] = rid;
        s->buckets[left - 1] = bucket;
        s->nodes[left - 1] = prev;
        Status st = ExtendLeft(graph, s, left - 1);
        s->used_rels.erase(rid);
        if (node_bound) s->node_vars.erase(pattern_->nodes[left - 1].variable);
        if (rel_bound) s->rel_vars.erase(rp.variable);
        return st;
      });
}

Status DeltaIndex::AnchorNode(const PropertyGraph& graph, NodeId id,
                              size_t pos) {
  if (!NodeOk(graph, pos, id)) return Status::OK();
  Search s(pattern_->nodes.size());
  bool bound = false;
  if (!s.BindNodeVar(pattern_->nodes[pos].variable, id, &bound)) {
    return Status::OK();
  }
  s.nodes[pos] = id;
  return ExtendRight(graph, &s, pos, pos);
}

Status DeltaIndex::AnchorRel(const PropertyGraph& graph, RelId id,
                             size_t pos) {
  const RelData* data = graph.relationship(id);
  if (data == nullptr) return Status::OK();
  if (!RelOk(graph, pos, id)) return Status::OK();
  const RelPattern& rp = pattern_->rels[pos];
  // Endpoint orientations admissible under the pattern direction, mirrored
  // from the forward traversal: kOutgoing pins (src, trg); kIncoming pins
  // (trg, src) and never matches self-loops; kUndirected tries both, the
  // reversed reading only for non-self-loops (the forward in-list skip).
  struct Orientation {
    NodeId left, right;
    int bucket;
  };
  std::vector<Orientation> orientations;
  if (rp.direction != RelDirection::kIncoming) {
    orientations.push_back({data->src, data->trg, 0});
  }
  if (rp.direction != RelDirection::kOutgoing && data->src != data->trg) {
    orientations.push_back({data->trg, data->src, 1});
  }
  for (const Orientation& o : orientations) {
    if (!NodeOk(graph, pos, o.left)) continue;
    if (!NodeOk(graph, pos + 1, o.right)) continue;
    Search s(pattern_->nodes.size());
    bool rel_bound = false, left_bound = false, right_bound = false;
    if (!s.BindRelVar(rp.variable, id, &rel_bound)) continue;
    if (!s.BindNodeVar(pattern_->nodes[pos].variable, o.left, &left_bound)) {
      continue;
    }
    if (!s.BindNodeVar(pattern_->nodes[pos + 1].variable, o.right,
                       &right_bound)) {
      continue;
    }
    s.used_rels.insert(id);
    s.nodes[pos] = o.left;
    s.nodes[pos + 1] = o.right;
    s.rels[pos] = id;
    s.buckets[pos] = o.bucket;
    SERAPH_RETURN_IF_ERROR(ExtendRight(graph, &s, pos + 1, pos));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Build / repair / emit
// ---------------------------------------------------------------------------

Status DeltaIndex::Build(const PropertyGraph& graph, int64_t advances,
                         const ExecutionOptions& exec) {
  Invalidate();
  SERAPH_RETURN_IF_ERROR(PrecomputeProperties(graph, exec));
  // Every match, found by the DFS that repairs the index: each candidate
  // for pattern node 0 anchored at position 0. Discovery order does not
  // matter — the match map is keyed in canonical order. One label index
  // supplies the candidates (NodeOk re-checks the other labels).
  const NodePattern& first = pattern_->nodes[0];
  const std::vector<NodeId> seeds =
      first.labels.empty() ? graph.NodeIds()
                           : graph.NodesWithLabel(first.labels.front());
  for (NodeId id : seeds) {
    if (exec.cancellation != nullptr) {
      SERAPH_RETURN_IF_ERROR(exec.cancellation->Check());
    }
    SERAPH_RETURN_IF_ERROR(AnchorNode(graph, id, 0));
  }
  applied_advances_ = advances;
  valid_ = true;
  return Status::OK();
}

void DeltaIndex::ObserveAdvance(const IncrementalSnapshotter& snapshotter) {
  if (!valid_) return;
  const int64_t advances = snapshotter.stats().advances;
  if (advances == applied_advances_) return;
  if (advances != applied_advances_ + 1) {
    // Missed one or more advances (the published dirty sets only cover
    // the last one): the index can no longer be repaired incrementally.
    Invalidate();
    return;
  }
  Status repaired =
      ApplyDirty(snapshotter.graph(), snapshotter.last_dirty_nodes(),
                 snapshotter.last_dirty_rels());
  if (!repaired.ok()) {
    Invalidate();
    return;
  }
  applied_advances_ = advances;
}

Status DeltaIndex::ApplyDirty(const PropertyGraph& graph,
                              const std::vector<NodeId>& dirty_nodes,
                              const std::vector<RelId>& dirty_rels) {
  if (!props_ready_) {
    return Status::Internal("delta index repaired before Build");
  }
  // Phase 1: drop every indexed match touching a dirty entity. (The keys
  // are copied out first — removal invalidates the inverted-index
  // pointers being iterated.)
  std::set<Key> stale;
  for (NodeId n : dirty_nodes) {
    auto it = node_keys_.find(n);
    if (it == node_keys_.end()) continue;
    for (const Key* kp : it->second) stale.insert(*kp);
  }
  for (RelId r : dirty_rels) {
    auto it = rel_keys_.find(r);
    if (it == rel_keys_.end()) continue;
    for (const Key* kp : it->second) stale.insert(*kp);
  }
  for (const Key& key : stale) RemoveMatch(key);
  // Phase 2: rediscover every current match containing at least one dirty
  // entity — anchor each dirty entity at each position it could occupy.
  // A match containing several dirty entities is discovered several
  // times; the keyed map collapses duplicates.
  for (NodeId n : dirty_nodes) {
    if (!graph.HasNode(n)) continue;
    for (size_t pos = 0; pos < pattern_->nodes.size(); ++pos) {
      SERAPH_RETURN_IF_ERROR(AnchorNode(graph, n, pos));
    }
  }
  for (RelId r : dirty_rels) {
    if (!graph.HasRelationship(r)) continue;
    for (size_t pos = 0; pos < pattern_->rels.size(); ++pos) {
      SERAPH_RETURN_IF_ERROR(AnchorRel(graph, r, pos));
    }
  }
  return Status::OK();
}

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
  if (!valid_) return Status::Internal("Emit on an invalid delta index");
  // Mirror ApplyMatch over Table::Unit() exactly: fields are the pattern
  // variables, WHERE filters each reconstructed match against the live
  // snapshot, and every variable is padded (all are bound here, but the
  // loop keeps the parity explicit).
  EvalContext ctx = ContextFor(graph, exec);
  Table out(new_vars_);
  for (const auto& [key, entry] : matches_) {
    SERAPH_RETURN_IF_ERROR(ctx.CheckCancelled());
    Record m = ReconstructRecord(entry.trail);
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
  if (!valid_) return Status::Internal("Output on an invalid delta index");
  if (!projection_.has_value()) {
    return Status::Internal("Output on a delta index without a projection");
  }
  EvalContext ctx = ContextFor(graph, exec);
  // The full path runs WHERE over every match before projecting any, so
  // do the same over the new matches; cached matches raise no error
  // (their output was computed without one, and nothing they read
  // changed since).
  std::vector<std::pair<Entry*, Record>> survivors;
  for (Matches::iterator it : pending_) {
    SERAPH_RETURN_IF_ERROR(ctx.CheckCancelled());
    Entry& entry = it->second;
    Record m = ReconstructRecord(entry.trail);
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
  for (const auto& [key, entry] : matches_) {
    if (!entry.passes) continue;
    rows.AppendUnchecked(entry.row);
    if (keeps_context) sort_context.push_back(ReconstructRecord(entry.trail));
  }
  return FinishProjection(*body_, std::move(rows), sort_context, ctx);
}

}  // namespace seraph
