#include "cypher/matcher.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace seraph {

namespace {

// Default expansion cap for unbounded variable-length patterns: the
// relationship-uniqueness rule already bounds expansion by |R|, so this is
// a pure safety net against pathological graphs.
constexpr int64_t kUnboundedHops = 1'000'000;

// Variables a single path pattern mentions (node, rel, and path vars).
std::set<std::string> PathPatternVariables(const PathPattern& path) {
  std::set<std::string> vars;
  if (!path.path_variable.empty()) vars.insert(path.path_variable);
  for (const NodePattern& np : path.nodes) {
    if (!np.variable.empty()) vars.insert(np.variable);
  }
  for (const RelPattern& rp : path.rels) {
    if (!rp.variable.empty()) vars.insert(rp.variable);
  }
  return vars;
}

// The label of `np` with the smallest index entry, or nullptr when the
// pattern carries no labels. Seeding from the most selective label is a
// pure execution-order optimization: NodeSatisfies re-checks every label,
// and each label index iterates in ascending node-id order, so the result
// bag (and its order) is independent of which label seeds the scan.
const std::string* MostSelectiveLabel(const NodePattern& np,
                                      const PropertyGraph& graph) {
  const std::string* best = nullptr;
  size_t best_count = 0;
  for (const std::string& label : np.labels) {
    size_t count = graph.CountNodesWithLabel(label);
    if (best == nullptr || count < best_count) {
      best = &label;
      best_count = count;
    }
  }
  return best;
}

// Cost estimate for starting a pattern with no bound variable: the size of
// its cheapest node seed set, considering every label on every node (a
// node pattern with labels [:Big:Tiny] seeds from the Tiny index).
size_t SeedCost(const PathPattern& path, const PropertyGraph& graph) {
  size_t best = graph.num_nodes();
  for (const NodePattern& np : path.nodes) {
    for (const std::string& label : np.labels) {
      best = std::min(best, graph.CountNodesWithLabel(label));
    }
  }
  return best;
}

// Greedy join order: repeatedly pick the pattern that is connected to the
// already-bound variables (cheap: it starts from a pinned node), breaking
// ties — and seeding the very first choice — by label-index selectivity.
std::vector<size_t> PlanPatternOrder(
    const std::vector<const PathPattern*>& patterns,
    const PropertyGraph& graph, const Record& input) {
  std::set<std::string> bound;
  for (const auto& [name, value] : input) bound.insert(name);
  std::vector<std::set<std::string>> vars;
  vars.reserve(patterns.size());
  for (const PathPattern* p : patterns) {
    vars.push_back(PathPatternVariables(*p));
  }
  std::vector<size_t> order;
  std::vector<bool> used(patterns.size(), false);
  while (order.size() < patterns.size()) {
    size_t best = patterns.size();
    bool best_connected = false;
    size_t best_cost = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const std::string& v : vars[i]) {
        if (bound.contains(v)) {
          connected = true;
          break;
        }
      }
      size_t cost = connected ? 0 : SeedCost(*patterns[i], graph);
      if (best == patterns.size() ||
          (connected && !best_connected) ||
          (connected == best_connected && cost < best_cost)) {
        best = i;
        best_connected = connected;
        best_cost = cost;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound.insert(vars[best].begin(), vars[best].end());
  }
  return order;
}

// DFS matcher for the patterns of one MATCH clause.
class Matcher {
 public:
  Matcher(const PropertyGraph& graph, EvalContext& ctx,
          std::vector<const PathPattern*> patterns, std::vector<Record>* out)
      : graph_(graph), ctx_(ctx), patterns_(std::move(patterns)), out_(out) {
    order_.resize(patterns_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  void set_order(std::vector<size_t> order) { order_ = std::move(order); }

  // Mirrors every emission into `trails` with the concrete trail that
  // produced it (single rigid pattern only — the delta-index build path).
  void set_trail_sink(std::vector<PathValue>* trails) { trails_ = trails; }

  // Restricts the seed enumeration of the first processed pattern's first
  // node to [begin, end) — one morsel of the full seed domain. The slice
  // must be drawn from the same domain the serial scan would use (the
  // most-selective label index, or all node ids) so that concatenating
  // slice outputs in slice order reproduces the serial output exactly.
  void set_seed_slice(const NodeId* begin, const NodeId* end) {
    seed_begin_ = begin;
    seed_end_ = end;
  }

  // Prunes filter->path's trail while it is expanded (see TrailFilter).
  void set_trail_filter(const TrailFilter* filter) { filter_ = filter; }

  Status Run(const Record& input) {
    current_ = input;
    return MatchPattern(0);
  }

 private:
  // ---- Pattern-list driver ----

  Status MatchPattern(size_t pattern_idx) {
    if (pattern_idx == patterns_.size()) {
      out_->push_back(current_);
      if (trails_ != nullptr) trails_->push_back(*emitting_trail_);
      return Status::OK();
    }
    const PathPattern& path = *patterns_[order_[pattern_idx]];
    if (path.mode != PathMode::kNormal) {
      return MatchShortest(path, pattern_idx);
    }
    PathValue trail;
    if (filter_ == nullptr || &path != filter_->path) {
      return MatchNode(path, 0, pattern_idx, /*forced=*/nullptr, &trail);
    }
    // P may read only what is bound before the trail starts; otherwise
    // this expansion runs unpruned.
    filter_live_ = std::all_of(
        filter_->reads.begin(), filter_->reads.end(),
        [this](const std::string& name) { return current_.Has(name); });
    Status s = MatchNode(path, 0, pattern_idx, /*forced=*/nullptr, &trail);
    filter_live_ = false;
    return s;
  }

  // ---- Chain traversal ----

  // Matches node pattern `node_idx` of `path`. `forced` pins the candidate
  // (the endpoint reached through the previous relationship).
  Status MatchNode(const PathPattern& path, size_t node_idx,
                   size_t pattern_idx, const NodeId* forced,
                   PathValue* trail) {
    const NodePattern& np = path.nodes[node_idx];
    auto try_candidate = [&](NodeId id) -> Status {
      // Seed/candidate boundary: one null test when no deadline is set.
      SERAPH_RETURN_IF_ERROR(ctx_.CheckCancelled());
      SERAPH_ASSIGN_OR_RETURN(bool ok, NodeSatisfies(id, np));
      if (!ok) return Status::OK();
      bool bound_here = false;
      if (!np.variable.empty()) {
        const Value* existing = current_.Find(np.variable);
        if (existing != nullptr) {
          if (!existing->is_node() || existing->AsNode() != id) {
            return Status::OK();
          }
        } else {
          current_.Set(np.variable, Value::Node(id));
          bound_here = true;
        }
      }
      trail->nodes.push_back(id);
      Status s;
      if (node_idx + 1 < path.nodes.size()) {
        s = MatchRel(path, node_idx, pattern_idx, id, trail);
      } else {
        s = FinishPath(path, pattern_idx, trail);
      }
      trail->nodes.pop_back();
      if (bound_here) current_.Erase(np.variable);
      return s;
    };

    if (forced != nullptr) {
      return try_candidate(*forced);
    }
    // A pre-bound variable pins the candidate.
    if (!np.variable.empty()) {
      const Value* existing = current_.Find(np.variable);
      if (existing != nullptr) {
        if (!existing->is_node()) return Status::OK();
        return try_candidate(existing->AsNode());
      }
    }
    // A seed slice (one morsel of the partitioned top-level scan) replaces
    // the full enumeration for the first processed pattern's first node.
    if (seed_begin_ != nullptr && pattern_idx == 0 && node_idx == 0) {
      for (const NodeId* it = seed_begin_; it != seed_end_; ++it) {
        SERAPH_RETURN_IF_ERROR(try_candidate(*it));
      }
      return Status::OK();
    }
    // Seed from the most selective label index when possible (copy-free —
    // the index set iterates in ascending id order), else scan all nodes.
    if (const std::string* label = MostSelectiveLabel(np, graph_)) {
      for (NodeId id : graph_.NodesWithLabelSet(*label)) {
        SERAPH_RETURN_IF_ERROR(try_candidate(id));
      }
      return Status::OK();
    }
    for (NodeId id : graph_.NodeIds()) {
      SERAPH_RETURN_IF_ERROR(try_candidate(id));
    }
    return Status::OK();
  }

  // Matches relationship pattern `node_idx` (between nodes node_idx and
  // node_idx+1) starting from `from`.
  Status MatchRel(const PathPattern& path, size_t node_idx, size_t pattern_idx,
                  NodeId from, PathValue* trail) {
    const RelPattern& rp = path.rels[node_idx];
    if (rp.variable_length) {
      return MatchVarLength(path, node_idx, pattern_idx, from, trail);
    }
    auto try_rel = [&](RelId rid, NodeId next) -> Status {
      if (used_rels_.contains(rid)) return Status::OK();
      SERAPH_ASSIGN_OR_RETURN(bool ok, RelSatisfies(rid, rp));
      if (!ok) return Status::OK();
      bool bound_here = false;
      if (!rp.variable.empty()) {
        const Value* existing = current_.Find(rp.variable);
        if (existing != nullptr) {
          if (!existing->is_relationship() ||
              existing->AsRelationship() != rid) {
            return Status::OK();
          }
        } else {
          current_.Set(rp.variable, Value::Relationship(rid));
          bound_here = true;
        }
      }
      const bool filter_live = filter_live_;
      Status s;
      if (TrailFilterKeeps(path, rid)) {
        used_rels_.insert(rid);
        trail->rels.push_back(rid);
        s = MatchNode(path, node_idx + 1, pattern_idx, &next, trail);
        trail->rels.pop_back();
        used_rels_.erase(rid);
      }
      filter_live_ = filter_live;
      if (bound_here) current_.Erase(rp.variable);
      return s;
    };

    return ForEachIncident(from, rp.direction, [&](RelId rid, NodeId other) {
      return try_rel(rid, other);
    });
  }

  // Expands a variable-length relationship pattern from `from`, then
  // continues with the next node pattern at every admissible depth.
  Status MatchVarLength(const PathPattern& path, size_t node_idx,
                        size_t pattern_idx, NodeId from, PathValue* trail) {
    const RelPattern& rp = path.rels[node_idx];
    int64_t min_hops = rp.min_hops.value_or(1);
    int64_t max_hops = rp.max_hops.value_or(kUnboundedHops);
    std::vector<Value> rel_values;  // The list bound to the rel variable.

    // Depth-first expansion; at every depth in [min, max] we also try to
    // finish the segment at the current endpoint. Invariant: every node of
    // the trail is pushed by exactly one MatchNode call or one traversal
    // step, so before handing the endpoint to the next node pattern's
    // MatchNode (which pushes it itself) we temporarily pop it.
    std::function<Status(NodeId, int64_t)> expand =
        [&](NodeId at, int64_t depth) -> Status {
      if (depth >= min_hops) {
        bool bound_here = false;
        if (!rp.variable.empty()) {
          // A variable-length variable binds to the relationship list; it
          // cannot be pre-bound (rejected by the parser).
          current_.Set(rp.variable, Value::MakeList(rel_values));
          bound_here = true;
        }
        trail->nodes.pop_back();
        Status finish = MatchNode(path, node_idx + 1, pattern_idx, &at, trail);
        trail->nodes.push_back(at);
        if (bound_here) current_.Erase(rp.variable);
        SERAPH_RETURN_IF_ERROR(finish);
      }
      if (depth == max_hops) return Status::OK();
      return ForEachIncident(
          at, rp.direction, [&](RelId rid, NodeId other) -> Status {
            if (used_rels_.contains(rid)) return Status::OK();
            SERAPH_ASSIGN_OR_RETURN(bool ok, RelSatisfies(rid, rp));
            if (!ok) return Status::OK();
            const bool filter_live = filter_live_;
            if (!TrailFilterKeeps(path, rid)) return Status::OK();
            used_rels_.insert(rid);
            rel_values.push_back(Value::Relationship(rid));
            trail->rels.push_back(rid);
            trail->nodes.push_back(other);
            Status s = expand(other, depth + 1);
            trail->nodes.pop_back();
            trail->rels.pop_back();
            rel_values.pop_back();
            used_rels_.erase(rid);
            filter_live_ = filter_live;
            return s;
          });
    };
    return expand(from, 0);
  }

  // Completes one path pattern: binds its path variable (if any) and moves
  // on to the next pattern in the clause.
  Status FinishPath(const PathPattern& path, size_t pattern_idx,
                    PathValue* trail) {
    bool bound_here = false;
    if (!path.path_variable.empty()) {
      PathValue value = *trail;
      current_.Set(path.path_variable, Value::Path(std::move(value)));
      bound_here = true;
    }
    // Relationships of this completed pattern stay "used" for the
    // remaining patterns of the clause.
    std::vector<RelId> pinned = trail->rels;
    for (RelId r : pinned) clause_rels_.insert(r);
    std::set<RelId> saved_used = used_rels_;
    used_rels_.clear();
    used_rels_.insert(clause_rels_.begin(), clause_rels_.end());
    const PathValue* saved_trail = emitting_trail_;
    emitting_trail_ = trail;
    Status s = MatchPattern(pattern_idx + 1);
    emitting_trail_ = saved_trail;
    used_rels_ = std::move(saved_used);
    for (RelId r : pinned) clause_rels_.erase(r);
    if (bound_here) current_.Erase(path.path_variable);
    return s;
  }

  // ---- shortestPath ----

  Status MatchShortest(const PathPattern& path, size_t pattern_idx) {
    if (path.nodes.size() != 2 || path.rels.size() != 1) {
      return Status::SemanticError(
          "shortestPath() requires a single relationship pattern between "
          "two nodes");
    }
    const RelPattern& rp = path.rels[0];
    // Enumerate source candidates, BFS to every target candidate.
    const NodePattern& src_np = path.nodes[0];
    const NodePattern& dst_np = path.nodes[1];
    SERAPH_ASSIGN_OR_RETURN(
        std::vector<NodeId> sources,
        CandidateNodes(src_np, /*use_seed_slice=*/pattern_idx == 0));
    for (NodeId src : sources) {
      bool src_bound_here = false;
      if (!src_np.variable.empty() && !current_.Has(src_np.variable)) {
        current_.Set(src_np.variable, Value::Node(src));
        src_bound_here = true;
      }
      SERAPH_ASSIGN_OR_RETURN(std::vector<NodeId> targets,
                              CandidateNodes(dst_np));
      for (NodeId dst : targets) {
        if (dst == src) continue;
        bool dst_bound_here = false;
        if (!dst_np.variable.empty() && !current_.Has(dst_np.variable)) {
          current_.Set(dst_np.variable, Value::Node(dst));
          dst_bound_here = true;
        }
        SERAPH_RETURN_IF_ERROR(EmitShortestPaths(path, rp, src, dst,
                                                 pattern_idx));
        if (dst_bound_here) current_.Erase(dst_np.variable);
      }
      if (src_bound_here) current_.Erase(src_np.variable);
    }
    return Status::OK();
  }

  // BFS from src to dst; emits the first shortest path (kShortest) or all
  // paths of minimal length (kAllShortest).
  Status EmitShortestPaths(const PathPattern& path, const RelPattern& rp,
                           NodeId src, NodeId dst, size_t pattern_idx) {
    int64_t max_hops = rp.max_hops.value_or(kUnboundedHops);
    int64_t min_hops = rp.min_hops.value_or(1);
    // BFS computing distance labels.
    std::unordered_map<NodeId, int64_t> dist;
    dist[src] = 0;
    std::deque<NodeId> frontier{src};
    bool reached = false;
    while (!frontier.empty() && !reached) {
      NodeId at = frontier.front();
      frontier.pop_front();
      if (dist[at] == max_hops) continue;
      Status s = ForEachIncident(
          at, rp.direction, [&](RelId rid, NodeId other) -> Status {
            SERAPH_ASSIGN_OR_RETURN(bool ok, RelSatisfies(rid, rp));
            if (!ok) return Status::OK();
            if (!dist.contains(other)) {
              dist[other] = dist[at] + 1;
              if (other == dst) reached = true;
              frontier.push_back(other);
            }
            return Status::OK();
          });
      if (!s.ok()) return s;
    }
    auto it = dist.find(dst);
    if (it == dist.end() || it->second < min_hops) return Status::OK();
    int64_t shortest = it->second;
    // Enumerate paths of exactly `shortest` hops via depth-limited DFS
    // guided by the distance labels (each step must decrease the remaining
    // distance, so this only walks shortest paths).
    PathValue trail;
    trail.nodes.push_back(src);
    bool emitted = false;
    std::function<Status(NodeId)> walk = [&](NodeId at) -> Status {
      if (emitted && path.mode == PathMode::kShortest) return Status::OK();
      int64_t at_depth = static_cast<int64_t>(trail.rels.size());
      if (at == dst && at_depth == shortest) {
        emitted = true;
        return EmitPath(path, trail, pattern_idx);
      }
      if (at_depth == shortest) return Status::OK();
      return ForEachIncident(
          at, rp.direction, [&](RelId rid, NodeId other) -> Status {
            if (emitted && path.mode == PathMode::kShortest) {
              return Status::OK();
            }
            SERAPH_ASSIGN_OR_RETURN(bool ok, RelSatisfies(rid, rp));
            if (!ok) return Status::OK();
            // Prune: `other` must be strictly closer to completion.
            auto dother = dist.find(other);
            if (dother == dist.end() || dother->second != at_depth + 1) {
              return Status::OK();
            }
            trail.rels.push_back(rid);
            trail.nodes.push_back(other);
            Status s = walk(other);
            trail.nodes.pop_back();
            trail.rels.pop_back();
            return s;
          });
    };
    return walk(src);
  }

  // Binds the path variable / relationship list of a shortest path and
  // continues with the remaining patterns.
  Status EmitPath(const PathPattern& path, const PathValue& trail,
                  size_t pattern_idx) {
    const RelPattern& rp = path.rels[0];
    bool rel_bound = false;
    if (!rp.variable.empty()) {
      Value::List rels;
      for (RelId r : trail.rels) rels.push_back(Value::Relationship(r));
      current_.Set(rp.variable, Value::MakeList(std::move(rels)));
      rel_bound = true;
    }
    bool path_bound = false;
    if (!path.path_variable.empty()) {
      current_.Set(path.path_variable, Value::Path(trail));
      path_bound = true;
    }
    Status s = MatchPattern(pattern_idx + 1);
    if (path_bound) current_.Erase(path.path_variable);
    if (rel_bound) current_.Erase(rp.variable);
    return s;
  }

  // ---- Candidate enumeration and constraint checks ----

  // `use_seed_slice` routes the shortestPath source enumeration of the
  // first processed pattern through the morsel's seed slice.
  Result<std::vector<NodeId>> CandidateNodes(const NodePattern& np,
                                             bool use_seed_slice = false) {
    std::vector<NodeId> out;
    if (!np.variable.empty()) {
      const Value* existing = current_.Find(np.variable);
      if (existing != nullptr) {
        if (existing->is_node()) {
          SERAPH_ASSIGN_OR_RETURN(bool ok,
                                  NodeSatisfies(existing->AsNode(), np));
          if (ok) out.push_back(existing->AsNode());
        }
        return out;
      }
    }
    auto consider = [&](NodeId id) -> Status {
      SERAPH_ASSIGN_OR_RETURN(bool ok, NodeSatisfies(id, np));
      if (ok) out.push_back(id);
      return Status::OK();
    };
    if (use_seed_slice && seed_begin_ != nullptr) {
      for (const NodeId* it = seed_begin_; it != seed_end_; ++it) {
        SERAPH_RETURN_IF_ERROR(consider(*it));
      }
      return out;
    }
    if (const std::string* label = MostSelectiveLabel(np, graph_)) {
      for (NodeId id : graph_.NodesWithLabelSet(*label)) {
        SERAPH_RETURN_IF_ERROR(consider(id));
      }
      return out;
    }
    for (NodeId id : graph_.NodeIds()) {
      SERAPH_RETURN_IF_ERROR(consider(id));
    }
    return out;
  }

  Result<bool> NodeSatisfies(NodeId id, const NodePattern& np) {
    const NodeData* data = graph_.node(id);
    if (data == nullptr) return false;
    for (const std::string& label : np.labels) {
      if (!data->labels.contains(label)) return false;
    }
    for (const auto& [key, expr] : np.properties) {
      ctx_.set_record(&current_);
      SERAPH_ASSIGN_OR_RETURN(Value expected, expr->Eval(ctx_));
      auto it = data->properties.find(key);
      if (it == data->properties.end()) return false;
      if (!IsTruthy(CypherEquals(it->second, expected))) return false;
    }
    return true;
  }

  Result<bool> RelSatisfies(RelId id, const RelPattern& rp) {
    const RelData* data = graph_.relationship(id);
    if (data == nullptr) return false;
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
    for (const auto& [key, expr] : rp.properties) {
      ctx_.set_record(&current_);
      SERAPH_ASSIGN_OR_RETURN(Value expected, expr->Eval(ctx_));
      auto it = data->properties.find(key);
      if (it == data->properties.end()) return false;
      if (!IsTruthy(CypherEquals(it->second, expected))) return false;
    }
    return true;
  }

  // Whether the trail filter lets relationship `rid` extend `path`'s trail:
  // false only when P is false. When P fails or is not boolean, the filter
  // goes off for the rest of the branch (the caller restores filter_live_
  // as the branch unwinds), so its trails reach the WHERE, which raises the
  // same error at the same row. Null extends: ALL reads on past it.
  bool TrailFilterKeeps(const PathPattern& path, RelId rid) {
    if (!filter_live_ || &path != filter_->path) return true;
    ctx_.set_record(&current_);
    ctx_.PushLocal(filter_->variable, Value::Relationship(rid));
    Result<Value> verdict = filter_->predicate->Eval(ctx_);
    ctx_.PopLocal();
    if (verdict.ok() && verdict->is_bool()) return verdict->AsBool();
    if (!verdict.ok() || !verdict->is_null()) filter_live_ = false;
    return true;
  }

  // Applies `fn(rel, other_endpoint)` for each relationship incident to
  // `from` admissible under `direction` (seraph::ForEachIncident).
  template <typename Fn>
  Status ForEachIncident(NodeId from, RelDirection direction, const Fn& fn) {
    // Expansion boundary of the DFS (and of var-length/BFS walks).
    SERAPH_RETURN_IF_ERROR(ctx_.CheckCancelled());
    return seraph::ForEachIncident(
        graph_, from, direction,
        [&fn](RelId rid, NodeId other, int) { return fn(rid, other); });
  }

  const PropertyGraph& graph_;
  EvalContext& ctx_;
  const std::vector<const PathPattern*> patterns_;
  std::vector<Record>* out_;
  // Processing order over patterns_ (a permutation; see PlanPatternOrder).
  std::vector<size_t> order_;

  Record current_;
  // Relationships used by the pattern currently being traversed.
  std::set<RelId> used_rels_;
  // Relationships pinned by already-completed patterns of this clause.
  std::set<RelId> clause_rels_;
  // Optional morsel restriction of the top-level seed scan (not owned).
  const NodeId* seed_begin_ = nullptr;
  const NodeId* seed_end_ = nullptr;
  // Optional emission mirror (MatchPatternWithTrails; not owned). When
  // set, every record pushed to out_ is paired with the trail that
  // produced it; emitting_trail_ points at the live trail of the pattern
  // currently completing (stashed by FinishPath around its recursion).
  std::vector<PathValue>* trails_ = nullptr;
  const PathValue* emitting_trail_ = nullptr;
  // Optional trail filter (not owned) and whether it still prunes the
  // branch being expanded.
  const TrailFilter* filter_ = nullptr;
  bool filter_live_ = false;
};

// The processing order over `views` (identity, or the greedy plan).
std::vector<size_t> ResolveOrder(const std::vector<const PathPattern*>& views,
                                 const PropertyGraph& graph,
                                 const Record& input,
                                 const MatchOptions& options) {
  if (options.optimize_pattern_order && views.size() > 1) {
    return PlanPatternOrder(views, graph, input);
  }
  std::vector<size_t> order(views.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

// The seed domain of the first processed pattern's first node — exactly
// the candidate list the serial scan enumerates (most-selective label
// index, else every node, both in ascending id order). nullopt when the
// scan cannot be partitioned: no patterns, or the seed variable is
// pre-bound by the input record (the scan then visits one pinned node).
std::optional<std::vector<NodeId>> TopLevelSeeds(
    const std::vector<const PathPattern*>& views,
    const std::vector<size_t>& order, const PropertyGraph& graph,
    const Record& input) {
  if (views.empty()) return std::nullopt;
  const PathPattern& first = *views[order[0]];
  if (first.nodes.empty()) return std::nullopt;
  const NodePattern& np = first.nodes.front();
  if (!np.variable.empty() && input.Find(np.variable) != nullptr) {
    return std::nullopt;
  }
  if (const std::string* label = MostSelectiveLabel(np, graph)) {
    const std::set<NodeId>& indexed = graph.NodesWithLabelSet(*label);
    return std::vector<NodeId>(indexed.begin(), indexed.end());
  }
  return graph.NodeIds();
}

// Partitioned execution: `seeds` is cut into fixed-size morsels, each
// matched by an independent Matcher on a pool task (own output vector,
// own relationship-isomorphism state, own EvalContext copy). Serial
// equivalence: between top-level seeds the serial matcher's
// used_rels_/clause_rels_ are empty (every DFS branch erases what it
// inserts on unwind), so per-morsel matchers see identical state, and
// concatenating their outputs in morsel order — ascending seed order —
// reproduces the serial bag, content and order. On failure the morsels
// preceding the first failed one plus that morsel's partial output are
// kept, which is exactly the serial abort point.
Status MatchPartitioned(const std::vector<const PathPattern*>& views,
                        const std::vector<size_t>& order,
                        const std::vector<NodeId>& seeds,
                        const PropertyGraph& graph, const Record& input,
                        EvalContext& ctx, std::vector<Record>* out,
                        const MatchParallelism& par,
                        const TrailFilter* trail_filter) {
  const size_t morsel_size = std::max<size_t>(par.morsel_size, 1);
  const size_t num_morsels = (seeds.size() + morsel_size - 1) / morsel_size;
  std::vector<std::vector<Record>> morsel_out(num_morsels);
  std::vector<Status> morsel_status(num_morsels, Status::OK());
  const int64_t start_micros = TraceRecorder::NowMicros();

  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_morsels);
  for (size_t m = 0; m < num_morsels; ++m) {
    tasks.push_back([&, m] {
      const size_t begin = m * morsel_size;
      const size_t end = std::min(seeds.size(), begin + morsel_size);
      // Private context copy; parallelism cleared so nothing matched
      // inside a morsel (e.g. an exists() predicate) fans out again.
      EvalContext morsel_ctx = ctx;
      morsel_ctx.set_match_parallelism(nullptr);
      Matcher matcher(graph, morsel_ctx, views, &morsel_out[m]);
      matcher.set_order(order);
      matcher.set_seed_slice(seeds.data() + begin, seeds.data() + end);
      matcher.set_trail_filter(trail_filter);
      try {
        morsel_status[m] = matcher.Run(input);
      } catch (const std::exception& e) {
        morsel_status[m] =
            Status::Internal(std::string("match morsel threw: ") + e.what());
      } catch (...) {
        morsel_status[m] = Status::Internal("match morsel threw");
      }
    });
  }
  ThreadPool::BatchPtr batch = par.pool->SubmitBatch(std::move(tasks));
  par.pool->WaitAll(batch);

  // Observability from the submitting thread only — for the engine that
  // is the query's single evaluating worker, so the per-query histogram
  // keeps a single writer.
  if (par.partitions != nullptr) {
    par.partitions->Increment(static_cast<int64_t>(num_morsels));
  }
  if (par.seed_candidates != nullptr) {
    par.seed_candidates->Record(static_cast<int64_t>(seeds.size()));
  }
  if (par.tracer != nullptr && par.tracer->enabled()) {
    par.tracer->AddComplete(
        "match_morsels", "match", start_micros,
        TraceRecorder::NowMicros() - start_micros,
        {{"query", par.query_label},
         {"seeds", std::to_string(seeds.size())},
         {"morsels", std::to_string(num_morsels)},
         {"morsel_size", std::to_string(morsel_size)}});
  }

  size_t emit = num_morsels;
  size_t total = 0;
  for (size_t m = 0; m < num_morsels; ++m) {
    total += morsel_out[m].size();
    if (!morsel_status[m].ok()) {
      emit = m + 1;
      break;
    }
  }
  out->reserve(out->size() + total);
  for (size_t m = 0; m < emit; ++m) {
    for (Record& r : morsel_out[m]) out->push_back(std::move(r));
    if (!morsel_status[m].ok()) return morsel_status[m];
  }
  return Status::OK();
}

// Shared driver behind both public entry points: plans the order, then
// either fans the top-level seed scan out in morsels (pool granted, seed
// variable free, domain at least min_seeds) or runs the serial DFS.
Status MatchViews(const std::vector<const PathPattern*>& views,
                  const PropertyGraph& graph, const Record& input,
                  EvalContext& ctx, std::vector<Record>* out,
                  const MatchOptions& options,
                  const TrailFilter* trail_filter = nullptr) {
  std::vector<size_t> order = ResolveOrder(views, graph, input, options);
  const MatchParallelism* par =
      options.parallel != nullptr ? options.parallel : ctx.match_parallelism();
  if (par != nullptr && par->pool != nullptr && par->pool->size() > 1) {
    std::optional<std::vector<NodeId>> seeds =
        TopLevelSeeds(views, order, graph, input);
    if (seeds.has_value() &&
        seeds->size() >= std::max<size_t>(par->min_seeds, 1)) {
      return MatchPartitioned(views, order, *seeds, graph, input, ctx, out,
                              *par, trail_filter);
    }
  }
  Matcher matcher(graph, ctx, views, out);
  matcher.set_order(std::move(order));
  matcher.set_trail_filter(trail_filter);
  const Record* saved = ctx.record();
  Status s = matcher.Run(input);
  ctx.set_record(saved);
  return s;
}

}  // namespace

Status MatchPatterns(const std::vector<PathPattern>& patterns,
                     const PropertyGraph& graph, const Record& input,
                     EvalContext& ctx, std::vector<Record>* out,
                     const MatchOptions& options,
                     const TrailFilter* trail_filter) {
  std::vector<const PathPattern*> views;
  views.reserve(patterns.size());
  for (const PathPattern& p : patterns) views.push_back(&p);
  return MatchViews(views, graph, input, ctx, out, options, trail_filter);
}

Status MatchSinglePattern(const PathPattern& pattern,
                          const PropertyGraph& graph, const Record& input,
                          EvalContext& ctx, std::vector<Record>* out) {
  // Inherits intra-query parallelism from the context, so a top-level
  // exists(<pattern>) over a large seed domain partitions too.
  return MatchViews({&pattern}, graph, input, ctx, out, MatchOptions{});
}

Status MatchPatternWithTrails(const PathPattern& pattern,
                              const PropertyGraph& graph, const Record& input,
                              EvalContext& ctx, std::vector<Record>* out,
                              std::vector<PathValue>* trails) {
  if (pattern.mode != PathMode::kNormal) {
    return Status::InvalidArgument(
        "MatchPatternWithTrails requires a kNormal path pattern");
  }
  for (const RelPattern& rp : pattern.rels) {
    if (rp.variable_length) {
      return Status::InvalidArgument(
          "MatchPatternWithTrails requires fixed-length relationships");
    }
  }
  // Serial on purpose: the trail order must be the canonical serial DFS
  // order regardless of any parallelism spec in the context.
  Matcher matcher(graph, ctx, {&pattern}, out);
  matcher.set_trail_sink(trails);
  const Record* saved = ctx.record();
  Status s = matcher.Run(input);
  ctx.set_record(saved);
  return s;
}

}  // namespace seraph
