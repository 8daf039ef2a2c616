#include "seraph/delta/match_index.h"

#include <algorithm>

#include "cypher/eval.h"
#include "cypher/matcher.h"

namespace seraph {

namespace {

// Whether `properties` carry every (key, value) pair.
bool HasValues(const Value::Map& properties,
               const std::vector<std::pair<std::string, Value>>& values) {
  for (const auto& [key, expected] : values) {
    auto it = properties.find(key);
    if (it == properties.end()) return false;
    if (!IsTruthy(CypherEquals(it->second, expected))) return false;
  }
  return true;
}

// The pairs of `a` that `b` holds too.
void KeepShared(std::vector<std::pair<std::string, Value>>* a,
                const std::vector<std::pair<std::string, Value>>& b) {
  std::erase_if(*a, [&](const std::pair<std::string, Value>& pair) {
    return std::find(b.begin(), b.end(), pair) == b.end();
  });
}

// For each position, the first position holding the same (non-empty)
// variable: itself unless the variable repeats an earlier one.
template <typename Pattern>
std::vector<size_t> VariableClasses(const std::vector<Pattern>& positions) {
  std::vector<size_t> classes(positions.size());
  for (size_t j = 0; j < positions.size(); ++j) {
    classes[j] = j;
    if (positions[j].variable.empty()) continue;
    for (size_t k = 0; k < j; ++k) {
      if (positions[k].variable == positions[j].variable) {
        classes[j] = k;
        break;
      }
    }
  }
  return classes;
}

std::vector<std::string> SortedUnique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// Length-prefixed, so no label or type can forge a separator.
void AppendNames(std::string* out, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    *out += std::to_string(name.size()) + ":" + name;
  }
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

bool PatternProperties::Hold(const PropertyGraph& graph,
                             const PathValue& trail) const {
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].empty()) continue;
    const NodeData* data = graph.node(trail.nodes[j]);
    if (data == nullptr || !HasValues(data->properties, nodes[j])) {
      return false;
    }
  }
  for (size_t i = 0; i < rels.size(); ++i) {
    if (rels[i].empty()) continue;
    const RelData* data = graph.relationship(trail.rels[i]);
    if (data == nullptr || !HasValues(data->properties, rels[i])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Skeleton and readers
// ---------------------------------------------------------------------------

std::string MatchIndex::SkeletonKey(const PathPattern& pattern) {
  const std::vector<size_t> node_class = VariableClasses(pattern.nodes);
  const std::vector<size_t> rel_class = VariableClasses(pattern.rels);
  std::string key;
  for (size_t j = 0; j < pattern.nodes.size(); ++j) {
    key += "(";
    AppendNames(&key, SortedUnique(pattern.nodes[j].labels));
    if (node_class[j] != j) key += "=" + std::to_string(node_class[j]);
    key += ")";
    if (j == pattern.rels.size()) break;
    const RelPattern& rp = pattern.rels[j];
    key += rp.direction == RelDirection::kOutgoing   ? "[>"
           : rp.direction == RelDirection::kIncoming ? "[<"
                                                     : "[-";
    AppendNames(&key, SortedUnique(rp.types));
    if (rel_class[j] != j) key += "=" + std::to_string(rel_class[j]);
    key += "]";
  }
  return key;
}

MatchIndex::MatchIndex(const PathPattern& pattern)
    : node_class_(VariableClasses(pattern.nodes)),
      rel_class_(VariableClasses(pattern.rels)) {
  for (const NodePattern& np : pattern.nodes) labels_.push_back(np.labels);
  for (const RelPattern& rp : pattern.rels) {
    types_.push_back(rp.types);
    directions_.push_back(rp.direction);
  }
  required_.nodes.resize(labels_.size());
  required_.rels.resize(types_.size());
}

PatternProperties MatchIndex::Required() const {
  PatternProperties required;
  required.nodes.resize(labels_.size());
  required.rels.resize(types_.size());
  if (readers_.empty()) return required;
  required = *readers_.front();
  for (const PatternProperties* reader : readers_) {
    for (size_t j = 0; j < required.nodes.size(); ++j) {
      KeepShared(&required.nodes[j], reader->nodes[j]);
    }
    for (size_t i = 0; i < required.rels.size(); ++i) {
      KeepShared(&required.rels[i], reader->rels[i]);
    }
  }
  return required;
}

void MatchIndex::AddReader(const PatternProperties* properties) {
  readers_.push_back(properties);
  PatternProperties required = Required();
  if (required == required_) return;
  required_ = std::move(required);
  Invalidate();
}

void MatchIndex::RemoveReader(const PatternProperties* properties) {
  std::erase(readers_, properties);
  PatternProperties required = Required();
  if (required == required_) return;
  required_ = std::move(required);
  Invalidate();
}

void MatchIndex::Invalidate() {
  valid_ = false;
  applied_advances_ = 0;
  erased_.clear();
  inserted_.clear();
  matches_.clear();
  node_keys_.clear();
  rel_keys_.clear();
}

// ---------------------------------------------------------------------------
// Index maintenance
// ---------------------------------------------------------------------------

void MatchIndex::Publish(bool build) {
  published_from_ = version_;
  ++version_;
  published_build_ = build;
  erased_.clear();
  inserted_.clear();
}

void MatchIndex::AddMatch(Key key, PathValue trail) {
  auto [it, inserted] = matches_.try_emplace(std::move(key));
  if (!inserted) return;
  it->second = std::move(trail);
  const Key* kp = &it->first;
  for (NodeId n : it->second.nodes) node_keys_[n].insert(kp);
  for (RelId r : it->second.rels) rel_keys_[r].insert(kp);
  if (!published_build_) inserted_.push_back(it);
}

void MatchIndex::RemoveMatch(const Key& key) {
  auto it = matches_.find(key);
  if (it == matches_.end()) return;
  const Key* kp = &it->first;
  const PathValue& trail = it->second;
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

bool MatchIndex::NodeOk(const PropertyGraph& graph, size_t pos,
                        NodeId id) const {
  const NodeData* data = graph.node(id);
  if (data == nullptr) return false;
  for (const std::string& label : labels_[pos]) {
    if (!data->labels.contains(label)) return false;
  }
  return HasValues(data->properties, required_.nodes[pos]);
}

bool MatchIndex::RelOk(const PropertyGraph& graph, size_t pos,
                       RelId id) const {
  const RelData* data = graph.relationship(id);
  if (data == nullptr) return false;
  const std::vector<std::string>& types = types_[pos];
  if (!types.empty() &&
      std::find(types.begin(), types.end(), data->type) == types.end()) {
    return false;
  }
  return HasValues(data->properties, required_.rels[pos]);
}

// ---------------------------------------------------------------------------
// Anchored rediscovery
// ---------------------------------------------------------------------------

// One in-flight anchored DFS: a contiguous range [left, right] of bound
// node positions (plus the rels between them), with repeated-variable
// pinning (by variable class) and per-match relationship isomorphism.
struct MatchIndex::Search {
  std::vector<NodeId> nodes;
  std::vector<RelId> rels;
  std::vector<int> buckets;
  std::vector<std::optional<NodeId>> node_pins;
  std::vector<std::optional<RelId>> rel_pins;
  std::set<RelId> used_rels;

  explicit Search(size_t num_nodes)
      : nodes(num_nodes), rels(num_nodes > 0 ? num_nodes - 1 : 0),
        buckets(rels.size()), node_pins(num_nodes), rel_pins(rels.size()) {}

  // Pins `id` to variable class `c`; returns false on a clash, sets
  // *bound_here when this bind introduced the pin (so the caller can undo
  // it on unwind).
  template <typename Id>
  static bool Pin(std::vector<std::optional<Id>>* pins, size_t c, Id id,
                  bool* bound_here) {
    *bound_here = false;
    std::optional<Id>& pin = (*pins)[c];
    if (pin.has_value()) return *pin == id;
    pin = id;
    *bound_here = true;
    return true;
  }
};

void MatchIndex::RecordMatch(const Search& s) {
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
}

Status MatchIndex::ExtendRight(const PropertyGraph& graph, Search* s,
                               size_t right, size_t left) {
  if (right + 1 == labels_.size()) return ExtendLeft(graph, s, left);
  const size_t rc = rel_class_[right];
  const size_t nc = node_class_[right + 1];
  return ForEachIncident(
      graph, s->nodes[right], directions_[right],
      [&](RelId rid, NodeId other, int bucket) -> Status {
        if (s->used_rels.contains(rid)) return Status::OK();
        if (!RelOk(graph, right, rid)) return Status::OK();
        if (!NodeOk(graph, right + 1, other)) return Status::OK();
        bool rel_bound = false, node_bound = false;
        if (!Search::Pin(&s->rel_pins, rc, rid, &rel_bound)) {
          return Status::OK();
        }
        if (!Search::Pin(&s->node_pins, nc, other, &node_bound)) {
          if (rel_bound) s->rel_pins[rc].reset();
          return Status::OK();
        }
        s->used_rels.insert(rid);
        s->rels[right] = rid;
        s->buckets[right] = bucket;
        s->nodes[right + 1] = other;
        Status st = ExtendRight(graph, s, right + 1, left);
        s->used_rels.erase(rid);
        if (node_bound) s->node_pins[nc].reset();
        if (rel_bound) s->rel_pins[rc].reset();
        return st;
      });
}

Status MatchIndex::ExtendLeft(const PropertyGraph& graph, Search* s,
                              size_t left) {
  if (left == 0) {
    RecordMatch(*s);
    return Status::OK();
  }
  const size_t rc = rel_class_[left - 1];
  const size_t nc = node_class_[left - 1];
  return ForEachBackward(
      graph, s->nodes[left], directions_[left - 1],
      [&](RelId rid, NodeId prev, int bucket) -> Status {
        if (s->used_rels.contains(rid)) return Status::OK();
        if (!RelOk(graph, left - 1, rid)) return Status::OK();
        if (!NodeOk(graph, left - 1, prev)) return Status::OK();
        bool rel_bound = false, node_bound = false;
        if (!Search::Pin(&s->rel_pins, rc, rid, &rel_bound)) {
          return Status::OK();
        }
        if (!Search::Pin(&s->node_pins, nc, prev, &node_bound)) {
          if (rel_bound) s->rel_pins[rc].reset();
          return Status::OK();
        }
        s->used_rels.insert(rid);
        s->rels[left - 1] = rid;
        s->buckets[left - 1] = bucket;
        s->nodes[left - 1] = prev;
        Status st = ExtendLeft(graph, s, left - 1);
        s->used_rels.erase(rid);
        if (node_bound) s->node_pins[nc].reset();
        if (rel_bound) s->rel_pins[rc].reset();
        return st;
      });
}

Status MatchIndex::AnchorNode(const PropertyGraph& graph, NodeId id,
                              size_t pos) {
  if (!NodeOk(graph, pos, id)) return Status::OK();
  Search s(labels_.size());
  bool bound = false;
  Search::Pin(&s.node_pins, node_class_[pos], id, &bound);
  s.nodes[pos] = id;
  return ExtendRight(graph, &s, pos, pos);
}

Status MatchIndex::AnchorRel(const PropertyGraph& graph, RelId id,
                             size_t pos) {
  const RelData* data = graph.relationship(id);
  if (data == nullptr) return Status::OK();
  if (!RelOk(graph, pos, id)) return Status::OK();
  const RelDirection direction = directions_[pos];
  // Endpoint orientations admissible under the pattern direction, mirrored
  // from the forward traversal: kOutgoing pins (src, trg); kIncoming pins
  // (trg, src) and never matches self-loops; kUndirected tries both, the
  // reversed reading only for non-self-loops (the forward in-list skip).
  struct Orientation {
    NodeId left, right;
    int bucket;
  };
  std::vector<Orientation> orientations;
  if (direction != RelDirection::kIncoming) {
    orientations.push_back({data->src, data->trg, 0});
  }
  if (direction != RelDirection::kOutgoing && data->src != data->trg) {
    orientations.push_back({data->trg, data->src, 1});
  }
  for (const Orientation& o : orientations) {
    if (!NodeOk(graph, pos, o.left)) continue;
    if (!NodeOk(graph, pos + 1, o.right)) continue;
    Search s(labels_.size());
    bool bound = false;
    Search::Pin(&s.rel_pins, rel_class_[pos], id, &bound);
    Search::Pin(&s.node_pins, node_class_[pos], o.left, &bound);
    if (!Search::Pin(&s.node_pins, node_class_[pos + 1], o.right, &bound)) {
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
// Build / repair
// ---------------------------------------------------------------------------

Status MatchIndex::Build(const PropertyGraph& graph, int64_t advances,
                         const CancellationToken* cancellation) {
  Invalidate();
  Publish(/*build=*/true);
  // Every match, found by the DFS that repairs the index: each candidate
  // for pattern node 0 anchored at position 0. Discovery order does not
  // matter — the match map is keyed in canonical order. One label index
  // supplies the candidates (NodeOk re-checks the other labels).
  const std::vector<std::string>& first = labels_[0];
  const std::vector<NodeId> seeds =
      first.empty() ? graph.NodeIds() : graph.NodesWithLabel(first.front());
  for (NodeId id : seeds) {
    if (cancellation != nullptr) {
      SERAPH_RETURN_IF_ERROR(cancellation->Check());
    }
    SERAPH_RETURN_IF_ERROR(AnchorNode(graph, id, 0));
  }
  applied_advances_ = advances;
  valid_ = true;
  return Status::OK();
}

void MatchIndex::ObserveAdvance(const IncrementalSnapshotter& snapshotter) {
  if (!valid_) return;
  const int64_t advances = snapshotter.stats().advances;
  if (advances == applied_advances_) return;
  if (advances != applied_advances_ + 1) {
    // Missed one or more advances (the published dirty sets only cover
    // the last one): the index can no longer be repaired incrementally.
    Invalidate();
    return;
  }
  Publish(/*build=*/false);
  Status repaired =
      ApplyDirty(snapshotter.graph(), snapshotter.last_dirty_nodes(),
                 snapshotter.last_dirty_rels());
  if (!repaired.ok()) {
    Invalidate();
    return;
  }
  applied_advances_ = advances;
}

Status MatchIndex::ApplyDirty(const PropertyGraph& graph,
                              const std::vector<NodeId>& dirty_nodes,
                              const std::vector<RelId>& dirty_rels) {
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
  erased_.assign(stale.begin(), stale.end());
  // Phase 2: rediscover every current match containing at least one dirty
  // entity — anchor each dirty entity at each position it could occupy.
  // A match containing several dirty entities is discovered several
  // times; the keyed map collapses duplicates.
  for (NodeId n : dirty_nodes) {
    if (!graph.HasNode(n)) continue;
    for (size_t pos = 0; pos < labels_.size(); ++pos) {
      SERAPH_RETURN_IF_ERROR(AnchorNode(graph, n, pos));
    }
  }
  for (RelId r : dirty_rels) {
    if (!graph.HasRelationship(r)) continue;
    for (size_t pos = 0; pos < types_.size(); ++pos) {
      SERAPH_RETURN_IF_ERROR(AnchorRel(graph, r, pos));
    }
  }
  std::sort(inserted_.begin(), inserted_.end(),
            [](Matches::const_iterator a, Matches::const_iterator b) {
              return a->first < b->first;
            });
  return Status::OK();
}

}  // namespace seraph
