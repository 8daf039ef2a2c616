#include "seraph/stream_router.h"

namespace seraph {

void StreamRouter::BindMetrics(MetricsRegistry* registry) {
  registry_ = registry;
  dropped_counter_ = registry_ != nullptr
                         ? registry_->CounterFor("seraph_router_dropped_total")
                         : nullptr;
  for (RouteEntry& route : routes_) {
    route.routed = ResolveRoutedCounter(route.stream);
  }
}

Counter* StreamRouter::ResolveRoutedCounter(const std::string& stream) const {
  if (registry_ == nullptr) return nullptr;
  return registry_->CounterFor(
      "seraph_router_routed_total",
      {{"stream", stream.empty() ? "<default>" : stream}});
}

void StreamRouter::AddRoute(std::string stream, Predicate predicate) {
  for (RouteEntry& route : routes_) {
    if (route.stream == stream) {
      route.predicate = std::move(predicate);
      return;
    }
  }
  Counter* routed = ResolveRoutedCounter(stream);
  routes_.push_back(
      RouteEntry{std::move(stream), std::move(predicate), routed});
}

Result<int> StreamRouter::Route(
    const std::shared_ptr<const PropertyGraph>& graph, Timestamp timestamp,
    const Deliver& deliver) const {
  int delivered = 0;
  bool matched = false;
  for (const RouteEntry& route : routes_) {
    if (!route.predicate(*graph, timestamp)) continue;
    matched = true;
    SERAPH_ASSIGN_OR_RETURN(int made,
                            deliver(route.stream, graph, timestamp));
    if (route.routed != nullptr) route.routed->Increment(made);
    delivered += made;
  }
  if (!matched) {
    ++dropped_total_;
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
  }
  return delivered;
}

Result<int> StreamRouter::Route(ContinuousEngine* engine,
                                std::shared_ptr<const PropertyGraph> graph,
                                Timestamp timestamp) const {
  return Route(graph, timestamp,
               [engine](const std::string& stream,
                        const std::shared_ptr<const PropertyGraph>& element,
                        Timestamp t) -> Result<int> {
                 SERAPH_RETURN_IF_ERROR(engine->IngestTo(stream, element, t));
                 return 1;
               });
}

StreamRouter::Predicate AcceptAll() {
  return [](const PropertyGraph&, Timestamp) { return true; };
}

StreamRouter::Predicate HasLabel(std::string label) {
  return [label = std::move(label)](const PropertyGraph& graph, Timestamp) {
    return graph.CountNodesWithLabel(label) > 0;
  };
}

StreamRouter::Predicate HasRelationshipType(std::string type) {
  return [type = std::move(type)](const PropertyGraph& graph, Timestamp) {
    return !graph.RelationshipsWithType(type).empty();
  };
}

StreamRouter::Predicate NodePropertyEquals(std::string key, Value value) {
  return [key = std::move(key), value = std::move(value)](
             const PropertyGraph& graph, Timestamp) {
    for (NodeId id : graph.NodeIds()) {
      if (graph.NodeProperty(id, key) == value) return true;
    }
    return false;
  };
}

}  // namespace seraph
