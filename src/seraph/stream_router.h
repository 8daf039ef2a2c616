// Logical sub-stream partitioning (§8 future work (ii)): a router splits
// one physical event feed into named logical streams by predicate; each
// event is delivered to every matching stream of a ContinuousEngine, so
// queries can window over partitions with `WITHIN ... FROM <name>`.
//
//   StreamRouter router;
//   router.AddRoute("rentals", HasRelationshipType("rentedAt"));
//   router.AddRoute("returns", HasRelationshipType("returnedAt"));
//   router.AddRoute("all", AcceptAll());
//   router.Route(&engine, event_graph, t);
//
// The sharded fleet routes through the same class: its Deliver callback
// hands each matching stream to the shards that hold it.
#ifndef SERAPH_SERAPH_STREAM_ROUTER_H_
#define SERAPH_SERAPH_STREAM_ROUTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "seraph/continuous_engine.h"

namespace seraph {

class StreamRouter {
 public:
  // Decides whether an event belongs to a logical stream.
  using Predicate =
      std::function<bool(const PropertyGraph& graph, Timestamp timestamp)>;
  // Hands an event to logical stream `stream` wherever it lives; returns
  // the number of deliveries made (one per engine it reached).
  using Deliver = std::function<Result<int>(
      const std::string& stream,
      const std::shared_ptr<const PropertyGraph>& graph, Timestamp timestamp)>;

  // Adds a route; one event may match any number of routes. Re-adding a
  // stream replaces its predicate.
  void AddRoute(std::string stream, Predicate predicate);

  // Exposes routing counters through `registry` (not owned; typically the
  // engine's): `seraph_router_routed_total{stream=...}` counts deliveries
  // per route and `seraph_router_dropped_total` events matching no route.
  // Existing and future routes are both covered; null detaches.
  void BindMetrics(MetricsRegistry* registry);

  // Calls `deliver` once per matching route, in route order. Returns the
  // deliveries made, or the first delivery error.
  Result<int> Route(const std::shared_ptr<const PropertyGraph>& graph,
                    Timestamp timestamp, const Deliver& deliver) const;

  // Delivers the event to every matching logical stream of `engine`.
  // Returns the number of streams it was delivered to.
  Result<int> Route(ContinuousEngine* engine,
                    std::shared_ptr<const PropertyGraph> graph,
                    Timestamp timestamp) const;

  // Cumulative events that matched no route (counted even when metrics
  // are unbound).
  int64_t dropped_total() const { return dropped_total_; }

 private:
  struct RouteEntry {
    std::string stream;
    Predicate predicate;
    Counter* routed = nullptr;  // Owned by the bound registry.
  };

  Counter* ResolveRoutedCounter(const std::string& stream) const;

  std::vector<RouteEntry> routes_;
  MetricsRegistry* registry_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  mutable int64_t dropped_total_ = 0;
};

// ---- Common predicates ----

// Every event.
StreamRouter::Predicate AcceptAll();

// Events containing at least one node with `label`.
StreamRouter::Predicate HasLabel(std::string label);

// Events containing at least one relationship of `type`.
StreamRouter::Predicate HasRelationshipType(std::string type);

// Events where some node's `key` property equals `value` (partitioning by
// key, e.g. region or tenant).
StreamRouter::Predicate NodePropertyEquals(std::string key, Value value);

}  // namespace seraph

#endif  // SERAPH_SERAPH_STREAM_ROUTER_H_
