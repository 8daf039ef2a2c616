// Logical sub-stream partitioning (§8 (ii)) via StreamRouter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "seraph/stream_router.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

std::shared_ptr<const PropertyGraph> Rental(int64_t id, int64_t region) {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder()
          .Node(id, {"Bike"}, {{"id", Value::Int(id)}})
          .Node(1000 + region, {"Station"},
                {{"region", Value::Int(region)}})
          .Rel(id, id, 1000 + region, "rentedAt")
          .Build());
}

std::shared_ptr<const PropertyGraph> Return(int64_t id, int64_t region) {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder()
          .Node(id, {"Bike"}, {{"id", Value::Int(id)}})
          .Node(1000 + region, {"Station"},
                {{"region", Value::Int(region)}})
          .Rel(100 + id, id, 1000 + region, "returnedAt")
          .Build());
}

TEST(StreamRouterTest, RoutesByRelationshipType) {
  ContinuousEngine engine;
  StreamRouter router;
  router.AddRoute("rentals", HasRelationshipType("rentedAt"));
  router.AddRoute("returns", HasRelationshipType("returnedAt"));
  router.AddRoute("all", AcceptAll());

  auto d1 = router.Route(&engine, Rental(1, 1), T(1));
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, 2);  // rentals + all.
  auto d2 = router.Route(&engine, Return(1, 1), T(2));
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d2, 2);  // returns + all.

  EXPECT_EQ(engine.stream("rentals").size(), 1u);
  EXPECT_EQ(engine.stream("returns").size(), 1u);
  EXPECT_EQ(engine.stream("all").size(), 2u);
  EXPECT_EQ(engine.stream().size(), 0u);  // Default stream untouched.
}

TEST(StreamRouterTest, PartitionByPropertyValue) {
  ContinuousEngine engine;
  StreamRouter router;
  router.AddRoute("north", NodePropertyEquals("region", Value::Int(1)));
  router.AddRoute("south", NodePropertyEquals("region", Value::Int(2)));
  ASSERT_TRUE(router.Route(&engine, Rental(1, 1), T(1)).ok());
  ASSERT_TRUE(router.Route(&engine, Rental(2, 2), T(2)).ok());
  ASSERT_TRUE(router.Route(&engine, Rental(3, 1), T(3)).ok());
  EXPECT_EQ(engine.stream("north").size(), 2u);
  EXPECT_EQ(engine.stream("south").size(), 1u);
}

TEST(StreamRouterTest, RoutesByLabel) {
  ContinuousEngine engine;
  StreamRouter router;
  router.AddRoute("stations", HasLabel("Station"));
  router.AddRoute("people", HasLabel("Person"));
  auto delivered = router.Route(&engine, Rental(1, 1), T(1));
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 1);  // Stations only: rentals carry no Person.
  EXPECT_EQ(engine.stream("stations").size(), 1u);
  EXPECT_EQ(engine.stream("people").size(), 0u);
}

TEST(StreamRouterTest, UnmatchedEventsGoNowhere) {
  ContinuousEngine engine;
  StreamRouter router;
  router.AddRoute("labeled", HasLabel("Nope"));
  auto delivered = router.Route(&engine, Rental(1, 1), T(1));
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 0);
  EXPECT_EQ(router.dropped_total(), 1);
}

// The routing observability surface: BindMetrics exposes one
// seraph_router_routed_total{stream=...} counter per route — covering
// routes added before AND after the bind — plus the fleet-level
// seraph_router_dropped_total for events matching no route. All four
// predicate builders flow through the counters.
TEST(StreamRouterTest, BindMetricsCountsRoutedAndDropped) {
  ContinuousEngine engine;
  MetricsRegistry registry;
  StreamRouter router;
  router.AddRoute("rentals", HasRelationshipType("rentedAt"));  // Pre-bind.
  router.BindMetrics(&registry);
  router.AddRoute("north", NodePropertyEquals("region", Value::Int(1)));
  router.AddRoute("bikes", HasLabel("Bike"));
  router.AddRoute("", AcceptAll());  // Default stream → "<default>" label.

  // Rental(1, 1): rentals + north + bikes + default.
  ASSERT_TRUE(router.Route(&engine, Rental(1, 1), T(1)).ok());
  // Return(2, 2): bikes + default (wrong type, wrong region).
  ASSERT_TRUE(router.Route(&engine, Return(2, 2), T(2)).ok());

  auto count = [&](const std::string& stream) {
    const Counter* counter = registry.FindCounter(
        "seraph_router_routed_total", {{"stream", stream}});
    return counter == nullptr ? int64_t{-1} : counter->value();
  };
  EXPECT_EQ(count("rentals"), 1);
  EXPECT_EQ(count("north"), 1);
  EXPECT_EQ(count("bikes"), 2);
  EXPECT_EQ(count("<default>"), 2);
  // Every event matched something: no drops yet.
  const Counter* dropped =
      registry.FindCounter("seraph_router_dropped_total", {});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 0);

  // An event matching no route counts as dropped (the Station-only graph
  // has no Bike node, no rentedAt, and region 3).
  auto station_only = std::make_shared<const PropertyGraph>(
      GraphBuilder()
          .Node(2000, {"Depot"}, {{"region", Value::Int(3)}})
          .Build());
  StreamRouter strict;
  strict.BindMetrics(&registry);
  strict.AddRoute("rentals", HasRelationshipType("rentedAt"));
  auto delivered = strict.Route(&engine, station_only, T(3));
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 0);
  EXPECT_EQ(strict.dropped_total(), 1);
  EXPECT_EQ(dropped->value(), 1);
}

TEST(StreamRouterTest, PartitionedQueriesSeeOnlyTheirSubStream) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY north_rentals STARTING AT '1970-01-01T00:05'
    {
      MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT30M FROM north
      EMIT b.id EVERY PT5M
    })")
                  .ok());
  StreamRouter router;
  router.AddRoute("north", NodePropertyEquals("region", Value::Int(1)));
  router.AddRoute("south", NodePropertyEquals("region", Value::Int(2)));
  ASSERT_TRUE(router.Route(&engine, Rental(1, 1), T(1)).ok());
  ASSERT_TRUE(router.Route(&engine, Rental(2, 2), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  auto result = sink.ResultAt("north_rentals", T(5));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->table.size(), 1u);
  EXPECT_EQ(result->table.rows()[0].GetOrNull("b.id"), Value::Int(1));
}

// The callback form the sharded fleet routes through: one call per
// matching route, in route order, whose delivery count feeds both the
// return value and the routed counter. Re-adding a stream replaces its
// predicate instead of adding a second route.
TEST(StreamRouterTest, CallbackFormCountsDeliveriesAndRedeclaringReplaces) {
  MetricsRegistry registry;
  StreamRouter router;
  router.BindMetrics(&registry);
  router.AddRoute("", AcceptAll());
  router.AddRoute("returns", HasRelationshipType("returnedAt"));
  router.AddRoute("returns", HasRelationshipType("rentedAt"));

  std::vector<std::string> calls;
  auto deliver = [&calls](const std::string& stream,
                          const std::shared_ptr<const PropertyGraph>&,
                          Timestamp) -> Result<int> {
    calls.push_back(stream);
    return stream.empty() ? 3 : 1;  // "" on three engines, "returns" on one.
  };
  auto delivered = router.Route(Rental(1, 1), T(1), deliver);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 4);
  EXPECT_EQ(calls, (std::vector<std::string>{"", "returns"}));
  // The replaced predicate no longer matches returns.
  ASSERT_TRUE(router.Route(Return(1, 1), T(2), deliver).ok());
  EXPECT_EQ(calls.size(), 3u);

  auto count = [&](const std::string& stream) {
    return registry
        .FindCounter("seraph_router_routed_total", {{"stream", stream}})
        ->value();
  };
  EXPECT_EQ(count("<default>"), 6);
  EXPECT_EQ(count("returns"), 1);

  // A failed delivery surfaces as the route's error.
  auto failed = router.Route(
      Rental(2, 1), T(3),
      [](const std::string&, const std::shared_ptr<const PropertyGraph>&,
         Timestamp) -> Result<int> { return Status::Unavailable("down"); });
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace seraph
