// Workload generators: the exact Figure-1 stream and the scaled synthetic
// generators (determinism, schema, temporal shape).
#include <gtest/gtest.h>

#include "cypher/executor.h"
#include "cypher/parser.h"
#include "workloads/bike_sharing.h"
#include "workloads/network.h"
#include "workloads/pole.h"

namespace seraph {
namespace {

using workloads::Event;

TEST(RunningExampleStreamTest, FiveEventsWithPaperTimestamps) {
  std::vector<Event> events = workloads::BuildRunningExampleStream();
  ASSERT_EQ(events.size(), 5u);
  const char* expected[] = {"14:45", "15:00", "15:15", "15:20", "15:40"};
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].timestamp.ToClockString(), expected[i]);
  }
  // Per-event shapes from Figure 1.
  EXPECT_EQ(events[0].graph.num_relationships(), 1u);
  EXPECT_EQ(events[1].graph.num_relationships(), 3u);
  EXPECT_EQ(events[2].graph.num_relationships(), 1u);
  EXPECT_EQ(events[3].graph.num_relationships(), 2u);
  EXPECT_EQ(events[4].graph.num_relationships(), 1u);
}

TEST(RunningExampleStreamTest, EdgePropertiesMatchNarrative) {
  std::vector<Event> events = workloads::BuildRunningExampleStream();
  const RelData* r1 = events[0].graph.relationship(RelId{1});
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->type, "rentedAt");
  EXPECT_EQ(r1->properties.at("user_id"), Value::Int(1234));
  EXPECT_EQ(r1->properties.at("val_time").AsDateTime().ToClockString(),
            "14:40");
  EXPECT_FALSE(r1->properties.contains("duration"));
  const RelData* r2 = events[1].graph.relationship(RelId{2});
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->type, "returnedAt");
  EXPECT_EQ(r2->properties.at("duration"), Value::Int(15));
}

TEST(BikeSharingGeneratorTest, DeterministicForSeed) {
  workloads::BikeSharingConfig config;
  config.num_events = 12;
  auto a = workloads::GenerateBikeSharingStream(config);
  auto b = workloads::GenerateBikeSharingStream(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].graph, b[i].graph);
  }
  config.seed = 43;
  auto c = workloads::GenerateBikeSharingStream(config);
  bool any_diff = c.size() != a.size();
  for (size_t i = 0; !any_diff && i < std::min(a.size(), c.size()); ++i) {
    any_diff = !(a[i].graph == c[i].graph);
  }
  EXPECT_TRUE(any_diff);
}

TEST(BikeSharingGeneratorTest, SchemaMatchesRunningExample) {
  workloads::BikeSharingConfig config;
  config.num_events = 12;
  auto events = workloads::GenerateBikeSharingStream(config);
  ASSERT_FALSE(events.empty());
  bool saw_rental = false, saw_return = false;
  for (const Event& e : events) {
    for (RelId id : e.graph.RelationshipIds()) {
      const RelData* rel = e.graph.relationship(id);
      ASSERT_TRUE(rel->type == "rentedAt" || rel->type == "returnedAt");
      EXPECT_TRUE(rel->properties.contains("user_id"));
      EXPECT_TRUE(rel->properties.contains("val_time"));
      if (rel->type == "rentedAt") {
        saw_rental = true;
        EXPECT_FALSE(rel->properties.contains("duration"));
      } else {
        saw_return = true;
        EXPECT_TRUE(rel->properties.contains("duration"));
      }
      EXPECT_TRUE(e.graph.node(rel->src)->labels.contains("Bike"));
      EXPECT_TRUE(e.graph.node(rel->trg)->labels.contains("Station"));
    }
  }
  EXPECT_TRUE(saw_rental);
  EXPECT_TRUE(saw_return);
}

TEST(BikeSharingGeneratorTest, TimestampsMonotoneAndBatched) {
  workloads::BikeSharingConfig config;
  config.num_events = 20;
  auto events = workloads::GenerateBikeSharingStream(config);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].timestamp, events[i].timestamp);
  }
  // Every event timestamp lies on the batch grid.
  for (const Event& e : events) {
    EXPECT_EQ((e.timestamp.millis() - config.start.millis()) %
                  config.event_period.millis(),
              0);
  }
}

TEST(BikeSharingGeneratorTest, FraudFractionControlsTrickUsers) {
  workloads::BikeSharingConfig honest;
  honest.fraud_fraction = 0.0;
  honest.num_events = 24;
  // With no fraud users, no sub-20-minute back-to-back chains by
  // construction of the honest duration distribution (rentals last
  // >= 10 minutes and users idle >= 5 minutes between rides; chains with
  // < 5-minute gaps only come from trick users).
  auto events = workloads::GenerateBikeSharingStream(honest);
  ASSERT_FALSE(events.empty());
}

TEST(NetworkGeneratorTest, TopologyShape) {
  workloads::NetworkConfig config;
  config.num_ticks = 3;
  config.failure_probability = 0.0;
  auto events = workloads::GenerateNetworkStream(config);
  ASSERT_EQ(events.size(), 3u);
  const PropertyGraph& g = events[0].graph;
  EXPECT_EQ(g.NodesWithLabel("Rack").size(),
            static_cast<size_t>(config.num_racks));
  EXPECT_EQ(g.NodesWithLabel("Router").size(), 1u);
  EXPECT_EQ(g.NodesWithLabel("Switch").size(),
            static_cast<size_t>(config.layers * config.switches_per_layer));
  // Each tick is a disjoint copy: different node ids per tick.
  EXPECT_EQ(events[1].graph.NodesWithLabel("Router").size(), 1u);
  EXPECT_NE(events[0].graph.NodeIds()[0], events[1].graph.NodeIds()[0]);
}

TEST(NetworkGeneratorTest, HealthyNetworkIsSingleComponent) {
  // §4.1's redundancy property: with no failures every node of a tick's
  // fabric, racks included, has a route to the egress router.
  workloads::NetworkConfig config;
  config.num_ticks = 1;
  config.failure_probability = 0.0;
  auto events = workloads::GenerateNetworkStream(config);
  const PropertyGraph& g = events[0].graph;
  auto query = ParseCypherQuery(
      "MATCH (e:Router), (n) WHERE n <> e "
      "MATCH p = shortestPath((n)-[*]-(e)) RETURN count(p) AS routed");
  ASSERT_TRUE(query.ok()) << query.status();
  auto table = ExecuteQueryOnGraph(*query, g, ExecutionOptions{});
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->size(), 1u);
  EXPECT_EQ(*table->rows()[0].Find("routed"),
            Value::Int(static_cast<int64_t>(g.num_nodes()) - 1));
}

TEST(NetworkGeneratorTest, FailuresRemovePrimaryUplinks) {
  workloads::NetworkConfig none;
  none.num_ticks = 5;
  none.failure_probability = 0.0;
  workloads::NetworkConfig all = none;
  all.failure_probability = 1.0;
  auto healthy = workloads::GenerateNetworkStream(none);
  auto broken = workloads::GenerateNetworkStream(all);
  for (size_t i = 0; i < healthy.size(); ++i) {
    EXPECT_EQ(healthy[i].graph.num_relationships() -
                  broken[i].graph.num_relationships(),
              static_cast<size_t>(none.num_racks));
  }
}

TEST(PoleGeneratorTest, SightingsAndCrimes) {
  workloads::PoleConfig config;
  config.num_events = 10;
  config.crime_probability = 1.0;
  auto events = workloads::GeneratePoleStream(config);
  ASSERT_EQ(events.size(), 10u);
  for (const Event& e : events) {
    EXPECT_EQ(e.graph.RelationshipsWithType("OCCURRED_AT").size(), 1u);
    EXPECT_EQ(e.graph.RelationshipsWithType("PRESENT_AT").size(),
              static_cast<size_t>(config.sightings_per_event));
    EXPECT_EQ(e.graph.NodesWithLabel("Crime").size(), 1u);
  }
}

TEST(PoleGeneratorTest, SightingTimesInsideBatch) {
  workloads::PoleConfig config;
  config.num_events = 5;
  auto events = workloads::GeneratePoleStream(config);
  for (const Event& e : events) {
    for (RelId id : e.graph.RelationshipsWithType("PRESENT_AT")) {
      Timestamp seen =
          e.graph.relationship(id)->properties.at("time").AsDateTime();
      EXPECT_LE(seen, e.timestamp);
      EXPECT_GT(seen, e.timestamp - config.event_period);
    }
  }
}

}  // namespace
}  // namespace seraph
