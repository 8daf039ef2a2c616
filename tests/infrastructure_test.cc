// Tests for the infrastructure modules: JSON serialization, metrics
// histograms, graph algorithms, and the EventQueue→engine StreamDriver.
#include <gtest/gtest.h>

#include <sstream>

#include "common/metrics.h"
#include "graph/algorithms.h"
#include "graph/graph_builder.h"
#include "io/json.h"
#include "seraph/sinks.h"
#include "seraph/stream_driver.h"
#include "workloads/network.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ScalarValues) {
  EXPECT_EQ(io::ToJson(Value::Null()), "null");
  EXPECT_EQ(io::ToJson(Value::Bool(true)), "true");
  EXPECT_EQ(io::ToJson(Value::Int(-5)), "-5");
  EXPECT_EQ(io::ToJson(Value::Float(2.5)), "2.5");
  EXPECT_EQ(io::ToJson(Value::String("a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(io::ToJson(Value::String(std::string(1, '\x01') + "x")),
            "\"\\u0001x\"");
}

TEST(JsonTest, NonFiniteFloatsBecomeNull) {
  EXPECT_EQ(io::ToJson(Value::Float(std::numeric_limits<double>::
                                        quiet_NaN())),
            "null");
  EXPECT_EQ(
      io::ToJson(Value::Float(std::numeric_limits<double>::infinity())),
      "null");
}

TEST(JsonTest, ContainersAndEntities) {
  EXPECT_EQ(io::ToJson(Value::MakeList({Value::Int(1), Value::String("x")})),
            "[1,\"x\"]");
  EXPECT_EQ(io::ToJson(Value::MakeMap({{"k", Value::Int(1)}})),
            "{\"k\":1}");
  EXPECT_EQ(io::ToJson(Value::Node(NodeId{3})), "{\"$node\":3}");
  EXPECT_EQ(io::ToJson(Value::Relationship(RelId{4})), "{\"$rel\":4}");
  PathValue p;
  p.nodes = {NodeId{1}, NodeId{2}};
  p.rels = {RelId{9}};
  EXPECT_EQ(io::ToJson(Value::Path(p)),
            "{\"$path\":{\"nodes\":[1,2],\"rels\":[9]}}");
}

TEST(JsonTest, RecordsAndTables) {
  Record r;
  r.Set("b", Value::Int(2));
  r.Set("a", Value::Int(1));
  EXPECT_EQ(io::ToJson(r), "{\"a\":1,\"b\":2}");
  Table t({"a"});
  Record row;
  row.Set("a", Value::Int(7));
  t.Append(row);
  EXPECT_EQ(io::ToJson(t), "[{\"a\":7}]");
  TimeAnnotatedTable annotated{t, TimeInterval{T(0), T(5)}};
  std::string json = io::ToJson(annotated);
  EXPECT_NE(json.find("\"win_start\":\"1970-01-01T00:00\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rows\":[{\"a\":7}]"), std::string::npos);
}

TEST(JsonTest, JsonLinesSinkEmitsOneObjectPerEvaluation) {
  std::ostringstream os;
  JsonLinesSink sink(&os);
  ContinuousEngine engine;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id SNAPSHOT EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine
                  .Ingest(GraphBuilder()
                              .Node(1, {"X"}, {{"id", Value::Int(1)}})
                              .Build(),
                          T(1))
                  .ok());
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  std::string out = os.str();
  int lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(out.find("\"query\":\"q\""), std::string::npos);
  EXPECT_NE(out.find("\"rows\":[{\"n.id\":1}]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40, 1000}) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.min, 10);
  EXPECT_EQ(snap.max, 1000);
  EXPECT_DOUBLE_EQ(snap.mean, 220.0);
  EXPECT_GE(snap.p99, snap.p90);
  EXPECT_GE(snap.p90, snap.p50);
  EXPECT_LE(snap.p99, snap.max);
  EXPECT_GE(snap.p50, snap.min);
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().count, 0);
  h.Record(5);
  EXPECT_EQ(h.Snapshot().count, 1);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0);
  EXPECT_EQ(h.Snapshot().max, 0);
}

TEST(HistogramTest, PercentileMonotoneOverSpread) {
  Histogram h;
  for (int64_t i = 1; i <= 1000; ++i) h.Record(i);
  HistogramSnapshot snap = h.Snapshot();
  // Power-of-two buckets give coarse but ordered estimates.
  EXPECT_GT(snap.p50, 256);
  EXPECT_LE(snap.p50, 768);
  EXPECT_GT(snap.p99, snap.p50);
}

TEST(HistogramTest, EngineLatencyIsRecorded) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  auto latency = engine.LatencyFor("q");
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->count, 4);
  EXPECT_FALSE(engine.LatencyFor("nope").ok());
}

// ---------------------------------------------------------------------------
// Graph algorithms
// ---------------------------------------------------------------------------

PropertyGraph TwoComponents() {
  return GraphBuilder()
      .Node(1, {"A"})
      .Node(2, {"A"})
      .Node(3, {"A"})
      .Node(10, {"B"})
      .Node(11, {"B"})
      .Rel(1, 1, 2, "E")
      .Rel(2, 2, 3, "E")
      .Rel(3, 10, 11, "F")
      .Build();
}

TEST(GraphAlgorithmsTest, ConnectedComponents) {
  PropertyGraph g = TwoComponents();
  auto components = ConnectedComponents(g);
  EXPECT_EQ(components.at(NodeId{1}), 1);
  EXPECT_EQ(components.at(NodeId{3}), 1);
  EXPECT_EQ(components.at(NodeId{10}), 10);
  EXPECT_EQ(CountConnectedComponents(g), 2u);
  // Restricting to type F splits the E-chain into singletons.
  EXPECT_EQ(CountConnectedComponents(g, {.type = "F"}), 4u);
}

TEST(GraphAlgorithmsTest, HopDistancesAndReachability) {
  PropertyGraph g = TwoComponents();
  auto dist = HopDistances(g, NodeId{1});
  EXPECT_EQ(dist.at(NodeId{1}), 0);
  EXPECT_EQ(dist.at(NodeId{2}), 1);
  EXPECT_EQ(dist.at(NodeId{3}), 2);
  EXPECT_FALSE(dist.contains(NodeId{10}));
  EXPECT_TRUE(Reachable(g, NodeId{1}, NodeId{3}));
  EXPECT_FALSE(Reachable(g, NodeId{1}, NodeId{10}));
  EXPECT_TRUE(Reachable(g, NodeId{1}, NodeId{1}));
  EXPECT_FALSE(Reachable(g, NodeId{99}, NodeId{1}));
}

TEST(GraphAlgorithmsTest, DegreeStats) {
  PropertyGraph g = TwoComponents();
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_EQ(stats.distribution.at(1), 4u);  // Nodes 1, 3, 10, 11.
  EXPECT_EQ(stats.distribution.at(2), 1u);  // Node 2.
}

TEST(GraphAlgorithmsTest, HealthyNetworkIsSingleComponent) {
  // §4.1's redundancy property: with no failures every rack can reach the
  // egress router.
  workloads::NetworkConfig config;
  config.num_ticks = 1;
  config.failure_probability = 0.0;
  auto events = workloads::GenerateNetworkStream(config);
  const PropertyGraph& g = events[0].graph;
  EXPECT_EQ(CountConnectedComponents(g), 1u);
  NodeId egress = g.NodesWithLabel("Router")[0];
  for (NodeId rack : g.NodesWithLabel("Rack")) {
    EXPECT_TRUE(Reachable(g, rack, egress));
  }
}

// ---------------------------------------------------------------------------
// StreamDriver
// ---------------------------------------------------------------------------

PropertyGraph Item(int64_t id) {
  return GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build();
}

TEST(StreamDriverTest, PumpsOrderedQueueAndEvaluates) {
  EventQueue queue;
  ASSERT_TRUE(queue.Produce(Item(1), T(1)).ok());
  ASSERT_TRUE(queue.Produce(Item(2), T(7)).ok());
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id SNAPSHOT EVERY PT5M })")
                  .ok());
  StreamDriver driver(&queue, &engine, {});
  auto delivered = driver.PumpAll();
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(*delivered, 2);
  // Clock advanced to 7 → one evaluation (at 5) ran.
  EXPECT_EQ(sink.ResultsFor("q").size(), 1u);
  // A pump with nothing new re-advances to the same horizon, which runs
  // no evaluation twice.
  delivered = driver.PumpAll();
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(*delivered, 0);
  EXPECT_EQ(sink.ResultsFor("q").size(), 1u);
}

}  // namespace
}  // namespace seraph
