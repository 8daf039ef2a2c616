// Text serialization round-trips (io/graph_text.h) and exists() pattern
// predicates.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "cypher/executor.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"
#include "io/graph_text.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace {

TEST(GraphTextTest, ValueRoundTrips) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(-42),
      Value::Float(1.5),
      Value::String("plain"),
      Value::String("with|pipe=eq,comma%pct\nnewline"),
      Value::DateTime(Timestamp::Parse("2022-10-14T14:45").value()),
      Value::Dur(Duration::FromMinutes(90)),
  };
  for (const Value& v : values) {
    auto round = io::DecodeValue(io::EncodeValue(v));
    ASSERT_TRUE(round.ok()) << v.ToString() << ": " << round.status();
    EXPECT_EQ(*round, v) << v.ToString();
  }
}

TEST(GraphTextTest, DecodeValueErrors) {
  EXPECT_FALSE(io::DecodeValue("").ok());
  EXPECT_FALSE(io::DecodeValue("x:1").ok());
  EXPECT_FALSE(io::DecodeValue("i:abc").ok());
  EXPECT_FALSE(io::DecodeValue("b:maybe").ok());
  EXPECT_FALSE(io::DecodeValue("s:bad%escape%2").ok());
}

TEST(GraphTextTest, GraphRoundTrips) {
  PropertyGraph g = workloads::BuildRunningExampleMergedGraph();
  auto round = io::DecodeGraph(io::EncodeGraph(g));
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(*round, g);
}

TEST(GraphTextTest, DecodeGraphSkipsCommentsAndBlankLines) {
  auto g = io::DecodeGraph(
      "# a comment\n\nnode|1|A|x=i:1\n  \nnode|2|B\nrel|1|E|1|2\n");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_nodes(), 2u);
  EXPECT_EQ(g->num_relationships(), 1u);
  EXPECT_EQ(g->NodeProperty(NodeId{1}, "x"), Value::Int(1));
}

TEST(GraphTextTest, DecodeGraphErrors) {
  EXPECT_FALSE(io::DecodeGraph("bogus|1").ok());
  EXPECT_FALSE(io::DecodeGraph("node|1").ok());          // Missing labels.
  EXPECT_FALSE(io::DecodeGraph("rel|1|T|1").ok());       // Missing trg.
  EXPECT_FALSE(io::DecodeGraph("node|1|A|broken").ok()); // Bad property.
}

TEST(GraphTextTest, EventLogRoundTrips) {
  std::vector<StreamElement> events;
  for (const auto& event : workloads::BuildRunningExampleStream()) {
    events.push_back(StreamElement{
        std::make_shared<const PropertyGraph>(event.graph),
        event.timestamp});
  }
  std::ostringstream os;
  io::WriteEventLog(events, &os);
  std::istringstream is(os.str());
  auto round = io::ReadEventLog(&is);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(round->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*round)[i].timestamp, events[i].timestamp);
    EXPECT_EQ(*(*round)[i].graph, *events[i].graph);
  }
}

TEST(GraphTextTest, EventLogRejectsDisorderAndHeaderlessLines) {
  std::istringstream headerless("node|1|A\n");
  EXPECT_FALSE(io::ReadEventLog(&headerless).ok());
  std::istringstream disordered(
      "@ 2022-01-01T01:00\nnode|1|A\n@ 2022-01-01T00:00\nnode|2|A\n");
  EXPECT_FALSE(io::ReadEventLog(&disordered).ok());
}

TEST(GraphTextTest, IdsParseStrictlyOrFailNamingFieldAndLine) {
  // The whole field, base 10, within int64; anything else is an
  // InvalidArgument naming the field and the line, never an exception.
  const std::pair<const char*, const char*> bad[] = {
      {"rel|1|551|2332|R|", "target id 'R'"},
      {"rel|7|R|1|99999999999999999999", "target id '99999999999999999999'"},
      {"node|1x|A|id=i:1", "node id '1x'"},
      {"node||A", "node id ''"},
      {"node|0x10|A", "node id '0x10'"},
      {"node| 1|A", "node id ' 1'"},
      {"rel|r1|R|1|2", "relationship id 'r1'"},
      {"rel|1|R|+1|2", "source id '+1'"},
  };
  for (const auto& [line, field] : bad) {
    std::istringstream log(std::string("@ 2022-01-01T00:00\n") + line + "\n");
    auto events = io::ReadEventLog(&log);
    ASSERT_FALSE(events.ok()) << line;
    EXPECT_EQ(events.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(events.status().message().find(field), std::string::npos)
        << events.status();
    EXPECT_NE(events.status().message().find(line), std::string::npos)
        << events.status();
  }
  auto g = io::DecodeGraph(
      "node|9223372036854775807|A\nnode|-9223372036854775808|A\n"
      "rel|-1|R|9223372036854775807|-9223372036854775808\n");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->HasNode(NodeId{std::numeric_limits<int64_t>::max()}));
  EXPECT_TRUE(g->HasNode(NodeId{std::numeric_limits<int64_t>::min()}));
  EXPECT_TRUE(g->HasRelationship(RelId{-1}));
  EXPECT_FALSE(io::DecodeGraph("node|9223372036854775808|A").ok());
}

// ---------------------------------------------------------------------------
// exists() pattern predicate
// ---------------------------------------------------------------------------

TEST(ExistsPatternTest, FiltersByNeighborhood) {
  PropertyGraph g = GraphBuilder()
                        .Node(1, {"P"}, {{"name", Value::String("a")}})
                        .Node(2, {"P"}, {{"name", Value::String("b")}})
                        .Node(3, {"C"})
                        .Rel(1, 1, 3, "OWNS")
                        .Build();
  auto q = ParseCypherQuery(
      "MATCH (p:P) WHERE exists((p)-[:OWNS]->(:C)) RETURN p.name");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecutionOptions options;
  auto result = ExecuteQueryOnGraph(*q, g, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].GetOrNull("p.name"), Value::String("a"));
}

TEST(ExistsPatternTest, NegatedInWhere) {
  PropertyGraph g = GraphBuilder()
                        .Node(1, {"P"})
                        .Node(2, {"P"})
                        .Rel(1, 1, 2, "KNOWS")
                        .Build();
  auto q = ParseCypherQuery(
      "MATCH (p:P) WHERE NOT exists((p)-[:KNOWS]->()) RETURN id(p) AS i");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecutionOptions options;
  auto result = ExecuteQueryOnGraph(*q, g, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].GetOrNull("i"), Value::Int(2));
}

TEST(ExistsPatternTest, PropertyExistenceFormStillWorks) {
  PropertyGraph g = GraphBuilder()
                        .Node(1, {"P"}, {{"x", Value::Int(1)}})
                        .Node(2, {"P"})
                        .Build();
  auto q = ParseCypherQuery(
      "MATCH (p:P) WHERE exists(p.x) RETURN id(p) AS i");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecutionOptions options;
  auto result = ExecuteQueryOnGraph(*q, g, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0].GetOrNull("i"), Value::Int(1));
}

}  // namespace
}  // namespace seraph
