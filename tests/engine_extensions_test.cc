// Tests for the §6/§8 roadmap features the engine implements beyond the
// paper's core: result reuse on unchanged windows, multiple named streams
// (WITHIN ... FROM), static background graphs, per-query statistics, and
// MATCH join-order optimization.
#include <gtest/gtest.h>

#include "cypher/executor.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id, const char* label = "X") {
  return GraphBuilder()
      .Node(id, {label}, {{"id", Value::Int(id)}})
      .Build();
}

// ---------------------------------------------------------------------------
// Result reuse on unchanged windows (§6 "avoidable re-executions")
// ---------------------------------------------------------------------------

TEST(ResultReuseTest, SparseStreamReusesResults) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT1H EMIT n.id SNAPSHOT EVERY PT5M })")
                  .ok());
  // One element, then silence: windows at 10, 15, ..., 60 all cover the
  // same single element.
  ASSERT_TRUE(engine.Ingest(Item(1), T(7)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(60)).ok());
  QueryStats stats = *engine.StatsFor("q");
  EXPECT_EQ(stats.evaluations, 12);
  // First eval (empty window) computes; 10 computes; 15..60 (11 evals)
  // reuse.
  EXPECT_GE(stats.reused_results, 10);
  // Results are still correct at every instant.
  for (int64_t m = 10; m <= 60; m += 5) {
    EXPECT_EQ(sink.ResultAt("q", T(m))->table.size(), 1u) << m;
  }
}

TEST(ResultReuseTest, DisabledByOption) {
  EngineOptions options;
  options.reuse_unchanged_windows = false;
  ContinuousEngine engine(options);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT1H EMIT n.id SNAPSHOT EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(7)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(60)).ok());
  EXPECT_EQ(engine.StatsFor("q")->reused_results, 0);
}

TEST(ResultReuseTest, VolatileQueriesNeverReuse) {
  // datetime() in the projection makes every evaluation distinct.
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY vol STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT1H EMIT n.id, datetime() AS at
      SNAPSHOT EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(7)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  EXPECT_EQ(engine.StatsFor("vol")->reused_results, 0);
  // And the emitted timestamps do differ per evaluation.
  EXPECT_EQ(sink.ResultAt("vol", T(10))->table.rows()[0].GetOrNull("at"),
            Value::DateTime(T(10)));
  EXPECT_EQ(sink.ResultAt("vol", T(15))->table.rows()[0].GetOrNull("at"),
            Value::DateTime(T(15)));
}

TEST(ResultReuseTest, DeterminismAnalysis) {
  auto det = ParseSeraphQuery(R"(
    REGISTER QUERY a STARTING AT '1970-01-01T00:00'
    { MATCH (n:X) WITHIN PT1M WHERE n.id > 3 EMIT n.id EVERY PT1M })");
  ASSERT_TRUE(det.ok());
  EXPECT_TRUE(det->IsWindowContentDeterministic());
  auto vol_where = ParseSeraphQuery(R"(
    REGISTER QUERY b STARTING AT '1970-01-01T00:00'
    { MATCH (n:X) WITHIN PT1M WHERE n.t < datetime() EMIT n.id EVERY PT1M })");
  ASSERT_TRUE(vol_where.ok());
  EXPECT_FALSE(vol_where->IsWindowContentDeterministic());
  auto vol_win = ParseSeraphQuery(R"(
    REGISTER QUERY c STARTING AT '1970-01-01T00:00'
    { MATCH (n:X) WITHIN PT1M EMIT n.id, win_start EVERY PT1M })");
  ASSERT_TRUE(vol_win.ok());
  EXPECT_FALSE(vol_win->IsWindowContentDeterministic());
  // datetime with a literal argument is not volatile.
  auto det_lit = ParseSeraphQuery(R"(
    REGISTER QUERY d STARTING AT '1970-01-01T00:00'
    { MATCH (n:X) WITHIN PT1M
      WHERE n.t > datetime('2020-01-01T00:00') EMIT n.id EVERY PT1M })");
  ASSERT_TRUE(det_lit.ok());
  EXPECT_TRUE(det_lit->IsWindowContentDeterministic());
}

// ---------------------------------------------------------------------------
// Multiple named streams (§8 (i))
// ---------------------------------------------------------------------------

TEST(MultiStreamTest, MatchFromSelectsStream) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY join STARTING AT '1970-01-01T00:05'
    {
      MATCH (a:X) WITHIN PT30M FROM sensors
      MATCH (b:X {id: a.id}) WITHIN PT30M FROM alarms
      EMIT a.id EVERY PT5M
    })")
                  .ok());
  // id 1 only in sensors; id 2 in both; id 3 only in alarms.
  ASSERT_TRUE(engine.IngestTo("sensors", Item(1), T(1)).ok());
  ASSERT_TRUE(engine.IngestTo("sensors", Item(2), T(2)).ok());
  ASSERT_TRUE(engine.IngestTo("alarms", Item(2), T(3)).ok());
  ASSERT_TRUE(engine.IngestTo("alarms", Item(3), T(4)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  auto result = sink.ResultAt("join", T(5));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->table.size(), 1u);
  EXPECT_EQ(result->table.rows()[0].GetOrNull("a.id"), Value::Int(2));
}

TEST(MultiStreamTest, DefaultStreamIsSeparate) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id EVERY PT5M })")
                  .ok());
  // Elements on a named stream are invisible to the default stream.
  ASSERT_TRUE(engine.IngestTo("other", Item(9), T(1)).ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  ASSERT_EQ(sink.ResultAt("q", T(5))->table.size(), 1u);
  EXPECT_EQ(sink.ResultAt("q", T(5))->table.rows()[0].GetOrNull("n.id"),
            Value::Int(1));
}

TEST(MultiStreamTest, FromParsesAndPrintsInMatch) {
  auto q = ParseSeraphQuery(R"(
    REGISTER QUERY s STARTING AT '1970-01-01T00:00'
    { MATCH (n:X) WITHIN PT5M FROM telemetry EMIT n.id EVERY PT5M })");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& match = std::get<MatchClause>(q->clauses[0]);
  EXPECT_EQ(match.from_stream, "telemetry");
}

// ---------------------------------------------------------------------------
// Static background graph (§8 (iii))
// ---------------------------------------------------------------------------

// The shared window carries the static graph underneath its stream
// contributions, and so does a catch-up reader's own snapshot: "late"
// registers after the shared window advanced past 00:05 and builds that
// instant itself.
TEST(StaticGraphTest, StaticEntitiesJoinWithStreamed) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  // Static: stations with a region property.
  PropertyGraph static_graph =
      GraphBuilder()
          .Node(100, {"Station"},
                {{"id", Value::Int(100)}, {"region", Value::String("north")}})
          .Build();
  ASSERT_TRUE(engine.SetStaticGraph(std::move(static_graph)).ok());
  const std::string body =
      " STARTING AT '1970-01-01T00:05' { MATCH (b:Bike)-[r:at]->(s:Station) "
      "WITHIN PT30M EMIT b.id, s.region EVERY PT5M }";
  ASSERT_TRUE(engine.RegisterText("REGISTER QUERY q" + body).ok());
  // The streamed event references the static station.
  PropertyGraph event = GraphBuilder()
                            .Node(1, {"Bike"}, {{"id", Value::Int(1)}})
                            .Node(100, {"Station"})
                            .Rel(1, 1, 100, "at")
                            .Build();
  ASSERT_TRUE(engine.Ingest(std::move(event), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  ASSERT_TRUE(engine.RegisterText("REGISTER QUERY late" + body).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  for (const char* name : {"q", "late"}) {
    for (int64_t m : {5, 10}) {
      auto result = sink.ResultAt(name, T(m));
      ASSERT_TRUE(result.has_value()) << name << " at " << m;
      ASSERT_EQ(result->table.size(), 1u) << name << " at " << m;
      EXPECT_EQ(result->table.rows()[0].GetOrNull("s.region"),
                Value::String("north"));
    }
  }
  // At 00:10 both read the shared window; its advance is charged to the
  // first reader by name.
  EXPECT_EQ(engine.StatsFor("late")->snapshots_rebuilt, 1);
  EXPECT_EQ(engine.StatsFor("late")->snapshots_incremental, 1);
  EXPECT_EQ(engine.StatsFor("q")->snapshots_incremental, 1);
}

TEST(StaticGraphTest, StaticNeverExpires) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine
                  .SetStaticGraph(GraphBuilder()
                                      .Node(7, {"X"},
                                            {{"id", Value::Int(7)}})
                                      .Build())
                  .ok());
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT10M EMIT n.id SNAPSHOT EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  // At 5: both; at 30 (streamed element long expired): static only.
  EXPECT_EQ(sink.ResultAt("q", T(5))->table.size(), 2u);
  ASSERT_EQ(sink.ResultAt("q", T(30))->table.size(), 1u);
  EXPECT_EQ(sink.ResultAt("q", T(30))->table.rows()[0].GetOrNull("n.id"),
            Value::Int(7));
}

TEST(StaticGraphTest, MustBeSetBeforeRegistering) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT10M EMIT n.id EVERY PT5M })")
                  .ok());
  EXPECT_EQ(engine.SetStaticGraph(PropertyGraph()).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(QueryStatsTest, CountsEvaluationsAndRows) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id ON ENTERING EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(1)).ok());
  ASSERT_TRUE(engine.Ingest(Item(2), T(12)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(15)).ok());
  QueryStats stats = *engine.StatsFor("q");
  EXPECT_EQ(stats.evaluations, 3);       // 5, 10, 15.
  EXPECT_EQ(stats.rows_emitted, 2);      // Each element enters once.
  EXPECT_EQ(stats.match_rows, 1 + 2);    // Instant 10 reuses its result.
  EXPECT_EQ(engine.StatsFor("nope").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// MATCH join-order optimization
// ---------------------------------------------------------------------------

TEST(MatchOrderTest, ResultsIdenticalWithAndWithoutOptimizer) {
  // A deliberately badly-ordered query: the selective pattern is last.
  PropertyGraph g = GraphBuilder()
                        .Node(1, {"Hub"}, {{"id", Value::Int(1)}})
                        .Node(2, {"Leaf"}, {{"id", Value::Int(2)}})
                        .Node(3, {"Leaf"}, {{"id", Value::Int(3)}})
                        .Node(4, {"Leaf"}, {{"id", Value::Int(4)}})
                        .Rel(1, 1, 2, "E")
                        .Rel(2, 1, 3, "E")
                        .Rel(3, 1, 4, "E")
                        .Build();
  auto q = ParseCypherQuery(
      "MATCH (l:Leaf), (h:Hub)-[:E]->(l) RETURN l.id ORDER BY l.id");
  ASSERT_TRUE(q.ok());
  ExecutionOptions with_opt;
  with_opt.optimize_match_order = true;
  ExecutionOptions without_opt;
  without_opt.optimize_match_order = false;
  auto a = ExecuteQueryOnGraph(*q, g, with_opt);
  auto b = ExecuteQueryOnGraph(*q, g, without_opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 3u);
}

}  // namespace
}  // namespace seraph
