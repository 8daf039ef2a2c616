// Golden reproduction of the paper's worked results:
//  * Table 2 — Listing 1 (one-time Cypher) at 15:40 over the merged store;
//  * Table 4 — Table 2 extended with win_start / win_end annotations;
//  * Table 5 — Listing 5 (Seraph, ON ENTERING) output at 15:15;
//  * Table 6 — Listing 5 output at 15:40;
// plus the §5.4 step-by-step narrative (nothing emitted at 14:45, 15:00,
// 15:20, ...).
#include <gtest/gtest.h>

#include "cypher/executor.h"
#include "cypher/parser.h"
#include "seraph/continuous_engine.h"
#include "seraph/polling_baseline.h"
#include "table/time_table.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace {

Timestamp Clock(int hour, int minute) {
  return Timestamp::FromCivil(2022, 10, 14, hour, minute).value();
}

Record ExpectedRow(int64_t user_id, int64_t station, int rent_h, int rent_m,
                   std::vector<int64_t> hops) {
  Record r;
  r.Set("r.user_id", Value::Int(user_id));
  r.Set("s.id", Value::Int(station));
  r.Set("r.val_time", Value::DateTime(Clock(rent_h, rent_m)));
  Value::List hop_values;
  for (int64_t h : hops) hop_values.push_back(Value::Int(h));
  r.Set("hops", Value::MakeList(std::move(hop_values)));
  return r;
}

// ---------------------------------------------------------------------------
// Table 2: the Cypher workaround at 15:40.
// ---------------------------------------------------------------------------

TEST(RunningExampleTest, Table2CypherQueryAt1540) {
  PropertyGraph store = workloads::BuildRunningExampleMergedGraph();
  auto query = ParseCypherQuery(workloads::RunningExampleCypherQuery());
  ASSERT_TRUE(query.ok()) << query.status();
  ExecutionOptions options;
  options.now = Clock(15, 40);
  auto result = ExecuteQueryOnGraph(*query, store, options);
  ASSERT_TRUE(result.ok()) << result.status();

  Table expected({"r.user_id", "s.id", "r.val_time", "hops"});
  expected.Append(ExpectedRow(1234, 1, 14, 40, {2, 3}));
  expected.Append(ExpectedRow(5678, 2, 14, 58, {3, 4}));
  EXPECT_EQ(*result, expected) << result->ToString();
}

TEST(RunningExampleTest, CypherQueryEarlierWindowsMatchNarrative) {
  // The same one-time query evaluated at earlier instants sees fewer
  // events (store restricted by val_time predicates only — the merged
  // store always holds everything already loaded).
  PropertyGraph store = workloads::BuildRunningExampleMergedGraph();
  auto query = ParseCypherQuery(workloads::RunningExampleCypherQuery());
  ASSERT_TRUE(query.ok());
  ExecutionOptions options;
  options.now = Clock(15, 15);
  auto result = ExecuteQueryOnGraph(*query, store, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // At 15:15 only user 1234's pattern is complete.
  Table expected({"r.user_id", "s.id", "r.val_time", "hops"});
  expected.Append(ExpectedRow(1234, 1, 14, 40, {2, 3}));
  EXPECT_EQ(*result, expected) << result->ToString();
}

// ---------------------------------------------------------------------------
// Tables 5 / 6 and the §5.4 narrative: the Seraph continuous query.
// ---------------------------------------------------------------------------

class SeraphRunningExample : public ::testing::Test {
 protected:
  void RunAll(WindowSemantics semantics) {
    EngineOptions options;
    options.semantics = semantics;
    engine_ = std::make_unique<ContinuousEngine>(options);
    engine_->AddSink(&sink_);
    ASSERT_TRUE(
        engine_->RegisterText(workloads::RunningExampleSeraphQuery()).ok());
    for (const auto& event : workloads::BuildRunningExampleStream()) {
      ASSERT_TRUE(engine_->Ingest(event.graph, event.timestamp).ok());
    }
    ASSERT_TRUE(engine_->AdvanceTo(Clock(15, 40)).ok());
  }

  Table ResultAt(int hour, int minute) {
    auto result = sink_.ResultAt("student_trick", Clock(hour, minute));
    EXPECT_TRUE(result.has_value());
    return result.has_value() ? result->table : Table();
  }

  TimeInterval WindowAt(int hour, int minute) {
    auto result = sink_.ResultAt("student_trick", Clock(hour, minute));
    EXPECT_TRUE(result.has_value());
    return result.has_value() ? result->window : TimeInterval{};
  }

  std::unique_ptr<ContinuousEngine> engine_;
  CollectingSink sink_;
};

TEST_F(SeraphRunningExample, Table5OutputAt1515) {
  RunAll(WindowSemantics::kLookback);
  Table expected({"r.user_id", "s.id", "r.val_time", "hops"});
  expected.Append(ExpectedRow(1234, 1, 14, 40, {2, 3}));
  EXPECT_EQ(ResultAt(15, 15), expected);
  // Window annotation: [14:15, 15:15].
  EXPECT_EQ(WindowAt(15, 15).start, Clock(14, 15));
  EXPECT_EQ(WindowAt(15, 15).end, Clock(15, 15));
}

TEST_F(SeraphRunningExample, Table6OutputAt1540OnlyNewMatch) {
  RunAll(WindowSemantics::kLookback);
  Table expected({"r.user_id", "s.id", "r.val_time", "hops"});
  expected.Append(ExpectedRow(5678, 2, 14, 58, {3, 4}));
  EXPECT_EQ(ResultAt(15, 40), expected);
  EXPECT_EQ(WindowAt(15, 40).start, Clock(14, 40));
  EXPECT_EQ(WindowAt(15, 40).end, Clock(15, 40));
}

TEST_F(SeraphRunningExample, NarrativeQuietEvaluations) {
  RunAll(WindowSemantics::kLookback);
  // 14:45, 14:50, ..., 15:10: no match yet. 15:20-15:35: no *new* match.
  for (auto [h, m] : std::vector<std::pair<int, int>>{
           {14, 45}, {14, 50}, {14, 55}, {15, 0}, {15, 5}, {15, 10},
           {15, 20}, {15, 25}, {15, 30}, {15, 35}}) {
    EXPECT_TRUE(ResultAt(h, m).empty())
        << "unexpected rows at " << h << ":" << m;
  }
  // Full ET grid from 14:45 to 15:40 inclusive = 12 evaluations.
  EXPECT_EQ(sink_.ResultsFor("student_trick").size(), 12u);
}

TEST_F(SeraphRunningExample, Table4AnnotatedShape) {
  RunAll(WindowSemantics::kLookback);
  Table annotated = TimeAnnotatedTable{ResultAt(15, 40), WindowAt(15, 40)}
                        .WithAnnotations();
  ASSERT_EQ(annotated.size(), 1u);
  const Record& row = annotated.rows()[0];
  EXPECT_EQ(row.GetOrNull("win_start"), Value::DateTime(Clock(14, 40)));
  EXPECT_EQ(row.GetOrNull("win_end"), Value::DateTime(Clock(15, 40)));
  EXPECT_EQ(row.GetOrNull("r.user_id"), Value::Int(5678));
}

// A copy of the query registered at 15:00 shares the original's window
// but trails it: it catches up on 14:45..15:00 over snapshots built for it
// alone, then reads the shared window, and answers exactly like the
// original throughout.
TEST_F(SeraphRunningExample, LateCopyCatchesUpWithIdenticalResults) {
  engine_ = std::make_unique<ContinuousEngine>();
  engine_->AddSink(&sink_);
  const std::string text = workloads::RunningExampleSeraphQuery();
  ASSERT_TRUE(engine_->RegisterText(text).ok());
  std::string copy = text;
  copy.replace(copy.find("student_trick"), 13, "student_trick_late");
  for (const auto& event : workloads::BuildRunningExampleStream()) {
    ASSERT_TRUE(engine_->Ingest(event.graph, event.timestamp).ok());
  }
  ASSERT_TRUE(engine_->AdvanceTo(Clock(15, 0)).ok());
  ASSERT_TRUE(engine_->RegisterText(copy).ok());
  ASSERT_TRUE(engine_->AdvanceTo(Clock(15, 40)).ok());

  const TimeVaryingTable& original = sink_.ResultsFor("student_trick");
  const TimeVaryingTable& late = sink_.ResultsFor("student_trick_late");
  ASSERT_EQ(original.size(), 12u);
  ASSERT_EQ(late.size(), 12u);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(late.entries()[i].table, original.entries()[i].table) << i;
    EXPECT_EQ(late.entries()[i].window, original.entries()[i].window) << i;
  }
  Table expected6({"r.user_id", "s.id", "r.val_time", "hops"});
  expected6.Append(ExpectedRow(5678, 2, 14, 58, {3, 4}));
  EXPECT_EQ(sink_.ResultAt("student_trick_late", Clock(15, 40))->table,
            expected6);
  // 14:45..15:00 were built for the copy alone; from 15:05 on the shared
  // window's advance is charged once, to the first reader by name.
  const QueryStats first = *engine_->StatsFor("student_trick");
  const QueryStats copied = *engine_->StatsFor("student_trick_late");
  EXPECT_EQ(copied.snapshots_rebuilt, 4);
  EXPECT_EQ(copied.snapshots_incremental, 0);
  EXPECT_EQ(first.snapshots_rebuilt, 0);
  EXPECT_EQ(first.snapshots_incremental, 12);
}

// ---------------------------------------------------------------------------
// The polling baseline reproduces Table 2 on its grid but re-reports old
// results (the §3.3 drawback ON ENTERING exists to fix).
// ---------------------------------------------------------------------------

TEST(RunningExampleTest, PollingBaselineRepeatsResults) {
  auto query = ParseCypherQuery(workloads::RunningExampleCypherQuery());
  ASSERT_TRUE(query.ok());
  PollingBaseline baseline(std::move(query).value(), Clock(14, 45),
                           Duration::FromMinutes(5));
  // Feed all events up-front (the connector merges as they arrive; here we
  // drive it at the end for simplicity of the due-poll bookkeeping).
  int64_t matches_at_1515 = -1;
  int64_t matches_at_1540 = -1;
  std::vector<workloads::Event> events =
      workloads::BuildRunningExampleStream();
  size_t next_event = 0;
  for (int i = 0; i <= 11; ++i) {
    Timestamp poll = Clock(14, 45) + Duration::FromMinutes(5 * i);
    while (next_event < events.size() &&
           events[next_event].timestamp <= poll) {
      ASSERT_TRUE(baseline.Ingest(events[next_event].graph).ok());
      ++next_event;
    }
    auto results = baseline.AdvanceTo(poll);
    ASSERT_TRUE(results.ok()) << results.status();
    for (const auto& [at, table] : *results) {
      if (at == Clock(15, 15)) matches_at_1515 = table.size();
      if (at == Clock(15, 40)) matches_at_1540 = table.size();
    }
  }
  EXPECT_EQ(baseline.polls_run(), 12);
  EXPECT_EQ(matches_at_1515, 1);
  // The baseline re-reports user 1234 at 15:40 alongside user 5678 — the
  // duplicate-reporting drawback of the workaround.
  EXPECT_EQ(matches_at_1540, 2);
}

}  // namespace
}  // namespace seraph
