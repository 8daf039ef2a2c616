// Continuous engine behaviour: registry, clock discipline, ET grid,
// per-MATCH windows, RETURN-once mode, multi-query timelines, query
// isolation, and serial/parallel equivalence.
#include <gtest/gtest.h>

#include <random>

#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id, int64_t kind) {
  return GraphBuilder()
      .Node(id, {kind == 0 ? "X" : "Y"},
            {{"id", Value::Int(id)}, {"k", Value::Int(id % 3)}})
      .Build();
}

std::string CountQuery(const char* name, const char* label,
                       const char* within, const char* every,
                       const char* policy = "SNAPSHOT") {
  std::string q = "REGISTER QUERY ";
  q += name;
  q += " STARTING AT '1970-01-01T00:05' { MATCH (n:";
  q += label;
  q += ") WITHIN ";
  q += within;
  q += " EMIT n.id ";
  q += policy;
  q += " EVERY ";
  q += every;
  q += " }";
  return q;
}

TEST(ContinuousEngineTest, RegistryLifecycle) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(CountQuery("a", "X", "PT5M", "PT5M")).ok());
  EXPECT_EQ(engine.RegisterText(CountQuery("a", "X", "PT5M", "PT5M")).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine.RegisterText(CountQuery("b", "Y", "PT5M", "PT5M")).ok());
  EXPECT_EQ(engine.QueryNames(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(engine.Unregister("a").ok());
  EXPECT_EQ(engine.Unregister("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.QueryNames(), (std::vector<std::string>{"b"}));
}

TEST(ContinuousEngineTest, EvaluatesOnEtGrid) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q", "X", "PT10M", "PT5M")).ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(6)).ok());
  ASSERT_TRUE(engine.Ingest(Item(2, 0), T(12)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(21)).ok());
  // ET = 5, 10, 15, 20.
  EXPECT_EQ(sink.ResultsFor("q").size(), 4u);
  EXPECT_TRUE(sink.ResultAt("q", T(5))->table.empty());
  EXPECT_EQ(sink.ResultAt("q", T(10))->table.size(), 1u);   // Element @6.
  EXPECT_EQ(sink.ResultAt("q", T(15))->table.size(), 2u);   // @6 and @12.
  EXPECT_EQ(sink.ResultAt("q", T(20))->table.size(), 1u);   // @6 expired.
}

TEST(ContinuousEngineTest, ClockDiscipline) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(10)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  // The clock cannot move backwards, and late elements are rejected.
  EXPECT_EQ(engine.AdvanceTo(T(15)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.Ingest(Item(2, 0), T(15)).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.Ingest(Item(2, 0), T(25)).ok());
}

TEST(ContinuousEngineTest, ReturnOnceEvaluatesExactlyOnce) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY once STARTING AT '1970-01-01T00:10'
    { MATCH (n:X) WITHIN PT10M RETURN n.id })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(5)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  EXPECT_EQ(sink.ResultsFor("once").size(), 1u);
  EXPECT_EQ(sink.ResultAt("once", T(10))->table.size(), 1u);
  // Advancing further does not re-evaluate.
  ASSERT_TRUE(engine.AdvanceTo(T(60)).ok());
  EXPECT_EQ(sink.ResultsFor("once").size(), 1u);
}

TEST(ContinuousEngineTest, PerMatchWindowWidths) {
  // A two-MATCH query: X within 5 minutes, Y within 30 — a Y element stays
  // joinable long after the X element that matched it expired.
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY join STARTING AT '1970-01-01T00:05'
    {
      MATCH (a:X) WITHIN PT5M
      MATCH (b:Y {k: a.k}) WITHIN PT30M
      EMIT a.id, b.id EVERY PT5M
    })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(3, 1), T(2)).ok());   // Y, k = 0.
  ASSERT_TRUE(engine.Ingest(Item(6, 0), T(12)).ok());  // X, k = 0.
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  // At 15: X@12 in (10,15], Y@2 in (−15,15] → join (6, 3).
  EXPECT_EQ(sink.ResultAt("join", T(15))->table.size(), 1u);
  // At 20: X@12 expired from the 5-minute window → no rows.
  EXPECT_TRUE(sink.ResultAt("join", T(20))->table.empty());
}

TEST(ContinuousEngineTest, MultiQueryChronologicalTimeline) {
  ContinuousEngine engine;
  struct OrderSink : EmitSink {
    std::vector<std::pair<std::string, Timestamp>> calls;
    Status OnResult(const std::string& name, Timestamp t,
                    const TimeAnnotatedTable&) override {
      calls.emplace_back(name, t);
      return Status::OK();
    }
  } sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(
      engine.RegisterText(CountQuery("fast", "X", "PT5M", "PT5M")).ok());
  ASSERT_TRUE(
      engine.RegisterText(CountQuery("slow", "X", "PT10M", "PT10M")).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  // Evaluations arrive in global time order.
  for (size_t i = 1; i < sink.calls.size(); ++i) {
    EXPECT_LE(sink.calls[i - 1].second, sink.calls[i].second);
  }
  // fast: 5,10,15,20 (4); slow: 5,15 (2).
  EXPECT_EQ(sink.calls.size(), 6u);
}

TEST(ContinuousEngineTest, ParametersReachQueries) {
  EngineOptions options;
  options.parameters = {{"min_id", Value::Int(2)}};
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY p STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT10M WHERE n.id >= $min_id
      EMIT n.id EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.Ingest(Item(2, 0), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  EXPECT_EQ(sink.ResultAt("p", T(5))->table.size(), 1u);
}

// A query whose body fails at runtime (here: division by zero once a row
// exists) no longer aborts AdvanceTo; the error is recorded per query.
TEST(ContinuousEngineTest, QueryErrorIsRecordedNotSurfaced) {
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY boom STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT5M EMIT n.id / 0 EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  QueryStats stats = engine.StatsFor("boom").value();
  EXPECT_EQ(stats.eval_failures, 1);
  EXPECT_EQ(stats.last_error.code(), StatusCode::kEvaluationError);
}

// Query isolation: a poisoned query must not affect a healthy one — the
// healthy query's results are identical to running it alone.
TEST(ContinuousEngineTest, PoisonedQueryIsIsolated) {
  auto drive = [](ContinuousEngine* engine) {
    ASSERT_TRUE(engine->Ingest(Item(1, 0), T(1)).ok());
    ASSERT_TRUE(engine->Ingest(Item(2, 0), T(8)).ok());
    ASSERT_TRUE(engine->AdvanceTo(T(20)).ok());
  };

  ContinuousEngine solo;
  CollectingSink solo_sink;
  solo.AddSink(&solo_sink);
  ASSERT_TRUE(
      solo.RegisterText(CountQuery("healthy", "X", "PT10M", "PT5M")).ok());
  drive(&solo);

  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(
      engine.RegisterText(CountQuery("healthy", "X", "PT10M", "PT5M")).ok());
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY boom STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id / 0 EVERY PT5M })")
                  .ok());
  drive(&engine);

  const TimeVaryingTable& alone = solo_sink.ResultsFor("healthy");
  const TimeVaryingTable& together = sink.ResultsFor("healthy");
  ASSERT_EQ(alone.size(), together.size());
  for (size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(alone.entries()[i], together.entries()[i]) << "entry " << i;
  }
  // The poisoned query emitted nothing but recorded every failure.
  EXPECT_EQ(sink.ResultsFor("boom").size(), 0u);
  EXPECT_GT(engine.StatsFor("boom").value().eval_failures, 0);
}

// Failed evaluations advance the ET grid (no infinite re-fail of the same
// instant) and land in the dead-letter queue with their instant.
TEST(ContinuousEngineTest, FailedEvaluationsAreDeadLetteredAndGridAdvances) {
  DeadLetterQueue dead;
  EngineOptions options;
  options.dead_letter = &dead;
  options.query_error_budget = 0;  // Never disable: count every instant.
  ContinuousEngine engine(options);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY boom STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT n.id / 0 EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  // ET = 5, 10, 15, 20 — each failed once and moved on.
  EXPECT_EQ(engine.StatsFor("boom").value().eval_failures, 4);
  ASSERT_EQ(dead.evaluation_failures(), 4);
  EXPECT_EQ(dead.entries()[0].kind, DeadLetterEntry::Kind::kEvaluation);
  EXPECT_EQ(dead.entries()[0].query, "boom");
  EXPECT_EQ(dead.entries()[0].timestamp, T(5));
  EXPECT_EQ(dead.entries()[3].timestamp, T(20));
}

// A WHERE whose connective meets a non-boolean operand fails each
// evaluation with a type error instead of aborting the process; the
// query is disabled after its error budget while a sibling keeps
// emitting.
TEST(ContinuousEngineTest, NonBooleanWhereOperandFailsOnlyItsQuery) {
  EngineOptions options;
  options.query_error_budget = 2;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY typo STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M WHERE n.id AND true EMIT n.id EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.RegisterText(CountQuery("sibling", "X", "PT30M", "PT5M"))
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  EXPECT_TRUE(engine.QueryDisabled("typo"));
  const QueryStats typo = engine.StatsFor("typo").value();
  EXPECT_EQ(typo.eval_failures, 2);
  EXPECT_EQ(typo.last_error.code(), StatusCode::kEvaluationError);
  EXPECT_EQ(typo.last_error.message(), "AND requires a boolean");
  EXPECT_EQ(sink.ResultsFor("typo").size(), 0u);
  EXPECT_FALSE(engine.QueryDisabled("sibling"));
  EXPECT_EQ(sink.ResultsFor("sibling").size(), 4u);  // ET 5, 10, 15, 20.
}

// An int64 overflow in one query's projection (INT64_MIN / -1 used to end
// the process with SIGFPE) fails that query's evaluations only.
TEST(ContinuousEngineTest, IntegerOverflowFailsOnlyItsQuery) {
  EngineOptions options;
  options.query_error_budget = 2;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY wrap STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT30M EMIT (n.id - 1) / -1 AS v EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.RegisterText(CountQuery("sibling", "X", "PT30M", "PT5M"))
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(-9223372036854775807, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  EXPECT_TRUE(engine.QueryDisabled("wrap"));
  const QueryStats wrap = engine.StatsFor("wrap").value();
  EXPECT_EQ(wrap.eval_failures, 2);
  EXPECT_EQ(wrap.last_error.code(), StatusCode::kEvaluationError);
  EXPECT_EQ(wrap.last_error.message(), "integer overflow");
  EXPECT_EQ(sink.ResultsFor("wrap").size(), 0u);
  EXPECT_FALSE(engine.QueryDisabled("sibling"));
  EXPECT_EQ(sink.ResultsFor("sibling").size(), 4u);  // ET 5, 10, 15, 20.
}

// After `query_error_budget` consecutive failures the query is disabled
// (the fleet keeps running); ReviveQuery resumes it from where its grid
// stopped.
TEST(ContinuousEngineTest, ErrorBudgetDisablesAndReviveResumes) {
  EngineOptions options;
  options.query_error_budget = 2;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  // Fails while the element @1 is inside the 12-minute window (ET 5, 10);
  // evaluations at 15+ see an empty window and succeed.
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY flaky STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT12M EMIT n.id / 0 EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  EXPECT_TRUE(engine.QueryDisabled("flaky"));
  EXPECT_EQ(engine.StatsFor("flaky").value().eval_failures, 2);
  // Disabled queries stop being scheduled.
  ASSERT_TRUE(engine.AdvanceTo(T(40)).ok());
  EXPECT_EQ(engine.StatsFor("flaky").value().eval_failures, 2);
  EXPECT_EQ(sink.ResultsFor("flaky").size(), 0u);

  EXPECT_EQ(engine.ReviveQuery("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.ReviveQuery("flaky").ok());
  EXPECT_FALSE(engine.QueryDisabled("flaky"));
  // Catch-up: the grid stopped after 10, so revival replays 15..40 — all
  // past the poison element's window, so they succeed and emit.
  ASSERT_TRUE(engine.AdvanceTo(T(40)).ok());
  EXPECT_FALSE(engine.QueryDisabled("flaky"));
  EXPECT_EQ(engine.StatsFor("flaky").value().eval_failures, 2);
  EXPECT_EQ(sink.ResultsFor("flaky").size(), 6u);  // ET 15..40.
}

// A failed evaluation must invalidate the unchanged-window reuse cache:
// it recorded its element ranges before failing, so if the next instant
// sees the same ranges, the reuse path would otherwise emit the last
// *successful* result (computed from different window content) and the
// content-deterministic error would never re-fire.
TEST(ContinuousEngineTest, FailedEvaluationInvalidatesReuse) {
  ContinuousEngine engine;  // reuse_unchanged_windows on by default.
  CollectingSink sink;
  engine.AddSink(&sink);
  // Content-dependent poison: the body divides by n.id, so an id = 0
  // element in the window makes the evaluation fail.
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT20M EMIT 10 / n.id EVERY PT5M })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(2, 0), T(1)).ok());
  ASSERT_TRUE(engine.Ingest(Item(0, 0), T(8)).ok());  // Poison.
  // ET 5: window holds only id 2 → succeeds and emits.
  // ET 10: the poison entered → fails; the ranges it recorded cover both
  //        elements.
  // ET 15: the 20-minute window still covers exactly both elements — the
  //        ranges are unchanged relative to the FAILED evaluation, so a
  //        reuse here would replay ET 5's result. It must re-execute and
  //        fail again instead.
  ASSERT_TRUE(engine.AdvanceTo(T(15)).ok());
  QueryStats stats = engine.StatsFor("q").value();
  EXPECT_EQ(stats.eval_failures, 2);
  EXPECT_EQ(stats.reused_results, 0);
  EXPECT_EQ(stats.last_error.code(), StatusCode::kEvaluationError);
  // Only ET 5 delivered; no stale table at 10 or 15.
  EXPECT_EQ(sink.ResultsFor("q").size(), 1u);
  ASSERT_TRUE(sink.ResultAt("q", T(5)).has_value());
  EXPECT_FALSE(sink.ResultAt("q", T(10)).has_value());
  EXPECT_FALSE(sink.ResultAt("q", T(15)).has_value());
}

// A RETURN-once query whose single evaluation fails is disabled (not
// marked done): the failure is observable via QueryDisabled, and
// ReviveQuery re-arms the evaluation at its original instant.
TEST(ContinuousEngineTest, FailedReturnOnceIsDisabledAndRevivable) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY once STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT10M RETURN n.id / 0 })")
                  .ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  EXPECT_TRUE(engine.QueryDisabled("once"));
  EXPECT_EQ(engine.StatsFor("once").value().eval_failures, 1);
  EXPECT_EQ(sink.ResultsFor("once").size(), 0u);
  // Disabled, not done: no re-evaluation while disabled...
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  EXPECT_EQ(engine.StatsFor("once").value().eval_failures, 1);
  // ...but revival re-arms the single evaluation (at the original ET 5 —
  // which re-fails here, proving the query was never marked done).
  ASSERT_TRUE(engine.ReviveQuery("once").ok());
  EXPECT_FALSE(engine.QueryDisabled("once"));
  ASSERT_TRUE(engine.AdvanceTo(T(30)).ok());
  EXPECT_EQ(engine.StatsFor("once").value().eval_failures, 2);
  EXPECT_TRUE(engine.QueryDisabled("once"));
}

// Reading a stream by name is a pure lookup: it must not create the
// stream (the old accessor inserted an empty stream into the map, which
// both surprised callers and raced with parallel evaluation).
TEST(ContinuousEngineTest, ReadingAStreamDoesNotCreateIt) {
  ContinuousEngine engine;
  EXPECT_TRUE(engine.StreamNames().empty());
  EXPECT_TRUE(engine.stream("ghost").empty());
  EXPECT_TRUE(engine.stream().empty());
  EXPECT_TRUE(engine.StreamNames().empty());
  // Ingest and query registration do create streams (the latter eagerly,
  // so evaluation never mutates the map).
  ASSERT_TRUE(engine.IngestTo("s1", Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.RegisterText(R"(
    REGISTER QUERY q STARTING AT '1970-01-01T00:05'
    { MATCH (n:X) WITHIN PT5M FROM s2 EMIT n.id EVERY PT5M })")
                  .ok());
  EXPECT_EQ(engine.StreamNames(), (std::vector<std::string>{"s1", "s2"}));
  EXPECT_TRUE(engine.stream("s2").empty());
}

// Sink delivery order and content are identical at any thread count: the
// parallel scheduler only parallelizes stages 1-3 and delivers on the
// coordinator in the serial engine's (timestamp, query name) order.
TEST(ContinuousEngineTest, SerialParallelEquivalenceRandomized) {
  struct Delivery {
    std::string query;
    Timestamp t;
    TimeAnnotatedTable table;
  };
  struct OrderSink : EmitSink {
    std::vector<Delivery> calls;
    Status OnResult(const std::string& name, Timestamp t,
                    const TimeAnnotatedTable& table) override {
      calls.push_back({name, t, table});
      return Status::OK();
    }
  };

  std::mt19937 rng(20240806);
  for (int round = 0; round < 3; ++round) {
    // A randomized multi-query workload: mixed widths, cadences, offsets,
    // policies — plus one poisoned query to exercise isolation under
    // parallelism.
    std::vector<std::string> queries;
    const char* policies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};
    const char* widths[] = {"PT5M", "PT10M", "PT15M"};
    const char* cadences[] = {"PT5M", "PT10M"};
    const int num_queries = 6 + static_cast<int>(rng() % 6);
    for (int q = 0; q < num_queries; ++q) {
      std::string name = "q" + std::to_string(q);
      queries.push_back(CountQuery(name.c_str(), q % 2 == 0 ? "X" : "Y",
                                   widths[rng() % 3], cadences[rng() % 2],
                                   policies[rng() % 3]));
    }
    queries.push_back(
        "REGISTER QUERY poison STARTING AT '1970-01-01T00:05' "
        "{ MATCH (n:X) WITHIN PT20M EMIT n.id / 0 EVERY PT5M }");
    std::vector<std::pair<int64_t, int64_t>> elements;  // (minute, id).
    const int num_elements = 20 + static_cast<int>(rng() % 20);
    int64_t minute = 0;
    for (int e = 0; e < num_elements; ++e) {
      minute += static_cast<int64_t>(rng() % 4);
      elements.emplace_back(minute, e + 1);
    }

    auto run = [&](int eval_threads) {
      EngineOptions options;
      options.eval_threads = eval_threads;
      ContinuousEngine engine(options);
      OrderSink sink;
      engine.AddSink(&sink);
      for (const std::string& text : queries) {
        EXPECT_TRUE(engine.RegisterText(text).ok());
      }
      for (const auto& [min, id] : elements) {
        EXPECT_TRUE(engine.Ingest(Item(id, id % 2), T(min)).ok());
      }
      EXPECT_TRUE(engine.AdvanceTo(T(minute + 30)).ok());
      return std::move(sink.calls);
    };

    std::vector<Delivery> serial = run(1);
    std::vector<Delivery> parallel = run(EvalThreadsFromEnv(4));
    ASSERT_EQ(serial.size(), parallel.size()) << "round " << round;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].query, parallel[i].query)
          << "round " << round << " delivery " << i;
      EXPECT_EQ(serial[i].t, parallel[i].t)
          << "round " << round << " delivery " << i;
      EXPECT_EQ(serial[i].table, parallel[i].table)
          << "round " << round << " delivery " << i;
    }
  }
}

// The scheduler exports its batching behaviour: batch sizes land in a
// histogram and parallel-executed evaluations are counted.
TEST(ContinuousEngineTest, ParallelSchedulerMetrics) {
  EngineOptions options;
  options.eval_threads = 4;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  for (int q = 0; q < 4; ++q) {
    std::string name = "q" + std::to_string(q);
    ASSERT_TRUE(
        engine.RegisterText(CountQuery(name.c_str(), "X", "PT10M", "PT5M"))
            .ok());
  }
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  // Two instants (5, 10) × 4 queries, all batched.
  EXPECT_EQ(engine.evaluations_run(), 8);
  EXPECT_EQ(
      engine.metrics().CounterFor("seraph_engine_parallel_evals_total")
          ->value(),
      8);
  HistogramSnapshot batches =
      engine.metrics().HistogramFor("seraph_engine_eval_batch_size")
          ->Snapshot();
  EXPECT_EQ(batches.count, 2);
  EXPECT_EQ(batches.max, 4);
}

// Queries reading the same (stream, STARTING AT, WITHIN, EVERY) share one
// window, which the coordinator advances once per instant however many
// queries read it and however many threads evaluate them: the advances
// charged across the fleet per instant equal the number of windows with a
// live reader. The poisoned query's window stops once the error budget
// disables its only reader.
TEST(ContinuousEngineTest, SharedWindowsAdvanceOncePerInstant) {
  const char* widths[] = {"PT5M", "PT10M", "PT15M"};
  const char* policies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};
  std::vector<std::vector<TimeAnnotatedTable>> serial;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("eval_threads=" + std::to_string(threads));
    EngineOptions options;
    options.eval_threads = threads;
    options.query_error_budget = 2;
    ContinuousEngine engine(options);
    CollectingSink sink;
    engine.AddSink(&sink);
    for (int q = 0; q < 12; ++q) {
      const std::string name = "q" + std::to_string(q);
      ASSERT_TRUE(engine
                      .RegisterText(CountQuery(name.c_str(),
                                               q % 2 == 0 ? "X" : "Y",
                                               widths[q % 3], "PT5M",
                                               policies[(q / 3) % 3]))
                      .ok());
    }
    ASSERT_TRUE(engine
                    .RegisterText("REGISTER QUERY poison STARTING AT "
                                  "'1970-01-01T00:05' { MATCH (n:X) WITHIN "
                                  "PT20M EMIT n.id / 0 EVERY PT5M }")
                    .ok());
    for (int64_t m = 1; m <= 60; ++m) {
      ASSERT_TRUE(engine.Ingest(Item(m, m % 2), T(m)).ok());
    }
    EXPECT_EQ(engine.metrics()
                  .FindGauge("seraph_window_readers",
                             {{"stream", "<default>"},
                              {"window",
                               "WITHIN PT5M EVERY PT5M STARTING AT "
                               "1970-01-01T00:05"}})
                  ->value(),
              4);
    int64_t charged = 0;
    for (int64_t m = 5; m <= 60; m += 5) {
      ASSERT_TRUE(engine.AdvanceTo(T(m)).ok());
      int64_t total = 0;
      for (const std::string& name : engine.QueryNames()) {
        total += engine.metrics()
                     .FindCounter("seraph_query_snapshots_incremental_total",
                                  {{"query", name}})
                     ->value();
      }
      // The poisoned window advanced at 5 and 10; then its reader is off.
      EXPECT_EQ(total - charged, m <= 10 ? 4 : 3) << "at minute " << m;
      charged = total;
    }
    EXPECT_TRUE(engine.QueryDisabled("poison"));
    std::vector<std::vector<TimeAnnotatedTable>> results;
    for (int q = 0; q < 12; ++q) {
      results.push_back(sink.ResultsFor("q" + std::to_string(q)).entries());
      EXPECT_EQ(results.back().size(), 12u);
    }
    if (serial.empty()) {
      serial = std::move(results);
    } else {
      EXPECT_EQ(results, serial);
    }
  }
}

TEST(ContinuousEngineTest, DrainProcessesToLastElement) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q", "X", "PT5M", "PT5M")).ok());
  ASSERT_TRUE(engine.Ingest(Item(1, 0), T(7)).ok());
  ASSERT_TRUE(engine.Ingest(Item(2, 0), T(18)).ok());
  ASSERT_TRUE(engine.Drain().ok());
  // ET due by 18: 5, 10, 15.
  EXPECT_EQ(sink.ResultsFor("q").size(), 3u);
}

}  // namespace
}  // namespace seraph
