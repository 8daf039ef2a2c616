// Delta-vs-full equivalence (docs/INTERNALS.md, "Incremental
// evaluation"): an engine with delta matching enabled must deliver a
// timeline bit-identical — content *and* row order, per emission — to an
// engine that fully re-matches every instant, across query shapes
// (directions, labels, property anchors, path variables, repeated
// variables, WHERE, DISTINCT / ORDER BY / SKIP / LIMIT, entity functions,
// runtime errors), churn patterns (append-only, hot-set updates,
// relationship rewires, window evictions), report policies, morsel
// parallelism, evaluation deadlines with injected failures, and
// checkpoint/restore. The index's cached output rows are also checked
// directly against the reference projection over DeltaIndex::Emit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "cypher/executor.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/delta/delta_index.h"
#include "seraph/seraph_parser.h"
#include "stream/snapshot.h"
#include "stream/window.h"

namespace seraph {
namespace {

// Round multiplier for fuzz loops; CI sets SERAPH_FUZZ_ROUNDS to fuzz
// harder under sanitizers without slowing local runs.
int FuzzRounds(int base) {
  if (const char* env = std::getenv("SERAPH_FUZZ_ROUNDS")) {
    long factor = std::strtol(env, nullptr, 10);
    if (factor > 1) return base * static_cast<int>(factor);
  }
  return base;
}

Timestamp T(int64_t minutes) {
  return Timestamp::FromMillis(minutes * 60'000);
}

// One timestamped stream: small graph elements whose node/relationship
// ids are drawn from a bounded universe, so later elements *update*
// earlier entities (labels merge, properties overwrite, relationships
// rewire endpoints) while the sliding window concurrently evicts old
// elements — every dirty-set source the snapshotter can produce.
struct Event {
  int64_t minute;
  PropertyGraph graph;
};

std::vector<Event> ChurnEvents(uint32_t seed, int count) {
  std::mt19937 rng(seed);
  std::vector<Event> events;
  int64_t minute = 0;
  const int64_t node_universe = 30;
  const int64_t rel_universe = 60;
  // A relationship id's endpoints and type are immutable across a stream
  // (the window union rejects conflicts); reusing an id only updates its
  // properties. First use pins the definition.
  struct RelDef {
    int64_t src, trg;
    std::string type;
  };
  std::map<int64_t, RelDef> rel_defs;
  for (int e = 0; e < count; ++e) {
    minute += static_cast<int64_t>(rng() % 3);
    GraphBuilder builder;
    const int nodes = 2 + static_cast<int>(rng() % 4);
    const int rels = 2 + static_cast<int>(rng() % 5);
    std::vector<int64_t> ids;
    for (int i = 0; i < nodes; ++i) {
      int64_t id = 1 + static_cast<int64_t>(rng() % node_universe);
      ids.push_back(id);
      std::vector<std::string> labels;
      switch (rng() % 4) {
        case 0: labels = {"A"}; break;
        case 1: labels = {"B"}; break;
        case 2: labels = {"A", "B"}; break;
        default: break;  // Unlabelled.
      }
      builder.Node(id, labels,
                   {{"v", Value::Int(static_cast<int64_t>(rng() % 10))}});
    }
    std::set<int64_t> used_rel_ids;
    for (int i = 0; i < rels; ++i) {
      int64_t id = 1 + static_cast<int64_t>(rng() % rel_universe);
      if (!used_rel_ids.insert(id).second) continue;  // One id per element.
      auto def = rel_defs.find(id);
      if (def == rel_defs.end()) {
        // Endpoints come from this element's nodes (a graph element must
        // be self-contained); node-id reuse across elements still rewires
        // the merged window graph. Bias towards self-loops occasionally
        // (undirected + repeated-variable shapes hit their special cases).
        int64_t src = ids[rng() % ids.size()];
        int64_t trg = (rng() % 8 == 0) ? src : ids[rng() % ids.size()];
        def = rel_defs
                  .emplace(id, RelDef{src, trg,
                                      (rng() % 3 == 0) ? "S" : "R"})
                  .first;
      } else {
        // Reuse: carry the pinned endpoints into this element (bare-node
        // merges keep it self-contained) and update the payload.
        builder.Node(def->second.src, std::vector<std::string>{});
        builder.Node(def->second.trg, std::vector<std::string>{});
      }
      builder.Rel(id, def->second.src, def->second.trg, def->second.type,
                  {{"w", Value::Int(static_cast<int64_t>(rng() % 5))}});
    }
    events.push_back({minute, builder.Build()});
  }
  return events;
}

// Delta-eligible MATCH shapes (single fixed-length pattern, EMIT): the
// delta path must serve all of these. The trailing two are deliberately
// ineligible (variable-length, aggregation) and exercise the fallback.
// "type_error" fails at some instants, in WHERE or in the projection with
// a message that depends on the failing match, so both engines must
// report the same first error.
struct Shape {
  const char* name;
  const char* body;  // "MATCH ... EMIT ..." without the policy suffix.
};

const Shape kShapes[] = {
    {"hop", "MATCH (a:A)-[r:R]->(b) WITHIN PT10M EMIT a.v AS av, b.v AS bv"},
    {"anchor", "MATCH (a:A {v: 3})-[r]->(b) WITHIN PT10M EMIT b.v AS bv"},
    {"chain",
     "MATCH (a)-[:R]->(b)-[:S]->(c) WITHIN PT15M EMIT a.v AS x, c.v AS z"},
    {"incoming", "MATCH (a:B)<-[r:R]-(b) WITHIN PT10M EMIT a.v AS av"},
    {"undirected", "MATCH (a:B)-[r]-(b) WITHIN PT10M EMIT b.v AS bv"},
    {"path",
     "MATCH p = (a:A)-[r:R]->(b) WITHIN PT10M EMIT length(p) AS l, a.v AS "
     "av"},
    {"selfloop", "MATCH (a)-[r:R]->(a) WITHIN PT10M EMIT a.v AS av"},
    {"filtered",
     "MATCH (a:A)-[r:R]->(b) WITHIN PT10M WHERE a.v < b.v EMIT a.v AS av, "
     "b.v AS bv"},
    {"distinct", "MATCH (a:A)-[r:R]->(b) WITHIN PT10M EMIT DISTINCT b.v AS bv"},
    {"ordered",
     "MATCH (a:A)-[r:R]->(b) WITHIN PT10M EMIT a.v AS av ORDER BY b.v DESC, "
     "av"},
    {"paged",
     "MATCH (a)-[r]->(b) WITHIN PT10M EMIT a.v AS av, b.v AS bv ORDER BY bv "
     "SKIP 1 LIMIT 3"},
    {"entity_fns",
     "MATCH (a:A)-[r]->(b) WITHIN PT10M EMIT labels(a) AS la, properties(b) "
     "AS pb, keys(r) AS kr, startNode(r).v AS sv, endNode(r).v AS ev"},
    {"dups", "MATCH (a)-[r]->(b) WITHIN PT10M EMIT a.v % 2 AS parity"},
    {"type_error",
     "MATCH (a:A)-[r:R]->(b) WITHIN PT10M WHERE size(CASE WHEN a.v = 0 AND "
     "r.w < 3 THEN a.v ELSE 'ok' END) > 0 EMIT labels(CASE WHEN a.v = 9 AND "
     "r.w = 4 THEN b.v WHEN a.v = 8 AND r.w = 4 THEN 'x' ELSE a END) AS l"},
    {"varlen", "MATCH (a:A)-[rs:R*1..2]->(b) WITHIN PT10M EMIT b.v AS bv"},
    {"agg", "MATCH (a:A)-[r:R]->(b) WITHIN PT10M EMIT count(r) AS c"},
};

const char* const kPolicies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};

const Shape& ShapeNamed(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (shape.name == name) return shape;
  }
  ADD_FAILURE() << "no shape " << name;
  return kShapes[0];
}

std::string QueryText(const Shape& shape, const char* policy,
                      const std::string& suffix) {
  return "REGISTER QUERY " + std::string(shape.name) + suffix +
         " STARTING AT '1970-01-01T00:05' { " + shape.body + " " + policy +
         " EVERY PT5M }";
}

// Every (shape, policy) combination as one registered-query fleet.
std::vector<std::string> FullFleet() {
  std::vector<std::string> fleet;
  for (const Shape& shape : kShapes) {
    for (size_t p = 0; p < 3; ++p) {
      fleet.push_back(
          QueryText(shape, kPolicies[p], "_p" + std::to_string(p)));
    }
  }
  return fleet;
}

std::vector<std::string> FleetNames() {
  std::vector<std::string> names;
  for (const Shape& shape : kShapes) {
    for (size_t p = 0; p < 3; ++p) {
      names.push_back(std::string(shape.name) + "_p" + std::to_string(p));
    }
  }
  return names;
}

using Timeline = std::vector<std::pair<std::string, TimeVaryingTable>>;

// Per query: evaluation failures and the last error, in `names` order.
using Failures = std::vector<std::pair<int64_t, Status>>;

Timeline RunEngine(const EngineOptions& options,
                   const std::vector<std::string>& fleet,
                   const std::vector<std::string>& names,
                   const std::vector<Event>& events,
                   Failures* failures = nullptr) {
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  for (const std::string& text : fleet) {
    EXPECT_TRUE(engine.RegisterText(text).ok()) << text;
  }
  for (const Event& event : events) {
    EXPECT_TRUE(engine.Ingest(event.graph, T(event.minute)).ok());
  }
  EXPECT_TRUE(engine.AdvanceTo(T(events.back().minute + 20)).ok());
  Timeline out;
  for (const std::string& name : names) {
    out.emplace_back(name, sink.ResultsFor(name));
    if (failures != nullptr) {
      QueryStats stats = *engine.StatsFor(name);
      failures->emplace_back(stats.eval_failures, stats.last_error);
    }
  }
  return out;
}

// Table::operator== is bag equality; the delta index promises more —
// the canonical serial emission order — so compare rows elementwise.
void ExpectTimelinesIdentical(const Timeline& full, const Timeline& delta,
                              const std::string& context) {
  ASSERT_EQ(full.size(), delta.size()) << context;
  for (size_t q = 0; q < full.size(); ++q) {
    const TimeVaryingTable& f = full[q].second;
    const TimeVaryingTable& d = delta[q].second;
    ASSERT_EQ(f.size(), d.size()) << context << " " << full[q].first;
    for (size_t i = 0; i < f.entries().size(); ++i) {
      const std::string where = context + " " + full[q].first + " entry " +
                                std::to_string(i);
      EXPECT_EQ(f.entries()[i].window, d.entries()[i].window) << where;
      const Table& ft = f.entries()[i].table;
      const Table& dt = d.entries()[i].table;
      ASSERT_EQ(ft.rows().size(), dt.rows().size()) << where;
      for (size_t r = 0; r < ft.rows().size(); ++r) {
        EXPECT_EQ(ft.rows()[r], dt.rows()[r]) << where << " row " << r;
      }
    }
  }
}

TEST(DeltaEquivalenceTest, TimelineIdenticalAcrossShapesPoliciesAndChurn) {
  const std::vector<std::string> fleet = FullFleet();
  const std::vector<std::string> names = FleetNames();
  int64_t type_errors = 0;
  for (int round = 0; round < FuzzRounds(3); ++round) {
    std::vector<Event> events =
        ChurnEvents(/*seed=*/101 + static_cast<uint32_t>(round), /*count=*/50);
    EngineOptions full_opts;
    full_opts.delta_matching = false;
    EngineOptions delta_opts;
    delta_opts.delta_matching = true;
    Failures full_failures, delta_failures;
    Timeline full = RunEngine(full_opts, fleet, names, events, &full_failures);
    Timeline delta =
        RunEngine(delta_opts, fleet, names, events, &delta_failures);
    const std::string context = "round " + std::to_string(round);
    ExpectTimelinesIdentical(full, delta, context);
    for (size_t q = 0; q < names.size(); ++q) {
      EXPECT_EQ(full_failures[q].first, delta_failures[q].first)
          << context << " " << names[q];
      EXPECT_EQ(full_failures[q].second, delta_failures[q].second)
          << context << " " << names[q];
      if (names[q].starts_with("type_error")) {
        type_errors += full_failures[q].first;
      }
    }
  }
  // The erroring shape did fail somewhere (else it compares nothing).
  EXPECT_GT(type_errors, 0);
}

TEST(DeltaEquivalenceTest, IdenticalUnderMorselAndEvalParallelism) {
  // The delta index always reproduces the *serial* canonical order, and
  // the parallel matcher is bit-identical to serial — so a parallel
  // full-rematch engine and a delta engine must still agree exactly.
  const std::vector<std::string> fleet = FullFleet();
  const std::vector<std::string> names = FleetNames();
  std::vector<Event> events = ChurnEvents(/*seed=*/77, /*count=*/40);
  EngineOptions full_opts;
  full_opts.delta_matching = false;
  full_opts.match_min_seeds = 1;
  full_opts.match_morsel_size = 4;
  full_opts.eval_threads = 4;
  EngineOptions delta_opts = full_opts;
  delta_opts.delta_matching = true;
  Timeline full = RunEngine(full_opts, fleet, names, events);
  Timeline delta = RunEngine(delta_opts, fleet, names, events);
  ExpectTimelinesIdentical(full, delta, "parallel");
  // One query per engine: each batch leaves all but one worker idle, so
  // the full path (and the delta path's fallback) splits the seed scan.
  for (const Shape& shape : kShapes) {
    const std::vector<std::string> one = {QueryText(shape, "SNAPSHOT", "")};
    const std::vector<std::string> name = {shape.name};
    ExpectTimelinesIdentical(RunEngine(full_opts, one, name, events),
                             RunEngine(delta_opts, one, name, events),
                             std::string("alone ") + shape.name);
  }
}

TEST(DeltaEquivalenceTest, IdenticalAcrossCheckpointRestore) {
  // Delta state is never serialized: a restored engine must rebuild its
  // index and continue emitting exactly what an uninterrupted full
  // engine would. Prefix runs on one delta engine, the suffix on a
  // restored one; the concatenation must equal the one-life full run.
  const std::vector<std::string> fleet = FullFleet();
  const std::vector<std::string> names = FleetNames();
  for (int round = 0; round < FuzzRounds(2); ++round) {
    std::vector<Event> events =
        ChurnEvents(/*seed=*/301 + static_cast<uint32_t>(round), /*count=*/40);
    const int64_t mid = events[events.size() / 2].minute;
    const int64_t end = events.back().minute + 20;

    EngineOptions full_opts;
    full_opts.delta_matching = false;
    ContinuousEngine full(full_opts);
    CollectingSink full_sink;
    full.AddSink(&full_sink);
    for (const std::string& text : fleet) {
      ASSERT_TRUE(full.RegisterText(text).ok());
    }
    for (const Event& event : events) {
      ASSERT_TRUE(full.Ingest(event.graph, T(event.minute)).ok());
    }
    ASSERT_TRUE(full.AdvanceTo(T(mid)).ok());
    ASSERT_TRUE(full.AdvanceTo(T(end)).ok());

    EngineOptions delta_opts;
    delta_opts.delta_matching = true;
    ContinuousEngine first_life(delta_opts);
    CollectingSink first_sink;
    first_life.AddSink(&first_sink);
    for (const std::string& text : fleet) {
      ASSERT_TRUE(first_life.RegisterText(text).ok());
    }
    for (const Event& event : events) {
      if (event.minute > mid) break;
      ASSERT_TRUE(first_life.Ingest(event.graph, T(event.minute)).ok());
    }
    ASSERT_TRUE(first_life.AdvanceTo(T(mid)).ok());
    EngineCheckpoint checkpoint = first_life.CaptureCheckpoint();

    ContinuousEngine second_life(delta_opts);
    CollectingSink second_sink;
    second_life.AddSink(&second_sink);
    for (const std::string& text : fleet) {
      ASSERT_TRUE(second_life.RegisterText(text).ok());
    }
    ASSERT_TRUE(second_life.RestoreFrom(checkpoint).ok());
    for (const Event& event : events) {
      if (event.minute <= mid) continue;
      ASSERT_TRUE(second_life.Ingest(event.graph, T(event.minute)).ok());
    }
    ASSERT_TRUE(second_life.AdvanceTo(T(end)).ok());

    for (const std::string& name : names) {
      const TimeVaryingTable& expected = full_sink.ResultsFor(name);
      const TimeVaryingTable& prefix = first_sink.ResultsFor(name);
      const TimeVaryingTable& suffix = second_sink.ResultsFor(name);
      ASSERT_EQ(expected.size(), prefix.size() + suffix.size())
          << name << " round " << round;
      for (size_t i = 0; i < expected.entries().size(); ++i) {
        const auto& want = expected.entries()[i];
        const auto& got = i < prefix.entries().size()
                              ? prefix.entries()[i]
                              : suffix.entries()[i - prefix.entries().size()];
        const std::string where =
            name + " round " + std::to_string(round) + " entry " +
            std::to_string(i);
        EXPECT_EQ(want.window, got.window) << where;
        ASSERT_EQ(want.table.rows().size(), got.table.rows().size()) << where;
        for (size_t r = 0; r < want.table.rows().size(); ++r) {
          EXPECT_EQ(want.table.rows()[r], got.table.rows()[r])
              << where << " row " << r;
        }
      }
    }
  }
}

class DeltaFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(DeltaFaultTest, IdenticalAfterInjectedDeadlineFailure) {
  // An injected "eval.deadline" expiry fails one evaluation; the engine
  // invalidates the delta index (it may be mid-repair and has already
  // consumed that advance's dirty sets) and the next instant rebuilds.
  // Both arms see the same deterministic fault schedule, so the
  // timelines — including the gap at the failed instant — must agree.
  const std::vector<std::string> fleet = {
      QueryText(ShapeNamed("hop"), "SNAPSHOT", "_p0")};
  const std::vector<std::string> names = {"hop_p0"};
  std::vector<Event> events = ChurnEvents(/*seed=*/55, /*count=*/40);
  EngineOptions full_opts;
  full_opts.delta_matching = false;
  full_opts.eval_deadline_millis = 60'000;  // Plumbing only; never expires.
  EngineOptions delta_opts = full_opts;
  delta_opts.delta_matching = true;

  FaultInjector::Global().ArmSchedule("eval.deadline", {3});
  Timeline full = RunEngine(full_opts, fleet, names, events);
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmSchedule("eval.deadline", {3});
  Timeline delta = RunEngine(delta_opts, fleet, names, events);
  ExpectTimelinesIdentical(full, delta, "fault");
  // The failure actually happened (the timeline is one emission short of
  // the failure-free run).
  FaultInjector::Global().Reset();
  Timeline clean = RunEngine(delta_opts, fleet, names, events);
  EXPECT_EQ(clean[0].second.size(), delta[0].second.size() + 1);
}

TEST(DeltaEquivalenceTest, MetricsDistinguishHitsRebuildsAndFallbacks) {
  EngineOptions options;
  options.delta_matching = true;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  // One eligible query and one ineligible (variable-length) query.
  ASSERT_TRUE(
      engine.RegisterText(QueryText(ShapeNamed("hop"), "SNAPSHOT", "_m"))
          .ok());
  ASSERT_TRUE(
      engine.RegisterText(QueryText(ShapeNamed("varlen"), "SNAPSHOT", "_m"))
          .ok());
  std::vector<Event> events = ChurnEvents(/*seed=*/9, /*count=*/30);
  for (const Event& event : events) {
    ASSERT_TRUE(engine.Ingest(event.graph, T(event.minute)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(events.back().minute + 20)).ok());
  auto counter = [&](const char* name, const char* query) {
    return engine.metrics()
        .CounterFor(name, {{"query", query}})
        ->value();
  };
  EXPECT_GT(counter("seraph_delta_hits_total", "hop_m"), 0);
  EXPECT_GT(counter("seraph_delta_rebuilds_total", "hop_m"), 0);
  EXPECT_EQ(counter("seraph_delta_fallbacks_total", "hop_m"), 0);
  EXPECT_EQ(counter("seraph_delta_hits_total", "varlen_m"), 0);
  EXPECT_GT(counter("seraph_delta_fallbacks_total", "varlen_m"), 0);
  // The hit path repaired incrementally: far fewer rebuilds than hits.
  EXPECT_LT(counter("seraph_delta_rebuilds_total", "hop_m"),
            counter("seraph_delta_hits_total", "hop_m"));
}

TEST(DeltaEquivalenceTest, RowsProjectedGrowWithNewMatchesNotTheWindow) {
  // One fresh (a)-[:R]->(b) pair per minute under a 10-minute window: each
  // instant indexes one new match while the index holds about ten, so the
  // projection counter grows by one per instant; a rebuild projects the
  // whole index once.
  EngineOptions options;
  options.delta_matching = true;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine
                  .RegisterText(
                      "REGISTER QUERY rows STARTING AT '1970-01-01T00:10' { "
                      "MATCH (a:A)-[r:R]->(b) WITHIN PT10M EMIT a.v AS av "
                      "SNAPSHOT EVERY PT1M }")
                  .ok());
  for (int64_t m = 0; m < 30; ++m) {
    GraphBuilder builder;
    builder.Node(1000 + 2 * m, {"A"}, {{"v", Value::Int(m)}});
    builder.Node(1001 + 2 * m, {"B"}, {{"v", Value::Int(m)}});
    builder.Rel(m + 1, 1000 + 2 * m, 1001 + 2 * m, "R");
    ASSERT_TRUE(engine.Ingest(builder.Build(), T(m)).ok());
  }
  const MetricLabels q{{"query", "rows"}};
  auto projected = [&] {
    return engine.metrics()
        .CounterFor("seraph_delta_rows_projected_total", q)
        ->value();
  };
  auto entries = [&] {
    return engine.metrics().GaugeFor("seraph_delta_index_entries", q)->value();
  };
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  EXPECT_GE(entries(), 10);
  EXPECT_EQ(projected(), entries());  // The first build, whole.
  for (int64_t m = 11; m < 20; ++m) {
    const int64_t before = projected();
    ASSERT_TRUE(engine.AdvanceTo(T(m)).ok());
    EXPECT_EQ(projected() - before, 1) << "minute " << m;
    EXPECT_GE(entries(), 10) << "minute " << m;
  }
  // ReviveQuery invalidates the index: the next instant rebuilds it and
  // projects every match once, then steady state resumes.
  ASSERT_TRUE(engine.ReviveQuery("rows").ok());
  int64_t before = projected();
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  EXPECT_EQ(projected() - before, entries());
  before = projected();
  ASSERT_TRUE(engine.AdvanceTo(T(21)).ok());
  EXPECT_EQ(projected() - before, 1);
  EXPECT_EQ(engine.metrics()
                .CounterFor("seraph_delta_rebuilds_total", q)
                ->value(),
            2);
}

TEST(DeltaEquivalenceTest, EntityParameterKeepsQueryOnFullPath) {
  // $ref holds node 5, which the stream updates mid-window while the one
  // match (1)-[:R]->(2) stays unchanged: a cached WHERE outcome would go
  // stale (the update re-inserts no match), so no delta index may serve
  // the query.
  std::vector<Event> events;
  {
    GraphBuilder builder;
    builder.Node(1, {"A"}, {{"v", Value::Int(3)}});
    builder.Node(2, {"B"}, {{"v", Value::Int(0)}});
    builder.Rel(1, 1, 2, "R");
    builder.Node(5, {"Ref"}, {{"v", Value::Int(10)}});
    events.push_back({0, builder.Build()});
  }
  for (int64_t m = 1; m <= 6; ++m) {
    GraphBuilder builder;
    builder.Node(100 + m, {"C"}, {{"v", Value::Int(m)}});
    if (m == 3) builder.Node(5, {"Ref"}, {{"v", Value::Int(1)}});
    events.push_back({m, builder.Build()});
  }
  const std::string text =
      "REGISTER QUERY ref STARTING AT '1970-01-01T00:01' { MATCH "
      "(a:A)-[r:R]->(b) WITHIN PT10M WHERE a.v < $ref.v EMIT a.v AS av "
      "SNAPSHOT EVERY PT1M }";
  EngineOptions full_opts;
  full_opts.delta_matching = false;
  full_opts.parameters["ref"] = Value::Node(NodeId{5});
  EngineOptions delta_opts = full_opts;
  delta_opts.delta_matching = true;
  auto run = [&](const EngineOptions& options, int64_t* hits) {
    ContinuousEngine engine(options);
    CollectingSink sink;
    engine.AddSink(&sink);
    EXPECT_TRUE(engine.RegisterText(text).ok());
    for (const Event& event : events) {
      EXPECT_TRUE(engine.Ingest(event.graph, T(event.minute)).ok());
    }
    EXPECT_TRUE(engine.AdvanceTo(T(6)).ok());
    *hits = engine.metrics()
                .CounterFor("seraph_delta_hits_total", {{"query", "ref"}})
                ->value();
    return Timeline{{"ref", sink.ResultsFor("ref")}};
  };
  int64_t full_hits = 0, delta_hits = 0;
  Timeline full = run(full_opts, &full_hits);
  Timeline delta = run(delta_opts, &delta_hits);
  EXPECT_EQ(delta_hits, 0);
  ExpectTimelinesIdentical(full, delta, "entity parameter");
  // The update took effect: the row is there before minute 3, gone after.
  const auto& entries = full[0].second.entries();
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries.front().table.size(), 1u);
  EXPECT_EQ(entries.back().table.size(), 0u);
}

TEST(DeltaEquivalenceTest, PropertyValuesThatCanFailTakeTheFullPath) {
  // Build evaluates a pattern's inline property values once, up front;
  // the matcher evaluates one only when a candidate with the right labels
  // reaches it. So over windows holding no :A node the full path answers
  // empty tables for {x: 1/0} and {x: $missing}, and an index built for
  // them would fail there instead. Windows holding an :A node fail on
  // both paths, alike. A bound parameter, and lists and maps of literals
  // and bound parameters, cannot fail and stay on the index.
  std::vector<Event> events;
  for (int64_t m = 0; m < 4; ++m) {
    GraphBuilder builder;
    builder.Node(1 + m, {"B"}, {{"x", Value::Int(m)}});
    events.push_back({m, builder.Build()});
  }
  {
    GraphBuilder builder;
    builder.Node(10, {"A"}, {{"x", Value::Int(1)}});
    builder.Node(11, {"B"}, {{"x", Value::Int(2)}});
    builder.Rel(1, 10, 11, "R");
    events.push_back({6, builder.Build()});
  }
  auto text = [](const std::string& name, const std::string& value) {
    return "REGISTER QUERY " + name +
           " STARTING AT '1970-01-01T00:01' { MATCH (a:A {x: " + value +
           "})-[r:R]->(b) WITHIN PT2M EMIT a.x AS x SNAPSHOT EVERY PT1M }";
  };
  EngineOptions full_opts;
  full_opts.delta_matching = false;
  full_opts.parameters["one"] = Value::Int(1);
  EngineOptions delta_opts = full_opts;
  delta_opts.delta_matching = true;
  const std::pair<const char*, const char*> failing[] = {
      {"div", "1/0"}, {"missing", "$missing"}};
  for (const auto& [name, value] : failing) {
    const std::vector<std::string> fleet = {text(name, value)};
    const std::vector<std::string> names = {name};
    auto query = ParseSeraphQuery(fleet[0]);
    ASSERT_TRUE(query.ok()) << fleet[0];
    EXPECT_FALSE(DeltaIndex::Eligible(*query) &&
                 DeltaIndex::ParametersAdmit(*query, full_opts.parameters))
        << value;
    Failures full_failures, delta_failures;
    Timeline full =
        RunEngine(full_opts, fleet, names, events, &full_failures);
    Timeline delta =
        RunEngine(delta_opts, fleet, names, events, &delta_failures);
    ExpectTimelinesIdentical(full, delta, value);
    EXPECT_EQ(full_failures, delta_failures) << value;
    // Both kinds of window were compared: empty answers before minute 6,
    // failures over the :A element (fewer than the disabling five).
    ASSERT_GE(full[0].second.size(), 5u) << value;
    EXPECT_TRUE(full[0].second.entries()[0].table.empty()) << value;
    EXPECT_GT(full_failures[0].first, 0) << value;
    EXPECT_LT(full_failures[0].first, 5) << value;
  }
  for (const char* value : {"1", "$one", "[1, $one]", "{k: [$one, 'a']}"}) {
    auto query = ParseSeraphQuery(text("ok", value));
    ASSERT_TRUE(query.ok()) << value;
    EXPECT_TRUE(DeltaIndex::Eligible(*query) &&
                DeltaIndex::ParametersAdmit(*query, full_opts.parameters))
        << value;
  }
}

TEST(DeltaEquivalenceTest, CachedOutputEqualsProjectionOverEmit) {
  // Index level: after every advance, Output (the cached rows plus the
  // bag-level half) must equal the projection alone executed over the
  // MATCH-stage reference Emit — row for row, or with the same error. A
  // failed Output is left as is (no Invalidate), so the next call must
  // recompute the matches it left pending.
  int shapes = 0;
  for (const Shape& shape : kShapes) {
    auto query = ParseSeraphQuery(QueryText(shape, "SNAPSHOT", ""));
    ASSERT_TRUE(query.ok()) << shape.name;
    if (!DeltaIndex::Eligible(*query)) continue;
    ++shapes;
    const auto* match = std::get_if<MatchClause>(&query->clauses[0]);
    for (int round = 0; round < FuzzRounds(2); ++round) {
      const std::string context =
          std::string(shape.name) + " round " + std::to_string(round);
      PropertyGraphStream stream;
      for (const Event& event :
           ChurnEvents(/*seed=*/501 + static_cast<uint32_t>(round), 60)) {
        ASSERT_TRUE(stream.Append(event.graph, T(event.minute)).ok());
      }
      WindowConfig config{query->starting_at, *match->within, query->every,
                          WindowSemantics::kLookback};
      IncrementalSnapshotter snapshotter(&stream, config.bounds());
      DeltaIndex index(match, &query->projection);
      int64_t projected = 0;
      for (Timestamp t = query->starting_at;
           t <= stream.MaxTimestamp() + *match->within; t = t + query->every) {
        const TimeInterval window =
            config.ActiveWindow(t).value_or(TimeInterval{t, t});
        ASSERT_TRUE(snapshotter.Advance(window).ok()) << context;
        const PropertyGraph& graph = snapshotter.graph();
        ExecutionOptions exec;
        exec.now = t;
        exec.window = window;
        index.ObserveAdvance(snapshotter);
        if (!index.valid()) {
          ASSERT_TRUE(
              index.Build(graph, snapshotter.stats().advances, exec).ok());
        }
        Result<Table> expected = index.Emit(graph, exec);
        if (expected.ok()) {
          SingleQuery single;
          single.ret.body = std::move(query->projection);
          expected = ExecuteSingleQuery(single, SingleGraphResolver(graph),
                                        *expected, exec);
          query->projection = std::move(single.ret.body);
        }
        Result<Table> cached = index.Output(graph, exec);
        const std::string where = context + " at " + t.ToString();
        ASSERT_EQ(expected.ok(), cached.ok()) << where;
        if (!expected.ok()) {
          EXPECT_EQ(expected.status(), cached.status()) << where;
          continue;
        }
        EXPECT_EQ(expected->fields(), cached->fields()) << where;
        ASSERT_EQ(expected->size(), cached->size()) << where;
        for (size_t r = 0; r < expected->size(); ++r) {
          EXPECT_EQ(expected->rows()[r], cached->rows()[r])
              << where << " row " << r;
        }
        // Never more than the index: each match is projected once per
        // insertion, not once per evaluation.
        EXPECT_LE(index.rows_projected() - projected,
                  static_cast<int64_t>(index.size()))
            << where;
        projected = index.rows_projected();
      }
    }
  }
  EXPECT_EQ(shapes, 14);
}

}  // namespace
}  // namespace seraph
