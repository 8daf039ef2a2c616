// Serial/parallel matcher equivalence: morsel-partitioned seed matching
// (docs/INTERNALS.md, "Intra-query parallelism") must produce a result
// bag bit-identical — content *and* row order — to the serial DFS, for
// every thread count and morsel size, across the full pattern feature
// set (chains, comma joins with the relationship-isomorphism rule,
// var-length expansion, shortestPath, multi-label seeds, exists()).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "cypher/executor.h"
#include "cypher/matcher.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"

namespace seraph {
namespace {

// A random labelled multigraph. Node labels are drawn from {A}, {B},
// {A,B}, or {} so label-indexed, multi-label, and full-scan seeding all
// occur; relationships get types R/S and a weight property.
PropertyGraph RandomGraph(uint32_t seed, int num_nodes, int num_rels) {
  std::mt19937 rng(seed);
  GraphBuilder builder;
  for (int i = 1; i <= num_nodes; ++i) {
    std::vector<std::string> labels;
    switch (rng() % 4) {
      case 0: labels = {"A"}; break;
      case 1: labels = {"B"}; break;
      case 2: labels = {"A", "B"}; break;
      default: break;  // Unlabelled.
    }
    builder.Node(i, labels,
                 {{"v", Value::Int(static_cast<int64_t>(rng() % 10))}});
  }
  for (int i = 1; i <= num_rels; ++i) {
    int64_t src = 1 + static_cast<int64_t>(rng() % num_nodes);
    int64_t trg = 1 + static_cast<int64_t>(rng() % num_nodes);
    builder.Rel(i, src, trg, (rng() % 3 == 0) ? "S" : "R",
                {{"w", Value::Int(static_cast<int64_t>(rng() % 5))}});
  }
  return builder.Build();
}

// Every feature of the matcher the partitioned path must preserve.
const char* const kQueries[] = {
    // Label-indexed seed, single hop.
    "MATCH (a:A)-[r:R]->(b) RETURN a, r, b",
    // Full-scan seed (no labels) and a two-hop chain.
    "MATCH (a)-[:R]->(b)-[:S]->(c) RETURN a, b, c",
    // Multi-label seed: the scan starts from the more selective index.
    "MATCH (n:A:B) RETURN n",
    // Property-constrained seed.
    "MATCH (a:A {v: 3})-[r]->(b) RETURN a, b",
    // Comma join: relationship isomorphism across patterns of one clause.
    "MATCH (a:A)-[r1]->(b), (b)-[r2]->(c) RETURN a, b, c",
    // Var-length with a bounded hop range.
    "MATCH (a:A)-[rs:R*1..3]->(b:B) RETURN a, b",
    // shortestPath seeded from the partitioned source enumeration.
    "MATCH p = shortestPath((a:A)-[:R*..4]->(b:B)) RETURN a, b, length(p)",
    // exists() inside WHERE: matched serially inside each morsel.
    "MATCH (a:A) WHERE exists((a)-[:S]->()) RETURN a",
    // Aggregation downstream of the match (exercises executor plumbing).
    "MATCH (a:A)-[r]->(b) RETURN b.v AS v, count(*) AS c ORDER BY v",
};

Table RunQuery(const Query& query, const PropertyGraph& graph,
          const MatchParallelism* par) {
  ExecutionOptions options;
  options.match_parallelism = par;
  auto result = ExecuteQueryOnGraph(query, graph, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Table();
}

// Table::operator== is bag equality; the partitioned matcher promises
// more — identical row order — so compare rows elementwise.
void ExpectRowsIdentical(const Table& serial, const Table& parallel,
                         const std::string& context) {
  ASSERT_EQ(serial.rows().size(), parallel.rows().size()) << context;
  for (size_t i = 0; i < serial.rows().size(); ++i) {
    EXPECT_EQ(serial.rows()[i], parallel.rows()[i])
        << context << " row " << i;
  }
}

TEST(MatcherParallelTest, BitIdenticalAcrossThreadsAndMorselSizes) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    PropertyGraph graph = RandomGraph(seed, /*num_nodes=*/120,
                                      /*num_rels=*/240);
    for (const char* text : kQueries) {
      auto parsed = ParseCypherQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << " in " << text;
      Table serial = RunQuery(*parsed, graph, nullptr);
      for (int threads : {2, 4, 8}) {
        ThreadPool pool(threads);
        for (size_t morsel : {size_t{1}, size_t{7}, size_t{64}}) {
          MatchParallelism par;
          par.pool = &pool;
          par.min_seeds = 1;  // Partition even tiny domains.
          par.morsel_size = morsel;
          Table parallel = RunQuery(*parsed, graph, &par);
          ExpectRowsIdentical(
              serial, parallel,
              std::string(text) + " seed=" + std::to_string(seed) +
                  " threads=" + std::to_string(threads) +
                  " morsel=" + std::to_string(morsel));
        }
      }
    }
  }
}

TEST(MatcherParallelTest, PreBoundSeedVariableStaysSerial) {
  // A MATCH whose first pattern starts from an already-bound variable
  // cannot be partitioned; the spec must be ignored, not mis-applied.
  PropertyGraph graph = RandomGraph(7, 60, 120);
  auto parsed = ParseCypherQuery(
      "MATCH (a:A) MATCH (a)-[r:R]->(b) RETURN a, b");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Table serial = RunQuery(*parsed, graph, nullptr);
  ThreadPool pool(4);
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1;
  par.morsel_size = 4;
  Table parallel = RunQuery(*parsed, graph, &par);
  ExpectRowsIdentical(serial, parallel, "pre-bound second MATCH");
}

TEST(MatcherParallelTest, MinSeedsThresholdKeepsSmallScansSerial) {
  // Below the threshold no morsels are cut; results are identical either
  // way, and the spec's counter stays untouched.
  PropertyGraph graph = RandomGraph(9, 40, 80);
  auto parsed = ParseCypherQuery("MATCH (a:A)-[r]->(b) RETURN a, b");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Table serial = RunQuery(*parsed, graph, nullptr);
  ThreadPool pool(2);
  Counter partitions;
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1'000'000;
  par.partitions = &partitions;
  Table parallel = RunQuery(*parsed, graph, &par);
  ExpectRowsIdentical(serial, parallel, "min_seeds gate");
  EXPECT_EQ(partitions.value(), 0);
}

TEST(MatcherParallelTest, PartitionMetricsAreRecorded) {
  PropertyGraph graph = RandomGraph(11, 100, 150);
  auto parsed = ParseCypherQuery("MATCH (a:A)-[r]->(b) RETURN a, b");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ThreadPool pool(4);
  Counter partitions;
  Histogram seeds;
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1;
  par.morsel_size = 8;
  par.partitions = &partitions;
  par.seed_candidates = &seeds;
  (void)RunQuery(*parsed, graph, &par);
  EXPECT_GT(partitions.value(), 0);
  EXPECT_EQ(seeds.count(), 1);
  EXPECT_GT(seeds.sum(), 0);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: EngineOptions::eval_threads end to end. One
// pool serves both levels; a batch smaller than the pool hands its idle
// workers to its queries' seed scans.
// ---------------------------------------------------------------------------

Timestamp T(int64_t minutes) {
  return Timestamp::FromMillis(minutes * 60'000);
}

using Timeline = std::vector<std::pair<std::string, TimeVaryingTable>>;

// The delivered timeline of `queries` (REGISTER QUERY texts, named by
// `names`) over `events`, on an engine with `options`.
Timeline RunEngine(const EngineOptions& options,
                   const std::vector<std::string>& queries,
                   const std::vector<std::string>& names,
                   const std::vector<std::pair<int64_t, PropertyGraph>>& events,
                   int64_t until_minute) {
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  for (const std::string& text : queries) {
    EXPECT_TRUE(engine.RegisterText(text).ok()) << text;
  }
  for (const auto& [min, graph] : events) {
    EXPECT_TRUE(engine.Ingest(graph, T(min)).ok());
  }
  EXPECT_TRUE(engine.AdvanceTo(T(until_minute)).ok());
  Timeline out;
  for (const std::string& name : names) {
    out.emplace_back(name, sink.ResultsFor(name));
  }
  return out;
}

void ExpectTimelinesIdentical(const Timeline& serial,
                              const Timeline& parallel,
                              const std::string& context) {
  ASSERT_EQ(serial.size(), parallel.size()) << context;
  for (size_t q = 0; q < serial.size(); ++q) {
    const TimeVaryingTable& s = serial[q].second;
    const TimeVaryingTable& p = parallel[q].second;
    const std::string where = context + " " + serial[q].first;
    ASSERT_EQ(s.size(), p.size()) << where;
    for (size_t i = 0; i < s.entries().size(); ++i) {
      EXPECT_EQ(s.entries()[i].window, p.entries()[i].window)
          << where << " entry " << i;
      ExpectRowsIdentical(s.entries()[i].table, p.entries()[i].table,
                          where + " entry " + std::to_string(i));
    }
  }
}

TEST(MatcherParallelTest, EngineWithEvalThreadsMatchesSerialEngine) {
  std::mt19937 rng(123);
  // Ingest a stream of small random graphs, then compare the full
  // delivered timeline of a pattern-heavy query fleet.
  std::vector<std::pair<int64_t, PropertyGraph>> events;
  int64_t minute = 0;
  for (int e = 0; e < 40; ++e) {
    minute += static_cast<int64_t>(rng() % 3);
    events.emplace_back(minute,
                        RandomGraph(static_cast<uint32_t>(100 + e), 20, 30));
  }
  const std::vector<std::string> names = {"chains", "stars"};
  const std::vector<std::string> queries = {
      "REGISTER QUERY chains STARTING AT '1970-01-01T00:05' { "
      "MATCH (a:A)-[r:R]->(b) WITHIN PT10M "
      "EMIT a.v AS av, b.v AS bv SNAPSHOT EVERY PT5M }",
      "REGISTER QUERY stars STARTING AT '1970-01-01T00:05' { "
      "MATCH (a)-[:R]->(b)-[:S]->(c) WITHIN PT15M "
      "EMIT a.v AS x, c.v AS z SNAPSHOT EVERY PT5M }",
  };
  auto options = [](int threads) {
    EngineOptions o;
    o.eval_threads = threads;
    o.match_min_seeds = 1;  // Exercise partitioning on tiny windows.
    o.match_morsel_size = 4;
    // The delta index would serve both queries and never fan out.
    o.delta_matching = false;
    return o;
  };
  const int threads = EvalThreadsFromEnv(4);
  // Both queries per batch: they run across the pool, and the two idle
  // workers of a 4-pool take their morsels (the nested
  // SubmitBatch-from-worker path).
  ExpectTimelinesIdentical(
      RunEngine(options(1), queries, names, events, minute + 20),
      RunEngine(options(threads), queries, names, events, minute + 20),
      "fleet");
  // One query per batch: only its seed scan is split.
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectTimelinesIdentical(
        RunEngine(options(1), {queries[q]}, {names[q]}, events, minute + 20),
        RunEngine(options(threads), {queries[q]}, {names[q]}, events,
                  minute + 20),
        "alone");
  }
}

TEST(MatcherParallelTest, EngineSplitsOneQuerysSeedScanAcrossThePool) {
  // Default morsel gates: a window of 2500 seed candidates (the unlabelled
  // first node seeds from every node) clears match_min_seeds = 2048. The
  // var-length hop keeps the query off the delta index.
  std::vector<std::pair<int64_t, PropertyGraph>> events = {
      {2, RandomGraph(/*seed=*/9, /*num_nodes=*/2500, /*num_rels=*/3000)}};
  const std::vector<std::string> queries = {
      "REGISTER QUERY q STARTING AT '1970-01-01T00:05' { "
      "MATCH (a)-[:R*1..2]->(b) WITHIN PT10M "
      "EMIT a.v AS av, b.v AS bv SNAPSHOT EVERY PT5M }"};
  auto run = [&](int threads, int64_t* partitions) {
    EngineOptions options;
    options.eval_threads = threads;
    ContinuousEngine engine(options);
    CollectingSink sink;
    engine.AddSink(&sink);
    EXPECT_TRUE(engine.RegisterText(queries[0]).ok());
    EXPECT_TRUE(engine.Ingest(events[0].second, T(2)).ok());
    EXPECT_TRUE(engine.AdvanceTo(T(10)).ok());
    *partitions = engine.metrics()
                      .CounterFor("seraph_match_partitions_total",
                                  {{"query", "q"}})
                      ->value();
    return Timeline{{"q", sink.ResultsFor("q")}};
  };
  int64_t serial_partitions = 0, parallel_partitions = 0;
  const Timeline serial = run(1, &serial_partitions);
  const Timeline parallel = run(4, &parallel_partitions);
  EXPECT_EQ(serial_partitions, 0);
  EXPECT_GT(parallel_partitions, 0);
  ASSERT_EQ(serial[0].second.size(), 2u);
  EXPECT_GT(serial[0].second.entries()[0].table.size(), 0u);
  ExpectTimelinesIdentical(serial, parallel, "one query");
}

TEST(MatcherParallelTest, EngineExportsMatchPartitionMetrics) {
  EngineOptions options;
  options.eval_threads = 4;
  options.match_min_seeds = 1;
  options.match_morsel_size = 2;
  // Force the full-execution path: delta matching would serve this
  // single-pattern EMIT query from its index and never fan out morsels.
  options.delta_matching = false;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine
                  .RegisterText(
                      "REGISTER QUERY q STARTING AT '1970-01-01T00:05' { "
                      "MATCH (a:A)-[r:R]->(b) WITHIN PT10M "
                      "EMIT a.v AS v SNAPSHOT EVERY PT5M }")
                  .ok());
  ASSERT_TRUE(engine.Ingest(RandomGraph(42, 30, 60), T(2)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(6)).ok());
  EXPECT_GT(engine.metrics()
                .CounterFor("seraph_match_partitions_total",
                            {{"query", "q"}})
                ->value(),
            0);
  EXPECT_EQ(engine.metrics()
                .HistogramFor("seraph_match_seed_candidates",
                              {{"query", "q"}})
                ->count(),
            1);
}

// The cancellation token is *shared* across morsel workers (the context
// copy keeps it, unlike the parallelism spec): an expired deadline
// aborts the whole parallel match with kDeadlineExceeded at every
// thread count, not just the serial path.
TEST(MatcherParallelTest, ExpiredTokenAbortsAllMorselWorkers) {
  PropertyGraph graph = RandomGraph(/*seed=*/1, /*num_nodes=*/120,
                                    /*num_rels=*/240);
  auto parsed = ParseCypherQuery("MATCH (a:A)-[r1]->(b), (b)-[r2]->(c) "
                                 "RETURN a, b, c");
  ASSERT_TRUE(parsed.ok());
  ManualClock clock(/*now_micros=*/1'000'000);
  CancellationToken token(&clock, /*deadline_micros=*/999'999);
  ThreadPool pool(4);
  MatchParallelism par;
  par.pool = &pool;
  par.min_seeds = 1;
  par.morsel_size = 7;
  ExecutionOptions options;
  options.match_parallelism = &par;
  options.cancellation = &token;
  auto result = ExecuteQueryOnGraph(*parsed, graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace seraph
