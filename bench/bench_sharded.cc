// Sharded tier scaling (docs/INTERNALS.md, "Sharded tier"): the same
// workload pushed through one plain ContinuousEngine (the `single` arm)
// and through ShardedEngine fleets of 1, 2, and 4 shards. Elements take the fleet's default broadcast route, and four
// copies of one query spread over their home shards (q0..q3 land on four
// different shards at N = 4, two per shard at N = 2), so each shard
// evaluates 4/N of the queries. Every arm must emit exactly as many
// tables as the bare engine; a run that does not fails. The 1-shard
// fleet exposes the coordinator's overhead over the bare engine, and the
// larger fleets show what spreading queries buys when every shard still
// ingests the whole stream.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "shard/sharded_engine.h"

namespace {

using namespace seraph;

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

std::string IsoMinute(int64_t minutes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "1970-01-01T%02d:%02d",
                static_cast<int>(minutes / 60),
                static_cast<int>(minutes % 60));
  return buf;
}

constexpr int kMinutes = 48;
constexpr int kNodesPerEvent = 16;
constexpr int kAnchorUniverse = 256;  // Rotating node-id space.
constexpr int kWindowMinutes = 8;
constexpr int kQueries = 4;

using Workload = std::vector<std::pair<int64_t, PropertyGraph>>;

// One element per minute: a chain of :N nodes over a rotating id space
// wired with E-typed relationships.
Workload BuildWorkload() {
  Workload events;
  int64_t next_rel_id = 1;
  for (int64_t m = 0; m < kMinutes; ++m) {
    GraphBuilder builder;
    std::vector<int64_t> ids;
    for (int i = 0; i < kNodesPerEvent; ++i) {
      int64_t id = (m * kNodesPerEvent + i * 7) % kAnchorUniverse;
      ids.push_back(id);
      builder.Node(id, {"N"}, {{"v", Value::Int((m + i) % 10)}});
    }
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      builder.Rel(next_rel_id++, ids[i], ids[i + 1], "E");
    }
    events.emplace_back(m, builder.Build());
  }
  return events;
}

std::vector<std::string> Queries() {
  std::vector<std::string> queries;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back("REGISTER QUERY q" + std::to_string(q) +
                      " STARTING AT '" + IsoMinute(kWindowMinutes) +
                      "' { MATCH (a:N)-[r:E]->(b:N) WITHIN PT" +
                      std::to_string(kWindowMinutes) +
                      "M EMIT a.v AS av, b.v AS bv SNAPSHOT EVERY PT1M }");
  }
  return queries;
}

template <typename Engine>
bool RegisterAll(Engine* engine, const std::vector<std::string>& queries) {
  for (const std::string& query : queries) {
    if (!engine->RegisterText(query).ok()) return false;
  }
  return true;
}

// Feeds the bare engine, advancing after every element.
bool FeedSingle(ContinuousEngine* engine, const Workload& workload) {
  for (const auto& [minute, graph] : workload) {
    if (!engine->Ingest(graph, T(minute)).ok() ||
        !engine->AdvanceTo(T(minute)).ok()) {
      return false;
    }
  }
  return true;
}

// Arg 0 = shard count; 0 means the bare single-engine baseline.
void BM_ShardedPipeline(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const Workload workload = BuildWorkload();
  const std::vector<std::string> queries = Queries();
  CountingSink reference;
  {
    ContinuousEngine engine;
    engine.AddSink(&reference);
    if (!RegisterAll(&engine, queries) || !FeedSingle(&engine, workload)) {
      state.SkipWithError("reference run failed");
      return;
    }
  }
  int64_t emissions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    CountingSink sink;
    if (shards == 0) {
      ContinuousEngine engine;
      engine.AddSink(&sink);
      if (!RegisterAll(&engine, queries)) {
        state.SkipWithError("register failed");
        return;
      }
      state.ResumeTiming();
      if (!FeedSingle(&engine, workload)) {
        state.SkipWithError("single run failed");
        return;
      }
    } else {
      shard::ShardedEngineOptions options;
      options.shards = shards;
      shard::ShardedEngine fleet(options);
      fleet.AddSink(&sink);
      if (!RegisterAll(&fleet, queries)) {
        state.SkipWithError("register failed");
        return;
      }
      state.ResumeTiming();
      for (const auto& [minute, graph] : workload) {
        if (!fleet.Ingest(graph, T(minute)).ok() || !fleet.PumpAll().ok()) {
          state.SkipWithError("sharded run failed");
          return;
        }
      }
    }
    if (sink.evaluations() != reference.evaluations()) {
      state.SkipWithError("emitted a different number of tables than the "
                          "bare engine");
      return;
    }
    emissions += sink.evaluations();
  }
  state.counters["events"] = static_cast<double>(kMinutes);
  state.counters["emits"] =
      static_cast<double>(emissions) / state.iterations();
  state.SetLabel(shards == 0 ? "single"
                             : "shards=" + std::to_string(shards));
}
BENCHMARK(BM_ShardedPipeline)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
