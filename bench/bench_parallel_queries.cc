// Parallel multi-query evaluation: N copies of the same query over one
// shared stream, evaluated with 1/2/4/8 worker threads (16 copies), and
// with 16/64/256 copies at 2 threads. Since the copies share the ET grid,
// every instant is one batch of N concurrent evaluations — the best case
// the batch-barrier scheduler is built for — and they share one window,
// which is advanced once per instant, and one pattern skeleton, whose
// match index is repaired once per instant: the
// snapshot_advances_per_instant and delta_repairs_per_instant counters
// read 1 at every query count.
// Each parallel run is also checked against the serial run for identical
// results (content and delivery order), so the speedup numbers can never
// come from dropping or reordering work.
//
// Interpreting the numbers: the scheduler can only use as many hardware
// threads as the host exposes — on a single-core machine (some CI
// containers) every thread count degenerates to serial plus scheduling
// overhead, and no speedup is expected. Compare real_time across the
// thread counts on a multicore host.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;

std::string CopyQuery(int index) {
  // A MATCH with a join so stage 3 has real CPU work to parallelize.
  return "REGISTER QUERY pq" + std::to_string(index) +
         " STARTING AT '1970-01-01T00:05' { "
         "MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT30M "
         "EMIT r.user_id, s.id ON ENTERING EVERY PT5M }";
}

const std::vector<workloads::Event>& Events() {
  static auto* events = [] {
    workloads::BikeSharingConfig config;
    config.num_events = 96;  // 8 hours at one event per 5 minutes.
    config.num_users = 60;
    config.num_stations = 30;
    return new std::vector<workloads::Event>(
        workloads::GenerateBikeSharingStream(config));
  }();
  return *events;
}

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

struct FleetRun {
  bool ok = false;
  std::vector<Delivery> calls;
  // Shared-window advances and match-index repairs (builds included)
  // across the fleet per evaluation instant (one batch per instant), read
  // from the registry.
  double advances_per_instant = 0;
  double repairs_per_instant = 0;
};

// Runs `queries` copies on `eval_threads` workers.
FleetRun RunFleet(int queries, int eval_threads) {
  FleetRun run;
  EngineOptions options;
  options.eval_threads = eval_threads;
  ContinuousEngine engine(options);
  OrderSink sink;
  engine.AddSink(&sink);
  for (int i = 0; i < queries; ++i) {
    if (!engine.RegisterText(CopyQuery(i)).ok()) return run;
  }
  for (const auto& event : Events()) {
    (void)engine.Ingest(event.graph, event.timestamp);
  }
  if (!engine.Drain().ok()) return run;
  const MetricsRegistry& registry = engine.metrics();
  int64_t advances = 0;
  int64_t repairs = 0;
  for (const std::string& name : engine.QueryNames()) {
    const MetricLabels query{{"query", name}};
    advances += registry
                    .FindCounter("seraph_query_snapshots_incremental_total",
                                 query)
                    ->value();
    repairs +=
        registry.FindCounter("seraph_delta_repairs_total", query)->value();
  }
  const int64_t instants =
      registry.FindHistogram("seraph_engine_eval_batch_size")->count();
  if (instants > 0) {
    run.advances_per_instant = static_cast<double>(advances) / instants;
    run.repairs_per_instant = static_cast<double>(repairs) / instants;
  }
  run.ok = true;
  run.calls = std::move(sink.calls);
  return run;
}

bool SameDeliveries(const std::vector<Delivery>& a,
                    const std::vector<Delivery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query || !(a[i].t == b[i].t) ||
        !(a[i].table == b[i].table)) {
      return false;
    }
  }
  return true;
}

// Times `queries` copies on `threads` workers against the serial run of
// the same fleet (computed once per query count).
void RunAgainstSerial(benchmark::State& state, int queries, int threads) {
  static auto* oracles = new std::map<int, std::vector<Delivery>>();
  auto [it, fresh] = oracles->try_emplace(queries);
  if (fresh) {
    FleetRun serial = RunFleet(queries, 1);
    if (serial.ok) it->second = std::move(serial.calls);
  }
  if (it->second.empty()) {
    state.SkipWithError("serial oracle run failed");
    return;
  }
  double advances_per_instant = 0;
  double repairs_per_instant = 0;
  for (auto _ : state) {
    FleetRun got = RunFleet(queries, threads);
    if (!got.ok) {
      state.SkipWithError("fleet run failed");
      return;
    }
    if (!SameDeliveries(got.calls, it->second)) {
      state.SkipWithError("parallel run diverged from serial run");
      return;
    }
    advances_per_instant = got.advances_per_instant;
    repairs_per_instant = got.repairs_per_instant;
    benchmark::DoNotOptimize(got);
  }
  state.counters["queries"] = queries;
  state.counters["threads"] = threads;
  state.counters["snapshot_advances_per_instant"] = advances_per_instant;
  state.counters["delta_repairs_per_instant"] = repairs_per_instant;
  state.SetLabel(std::to_string(queries) + " queries, " +
                 std::to_string(threads) + " thread(s)");
}

void BM_ParallelQueryFleet(benchmark::State& state) {
  RunAgainstSerial(state, 16, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ParallelQueryFleet)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Query count at 2 threads: with one shared window, snapshot work stays
// constant in the number of queries.
void BM_ParallelQueryCount(benchmark::State& state) {
  RunAgainstSerial(state, static_cast<int>(state.range(0)), 2);
}
BENCHMARK(BM_ParallelQueryCount)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
