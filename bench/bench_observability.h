// Shared bench plumbing for the engine's observability layer: fold the
// per-stage pipeline breakdown into google-benchmark user counters (so
// `--benchmark_format=json` / BENCH_*.json rows carry stage costs, not
// just wall time) and dump the whole metrics registry as a tagged JSON
// line on stderr for ad-hoc inspection.
#ifndef SERAPH_BENCH_BENCH_OBSERVABILITY_H_
#define SERAPH_BENCH_BENCH_OBSERVABILITY_H_

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <iostream>
#include <string>

#include "seraph/continuous_engine.h"

namespace seraph {
namespace benchsupport {

// One query's stage-time sums (`seraph_stage_micros{query,stage}`) and
// evaluation counts, read off the engine's registry. A bench with an
// untimed warm-up diffs a read before ResumeTiming and one after the
// timed call, so the averages cover the timed region only.
struct StageTotals {
  static constexpr const char* kStages[5] = {"window", "snapshot", "match",
                                             "policy", "sink"};
  int64_t evaluations = 0;
  int64_t reused = 0;
  std::array<int64_t, 5> micros{};  // In kStages order.

  StageTotals& operator+=(const StageTotals& other) {
    evaluations += other.evaluations;
    reused += other.reused;
    for (size_t i = 0; i < micros.size(); ++i) micros[i] += other.micros[i];
    return *this;
  }
  StageTotals operator-(const StageTotals& before) const {
    StageTotals diff = *this;
    diff.evaluations -= before.evaluations;
    diff.reused -= before.reused;
    for (size_t i = 0; i < micros.size(); ++i) {
      diff.micros[i] -= before.micros[i];
    }
    return diff;
  }
};

inline StageTotals ReadStageTotals(const ContinuousEngine& engine,
                                   const std::string& query) {
  StageTotals totals;
  auto stats = engine.StatsFor(query);
  if (!stats.ok()) return totals;
  totals.evaluations = stats->evaluations;
  totals.reused = stats->reused_results;
  for (size_t i = 0; i < totals.micros.size(); ++i) {
    totals.micros[i] = engine.metrics()
                           .FindHistogram("seraph_stage_micros",
                                          {{"query", query},
                                           {"stage", StageTotals::kStages[i]}})
                           ->sum();
  }
  return totals;
}

// Folds `totals` into the benchmark's user counters as per-evaluation
// averages (`stage_<stage>_us`, plus `reuse_rate`).
inline void AddStageCounters(benchmark::State& state,
                             const StageTotals& totals) {
  if (totals.evaluations <= 0) return;
  const double evals = static_cast<double>(totals.evaluations);
  for (size_t i = 0; i < totals.micros.size(); ++i) {
    state.counters[std::string("stage_") + StageTotals::kStages[i] + "_us"] =
        static_cast<double>(totals.micros[i]) / evals;
  }
  state.counters["reuse_rate"] = static_cast<double>(totals.reused) / evals;
}

// The same over `query`'s whole lifetime in `engine` (typically the last
// instance a bench iteration built), for benches that time everything.
// With an empty `query`, uses the engine's first registered query.
inline void AddStageCounters(benchmark::State& state,
                             const ContinuousEngine& engine,
                             std::string query = "") {
  if (query.empty()) {
    auto names = engine.QueryNames();
    if (names.empty()) return;
    query = names.front();
  }
  AddStageCounters(state, ReadStageTotals(engine, query));
}

// One tagged JSON line on stderr (stdout belongs to the benchmark
// reporter): `SERAPH_ENGINE_METRICS <tag> {...}`.
inline void DumpEngineMetricsJson(const ContinuousEngine& engine,
                                  const std::string& tag) {
  std::cerr << "SERAPH_ENGINE_METRICS " << tag << " "
            << engine.metrics().ToJson() << "\n";
}

}  // namespace benchsupport
}  // namespace seraph

#endif  // SERAPH_BENCH_BENCH_OBSERVABILITY_H_
