// Overload-path costs (docs/INTERNALS.md, "Overload & backpressure"):
// what a bounded queue charges the producer per admission under each
// overflow policy. Compare the labelled series in the bench-baseline
// diff; the absolute numbers size `--queue-capacity` for a deployment.
#include <benchmark/benchmark.h>

#include <memory>

#include "graph/graph_builder.h"
#include "stream/event_queue.h"

namespace seraph {
namespace {

std::shared_ptr<const PropertyGraph> OneNode() {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder().Node(1, {"X"}, {{"id", Value::Int(1)}}).Build());
}

// Produce → (on refusal) poll + trim, against a queue 16x smaller than
// the workload, under each policy. The per-element rate is the
// producer-visible admission cost including the policy's resolution work
// (trim scan, eviction, retry). A pinned ManualClock keeps the arrival
// stamp's clock read out of it.
void BM_BoundedAdmission(benchmark::State& state) {
  const auto policy = static_cast<OverflowPolicy>(state.range(0));
  const int kEvents = 1024;
  EventQueue::Options options;
  options.capacity = 64;
  options.overflow_policy = policy;
  auto graph = OneNode();
  ManualClock clock(0);
  int64_t shed = 0;
  for (auto _ : state) {
    EventQueue queue(options);
    queue.SetClock(&clock);
    queue.SetShedCallback([&](const StreamElement&) { ++shed; });
    queue.Subscribe("c");
    for (int i = 0; i < kEvents; ++i) {
      while (!queue.Produce(graph, Timestamp::FromMillis(i)).ok()) {
        auto polled = queue.Poll("c", options.capacity);
        benchmark::DoNotOptimize(polled);
        queue.TrimCommitted();
      }
    }
    // Drain the tail so every iteration starts from the same state.
    auto rest = queue.Poll("c", kEvents);
    benchmark::DoNotOptimize(rest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
  state.counters["shed"] = static_cast<double>(shed);
  state.SetLabel(OverflowPolicyName(policy));
}
BENCHMARK(BM_BoundedAdmission)
    ->Arg(static_cast<int>(OverflowPolicy::kReject))
    ->Arg(static_cast<int>(OverflowPolicy::kShedOldest));

}  // namespace
}  // namespace seraph

BENCHMARK_MAIN();
