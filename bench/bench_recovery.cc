// Durability costs (docs/INTERNALS.md, "Durability & recovery"):
//
//   BM_CheckpointWrite   full checkpoint commit (capture + encode +
//                        atomic write of the generation file + GC)
//                        as the ingested stream grows — the per-batch
//                        price of --checkpoint-dir, flat in stream length
//                        because a generation holds only the retained
//                        window suffix.
//   BM_RecoveryReplay    cold restart cost: load + validate the newest
//                        generation, restore the engine, re-seek the
//                        consumer, and replay the uncheckpointed queue
//                        suffix — as a function of the suffix length.
//
// Checkpoints here disable fsync so the numbers track serialization and
// filesystem work, not device-sync latency (which checkpoint cadence
// amortizes in production). Replay runs assert the recovered engine ends
// at the same clock and evaluation count as the uninterrupted victim, so
// the latency numbers can never come from skipping replay work.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "seraph/stream_driver.h"
#include "stream/event_queue.h"
#include "workloads/bike_sharing.h"

namespace {

using namespace seraph;
namespace fs = std::filesystem;

constexpr char kConsumer[] = "bench-recovery";
constexpr char kQuery[] =
    "REGISTER QUERY rq STARTING AT '1970-01-01T00:05' { "
    "MATCH (b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT30M "
    "EMIT r.user_id, s.id SNAPSHOT EVERY PT5M }";

std::vector<workloads::Event> MakeEvents(int count) {
  workloads::BikeSharingConfig config;
  config.num_events = count;
  config.num_users = 60;
  config.num_stations = 30;
  return workloads::GenerateBikeSharingStream(config);
}

std::string FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("bench_recovery_" + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

// Checkpoint write cost after streams of growing length. The engine keeps
// only the elements its 30-minute window can still read (six 5-minute
// batches), so every arm checkpoints the same suffix plus query state:
// time and checkpoint_bytes stay flat from /16 to /1024, where prefix-
// sized generations grew linearly (0.35 → 14.8 ms, 26 KB → 1.43 MB).
void BM_CheckpointWrite(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const std::string dir = FreshDir("write_" + std::to_string(events));

  EventQueue queue;
  for (const auto& event : MakeEvents(events)) {
    if (!queue.Produce(event.graph, event.timestamp).ok()) {
      state.SkipWithError("produce failed");
      return;
    }
  }
  ContinuousEngine engine;
  CountingSink sink;
  engine.AddSink(&sink);
  if (!engine.RegisterText(kQuery).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  queue.Subscribe(kConsumer);
  StreamDriver::Options driver_options;
  driver_options.consumer = kConsumer;
  StreamDriver driver(&queue, &engine, driver_options);
  if (!driver.PumpAll().ok()) {
    state.SkipWithError("pump failed");
    return;
  }

  persist::CheckpointOptions options;
  options.dir = dir;
  options.fsync = false;
  persist::CheckpointManager manager(options);
  manager.BindQueue(kConsumer, &queue);

  for (auto _ : state) {
    if (Status s = manager.Checkpoint(&engine); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  const Histogram* bytes =
      engine.metrics().FindHistogram("seraph_checkpoint_bytes");
  if (bytes != nullptr && bytes->count() > 0) {
    state.counters["checkpoint_bytes"] =
        static_cast<double>(bytes->sum() / bytes->count());
  }
  state.counters["events"] = events;
  state.counters["retained_elements"] =
      static_cast<double>(engine.stream().retained());
  state.SetLabel(std::to_string(events) + " streamed element(s)");

  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_CheckpointWrite)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Recovery latency as the uncheckpointed replay suffix grows: the victim
// checkpoints once after (total - replay) events; every iteration then
// cold-starts a fresh engine, restores, and replays the suffix.
void BM_RecoveryReplay(benchmark::State& state) {
  constexpr int kTotal = 1024;
  const int replay = static_cast<int>(state.range(0));
  const std::string dir = FreshDir("replay_" + std::to_string(replay));
  const std::vector<workloads::Event> events = MakeEvents(kTotal);

  // Victim run: deliver the checkpointed prefix, then commit one
  // generation at the batch barrier (offsets already committed by the
  // driver, so the cut is consistent).
  EventQueue setup_queue;
  for (int i = 0; i < kTotal - replay; ++i) {
    if (!setup_queue.Produce(events[i].graph, events[i].timestamp).ok()) {
      state.SkipWithError("produce failed");
      return;
    }
  }
  int64_t victim_evals = 0;
  {
    ContinuousEngine victim;
    CountingSink sink;
    victim.AddSink(&sink);
    if (!victim.RegisterText(kQuery).ok()) {
      state.SkipWithError("register failed");
      return;
    }
    setup_queue.Subscribe(kConsumer);
    StreamDriver::Options driver_options;
    driver_options.consumer = kConsumer;
    StreamDriver driver(&setup_queue, &victim, driver_options);
    if (!driver.PumpAll().ok()) {
      state.SkipWithError("victim pump failed");
      return;
    }
    persist::CheckpointOptions options;
    options.dir = dir;
    options.fsync = false;
    persist::CheckpointManager manager(options);
    manager.BindQueue(kConsumer, &setup_queue);
    if (Status s = manager.Checkpoint(&victim); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    // Oracle endpoint: finish the victim over the full stream so replay
    // correctness below is checked against it.
    for (int i = kTotal - replay; i < kTotal; ++i) {
      if (!setup_queue.Produce(events[i].graph, events[i].timestamp).ok()) {
        state.SkipWithError("produce failed");
        return;
      }
    }
    if (!driver.PumpAll().ok()) {
      state.SkipWithError("victim completion failed");
      return;
    }
    victim_evals = victim.StatsFor("rq")->evaluations;
  }

  for (auto _ : state) {
    EventQueue queue;
    for (const auto& event : events) {
      (void)queue.Produce(event.graph, event.timestamp);
    }
    ContinuousEngine engine;
    CountingSink sink;
    engine.AddSink(&sink);
    if (!engine.RegisterText(kQuery).ok()) {
      state.SkipWithError("register failed");
      return;
    }
    auto report =
        persist::RecoverAll(dir, &engine, &queue, {kConsumer}, nullptr);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    StreamDriver::Options driver_options;
    driver_options.consumer = kConsumer;
    StreamDriver driver(&queue, &engine, driver_options);
    if (!driver.PumpAll().ok()) {
      state.SkipWithError("replay failed");
      return;
    }
    if (engine.StatsFor("rq")->evaluations != victim_evals) {
      state.SkipWithError("recovered run diverged from victim");
      return;
    }
    benchmark::DoNotOptimize(engine);
  }
  state.counters["replayed_elements"] = replay;
  state.SetLabel("replay " + std::to_string(replay) + "/" +
                 std::to_string(kTotal) + " element(s)");

  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_RecoveryReplay)
    ->Arg(0)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
