// The runtime behind seraph_run, seraph_serve and latency_harness: the
// paper's Fig. 1 loop (event queue → property graph stream → continuous
// evaluation → emitted tables) wired once, in one of two shapes:
//
//  * single: one ContinuousEngine fed through one EventQueue +
//    StreamDriver lane. A bounded queue either sheds its oldest element
//    into the dead-letter queue or refuses the produce, which pumps the
//    lane under the pump clock rule (AdvanceEngineClock in
//    seraph/stream_driver.h) and retries, as the fleet's lanes do. With a
//    checkpoint_dir, a CheckpointManager commits
//    at the engine's batch barriers, and `restore` resumes from the newest
//    valid generation, replaying only the queue suffix past it.
//  * fleet: a ShardedEngine (shard/sharded_engine.h), which wires its own
//    lanes, dead letters and checkpoints per shard.
//
//   RuntimeOptions options;               // ShardedEngineOptions + knobs
//   Runtime rt(options);
//   rt.AddSink(&sink);
//   rt.Register("REGISTER QUERY q ...");
//   rt.Start();                           // restore, endpoint, reporter
//   rt.Produce(graph, t); rt.Pump();      // ... as events arrive
//   rt.Finish();
//
// Either way the runtime owns the endpoint (GET /metrics, /healthz,
// /queries, plus handlers a tool mounts on server() before Start), the
// --stats-interval reporter and the overload ledger. /metrics serves the
// engine registry in the single shape and the coordinator registry in the
// fleet. /queries serves a document the runtime renders on the engine's
// thread after Register, Start, every Pump and Finish (or an explicit
// Publish), so the server thread never reads engine state.
//
// Threading: every method runs on the engine's thread; only the endpoint
// and the reporter run on their own threads, and those read the metrics
// registries and the published document.
#ifndef SERAPH_RUNTIME_RUNTIME_H_
#define SERAPH_RUNTIME_RUNTIME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "persist/checkpoint.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "seraph/stream_driver.h"
#include "server/metrics_server.h"
#include "shard/sharded_engine.h"
#include "stream/event_queue.h"

namespace seraph {
namespace runtime {

// The fleet's options (engine, lane queue, poll batch, durability) serve
// both shapes; the single shape reads them for its one engine and lane.
struct RuntimeOptions : shard::ShardedEngineOptions {
  // Log prefix ("[<tool>] ..."); with '_' spelled '-', also the single
  // shape's queue consumer, whose offset key checkpoints record.
  std::string tool;
  // Run a ShardedEngine of `shards` shards instead of one engine.
  bool fleet = false;
  // Single shape: also dead-letter evaluation failures, permanent sink
  // rejections and poison elements. Queue sheds are always dead-lettered.
  bool dead_letter_failures = true;
  // Resume from the newest checkpoint generation in checkpoint_dir.
  bool restore = false;
  // The endpoint on 127.0.0.1: -1 = off, 0 = ephemeral port; its
  // per-connection IO deadline and long-poll budget (MetricsServer).
  int metrics_port = -1;
  int io_timeout_millis = 5000;
  int long_poll_millis = 10000;
  // Seconds between status lines on stderr; 0 = off.
  int stats_interval_sec = 0;
};

// The fleet's /queries payload: each query's stats and evaluation
// latency, read off the engine of its shard, plus that shard. Like the
// single-engine one, call it on the engine's thread.
std::string QueriesStatusJson(const shard::ShardedEngine& fleet);

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- Before Start ----

  // Adds an output sink: under `policy` in the single shape, after the
  // merge in the fleet.
  void AddSink(EmitSink* sink, SinkPolicy policy = {});
  // Parses and registers Seraph query text (the single shape places it on
  // shard 0), then republishes /queries.
  Result<shard::QueryPlacement> Register(std::string_view seraph_text);
  // The endpoint, for tools that mount their own handlers.
  MetricsServer& server() { return server_; }

  // Restores (when asked) and subscribes the lane, then binds the
  // endpoint (when metrics_port >= 0) and starts the reporter.
  Status Start();

  // ---- Running ----

  // Produces one element; returns its lane deliveries. The single shape
  // pumps the lane and retries while a bounded queue refuses it, and
  // fails when the consumer cannot free space
  // (ProduceWithBackpressure); the fleet partitions it across its shards'
  // lanes (ShardedEngine::Ingest), which do the same per lane.
  Result<int> Produce(std::shared_ptr<const PropertyGraph> graph,
                      Timestamp timestamp);
  // Delivers everything produced, evaluates the due instants before the
  // newest produced timestamp, republishes. An instant at that timestamp
  // waits for a later element or Finish, because more elements may still
  // share its timestamp.
  Status Pump();
  // Delivers what is still queued, runs the final evaluations (closing
  // the newest instant), republishes and stops the reporter. A durable
  // single shape logs its checkpoint tally.
  Status Finish();
  // Re-renders /queries; call after changing engine state directly.
  void Publish();

  // ---- Introspection ----

  // The single shape's engine, or null.
  ContinuousEngine* engine() { return engine_.get(); }
  // The fleet, or null.
  shard::ShardedEngine* fleet() { return fleet_.get(); }
  // What /metrics serves.
  MetricsRegistry& metrics();
  // The single shape's dead letters.
  DeadLetterQueue& dead_letters() { return dead_letters_; }
  // Queue overload counters and dead letters, over every lane.
  shard::OverloadLedger Overload() const;
  // Produces the bounded queue refused (single shape; the fleet retries
  // inside Ingest).
  int64_t producer_retries() const { return producer_retries_; }
  // All-queries emit latency, merged over the engines.
  HistogramSnapshot EmitLatency() const;
  // Largest per-engine lag of the default stream.
  int64_t MaxLagMillis() const;

 private:
  void ReportLoop();

  RuntimeOptions options_;
  const std::string consumer_;
  DeadLetterQueue dead_letters_;
  std::unique_ptr<shard::ShardedEngine> fleet_;
  std::unique_ptr<ContinuousEngine> engine_;
  std::unique_ptr<EventQueue> queue_;
  std::unique_ptr<StreamDriver> driver_;
  std::unique_ptr<persist::CheckpointManager> checkpoints_;
  std::vector<const MetricsRegistry*> engine_metrics_;
  Gauge* dead_letter_depth_ = nullptr;
  int64_t producer_retries_ = 0;
  // The newest timestamp Produce accepted; Pump holds its instant back.
  std::optional<Timestamp> newest_;

  std::mutex queries_mutex_;
  std::string queries_json_ = "[]";
  MetricsServer server_;

  std::atomic<bool> stop_reporter_{false};
  std::thread reporter_;
};

}  // namespace runtime
}  // namespace seraph

#endif  // SERAPH_RUNTIME_RUNTIME_H_
