// The runtime behind seraph_run, seraph_serve and latency_harness: the
// paper's Fig. 1 loop (event queue → property graph stream → continuous
// evaluation → emitted tables) wired once, as one ContinuousEngine fed
// through one EventQueue + StreamDriver lane. A bounded queue either
// sheds its oldest element into the dead-letter queue or refuses the
// produce, which pumps the lane under the pump clock rule
// (AdvanceEngineClock in seraph/stream_driver.h) and retries.
//
// Durability: with a checkpoint_dir, every pump the runtime makes (Pump,
// the backpressure pumps inside Produce, Commit and Finish) ends with one
// CheckpointManager::Checkpoint, so whatever a pump emitted is in a
// generation when the pump returns. A failed commit is logged and counted
// (seraph_checkpoint_failures_total), and only Commit returns it; a crash
// then restores the previous generation. There is one restore path:
// `restore` loads the newest valid generation, and the queue restarts at
// its consumer offset (EventQueue::RestoreOffset), so the source resumes
// there. A replayable source (seraph_run's event file) re-produces its
// input from next_offset(); a source that cannot be replayed
// (seraph_serve's POST /ingest) calls Commit after each batch, so an
// acknowledged batch is durable and a restart re-produces nothing.
//
//   RuntimeOptions options;
//   Runtime rt(options);
//   rt.AddSink(&sink);
//   rt.Register("REGISTER QUERY q ...");
//   rt.Start();                           // restore, endpoint, reporter
//   for (size_t i = rt.next_offset(); i < input.size(); ++i) {
//     rt.Produce(graph, t); rt.Pump();    // ... as events arrive
//   }
//   rt.Finish();
//
// The runtime owns the endpoint (GET /metrics serves the engine registry,
// plus /healthz, /queries and handlers a tool mounts on server() before
// Start), the --stats-interval reporter and the dead letters. /queries
// serves a document the runtime renders on the engine's thread after
// Register, Start, every Pump, Commit and Finish (or an explicit
// Publish), so the server thread never reads engine state.
//
// Threading: every method runs on the engine's thread; only the endpoint
// and the reporter run on their own threads, and those read the metrics
// registry and the published document.
#ifndef SERAPH_RUNTIME_RUNTIME_H_
#define SERAPH_RUNTIME_RUNTIME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "common/metrics.h"
#include "common/result.h"
#include "persist/checkpoint.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "seraph/stream_driver.h"
#include "server/metrics_server.h"
#include "stream/event_queue.h"

namespace seraph {
namespace runtime {

struct RuntimeOptions {
  // Log prefix ("[<tool>] ..."); with '_' spelled '-', also the queue
  // consumer, whose offset key checkpoints record.
  std::string tool;
  // The engine (thread pools, delta matching, deadlines, ...). The
  // runtime sets its `dead_letter`.
  EngineOptions engine;
  // The lane's queue bound and overflow policy.
  EventQueue::Options queue;
  // Elements fetched per driver poll.
  size_t poll_batch = 64;
  // Durability: checkpoint generations go to checkpoint_dir (empty =
  // in-memory only), one at the end of every pump.
  std::string checkpoint_dir;
  bool checkpoint_fsync = true;
  // Also dead-letter evaluation failures, permanent sink rejections and
  // poison elements. Queue sheds are always dead-lettered, checkpointed
  // and restored.
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

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- Before Start ----

  // Adds an output sink under `policy`.
  void AddSink(EmitSink* sink, SinkPolicy policy = {});
  // Parses and registers Seraph query text, republishes /queries and
  // returns the query's name.
  Result<std::string> Register(std::string_view seraph_text);
  // The endpoint, for tools that mount their own handlers.
  MetricsServer& server() { return server_; }

  // Restores (when asked) and subscribes the lane, then binds the
  // endpoint (when metrics_port >= 0) and starts the reporter.
  Status Start();

  // ---- Running ----

  // The queue offset the next Produce lands at: after a restore, the
  // restored generation's consumer offset, where a replayable source
  // resumes its input; 0 on a cold start.
  size_t next_offset() const { return queue_.size(); }
  // Produces one element. While a bounded queue refuses it, pumps the
  // lane and retries, and fails when the consumer cannot free space
  // (ProduceWithBackpressure).
  Status Produce(std::shared_ptr<const PropertyGraph> graph,
                 Timestamp timestamp);
  // Delivers everything produced, evaluates the due instants before the
  // newest produced timestamp, republishes. An instant at that timestamp
  // waits for a later element, Commit or Finish, because more elements
  // may still share its timestamp.
  Status Pump();
  // Ends a batch from a source that cannot be replayed: delivers
  // everything produced and evaluates through the newest produced
  // timestamp (closing its instant, so an element a later batch sends at
  // that timestamp misses it), republishes, and, when durable, commits a
  // generation. Once it returns OK the batch survives a restart without
  // being produced again; a failed commit is returned.
  Status Commit();
  // Delivers what is still queued, runs the final evaluations (closing
  // the newest instant), republishes and stops the reporter. A durable
  // run logs its checkpoint tally.
  Status Finish();
  // Re-renders /queries; call after changing engine state directly.
  void Publish();

  // ---- Introspection ----

  ContinuousEngine& engine() { return engine_; }
  // What /metrics serves: the engine registry.
  MetricsRegistry& metrics() { return engine_.metrics(); }
  DeadLetterQueue& dead_letters() { return dead_letters_; }
  // The lane's queue, for its overload counters (shed, rejected,
  // trimmed).
  const EventQueue& queue() const { return queue_; }
  // Produces the bounded queue refused.
  int64_t producer_retries() const { return producer_retries_; }
  // All-queries emit latency.
  HistogramSnapshot EmitLatency() const;
  // The default stream's largest lag so far.
  int64_t MaxLagMillis() const;

 private:
  void ReportLoop();
  // Delivers everything queued and evaluates through the newest
  // timestamp the engine holds: the newest delivered one, or, in a
  // restored run that has delivered nothing yet, the newest restored one.
  Status Close();
  // Ends a pump: when durable, commits one generation; a failure is
  // logged (and counted by the manager).
  Status CommitPump();

  RuntimeOptions options_;
  const std::string consumer_;
  DeadLetterQueue dead_letters_;
  ContinuousEngine engine_;
  EventQueue queue_;
  StreamDriver driver_;
  std::unique_ptr<persist::CheckpointManager> checkpoints_;
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
