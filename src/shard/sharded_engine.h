// The sharded serving tier (docs/INTERNALS.md, "Sharded serving tier"):
// a ShardedEngine owns N per-shard ContinuousEngine instances, each with
// its own bounded EventQueues, StreamDrivers, thread pool, and checkpoint
// generation directory. The coordinator routes ingest through one
// StreamRouter to each stream's placement (shard/partitioner.h: every
// shard or one), lets every shard's batch barrier advance independently,
// and merges EMIT results back into one deterministic (t, query)-ordered
// output stream:
//
//   ShardedEngine fleet({.shards = 4});
//   fleet.AddRoute("rentals", HasRelationshipType("rentedAt"),
//                  shard::FixedShard(1));          // routes first
//   fleet.RegisterText("REGISTER QUERY q ...");   // placed by its streams
//   fleet.AddSink(&sink);                         // merged, ordered output
//   fleet.Ingest(graph, t);                       // routed fan-out
//   fleet.PumpAll();                              // pump shards + merge
//   fleet.Finish();                               // flush everything
//
// Determinism contract: every query the fleet accepts runs whole on one
// shard, and the merged output is bit-identical — content and order — to
// a single-engine run over the same routed streams (proven by
// tests/sharded_equivalence_test). A query that would need two shards
// fails to register instead.
//
// Every shard's clock follows the fleet watermark (the newest timestamp
// produced to any lane), as one engine's clock follows all of its
// streams. Emissions are held back until every shard's clock has passed
// their evaluation time, so merged order never depends on pump
// interleaving. Finish() (and Checkpoint()) flush the buffers, releasing
// everything in merged order.
#ifndef SERAPH_SHARD_SHARDED_ENGINE_H_
#define SERAPH_SHARD_SHARDED_ENGINE_H_

#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "persist/checkpoint.h"
#include "seraph/continuous_engine.h"
#include "seraph/stream_driver.h"
#include "seraph/stream_router.h"
#include "shard/partitioner.h"
#include "stream/event_queue.h"

namespace seraph {
namespace shard {

struct ShardedEngineOptions {
  // Number of shards (clamped to >= 1).
  int shards = 1;
  // Per-shard engine configuration (thread pools, delta matching,
  // deadlines, ...). `dead_letter` is overridden per shard;
  // `checkpoint_every` below overrides the engine cadence.
  EngineOptions engine;
  // Per-lane ingest queue bound + overflow policy.
  EventQueue::Options queue;
  // Elements fetched per driver poll.
  size_t poll_batch = 64;
  // Durability root; empty = in-memory only. Shard i's checkpoint
  // generations live in <checkpoint_dir>/shard-<i>, alongside per-lane
  // ingest event logs (ingest-<stream>.log) that Restore() replays to
  // refill the queues, so a serving restart resumes replay-exact.
  std::string checkpoint_dir;
  bool checkpoint_fsync = true;
  // When > 0 (and checkpoint_dir is set), every shard checkpoints at its
  // own batch barrier each N completed batches — barriers stay
  // independent; no fleet-wide freeze.
  int64_t checkpoint_every = 0;
};

// Overload counters summed over a fleet's lanes (ShardedEngine::Overload).
struct OverloadLedger {
  int64_t queue_shed = 0;  // Evicted by a full shed_oldest queue.
  int64_t rejected = 0;    // Produces a full queue refused.
  int64_t trimmed = 0;     // Released by retention.
  int64_t dead_letters = 0;       // Letters ever added, evicted ones too.
  int64_t dead_letter_depth = 0;  // Letters the shards' rings hold.
};

// Where a query was placed: its one shard, as a list of one entry.
struct QueryPlacement {
  std::string name;
  std::vector<int> shards;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- Routing ----

  // Routes elements matching `predicate` into logical stream `stream` on
  // every shard (Broadcast()) or on one (FixedShard(i)). One element may
  // match any number of routes; re-adding a stream replaces its route.
  // Lanes (queue + driver per (shard, stream)) are created eagerly on the
  // shards the placement names. Routes freeze at the first RegisterText,
  // Ingest or Restore, because placement reads them: a later AddRoute
  // fails with kFailedPrecondition. A FixedShard outside the fleet fails
  // with kInvalidArgument. Re-declare the same routes before Restore().
  //
  // A fresh ShardedEngine starts with the default route: every element →
  // default stream ("") on every shard (broadcast), mirroring
  // ContinuousEngine::Ingest. AddRoute("") replaces it.
  Status AddRoute(std::string stream, StreamRouter::Predicate predicate,
                  StreamPlacement placement);

  // ---- Query registry ----

  // Parses and registers Seraph query text on the one shard its MATCH
  // streams imply: all-broadcast streams → its home shard (stable hash of
  // the query name); a fixed-shard stream → that shard. Streams pinned to
  // two different shards fail with kInvalidArgument.
  Result<QueryPlacement> RegisterText(std::string_view seraph_text);

  Result<QueryPlacement> PlacementFor(const std::string& name) const;
  std::vector<std::string> QueryNames() const;
  // The next four forward to the engine of the query's shard.
  bool QueryDisabled(const std::string& name) const;
  Status ReviveQuery(const std::string& name);
  Result<QueryStats> StatsFor(const std::string& name) const;
  Result<HistogramSnapshot> LatencyFor(const std::string& name) const;

  // ---- Sinks ----

  // Receives the merged fleet output in deterministic (t, query) order.
  // Sink failures are counted, never fatal. Not owned; add before
  // pumping.
  void AddSink(EmitSink* sink);

  // ---- Ingest + evaluation ----

  // Routes one element into the lane queues of every matching route's
  // shards (appending to the durable ingest log when configured).
  // Timestamps must be non-decreasing across calls. Bounded lanes exert
  // backpressure: a full queue pumps its own shard (never freezing the
  // others) under the pump clock rule (AdvanceEngineClock in
  // seraph/stream_driver.h) and retries. Returns the number of
  // (shard, stream) deliveries; unrouted elements count into
  // seraph_router_dropped_total.
  Result<int> Ingest(std::shared_ptr<const PropertyGraph> graph,
                     Timestamp timestamp);
  Result<int> Ingest(PropertyGraph graph, Timestamp timestamp);

  // Pumps every shard's drivers (each advancing its own engine clock /
  // batch barrier independently), then releases the merged emissions
  // every shard's clock has passed. Without `waiting` every clock moves
  // to the fleet watermark; a caller that may still ingest elements at
  // `waiting` passes it, and the clocks stop just before it
  // (AdvanceEngineClock).
  Status PumpAll(std::optional<Timestamp> waiting = std::nullopt);

  // Pumps every lane, advances each shard to the fleet watermark and
  // flushes all buffered emissions in merged order. The fleet stays
  // usable afterwards.
  Status Finish();

  // ---- Durability ----

  // Flushes buffered emissions, then commits one checkpoint generation
  // per shard (requires checkpoint_dir).
  Status Checkpoint();

  // Restores every shard from its newest valid checkpoint generation and
  // replays its ingest logs to refill the lane queues; shards without a
  // checkpoint cold-start from their logs alone. Call on a fresh
  // ShardedEngine with the same routes declared and all queries
  // re-registered (recovery re-creates definitions first, like
  // persist::RecoverAll). The next PumpAll replays each shard's suffix.
  Status Restore();

  // ---- Introspection ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The per-shard engine (tests / metrics aggregation). Valid index only.
  ContinuousEngine* shard_engine(int shard_index);
  const ContinuousEngine* shard_engine(int shard_index) const;
  // Coordinator registry: fleet watermark, per-shard health gauges,
  // router counters, merge counters.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // The fleet watermark (event-time millis; 0 before ingest).
  int64_t FleetWatermarkMillis() const;
  // Merged emissions released to sinks so far.
  int64_t released_total() const { return released_counter_->value(); }
  // Every lane's queue overload counters, plus every shard's dead
  // letters.
  OverloadLedger Overload() const;

 private:
  struct Lane {
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<StreamDriver> driver;
    std::string consumer;
    std::string log_path;  // Empty when not durable.
    std::ofstream log;     // Lazily opened append handle for log_path.
  };

  // Buffered, not-yet-released emission of one shard.
  struct PendingEmit {
    Timestamp t;
    std::string query;
    TimeAnnotatedTable table;
  };

  class BufferSink;

  struct Shard {
    std::unique_ptr<ContinuousEngine> engine;
    DeadLetterQueue dead_letters;
    std::unique_ptr<persist::CheckpointManager> manager;
    std::unique_ptr<BufferSink> sink;
    std::deque<PendingEmit> buffered;
    // Lanes keyed by logical stream name.
    std::map<std::string, std::unique_ptr<Lane>> lanes;
    Gauge* watermark_gauge = nullptr;
    Gauge* queue_depth_gauge = nullptr;
    Gauge* buffered_gauge = nullptr;
  };

  std::string ShardDir(int shard_index) const;
  bool durable() const { return !options_.checkpoint_dir.empty(); }
  Lane* EnsureLane(int shard_index, const std::string& stream);
  // Produces into one lane with backpressure (ProduceWithBackpressure in
  // seraph/stream_driver.h, pumping this shard only) and raises the
  // fleet watermark.
  Status ProduceToLane(int shard_index, Lane* lane,
                       std::shared_ptr<const PropertyGraph> graph,
                       Timestamp timestamp);
  Status AppendIngestLog(Lane* lane,
                         const std::shared_ptr<const PropertyGraph>& graph,
                         Timestamp timestamp);
  // Re-produces every lane's ingest log into the lane queues, in
  // timestamp order across lanes (the order Ingest produced them in).
  Status ReplayIngestLogs(int shard_index);
  // Drains one shard's lanes into its engine and returns the number of
  // elements delivered. Lane drivers never touch the shard clock, so the
  // coordinator then advances it once by AdvanceEngineClock: to the fleet
  // watermark (the single-engine ingest-then-advance cadence), or, when
  // `waiting` is set, to just before it.
  Result<int64_t> PumpShard(int shard_index,
                            std::optional<Timestamp> waiting = std::nullopt);
  // Releases buffered emissions: everything when `flush_all`, else those
  // at or below every shard's clock; delivers in (t, query) order.
  void MergeAndRelease(bool flush_all);
  void RefreshGauges();
  int HomeShard(const std::string& query_name) const;
  // The engine of `name`'s shard, or kNotFound.
  Result<ContinuousEngine*> EngineOf(const std::string& name) const;

  ShardedEngineOptions options_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Route predicates, bound to metrics_; each stream's shards below.
  StreamRouter router_;
  std::map<std::string, StreamPlacement> stream_placements_;
  // Set by the first RegisterText, Ingest or Restore.
  bool routes_frozen_ = false;
  // The fleet watermark: the newest timestamp produced to any lane.
  // PumpShard advances every shard's clock to it, as one engine's clock
  // follows all of its streams, so a shard whose streams go quiet still
  // evaluates the instants a single engine would.
  std::optional<Timestamp> newest_;
  std::vector<EmitSink*> sinks_;
  // Query name → its shard.
  std::map<std::string, int> placements_;
  Counter* released_counter_ = nullptr;
  Counter* sink_failures_ = nullptr;
  Gauge* fleet_watermark_gauge_ = nullptr;
};

}  // namespace shard
}  // namespace seraph

#endif  // SERAPH_SHARD_SHARDED_ENGINE_H_
