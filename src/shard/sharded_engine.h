// The sharded serving tier (docs/INTERNALS.md, "Sharded serving tier"):
// a ShardedEngine owns N per-shard ContinuousEngine instances, each with
// its own bounded EventQueues, StreamDrivers, thread pool, and checkpoint
// generation directory. The coordinator routes ingest through pluggable
// partitioners (shard/partitioner.h), lets every shard's batch barrier
// advance independently, and merges EMIT results back into one
// deterministic (t, query, shard)-ordered output stream:
//
//   ShardedEngine fleet({.shards = 4});
//   fleet.AddRoute("rentals", HasRelationshipType("rentedAt"),
//                  shard::FixedShard(1));
//   fleet.RegisterText("REGISTER QUERY q ...");   // placed by its streams
//   fleet.AddSink(&sink);                         // merged, ordered output
//   fleet.Ingest(graph, t);                       // partitioned fan-out
//   fleet.PumpAll();                              // pump shards + merge
//   fleet.Finish();                               // flush everything
//
// Determinism contract: a query whose MATCH streams are all broadcast (or
// pinned to one fixed shard) runs on exactly one shard, and the merged
// output is bit-identical — content and order — to a single-engine run
// over the same routed streams (proven by tests/sharded_equivalence_test).
// Queries over scattered (hash-partitioned) streams run on every shard
// and produce the per-shard union, outside that contract.
//
// Emissions are held back per shard until the fleet watermark — the
// slowest shard's delivered horizon — passes their evaluation time, so
// merged order never depends on pump interleaving. Finish() (and
// Checkpoint()) flush the buffers, releasing everything in merged order.
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

// Where a query was placed (the shard set its partitioners imply).
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
  // the shards `partitioner` selects. One element may match any number
  // of routes; re-adding a stream replaces its route. Lanes (queue +
  // driver per (shard, stream)) are created eagerly on every shard the
  // partitioner can reach. Routes must be configured before Ingest and
  // identically re-declared before Restore().
  //
  // A fresh ShardedEngine starts with the default route: every element →
  // default stream ("") on every shard (broadcast), mirroring
  // ContinuousEngine::Ingest. AddRoute("") replaces it.
  void AddRoute(std::string stream, StreamRouter::Predicate predicate,
                std::shared_ptr<const Partitioner> partitioner);

  // ---- Query registry ----

  // Parses and registers Seraph query text on the shard set its MATCH
  // streams imply: all-broadcast streams → one home shard (stable hash of
  // the query name); a fixed-shard stream → that shard; a scattered
  // stream → every shard (union semantics). Mixing two different fixed
  // shards, or scattered with fixed, fails with kInvalidArgument.
  Result<QueryPlacement> RegisterText(std::string_view seraph_text);

  Result<QueryPlacement> PlacementFor(const std::string& name) const;
  std::vector<std::string> QueryNames() const;
  bool QueryDisabled(const std::string& name) const;
  Status ReviveQuery(const std::string& name);
  // Stats summed across the query's placement shards.
  Result<QueryStats> StatsFor(const std::string& name) const;
  // Evaluation latency merged across the query's placement shards.
  Result<HistogramSnapshot> LatencyFor(const std::string& name) const;

  // ---- Sinks ----

  // Receives the merged fleet output in deterministic (t, query, shard)
  // order. Sink failures are counted, never fatal. Not owned; add before
  // pumping.
  void AddSink(EmitSink* sink);

  // ---- Ingest + evaluation ----

  // Routes one element through every matching route's partitioner into
  // the selected shards' lane queues (appending to the durable ingest log
  // when configured). Timestamps must be non-decreasing across calls.
  // Bounded lanes exert backpressure: a full queue pumps its own shard
  // (never freezing the others) under the pump clock rule
  // (AdvanceEngineClock in seraph/stream_driver.h) and retries. Returns
  // the number of (shard, stream) deliveries; unrouted elements count
  // into seraph_router_dropped_total.
  Result<int> Ingest(std::shared_ptr<const PropertyGraph> graph,
                     Timestamp timestamp);
  Result<int> Ingest(PropertyGraph graph, Timestamp timestamp);

  // Pumps every shard's drivers (each advancing its own engine clock /
  // batch barrier independently), then releases merged emissions up to
  // the fleet watermark.
  Status PumpAll();

  // Pumps every lane, advances each shard to its watermark and flushes
  // all buffered emissions in merged order. The fleet stays usable
  // afterwards.
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

  // In-memory capture/restore (coordinated across shards; the sharded
  // mirror of ContinuousEngine::CaptureCheckpoint/RestoreFrom). Capture
  // flushes buffered emissions first, so a run split at a capture point
  // concatenates exactly. RestoreFrom requires a fresh fleet with
  // identical routes and queries re-registered.
  std::vector<EngineCheckpoint> CaptureCheckpoints();
  Status RestoreFrom(const std::vector<EngineCheckpoint>& images);

  // ---- Introspection ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The per-shard engine (tests / metrics aggregation). Valid index only.
  ContinuousEngine* shard_engine(int shard_index);
  const ContinuousEngine* shard_engine(int shard_index) const;
  // Coordinator registry: fleet watermark, per-shard health gauges,
  // router counters, merge counters.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // The slowest shard's watermark (event-time millis; 0 before ingest).
  int64_t FleetWatermarkMillis() const;
  // Merged emissions released to sinks so far.
  int64_t released_total() const { return released_total_; }
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

  struct RouteEntry {
    std::string stream;
    StreamRouter::Predicate predicate;
    std::shared_ptr<const Partitioner> partitioner;
    Counter* routed = nullptr;
  };

  // Buffered, not-yet-released emission of one shard.
  struct PendingEmit {
    Timestamp t;
    std::string query;
    int shard = 0;
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
    // Max event timestamp produced to any lane; PumpShard advances the
    // shard engine's clock by it once every lane is drained.
    int64_t watermark_millis = 0;
    bool any_ingested = false;
    Gauge* watermark_gauge = nullptr;
    Gauge* queue_depth_gauge = nullptr;
    Gauge* buffered_gauge = nullptr;
  };

  std::string ShardDir(int shard_index) const;
  bool durable() const { return !options_.checkpoint_dir.empty(); }
  Lane* EnsureLane(int shard_index, const std::string& stream);
  // Produces into one lane with backpressure (ProduceWithBackpressure in
  // seraph/stream_driver.h, pumping this shard only) and raises the
  // shard watermark.
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
  // coordinator then advances it once by AdvanceEngineClock: to the shard
  // watermark (the single-engine ingest-then-advance cadence), or, for a
  // backpressure pump, to just before the refused element's `waiting`
  // timestamp.
  Result<int64_t> PumpShard(int shard_index,
                            std::optional<Timestamp> waiting = std::nullopt);
  // Releases buffered emissions: everything when `flush_all`, else those
  // at or below the fleet watermark; delivers in (t, query, shard) order.
  void MergeAndRelease(bool flush_all);
  void RefreshGauges();
  int HomeShard(const std::string& query_name) const;
  const RouteEntry* FindRoute(const std::string& stream) const;

  ShardedEngineOptions options_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RouteEntry> routes_;
  std::vector<EmitSink*> sinks_;
  std::map<std::string, std::vector<int>> placements_;
  // Query definitions in registration order (what Restore re-registers
  // from; the serving tier's source of truth for definitions).
  std::vector<std::string> query_texts_;
  int64_t released_total_ = 0;
  Counter* dropped_counter_ = nullptr;
  Counter* released_counter_ = nullptr;
  Counter* sink_failures_ = nullptr;
  Gauge* fleet_watermark_gauge_ = nullptr;
};

}  // namespace shard
}  // namespace seraph

#endif  // SERAPH_SHARD_SHARDED_ENGINE_H_
