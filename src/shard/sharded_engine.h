// The sharded tier (docs/INTERNALS.md, "Sharded tier"): a ShardedEngine
// owns N per-shard ContinuousEngine instances, each with its own bounded
// EventQueues, StreamDrivers, thread pool, and checkpoint generation
// directory. No tool serves it; perfbench's fraud_durable workload and
// bench_sharded build it. The coordinator routes ingest through one
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
// interleaving. Finish() flushes the buffers, releasing everything in
// merged order.
#ifndef SERAPH_SHARD_SHARDED_ENGINE_H_
#define SERAPH_SHARD_SHARDED_ENGINE_H_

#include <deque>
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
  // deadlines, ...). `dead_letter` is overridden per shard.
  EngineOptions engine;
  // Per-lane ingest queue bound + overflow policy.
  EventQueue::Options queue;
  // Elements fetched per driver poll.
  size_t poll_batch = 64;
  // Durability root; empty = in-memory only. Shard i's checkpoint
  // generations live in <checkpoint_dir>/shard-<i>.
  std::string checkpoint_dir;
  bool checkpoint_fsync = true;
  // When > 0 (and checkpoint_dir is set), every shard commits a
  // generation at the end of every N-th pump of that shard — shards stay
  // independent; no fleet-wide freeze.
  int64_t checkpoint_every = 0;
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
  // shards the placement names. Routes freeze at the first RegisterText
  // or Ingest, because placement reads them: a later AddRoute fails with
  // kFailedPrecondition. A FixedShard outside the fleet fails with
  // kInvalidArgument.
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

  // ---- Sinks ----

  // Receives the merged fleet output in deterministic (t, query) order.
  // Sink failures are counted, never fatal. Not owned; add before
  // pumping.
  void AddSink(EmitSink* sink);

  // ---- Ingest + evaluation ----

  // Routes one element into the lane queues of every matching route's
  // shards. Timestamps must be non-decreasing across calls. Bounded lanes
  // exert backpressure: a full queue pumps its own shard (never freezing
  // the others) under the pump clock rule (AdvanceEngineClock in
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

  // ---- Introspection ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The per-shard engine (tests / metrics aggregation). Valid index only.
  ContinuousEngine* shard_engine(int shard_index);
  const ContinuousEngine* shard_engine(int shard_index) const;
  // The queue of one (shard, stream) lane; nullptr when the shard has no
  // lane for the stream.
  const EventQueue* lane_queue(int shard_index,
                               const std::string& stream) const;
  // Coordinator registry: router counters and merge sink failures.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Lane {
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<StreamDriver> driver;
    std::string consumer;
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
    // Pumps so far; a durable shard commits on every checkpoint_every-th.
    int64_t pumps = 0;
    std::deque<PendingEmit> buffered;
    // Lanes keyed by logical stream name.
    std::map<std::string, std::unique_ptr<Lane>> lanes;
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
  // Drains one shard's lanes into its engine and returns the number of
  // elements delivered. Lane drivers never touch the shard clock, so the
  // coordinator then advances it once by AdvanceEngineClock: to the fleet
  // watermark (the single-engine ingest-then-advance cadence), or, when
  // `waiting` is set, to just before it. A durable shard then commits,
  // on every checkpoint_every-th pump.
  Result<int64_t> PumpShard(int shard_index,
                            std::optional<Timestamp> waiting = std::nullopt);
  // Releases buffered emissions: everything when `flush_all`, else those
  // at or below every shard's clock; delivers in (t, query) order.
  void MergeAndRelease(bool flush_all);
  int HomeShard(const std::string& query_name) const;

  ShardedEngineOptions options_;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Route predicates, bound to metrics_; each stream's shards below.
  StreamRouter router_;
  std::map<std::string, StreamPlacement> stream_placements_;
  // Set by the first RegisterText or Ingest.
  bool routes_frozen_ = false;
  // The fleet watermark: the newest timestamp produced to any lane.
  // PumpShard advances every shard's clock to it, as one engine's clock
  // follows all of its streams, so a shard whose streams go quiet still
  // evaluates the instants a single engine would.
  std::optional<Timestamp> newest_;
  std::vector<EmitSink*> sinks_;
  // Query name → its shard.
  std::map<std::string, int> placements_;
  Counter* sink_failures_ = nullptr;
};

}  // namespace shard
}  // namespace seraph

#endif  // SERAPH_SHARD_SHARDED_ENGINE_H_
