// The sharded tier (docs/INTERNALS.md, "Sharded tier"): a ShardedEngine
// owns N per-shard ContinuousEngine instances, each with its own thread
// pool, dead-letter ring and checkpoint generation directory. No tool
// serves it; perfbench's fraud_durable workload and bench_sharded build
// it. The coordinator routes ingest through one StreamRouter straight
// into the engine streams of each stream's placement (shard/partitioner.h:
// every shard or one), advances every shard to the fleet watermark once
// per pump, and merges EMIT results back into one deterministic
// (t, query)-ordered output stream:
//
//   ShardedEngine fleet({.shards = 4});
//   fleet.AddRoute("rentals", HasRelationshipType("rentedAt"),
//                  shard::FixedShard(1));          // routes first
//   fleet.RegisterText("REGISTER QUERY q ...");   // placed by its streams
//   fleet.AddSink(&sink);                         // merged, ordered output
//   fleet.Ingest(graph, t);                       // routed fan-out
//   fleet.PumpAll();                              // advance shards + merge
//
// Determinism contract: every query the fleet accepts runs whole on one
// shard, and the merged output is bit-identical — content and order — to
// a single-engine run over the same routed streams (proven by
// tests/sharded_equivalence_test). A query that would need two shards
// fails to register instead.
//
// Every shard's clock follows the fleet watermark (the newest timestamp
// Ingest accepted), as one engine's clock follows all of its streams.
// Elements reach their shards inside Ingest, before any clock moves, and
// PumpAll moves every clock to the same target before it releases
// anything, so merged order never depends on pump interleaving.
#ifndef SERAPH_SHARD_SHARDED_ENGINE_H_
#define SERAPH_SHARD_SHARDED_ENGINE_H_

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
#include "seraph/stream_router.h"
#include "shard/partitioner.h"

namespace seraph {
namespace shard {

struct ShardedEngineOptions {
  // Number of shards (clamped to >= 1).
  int shards = 1;
  // Per-shard engine configuration (thread pools, delta matching,
  // deadlines, ...). `dead_letter` is overridden per shard.
  EngineOptions engine;
  // Durability root; empty = in-memory only. Shard i's checkpoint
  // generations live in <checkpoint_dir>/shard-<i>.
  std::string checkpoint_dir;
  bool checkpoint_fsync = true;
  // When > 0 (and checkpoint_dir is set), every shard commits a
  // generation at the end of every N-th PumpAll.
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
  // Routes freeze at the first RegisterText or Ingest, because placement
  // reads them: a later AddRoute fails with kFailedPrecondition. A
  // FixedShard outside the fleet fails with kInvalidArgument.
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

  // Appends one element to the engine stream of every (shard, stream) its
  // matching routes name. Timestamps must be non-decreasing across calls:
  // an element older than the newest one accepted fails with
  // kOutOfRange before routing, so it reaches no shard. Returns the
  // number of (shard, stream) deliveries; unrouted elements count into
  // seraph_router_dropped_total.
  Result<int> Ingest(std::shared_ptr<const PropertyGraph> graph,
                     Timestamp timestamp);
  Result<int> Ingest(PropertyGraph graph, Timestamp timestamp);

  // Advances every shard's clock to the fleet watermark (evaluating the
  // due instants, closing the newest), commits each durable shard on its
  // checkpoint_every-th pump, then delivers every buffered emission in
  // (t, query) order.
  Status PumpAll();

  // ---- Introspection ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The per-shard engine (tests / metrics aggregation). Valid index only.
  ContinuousEngine* shard_engine(int shard_index);
  const ContinuousEngine* shard_engine(int shard_index) const;
  // Coordinator registry: router counters and merge sink failures.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  // Buffered, not-yet-released emission of one shard.
  struct PendingEmit {
    Timestamp t;
    std::string query;
    TimeAnnotatedTable table;
  };

  // Every shard's sink: buffers emissions for the merge. Shards advance
  // one after another on the coordinator thread, where an engine
  // delivers to its sinks, so the buffer needs no lock.
  class BufferSink final : public EmitSink {
   public:
    Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                    const TimeAnnotatedTable& table) override {
      emits.push_back(PendingEmit{evaluation_time, query_name, table});
      return Status::OK();
    }
    std::vector<PendingEmit> emits;
  };

  struct Shard {
    std::unique_ptr<ContinuousEngine> engine;
    DeadLetterQueue dead_letters;
    std::unique_ptr<persist::CheckpointManager> manager;
  };

  bool durable() const { return !options_.checkpoint_dir.empty(); }
  int HomeShard(const std::string& query_name) const;

  ShardedEngineOptions options_;
  MetricsRegistry metrics_;
  // Every shard's emissions since the last release; outlives the shards.
  BufferSink buffer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Route predicates, bound to metrics_; each stream's shards below.
  StreamRouter router_;
  std::map<std::string, StreamPlacement> stream_placements_;
  // Set by the first RegisterText or Ingest.
  bool routes_frozen_ = false;
  // The fleet watermark: the newest timestamp Ingest accepted. PumpAll
  // advances every shard's clock to it, as one engine's clock follows
  // all of its streams, so a shard whose streams go quiet still
  // evaluates the instants a single engine would.
  std::optional<Timestamp> newest_;
  // Pumps so far; durable shards commit on every checkpoint_every-th.
  int64_t pumps_ = 0;
  std::vector<EmitSink*> sinks_;
  // Query name → its shard.
  std::map<std::string, int> placements_;
  Counter* sink_failures_ = nullptr;
};

}  // namespace shard
}  // namespace seraph

#endif  // SERAPH_SHARD_SHARDED_ENGINE_H_
