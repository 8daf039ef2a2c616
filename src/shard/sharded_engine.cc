#include "shard/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace shard {

namespace {

std::string StreamLabel(const std::string& stream) {
  return stream.empty() ? "<default>" : stream;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
  router_.BindMetrics(&metrics_);
  sink_failures_ =
      metrics_.CounterFor("seraph_sharded_sink_failures_total");
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    EngineOptions engine_options = options_.engine;
    engine_options.dead_letter = &shard->dead_letters;
    shard->engine = std::make_unique<ContinuousEngine>(engine_options);
    shard->engine->AddSink(&buffer_, "shard-buffer");
    if (durable()) {
      persist::CheckpointOptions checkpoint_options;
      checkpoint_options.dir =
          options_.checkpoint_dir + "/shard-" + std::to_string(i);
      checkpoint_options.fsync = options_.checkpoint_fsync;
      shard->manager =
          std::make_unique<persist::CheckpointManager>(checkpoint_options);
      shard->manager->BindDeadLetter(&shard->dead_letters);
    }
    shards_.push_back(std::move(shard));
  }
  AddRoute("", AcceptAll(), Broadcast());
}

ShardedEngine::~ShardedEngine() = default;

Status ShardedEngine::AddRoute(std::string stream,
                               StreamRouter::Predicate predicate,
                               StreamPlacement placement) {
  if (routes_frozen_) {
    return Status::FailedPrecondition(
        "route '" + StreamLabel(stream) +
        "' declared after a query was placed or an element ingested; "
        "declare every route first");
  }
  if (!placement.broadcast &&
      (placement.shard < 0 || placement.shard >= num_shards())) {
    return Status::InvalidArgument(
        "route '" + StreamLabel(stream) + "' pins shard " +
        std::to_string(placement.shard) + ", outside shards 0.." +
        std::to_string(num_shards() - 1));
  }
  stream_placements_[stream] = placement;
  router_.AddRoute(std::move(stream), std::move(predicate));
  return Status::OK();
}

int ShardedEngine::HomeShard(const std::string& query_name) const {
  return static_cast<int>(StableHash64(query_name) %
                          static_cast<uint64_t>(num_shards()));
}

Result<QueryPlacement> ShardedEngine::RegisterText(
    std::string_view seraph_text) {
  SERAPH_ASSIGN_OR_RETURN(RegisteredQuery parsed,
                          ParseSeraphQuery(seraph_text));
  if (placements_.contains(parsed.name)) {
    return Status::AlreadyExists("query '" + parsed.name +
                                 "' already registered");
  }
  std::optional<int> fixed;
  for (const Clause& clause : parsed.clauses) {
    const auto* match = std::get_if<MatchClause>(&clause);
    if (match == nullptr) continue;
    // A stream nothing routes into is empty on every shard, like a
    // broadcast one.
    auto it = stream_placements_.find(match->from_stream);
    if (it == stream_placements_.end() || it->second.broadcast) continue;
    if (fixed.has_value() && *fixed != it->second.shard) {
      return Status::InvalidArgument(
          "query '" + parsed.name +
          "' windows over streams pinned to different shards (" +
          std::to_string(*fixed) + " vs " +
          std::to_string(it->second.shard) + ")");
    }
    fixed = it->second.shard;
  }
  const int shard = fixed.value_or(HomeShard(parsed.name));
  const std::string name = parsed.name;
  SERAPH_RETURN_IF_ERROR(
      shards_[static_cast<size_t>(shard)]->engine->Register(std::move(parsed)));
  routes_frozen_ = true;
  placements_[name] = shard;
  return QueryPlacement{name, {shard}};
}

Result<QueryPlacement> ShardedEngine::PlacementFor(
    const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return QueryPlacement{name, {it->second}};
}

void ShardedEngine::AddSink(EmitSink* sink) { sinks_.push_back(sink); }

Result<int> ShardedEngine::Ingest(std::shared_ptr<const PropertyGraph> graph,
                                  Timestamp timestamp) {
  // No shard clock is past the watermark, so an element at or after it
  // is appended everywhere its routes name, and one before it nowhere.
  if (newest_.has_value() && timestamp < *newest_) {
    return Status::OutOfRange(
        "cannot ingest an element older than the fleet watermark (" +
        timestamp.ToString() + " < " + newest_->ToString() + ")");
  }
  routes_frozen_ = true;
  newest_ = timestamp;
  return router_.Route(
      graph, timestamp,
      [this](const std::string& stream,
             const std::shared_ptr<const PropertyGraph>& element,
             Timestamp t) -> Result<int> {
        const StreamPlacement& placement = stream_placements_.at(stream);
        int deliveries = 0;
        for (int s = 0; s < num_shards(); ++s) {
          if (!placement.broadcast && s != placement.shard) continue;
          SERAPH_RETURN_IF_ERROR(shards_[static_cast<size_t>(s)]
                                     ->engine->IngestTo(stream, element, t));
          ++deliveries;
        }
        return deliveries;
      });
}

Result<int> ShardedEngine::Ingest(PropertyGraph graph, Timestamp timestamp) {
  return Ingest(std::make_shared<const PropertyGraph>(std::move(graph)),
                timestamp);
}

Status ShardedEngine::PumpAll() {
  const bool commit = durable() && options_.checkpoint_every > 0 &&
                      ++pumps_ % options_.checkpoint_every == 0;
  for (int s = 0; s < num_shards(); ++s) {
    Shard* shard = shards_[static_cast<size_t>(s)].get();
    if (newest_.has_value()) {
      SERAPH_RETURN_IF_ERROR(shard->engine->AdvanceTo(*newest_));
    }
    if (!commit) continue;
    // A failed commit leaves the previous generation the newest; the
    // manager counts it and the run goes on.
    Status committed = shard->manager->Checkpoint(shard->engine.get());
    if (!committed.ok()) {
      SERAPH_LOG(ERROR) << "shard " << s
                        << " checkpoint failed: " << committed.ToString();
    }
  }
  // Every shard now stands at the same clock, so the buffer holds what
  // one engine would have emitted since the last release, and sorting it
  // gives that engine's order. A query lives on one shard and evaluates
  // an instant once, so (t, query) is unique.
  std::vector<PendingEmit>& emits = buffer_.emits;
  std::sort(emits.begin(), emits.end(),
            [](const PendingEmit& a, const PendingEmit& b) {
              if (a.t.millis() != b.t.millis()) {
                return a.t.millis() < b.t.millis();
              }
              return a.query < b.query;
            });
  for (const PendingEmit& emit : emits) {
    for (EmitSink* sink : sinks_) {
      Status status = sink->OnResult(emit.query, emit.t, emit.table);
      if (!status.ok()) sink_failures_->Increment();
    }
  }
  emits.clear();
  return Status::OK();
}

ContinuousEngine* ShardedEngine::shard_engine(int shard_index) {
  if (shard_index < 0 || shard_index >= num_shards()) return nullptr;
  return shards_[static_cast<size_t>(shard_index)]->engine.get();
}

const ContinuousEngine* ShardedEngine::shard_engine(int shard_index) const {
  if (shard_index < 0 || shard_index >= num_shards()) return nullptr;
  return shards_[static_cast<size_t>(shard_index)]->engine.get();
}

}  // namespace shard
}  // namespace seraph
