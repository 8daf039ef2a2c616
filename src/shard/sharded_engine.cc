#include "shard/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "io/graph_text.h"
#include "persist/recovery.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace shard {

namespace {

// "ingest-<sanitized>-<hash>.log": readable for humans, collision-safe
// for streams whose names only differ in escaped characters.
std::string IngestLogFileName(const std::string& stream) {
  std::string sanitized;
  for (char c : stream) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    sanitized.push_back(safe ? c : '_');
  }
  if (sanitized.empty()) sanitized = "default";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(StableHash64(stream)));
  return "ingest-" + sanitized + "-" + hex + ".log";
}

std::string StreamLabel(const std::string& stream) {
  return stream.empty() ? "<default>" : stream;
}

}  // namespace

// Buffers one shard's emissions for the coordinator merge. Runs on the
// coordinator thread (driver pumps are coordinator-driven), so plain
// deque access is safe.
class ShardedEngine::BufferSink final : public EmitSink {
 public:
  explicit BufferSink(std::deque<PendingEmit>* buffer) : buffer_(buffer) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    buffer_->push_back(PendingEmit{evaluation_time, query_name, table});
    return Status::OK();
  }

 private:
  std::deque<PendingEmit>* buffer_;
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
  router_.BindMetrics(&metrics_);
  released_counter_ = metrics_.CounterFor("seraph_sharded_released_total");
  sink_failures_ =
      metrics_.CounterFor("seraph_sharded_sink_failures_total");
  fleet_watermark_gauge_ = metrics_.GaugeFor("seraph_fleet_watermark_millis");
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    EngineOptions engine_options = options_.engine;
    engine_options.dead_letter = &shard->dead_letters;
    engine_options.checkpoint_every = durable() ? options_.checkpoint_every : 0;
    shard->engine = std::make_unique<ContinuousEngine>(engine_options);
    shard->sink = std::make_unique<BufferSink>(&shard->buffered);
    shard->engine->AddSink(shard->sink.get(), "shard-buffer");
    const std::string label = std::to_string(i);
    shard->watermark_gauge =
        metrics_.GaugeFor("seraph_shard_watermark_millis", {{"shard", label}});
    shard->queue_depth_gauge =
        metrics_.GaugeFor("seraph_shard_queue_depth", {{"shard", label}});
    shard->buffered_gauge =
        metrics_.GaugeFor("seraph_shard_buffered_emits", {{"shard", label}});
    if (durable()) {
      persist::CheckpointOptions checkpoint_options;
      checkpoint_options.dir = ShardDir(i);
      checkpoint_options.fsync = options_.checkpoint_fsync;
      shard->manager =
          std::make_unique<persist::CheckpointManager>(checkpoint_options);
      shard->manager->BindDeadLetter(&shard->dead_letters);
      shard->manager->AttachTo(shard->engine.get());
    }
    shards_.push_back(std::move(shard));
  }
  AddRoute("", AcceptAll(), Broadcast());
}

ShardedEngine::~ShardedEngine() = default;

std::string ShardedEngine::ShardDir(int shard_index) const {
  return options_.checkpoint_dir + "/shard-" + std::to_string(shard_index);
}

ShardedEngine::Lane* ShardedEngine::EnsureLane(int shard_index,
                                               const std::string& stream) {
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  std::unique_ptr<Lane>& slot = shard->lanes[stream];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>();
    Lane* lane = slot.get();
    lane->queue = std::make_unique<EventQueue>(options_.queue);
    lane->consumer = "shard-" + std::to_string(shard_index) + "/" +
                     StreamLabel(stream);
    lane->queue->Subscribe(lane->consumer);
    StreamDriver::Options driver_options;
    driver_options.consumer = lane->consumer;
    driver_options.target_stream = stream;
    driver_options.poll_batch = options_.poll_batch;
    driver_options.dead_letter = &shard->dead_letters;
    // Lane drivers deliver only; the coordinator owns the shard clock
    // (PumpShard advances it once per pump, to the fleet watermark), so
    // equal-timestamp elements split across lanes are all delivered
    // before any evaluation at their instant fires.
    driver_options.advance_engine_clock = false;
    lane->driver = std::make_unique<StreamDriver>(
        lane->queue.get(), shard->engine.get(), driver_options);
    // Shed elements stay observable (the overload partition invariant).
    DeadLetterQueue* dead_letters = &shard->dead_letters;
    const std::string consumer = lane->consumer;
    lane->queue->SetShedCallback(
        [dead_letters, consumer](const StreamElement& element) {
          dead_letters->AddElement(
              consumer, element,
              Status::Unavailable("shed by bounded shard queue"), 0);
        });
    if (durable()) {
      shard->manager->BindQueue(lane->consumer, lane->queue.get());
      shard->manager->ManageRetention(lane->queue.get());
      lane->log_path = ShardDir(shard_index) + "/" + IngestLogFileName(stream);
    }
  }
  return slot.get();
}

Status ShardedEngine::AddRoute(std::string stream,
                               StreamRouter::Predicate predicate,
                               StreamPlacement placement) {
  if (routes_frozen_) {
    return Status::FailedPrecondition(
        "route '" + StreamLabel(stream) +
        "' declared after a query was placed, an element ingested or a "
        "restore; declare every route first");
  }
  if (!placement.broadcast &&
      (placement.shard < 0 || placement.shard >= num_shards())) {
    return Status::InvalidArgument(
        "route '" + StreamLabel(stream) + "' pins shard " +
        std::to_string(placement.shard) + ", outside shards 0.." +
        std::to_string(num_shards() - 1));
  }
  // Lanes are created eagerly on the placement's shards, so the
  // (shard, stream) topology — and with it the durable consumer names —
  // is a pure function of the declared routes.
  for (int s = 0; s < num_shards(); ++s) {
    if (placement.broadcast || s == placement.shard) EnsureLane(s, stream);
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

Result<ContinuousEngine*> ShardedEngine::EngineOf(
    const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return shards_[static_cast<size_t>(it->second)]->engine.get();
}

Result<QueryPlacement> ShardedEngine::PlacementFor(
    const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return QueryPlacement{name, {it->second}};
}

std::vector<std::string> ShardedEngine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(placements_.size());
  for (const auto& [name, shard] : placements_) names.push_back(name);
  return names;
}

bool ShardedEngine::QueryDisabled(const std::string& name) const {
  Result<ContinuousEngine*> engine = EngineOf(name);
  return engine.ok() && (*engine)->QueryDisabled(name);
}

Status ShardedEngine::ReviveQuery(const std::string& name) {
  SERAPH_ASSIGN_OR_RETURN(ContinuousEngine* engine, EngineOf(name));
  return engine->ReviveQuery(name);
}

Result<QueryStats> ShardedEngine::StatsFor(const std::string& name) const {
  SERAPH_ASSIGN_OR_RETURN(ContinuousEngine* engine, EngineOf(name));
  return engine->StatsFor(name);
}

Result<HistogramSnapshot> ShardedEngine::LatencyFor(
    const std::string& name) const {
  SERAPH_ASSIGN_OR_RETURN(ContinuousEngine* engine, EngineOf(name));
  return engine->LatencyFor(name);
}

void ShardedEngine::AddSink(EmitSink* sink) { sinks_.push_back(sink); }

Result<int> ShardedEngine::Ingest(std::shared_ptr<const PropertyGraph> graph,
                                  Timestamp timestamp) {
  routes_frozen_ = true;
  return router_.Route(
      graph, timestamp,
      [this](const std::string& stream,
             const std::shared_ptr<const PropertyGraph>& element,
             Timestamp t) -> Result<int> {
        const StreamPlacement& placement = stream_placements_.at(stream);
        int deliveries = 0;
        for (int s = 0; s < num_shards(); ++s) {
          if (!placement.broadcast && s != placement.shard) continue;
          Lane* lane = EnsureLane(s, stream);
          SERAPH_RETURN_IF_ERROR(ProduceToLane(s, lane, element, t));
          SERAPH_RETURN_IF_ERROR(AppendIngestLog(lane, element, t));
          ++deliveries;
        }
        return deliveries;
      });
}

Result<int> ShardedEngine::Ingest(PropertyGraph graph, Timestamp timestamp) {
  return Ingest(std::make_shared<const PropertyGraph>(std::move(graph)),
                timestamp);
}

Status ShardedEngine::ProduceToLane(int shard_index, Lane* lane,
                                   std::shared_ptr<const PropertyGraph> graph,
                                   Timestamp timestamp) {
  // Backpressure drains only this shard's lanes, so retention can trim
  // the queue while the other shards keep running untouched.
  SERAPH_RETURN_IF_ERROR(ProduceWithBackpressure(
      lane->queue.get(), std::move(graph), timestamp,
      [this, shard_index](Timestamp waiting) {
        return PumpShard(shard_index, waiting);
      }));
  newest_ = std::max(newest_.value_or(timestamp), timestamp);
  return Status::OK();
}

Status ShardedEngine::AppendIngestLog(
    Lane* lane, const std::shared_ptr<const PropertyGraph>& graph,
    Timestamp timestamp) {
  if (lane->log_path.empty()) return Status::OK();
  if (!lane->log.is_open()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(lane->log_path).parent_path(), ec);
    lane->log.open(lane->log_path, std::ios::app);
    if (!lane->log) {
      return Status::Internal("cannot open ingest log " + lane->log_path);
    }
  }
  std::vector<StreamElement> one;
  one.push_back(StreamElement{graph, timestamp, 0});
  io::WriteEventLog(one, &lane->log);
  lane->log.flush();
  if (!lane->log) {
    return Status::Internal("ingest log write failed: " + lane->log_path);
  }
  return Status::OK();
}

Result<int64_t> ShardedEngine::PumpShard(int shard_index,
                                         std::optional<Timestamp> waiting) {
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  // Lane drivers deliver without advancing the shard clock (EnsureLane
  // sets advance_engine_clock = false), so the pump order across lanes
  // is irrelevant: every queued element lands in its window first, then
  // the coordinator advances the clock once — the same
  // ingest-then-advance cadence a single engine sees. Windows select by
  // element timestamp, so delivering "ahead" of the clock never pollutes
  // earlier evaluations.
  int64_t delivered = 0;
  for (auto& [stream, lane] : shard->lanes) {
    SERAPH_ASSIGN_OR_RETURN(int64_t pumped, lane->driver->PumpAll());
    delivered += pumped;
  }
  if (newest_.has_value()) {
    SERAPH_RETURN_IF_ERROR(
        AdvanceEngineClock(shard->engine.get(), *newest_, waiting));
  }
  return delivered;
}

Status ShardedEngine::PumpAll(std::optional<Timestamp> waiting) {
  for (int s = 0; s < num_shards(); ++s) {
    SERAPH_RETURN_IF_ERROR(PumpShard(s, waiting).status());
  }
  MergeAndRelease(/*flush_all=*/false);
  RefreshGauges();
  return Status::OK();
}

Status ShardedEngine::Finish() {
  SERAPH_RETURN_IF_ERROR(PumpAll());
  MergeAndRelease(/*flush_all=*/true);
  RefreshGauges();
  return Status::OK();
}

void ShardedEngine::MergeAndRelease(bool flush_all) {
  int64_t cut = std::numeric_limits<int64_t>::max();
  if (!flush_all) {
    // An emission is final once every shard's clock has passed its
    // instant: no shard evaluates at or below its own clock again.
    for (const auto& shard : shards_) {
      const std::optional<Timestamp> clock = shard->engine->clock();
      if (!clock.has_value()) return;
      cut = std::min(cut, clock->millis());
    }
  }
  std::vector<PendingEmit> ready;
  for (const auto& shard : shards_) {
    // Usually time-ordered, but late registration can interleave, so
    // scan the whole buffer instead of popping a sorted prefix.
    std::deque<PendingEmit> keep;
    for (PendingEmit& emit : shard->buffered) {
      if (emit.t.millis() <= cut) {
        ready.push_back(std::move(emit));
      } else {
        keep.push_back(std::move(emit));
      }
    }
    shard->buffered.swap(keep);
  }
  if (ready.empty()) return;
  // A query lives on one shard and evaluates an instant once, so
  // (t, query) is unique.
  std::sort(ready.begin(), ready.end(),
            [](const PendingEmit& a, const PendingEmit& b) {
              if (a.t.millis() != b.t.millis()) {
                return a.t.millis() < b.t.millis();
              }
              return a.query < b.query;
            });
  for (const PendingEmit& emit : ready) {
    for (EmitSink* sink : sinks_) {
      Status status = sink->OnResult(emit.query, emit.t, emit.table);
      if (!status.ok()) sink_failures_->Increment();
    }
  }
  released_counter_->Increment(static_cast<int64_t>(ready.size()));
}

void ShardedEngine::RefreshGauges() {
  for (const auto& shard : shards_) {
    const std::optional<Timestamp> clock = shard->engine->clock();
    shard->watermark_gauge->Set(clock.has_value() ? clock->millis() : 0);
    int64_t depth = 0;
    for (const auto& [stream, lane] : shard->lanes) {
      depth += static_cast<int64_t>(lane->queue->depth());
    }
    shard->queue_depth_gauge->Set(depth);
    shard->buffered_gauge->Set(static_cast<int64_t>(shard->buffered.size()));
  }
  fleet_watermark_gauge_->Set(FleetWatermarkMillis());
}

int64_t ShardedEngine::FleetWatermarkMillis() const {
  return newest_.has_value() ? newest_->millis() : 0;
}

OverloadLedger ShardedEngine::Overload() const {
  OverloadLedger ledger;
  for (const auto& shard : shards_) {
    for (const auto& [stream, lane] : shard->lanes) {
      ledger.queue_shed += lane->queue->shed_total();
      ledger.rejected += lane->queue->rejected_total();
      ledger.trimmed += lane->queue->trimmed_total();
    }
    ledger.dead_letters += shard->dead_letters.total();
    ledger.dead_letter_depth +=
        static_cast<int64_t>(shard->dead_letters.size());
  }
  return ledger;
}

ContinuousEngine* ShardedEngine::shard_engine(int shard_index) {
  if (shard_index < 0 || shard_index >= num_shards()) return nullptr;
  return shards_[static_cast<size_t>(shard_index)]->engine.get();
}

const ContinuousEngine* ShardedEngine::shard_engine(int shard_index) const {
  if (shard_index < 0 || shard_index >= num_shards()) return nullptr;
  return shards_[static_cast<size_t>(shard_index)]->engine.get();
}

Status ShardedEngine::Checkpoint() {
  if (!durable()) {
    return Status::InvalidArgument(
        "Checkpoint() requires ShardedEngineOptions::checkpoint_dir");
  }
  // Flush first so buffered emissions are never stranded behind a
  // checkpoint cut (the recovered life re-emits from the cut forward).
  MergeAndRelease(/*flush_all=*/true);
  RefreshGauges();
  for (const auto& shard : shards_) {
    SERAPH_RETURN_IF_ERROR(shard->manager->Checkpoint(shard->engine.get()));
  }
  return Status::OK();
}

Status ShardedEngine::ReplayIngestLogs(int shard_index) {
  // Live Ingest produced in timestamp order across lanes, and the pump
  // clock rule depends on it: a backpressure pump for an element at t
  // fires instants before t, so every lane's elements before t must be
  // queued by then. The merge is stable, so each lane keeps its order.
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  std::vector<std::pair<Lane*, StreamElement>> events;
  for (auto& [stream, lane] : shard->lanes) {
    if (lane->log_path.empty()) continue;
    std::ifstream is(lane->log_path);
    if (!is.is_open()) continue;  // Nothing durably ingested yet.
    SERAPH_ASSIGN_OR_RETURN(std::vector<StreamElement> logged,
                            io::ReadEventLog(&is));
    for (StreamElement& event : logged) {
      events.emplace_back(lane.get(), std::move(event));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.timestamp < b.second.timestamp;
                   });
  for (auto& [lane, event] : events) {
    SERAPH_RETURN_IF_ERROR(
        ProduceToLane(shard_index, lane, event.graph, event.timestamp));
  }
  return Status::OK();
}

Status ShardedEngine::Restore() {
  if (!durable()) {
    return Status::InvalidArgument(
        "Restore() requires ShardedEngineOptions::checkpoint_dir");
  }
  routes_frozen_ = true;
  for (int i = 0; i < num_shards(); ++i) {
    Shard* shard = shards_[static_cast<size_t>(i)].get();
    Result<persist::CheckpointImage> image =
        persist::LoadLatestCheckpoint(ShardDir(i));
    if (!image.ok()) {
      if (image.status().code() != StatusCode::kNotFound) {
        return image.status();
      }
      // Cold shard: no committed generation; replay its logs from zero.
    } else {
      SERAPH_RETURN_IF_ERROR(shard->engine->RestoreFrom(image->engine));
      // Complete the interrupted evaluation batch before any replay (the
      // persist::RecoverAll contract).
      SERAPH_RETURN_IF_ERROR(shard->engine->Drain());
      for (auto& [stream, lane] : shard->lanes) {
        SERAPH_RETURN_IF_ERROR(persist::RestoreConsumer(
            *image, lane->consumer, lane->queue.get()));
        // The horizon starts at the restore point, so the replay below
        // trims the prefix the checkpoint covers instead of holding it.
        shard->manager->ManageRetention(lane->queue.get());
      }
      shard->dead_letters.Restore(std::move(image->dead_letters),
                                  image->dead_letter_totals);
    }
    SERAPH_RETURN_IF_ERROR(ReplayIngestLogs(i));
  }
  RefreshGauges();
  return Status::OK();
}

}  // namespace shard
}  // namespace seraph
