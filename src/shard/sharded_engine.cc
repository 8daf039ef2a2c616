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
  BufferSink(std::deque<PendingEmit>* buffer, int shard_index)
      : buffer_(buffer), shard_(shard_index) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    buffer_->push_back(PendingEmit{evaluation_time, query_name, shard_, table});
    return Status::OK();
  }

 private:
  std::deque<PendingEmit>* buffer_;
  int shard_;
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
  dropped_counter_ = metrics_.CounterFor("seraph_router_dropped_total");
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
    shard->sink = std::make_unique<BufferSink>(&shard->buffered, i);
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
    // (PumpShard advances it once per pump, to the shard watermark), so
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

void ShardedEngine::AddRoute(std::string stream,
                             StreamRouter::Predicate predicate,
                             std::shared_ptr<const Partitioner> partitioner) {
  RouteEntry* entry = nullptr;
  for (RouteEntry& route : routes_) {
    if (route.stream == stream) {
      route.predicate = std::move(predicate);
      route.partitioner = std::move(partitioner);
      entry = &route;
      break;
    }
  }
  if (entry == nullptr) {
    Counter* routed = metrics_.CounterFor("seraph_router_routed_total",
                                          {{"stream", StreamLabel(stream)}});
    routes_.push_back(RouteEntry{std::move(stream), std::move(predicate),
                                 std::move(partitioner), routed});
    entry = &routes_.back();
  }
  // Lanes are created eagerly on every shard the partitioner can reach,
  // so the (shard, stream) topology — and with it the durable consumer
  // names — is a pure function of the declared routes.
  StreamPlacement placement = entry->partitioner->placement(num_shards());
  if (placement.kind == PlacementKind::kFixed) {
    EnsureLane(placement.fixed_shard, entry->stream);
  } else {
    for (int s = 0; s < num_shards(); ++s) EnsureLane(s, entry->stream);
  }
}

const ShardedEngine::RouteEntry* ShardedEngine::FindRoute(
    const std::string& stream) const {
  for (const RouteEntry& route : routes_) {
    if (route.stream == stream) return &route;
  }
  return nullptr;
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
  bool scattered = false;
  int fixed = -1;
  for (const Clause& clause : parsed.clauses) {
    const auto* match = std::get_if<MatchClause>(&clause);
    if (match == nullptr) continue;
    const RouteEntry* route = FindRoute(match->from_stream);
    // A stream nothing routes into is empty on every shard; treat it as
    // broadcast so the query still gets a home.
    StreamPlacement placement =
        route != nullptr ? route->partitioner->placement(num_shards())
                         : StreamPlacement{};
    switch (placement.kind) {
      case PlacementKind::kBroadcast:
        break;
      case PlacementKind::kFixed:
        if (fixed >= 0 && fixed != placement.fixed_shard) {
          return Status::InvalidArgument(
              "query '" + parsed.name +
              "' windows over streams pinned to different shards (" +
              std::to_string(fixed) + " vs " +
              std::to_string(placement.fixed_shard) + ")");
        }
        fixed = placement.fixed_shard;
        break;
      case PlacementKind::kScattered:
        scattered = true;
        break;
    }
  }
  if (scattered && fixed >= 0) {
    return Status::InvalidArgument(
        "query '" + parsed.name +
        "' mixes a scattered stream with a fixed-shard stream; no single "
        "shard sees both");
  }
  std::vector<int> where;
  if (scattered) {
    for (int s = 0; s < num_shards(); ++s) where.push_back(s);
  } else if (fixed >= 0) {
    where.push_back(fixed);
  } else {
    where.push_back(HomeShard(parsed.name));
  }
  for (size_t i = 0; i < where.size(); ++i) {
    Status status = shards_[static_cast<size_t>(where[i])]->engine->RegisterText(
        seraph_text);
    if (!status.ok()) {
      // Keep registration atomic across the placement set.
      for (size_t j = 0; j < i; ++j) {
        shards_[static_cast<size_t>(where[j])]->engine->Unregister(parsed.name);
      }
      return status;
    }
  }
  placements_[parsed.name] = where;
  query_texts_.push_back(std::string(seraph_text));
  return QueryPlacement{parsed.name, where};
}

Result<QueryPlacement> ShardedEngine::PlacementFor(
    const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  return QueryPlacement{name, it->second};
}

std::vector<std::string> ShardedEngine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(placements_.size());
  for (const auto& [name, shards] : placements_) names.push_back(name);
  return names;
}

bool ShardedEngine::QueryDisabled(const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) return false;
  for (int s : it->second) {
    if (shards_[static_cast<size_t>(s)]->engine->QueryDisabled(name)) {
      return true;
    }
  }
  return false;
}

Status ShardedEngine::ReviveQuery(const std::string& name) {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  for (int s : it->second) {
    SERAPH_RETURN_IF_ERROR(
        shards_[static_cast<size_t>(s)]->engine->ReviveQuery(name));
  }
  return Status::OK();
}

Result<QueryStats> ShardedEngine::StatsFor(const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  QueryStats total;
  for (int s : it->second) {
    SERAPH_ASSIGN_OR_RETURN(
        QueryStats stats,
        shards_[static_cast<size_t>(s)]->engine->StatsFor(name));
    total.evaluations += stats.evaluations;
    total.reused_results += stats.reused_results;
    total.fresh_executions += stats.fresh_executions;
    total.match_rows += stats.match_rows;
    total.rows_emitted += stats.rows_emitted;
    total.snapshots_incremental += stats.snapshots_incremental;
    total.snapshots_rebuilt += stats.snapshots_rebuilt;
    total.window_elements_added += stats.window_elements_added;
    total.window_elements_evicted += stats.window_elements_evicted;
    total.eval_failures += stats.eval_failures;
    if (!stats.last_error.ok()) total.last_error = stats.last_error;
  }
  return total;
}

Result<HistogramSnapshot> ShardedEngine::LatencyFor(
    const std::string& name) const {
  auto it = placements_.find(name);
  if (it == placements_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  HistogramSnapshot merged;
  for (int s : it->second) {
    SERAPH_ASSIGN_OR_RETURN(
        HistogramSnapshot latency,
        shards_[static_cast<size_t>(s)]->engine->LatencyFor(name));
    MergeHistogramSnapshot(&merged, latency);
  }
  return merged;
}

void ShardedEngine::AddSink(EmitSink* sink) { sinks_.push_back(sink); }

Result<int> ShardedEngine::Ingest(std::shared_ptr<const PropertyGraph> graph,
                                  Timestamp timestamp) {
  int deliveries = 0;
  bool matched = false;
  for (RouteEntry& route : routes_) {
    if (!route.predicate(*graph, timestamp)) continue;
    matched = true;
    for (int s : route.partitioner->ShardsFor(*graph, timestamp,
                                              num_shards())) {
      if (s < 0 || s >= num_shards()) {
        return Status::Internal("partitioner returned out-of-range shard " +
                                std::to_string(s));
      }
      Lane* lane = EnsureLane(s, route.stream);
      SERAPH_RETURN_IF_ERROR(ProduceToLane(s, lane, graph, timestamp));
      SERAPH_RETURN_IF_ERROR(AppendIngestLog(lane, graph, timestamp));
      route.routed->Increment();
      ++deliveries;
    }
  }
  if (!matched) dropped_counter_->Increment();
  return deliveries;
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
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  shard->watermark_millis =
      std::max(shard->watermark_millis, timestamp.millis());
  shard->any_ingested = true;
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
  if (shard->any_ingested) {
    SERAPH_RETURN_IF_ERROR(AdvanceEngineClock(
        shard->engine.get(), Timestamp::FromMillis(shard->watermark_millis),
        waiting));
  }
  return delivered;
}

Status ShardedEngine::PumpAll() {
  for (int s = 0; s < num_shards(); ++s) {
    SERAPH_RETURN_IF_ERROR(PumpShard(s).status());
  }
  MergeAndRelease(/*flush_all=*/false);
  RefreshGauges();
  return Status::OK();
}

Status ShardedEngine::Finish() {
  for (const auto& shard : shards_) {
    // Drain every lane before the single clock advance, so no element
    // is left behind the clock.
    for (auto& [stream, lane] : shard->lanes) {
      SERAPH_RETURN_IF_ERROR(lane->driver->PumpAll().status());
    }
    if (shard->any_ingested) {
      SERAPH_RETURN_IF_ERROR(shard->engine->AdvanceTo(
          Timestamp::FromMillis(shard->watermark_millis)));
    }
  }
  MergeAndRelease(/*flush_all=*/true);
  RefreshGauges();
  return Status::OK();
}

void ShardedEngine::MergeAndRelease(bool flush_all) {
  int64_t cut = std::numeric_limits<int64_t>::max();
  if (!flush_all) {
    bool any = false;
    for (const auto& shard : shards_) {
      if (!shard->any_ingested) continue;  // Cannot have emitted yet.
      cut = any ? std::min(cut, shard->watermark_millis)
                : shard->watermark_millis;
      any = true;
    }
    if (!any) return;
  }
  std::vector<PendingEmit> ready;
  for (const auto& shard : shards_) {
    if (shard->buffered.empty()) continue;
    if (flush_all) {
      for (PendingEmit& emit : shard->buffered) {
        ready.push_back(std::move(emit));
      }
      shard->buffered.clear();
    } else {
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
  }
  if (ready.empty()) return;
  std::sort(ready.begin(), ready.end(),
            [](const PendingEmit& a, const PendingEmit& b) {
              if (a.t.millis() != b.t.millis()) {
                return a.t.millis() < b.t.millis();
              }
              if (a.query != b.query) return a.query < b.query;
              return a.shard < b.shard;
            });
  for (const PendingEmit& emit : ready) {
    for (EmitSink* sink : sinks_) {
      Status status = sink->OnResult(emit.query, emit.t, emit.table);
      if (!status.ok()) sink_failures_->Increment();
    }
  }
  released_total_ += static_cast<int64_t>(ready.size());
  released_counter_->Increment(static_cast<int64_t>(ready.size()));
}

void ShardedEngine::RefreshGauges() {
  int64_t fleet = 0;
  bool any = false;
  for (const auto& shard : shards_) {
    shard->watermark_gauge->Set(shard->watermark_millis);
    int64_t depth = 0;
    for (const auto& [stream, lane] : shard->lanes) {
      depth += static_cast<int64_t>(lane->queue->depth());
    }
    shard->queue_depth_gauge->Set(depth);
    shard->buffered_gauge->Set(static_cast<int64_t>(shard->buffered.size()));
    if (shard->any_ingested) {
      fleet = any ? std::min(fleet, shard->watermark_millis)
                  : shard->watermark_millis;
      any = true;
    }
  }
  fleet_watermark_gauge_->Set(any ? fleet : 0);
}

int64_t ShardedEngine::FleetWatermarkMillis() const {
  int64_t fleet = 0;
  bool any = false;
  for (const auto& shard : shards_) {
    if (!shard->any_ingested) continue;
    fleet = any ? std::min(fleet, shard->watermark_millis)
                : shard->watermark_millis;
    any = true;
  }
  return any ? fleet : 0;
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

std::vector<EngineCheckpoint> ShardedEngine::CaptureCheckpoints() {
  MergeAndRelease(/*flush_all=*/true);
  std::vector<EngineCheckpoint> images;
  images.reserve(shards_.size());
  for (const auto& shard : shards_) {
    images.push_back(shard->engine->CaptureCheckpoint());
  }
  return images;
}

Status ShardedEngine::RestoreFrom(const std::vector<EngineCheckpoint>& images) {
  if (static_cast<int>(images.size()) != num_shards()) {
    return Status::InvalidArgument(
        "checkpoint image count does not match shard count");
  }
  for (int i = 0; i < num_shards(); ++i) {
    Shard* shard = shards_[static_cast<size_t>(i)].get();
    SERAPH_RETURN_IF_ERROR(shard->engine->RestoreFrom(images[static_cast<size_t>(i)]));
    SERAPH_RETURN_IF_ERROR(shard->engine->Drain());
    if (images[static_cast<size_t>(i)].clock_started) {
      shard->watermark_millis = images[static_cast<size_t>(i)].clock.millis();
      shard->any_ingested = true;
    }
  }
  RefreshGauges();
  return Status::OK();
}

}  // namespace shard
}  // namespace seraph
