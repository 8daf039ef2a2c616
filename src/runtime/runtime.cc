#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <iostream>

#include "persist/recovery.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace runtime {

namespace {

EngineOptions SingleEngineOptions(const RuntimeOptions& options,
                                  DeadLetterQueue* dead_letters) {
  EngineOptions engine = options.engine;
  if (options.dead_letter_failures) engine.dead_letter = dead_letters;
  engine.checkpoint_every =
      options.checkpoint_dir.empty() ? 0 : options.checkpoint_every;
  return engine;
}

}  // namespace

std::string QueriesStatusJson(const shard::ShardedEngine& fleet) {
  std::vector<QueryStatus> queries;
  for (const std::string& name : fleet.QueryNames()) {
    QueryStatus& query = queries.emplace_back();
    query.name = name;
    query.disabled = fleet.QueryDisabled(name);
    query.stats = *fleet.StatsFor(name);
    query.eval_latency = *fleet.LatencyFor(name);
    query.shards = fleet.PlacementFor(name)->shards;
  }
  return seraph::QueriesStatusJson(queries);
}

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)),
      consumer_([this] {
        std::string consumer = options_.tool;
        std::replace(consumer.begin(), consumer.end(), '_', '-');
        return consumer;
      }()),
      fleet_(options_.fleet
                 ? std::make_unique<shard::ShardedEngine>(options_)
                 : nullptr),
      engine_(options_.fleet ? nullptr
                             : std::make_unique<ContinuousEngine>(
                                   SingleEngineOptions(options_,
                                                       &dead_letters_))),
      server_([this] {
        MetricsServer::Options server;
        server.port = std::max(options_.metrics_port, 0);
        server.registry = &metrics();
        server.io_timeout_millis = options_.io_timeout_millis;
        server.long_poll_timeout_millis = options_.long_poll_millis;
        server.queries_json = [this] {
          std::lock_guard<std::mutex> lock(queries_mutex_);
          return queries_json_;
        };
        return server;
      }()) {
  dead_letter_depth_ = metrics().GaugeFor("seraph_dead_letter_depth");
  if (fleet_ != nullptr) {
    for (int i = 0; i < fleet_->num_shards(); ++i) {
      engine_metrics_.push_back(&fleet_->shard_engine(i)->metrics());
    }
    return;
  }
  engine_metrics_.push_back(&engine_->metrics());
  dead_letters_.BindDepthGauge(dead_letter_depth_);
  queue_ = std::make_unique<EventQueue>(options_.queue);
  // Shed elements are a recorded loss, not a silent one.
  queue_->SetShedCallback([this](const StreamElement& element) {
    dead_letters_.AddElement(
        consumer_, element,
        Status::Unavailable("shed: event queue overflow (shed_oldest)"),
        /*attempts=*/0);
  });
  StreamDriver::Options driver;
  driver.consumer = consumer_;
  driver.poll_batch = options_.poll_batch;
  if (options_.dead_letter_failures) driver.dead_letter = &dead_letters_;
  driver_ = std::make_unique<StreamDriver>(queue_.get(), engine_.get(),
                                           driver);
  if (!options_.checkpoint_dir.empty()) {
    persist::CheckpointOptions checkpoint;
    checkpoint.dir = options_.checkpoint_dir;
    checkpoint.fsync = options_.checkpoint_fsync;
    checkpoints_ = std::make_unique<persist::CheckpointManager>(checkpoint);
    checkpoints_->BindQueue(consumer_, queue_.get());
    checkpoints_->BindDeadLetter(&dead_letters_);
    checkpoints_->AttachTo(engine_.get());
  }
}

Runtime::~Runtime() {
  stop_reporter_.store(true, std::memory_order_relaxed);
  if (reporter_.joinable()) reporter_.join();
  server_.Stop();
}

MetricsRegistry& Runtime::metrics() {
  return fleet_ != nullptr ? fleet_->metrics() : engine_->metrics();
}

void Runtime::AddSink(EmitSink* sink, SinkPolicy policy) {
  if (fleet_ != nullptr) {
    fleet_->AddSink(sink);
  } else {
    engine_->AddSink(sink, "output", std::move(policy));
  }
}

Result<shard::QueryPlacement> Runtime::Register(std::string_view seraph_text) {
  shard::QueryPlacement placement;
  if (fleet_ != nullptr) {
    SERAPH_ASSIGN_OR_RETURN(placement, fleet_->RegisterText(seraph_text));
  } else {
    SERAPH_ASSIGN_OR_RETURN(RegisteredQuery query,
                            ParseSeraphQuery(seraph_text));
    placement = {query.name, {0}};
    SERAPH_RETURN_IF_ERROR(engine_->Register(std::move(query)));
  }
  Publish();
  return placement;
}

Status Runtime::Start() {
  const std::string prefix = "[" + options_.tool + "] ";
  if (fleet_ != nullptr) {
    if (options_.restore) {
      SERAPH_RETURN_IF_ERROR(fleet_->Restore());
      std::cerr << prefix << "restored fleet state from '"
                << options_.checkpoint_dir << "' (watermark "
                << fleet_->FleetWatermarkMillis() << " ms)\n";
    }
  } else if (options_.restore) {
    auto report = persist::RecoverAll(
        options_.checkpoint_dir, engine_.get(), queue_.get(),
        {consumer_},
        options_.dead_letter_failures ? &dead_letters_ : nullptr);
    if (report.ok()) {
      std::cerr << prefix << "restored checkpoint seq=" << report->seq
                << ": " << report->queries << " query(ies), "
                << report->stream_elements << " checkpointed element(s), "
                << "replay backlog "
                << report->replay_backlog.at(consumer_) << "\n";
    } else if (report.status().code() == StatusCode::kNotFound) {
      std::cerr << prefix << "no checkpoint in '" << options_.checkpoint_dir
                << "'; cold-starting\n";
      queue_->Subscribe(consumer_);
    } else {
      return report.status();
    }
  } else {
    queue_->Subscribe(consumer_);
  }
  // Retention below the checkpoint horizon, bound after recovery so the
  // horizon starts at the restore point.
  if (checkpoints_ != nullptr) checkpoints_->ManageRetention(queue_.get());
  Publish();
  if (options_.metrics_port >= 0) {
    SERAPH_RETURN_IF_ERROR(server_.Start());
    std::cerr << prefix << "serving "
              << (fleet_ != nullptr ? fleet_->num_shards() : 1)
              << " shard(s) on http://127.0.0.1:" << server_.port()
              << " (GET /metrics, /healthz, /queries)\n";
  }
  if (options_.stats_interval_sec > 0) {
    reporter_ = std::thread([this] { ReportLoop(); });
  }
  return Status::OK();
}

Result<int> Runtime::Produce(std::shared_ptr<const PropertyGraph> graph,
                             Timestamp timestamp) {
  int delivered = 1;
  if (fleet_ != nullptr) {
    SERAPH_ASSIGN_OR_RETURN(delivered,
                            fleet_->Ingest(std::move(graph), timestamp));
  } else {
    // A refused produce pumps the lane, which advances the committed
    // offset and, at batch barriers, the checkpoint horizon, then retries.
    SERAPH_RETURN_IF_ERROR(ProduceWithBackpressure(
        queue_.get(), std::move(graph), timestamp,
        [this](Timestamp waiting) { return driver_->PumpAll(waiting); },
        &producer_retries_));
  }
  newest_ = timestamp;
  return delivered;
}

Status Runtime::Pump() {
  if (fleet_ != nullptr) {
    SERAPH_RETURN_IF_ERROR(fleet_->PumpAll(newest_));
  } else {
    SERAPH_RETURN_IF_ERROR(driver_->PumpAll(newest_).status());
  }
  Publish();
  return Status::OK();
}

Status Runtime::Finish() {
  SERAPH_RETURN_IF_ERROR(fleet_ != nullptr ? fleet_->Finish()
                                           : driver_->PumpAll().status());
  Publish();
  stop_reporter_.store(true, std::memory_order_relaxed);
  if (reporter_.joinable()) reporter_.join();
  if (checkpoints_ != nullptr) {
    std::cerr << "[" << options_.tool << "] delivered "
              << driver_->delivered_total() << " event(s), "
              << checkpoints_->checkpoints_written()
              << " checkpoint(s) written (last seq="
              << checkpoints_->last_seq() << ")";
    if (checkpoints_->checkpoint_failures() > 0) {
      std::cerr << ", " << checkpoints_->checkpoint_failures() << " failed";
    }
    std::cerr << "\n";
  }
  return Status::OK();
}

void Runtime::Publish() {
  std::string fresh;
  if (fleet_ != nullptr) {
    fresh = QueriesStatusJson(*fleet_);
    dead_letter_depth_->Set(fleet_->Overload().dead_letter_depth);
  } else {
    fresh = QueriesStatusJson(*engine_);
  }
  std::lock_guard<std::mutex> lock(queries_mutex_);
  queries_json_ = std::move(fresh);
}

shard::OverloadLedger Runtime::Overload() const {
  if (fleet_ != nullptr) return fleet_->Overload();
  shard::OverloadLedger ledger;
  ledger.queue_shed = queue_->shed_total();
  ledger.rejected = queue_->rejected_total();
  ledger.trimmed = queue_->trimmed_total();
  ledger.dead_letters = dead_letters_.total();
  ledger.dead_letter_depth = static_cast<int64_t>(dead_letters_.size());
  return ledger;
}

HistogramSnapshot Runtime::EmitLatency() const {
  HistogramSnapshot merged;
  for (const MetricsRegistry* registry : engine_metrics_) {
    const Histogram* histogram =
        registry->FindHistogram("seraph_engine_emit_latency_micros");
    if (histogram != nullptr) {
      MergeHistogramSnapshot(&merged, histogram->Snapshot());
    }
  }
  return merged;
}

int64_t Runtime::MaxLagMillis() const {
  int64_t lag = 0;
  for (const MetricsRegistry* registry : engine_metrics_) {
    const Gauge* gauge = registry->FindGauge("seraph_stream_lag_max_millis",
                                             {{"stream", "<default>"}});
    if (gauge != nullptr) lag = std::max(lag, gauge->value());
  }
  return lag;
}

// One status line per interval. It reads only registry instruments
// (atomics), so it runs alongside ingestion and evaluation race-free.
void Runtime::ReportLoop() {
  using namespace std::chrono;
  auto next = steady_clock::now() + seconds(options_.stats_interval_sec);
  while (!stop_reporter_.load(std::memory_order_relaxed)) {
    // Sleep in short slices so Finish() is prompt.
    std::this_thread::sleep_for(milliseconds(50));
    if (steady_clock::now() < next) continue;
    next += seconds(options_.stats_interval_sec);
    int64_t in = 0;
    for (const MetricsRegistry* registry : engine_metrics_) {
      const Counter* counter = registry->FindCounter(
          "seraph_stream_elements_ingested_total", {{"stream", "<default>"}});
      if (counter != nullptr) in += counter->value();
    }
    const HistogramSnapshot latency = EmitLatency();
    std::cerr << "[" << options_.tool << "] in=" << in
              << " samples=" << latency.count
              << " p99_emit_us=" << latency.p99
              << " max_lag_ms=" << MaxLagMillis()
              << " dlq=" << dead_letter_depth_->value() << "\n";
  }
}

}  // namespace runtime
}  // namespace seraph
