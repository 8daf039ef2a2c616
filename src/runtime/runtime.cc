#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <iostream>

#include "common/logging.h"
#include "persist/recovery.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace runtime {

namespace {

std::string ConsumerName(std::string tool) {
  std::replace(tool.begin(), tool.end(), '_', '-');
  return tool;
}

EngineOptions EngineOptionsOf(const RuntimeOptions& options,
                              DeadLetterQueue* dead_letters) {
  EngineOptions engine = options.engine;
  if (options.dead_letter_failures) engine.dead_letter = dead_letters;
  return engine;
}

StreamDriver::Options DriverOptionsOf(const RuntimeOptions& options,
                                      const std::string& consumer,
                                      DeadLetterQueue* dead_letters) {
  StreamDriver::Options driver;
  driver.consumer = consumer;
  driver.poll_batch = options.poll_batch;
  if (options.dead_letter_failures) driver.dead_letter = dead_letters;
  return driver;
}

}  // namespace

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)),
      consumer_(ConsumerName(options_.tool)),
      engine_(EngineOptionsOf(options_, &dead_letters_)),
      queue_(options_.queue),
      driver_(&queue_, &engine_,
              DriverOptionsOf(options_, consumer_, &dead_letters_)),
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
  dead_letters_.BindDepthGauge(dead_letter_depth_);
  // Shed elements are a recorded loss, not a silent one.
  queue_.SetShedCallback([this](const StreamElement& element) {
    dead_letters_.AddElement(
        consumer_, element,
        Status::Unavailable("shed: event queue overflow (shed_oldest)"),
        /*attempts=*/0);
  });
  if (!options_.checkpoint_dir.empty()) {
    persist::CheckpointOptions checkpoint;
    checkpoint.dir = options_.checkpoint_dir;
    checkpoint.fsync = options_.checkpoint_fsync;
    checkpoints_ = std::make_unique<persist::CheckpointManager>(checkpoint);
    checkpoints_->BindQueue(consumer_, &queue_);
    checkpoints_->BindDeadLetter(&dead_letters_);
  }
}

Runtime::~Runtime() {
  stop_reporter_.store(true, std::memory_order_relaxed);
  if (reporter_.joinable()) reporter_.join();
  server_.Stop();
}

void Runtime::AddSink(EmitSink* sink, SinkPolicy policy) {
  engine_.AddSink(sink, "output", std::move(policy));
}

Result<std::string> Runtime::Register(std::string_view seraph_text) {
  SERAPH_ASSIGN_OR_RETURN(RegisteredQuery query,
                          ParseSeraphQuery(seraph_text));
  std::string name = query.name;
  SERAPH_RETURN_IF_ERROR(engine_.Register(std::move(query)));
  Publish();
  return name;
}

Status Runtime::Start() {
  const std::string prefix = "[" + options_.tool + "] ";
  if (options_.restore) {
    // Sheds reach the ring whatever dead_letter_failures says, and every
    // generation holds it, so it always comes back.
    auto report = persist::RecoverAll(options_.checkpoint_dir, &engine_,
                                      &queue_, consumer_, &dead_letters_);
    if (report.ok()) {
      std::cerr << prefix << "restored checkpoint seq=" << report->seq
                << ": " << report->queries << " query(ies), "
                << report->stream_elements << " checkpointed element(s), "
                << "resuming at offset " << next_offset() << "\n";
    } else if (report.status().code() == StatusCode::kNotFound) {
      std::cerr << prefix << "no checkpoint in '" << options_.checkpoint_dir
                << "'; cold-starting\n";
      queue_.Subscribe(consumer_);
    } else {
      return report.status();
    }
  } else {
    queue_.Subscribe(consumer_);
  }
  Publish();
  if (options_.metrics_port >= 0) {
    SERAPH_RETURN_IF_ERROR(server_.Start());
    std::cerr << prefix << "serving on http://127.0.0.1:" << server_.port()
              << " (GET /metrics, /healthz, /queries)\n";
  }
  if (options_.stats_interval_sec > 0) {
    reporter_ = std::thread([this] { ReportLoop(); });
  }
  return Status::OK();
}

Status Runtime::Produce(std::shared_ptr<const PropertyGraph> graph,
                        Timestamp timestamp) {
  // A full queue is relieved one way: a refused produce pumps the lane,
  // which delivers, advances the clock to just before `timestamp` and
  // trims what the consumer has committed past, then retries. Three pumps
  // in a row that neither deliver nor trim mean the consumer cannot free
  // space (another consumer of the queue lags).
  for (int stalled = 0;;) {
    Status status = queue_.Produce(graph, timestamp);
    if (status.code() != StatusCode::kUnavailable) {
      if (status.ok()) newest_ = timestamp;
      return status;
    }
    ++producer_retries_;
    const int64_t trimmed_before = queue_.trimmed_total();
    SERAPH_ASSIGN_OR_RETURN(int64_t delivered, driver_.PumpAll(timestamp));
    CommitPump();
    if (delivered > 0 || queue_.trimmed_total() != trimmed_before) {
      stalled = 0;
    } else if (++stalled >= 3) {
      return Status::Unavailable(
          "event queue full (capacity " +
          std::to_string(queue_.options().capacity) +
          ") and the consumer cannot free space; increase "
          "--queue-capacity or use --overflow-policy=shed_oldest");
    }
  }
}

Status Runtime::Pump() {
  SERAPH_RETURN_IF_ERROR(driver_.PumpAll(newest_).status());
  CommitPump();
  Publish();
  return Status::OK();
}

Status Runtime::Commit() {
  SERAPH_RETURN_IF_ERROR(Close());
  Publish();
  return CommitPump();
}

Status Runtime::Finish() {
  SERAPH_RETURN_IF_ERROR(Close());
  CommitPump();
  Publish();
  stop_reporter_.store(true, std::memory_order_relaxed);
  if (reporter_.joinable()) reporter_.join();
  if (checkpoints_ != nullptr) {
    std::cerr << "[" << options_.tool << "] delivered "
              << driver_.delivered_total() << " event(s), "
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

Status Runtime::Close() {
  SERAPH_RETURN_IF_ERROR(driver_.PumpAll().status());
  return engine_.Drain();
}

Runtime::CommitMark Runtime::Mark() const {
  CommitMark mark;
  mark.evaluations = engine_.evaluations_run();
  mark.clock = engine_.clock();
  mark.offset = queue_.OffsetOf(consumer_);
  mark.dead_letters = dead_letters_.total();
  for (const std::string& name : engine_.QueryNames()) {
    mark.queries.emplace_back(name, engine_.QueryDisabled(name));
  }
  return mark;
}

Status Runtime::CommitPump() {
  if (checkpoints_ == nullptr) return Status::OK();
  // A generation equal to the newest one would add nothing.
  CommitMark mark = Mark();
  if (mark == committed_) return Status::OK();
  Status committed = checkpoints_->Checkpoint(&engine_);
  if (!committed.ok()) {
    // The previous generation stays the newest; a crash before the next
    // commit restores it and the source re-produces from its offset.
    SERAPH_LOG(ERROR) << "checkpoint at "
                      << engine_.clock().value_or(Timestamp()).ToString()
                      << " failed: " << committed.ToString();
    return committed;
  }
  committed_ = std::move(mark);
  return committed;
}

void Runtime::Publish() {
  std::string fresh = QueriesStatusJson(engine_);
  std::lock_guard<std::mutex> lock(queries_mutex_);
  queries_json_ = std::move(fresh);
}

HistogramSnapshot Runtime::EmitLatency() const {
  const Histogram* histogram =
      engine_.metrics().FindHistogram("seraph_engine_emit_latency_micros");
  return histogram != nullptr ? histogram->Snapshot() : HistogramSnapshot();
}

int64_t Runtime::MaxLagMillis() const {
  const Gauge* gauge = engine_.metrics().FindGauge(
      "seraph_stream_lag_max_millis", {{"stream", "<default>"}});
  return gauge != nullptr ? gauge->value() : 0;
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
    const Counter* in = engine_.metrics().FindCounter(
        "seraph_stream_elements_ingested_total", {{"stream", "<default>"}});
    const HistogramSnapshot latency = EmitLatency();
    std::cerr << "[" << options_.tool
              << "] in=" << (in != nullptr ? in->value() : 0)
              << " samples=" << latency.count
              << " p99_emit_us=" << latency.p99
              << " max_lag_ms=" << MaxLagMillis()
              << " dlq=" << dead_letter_depth_->value() << "\n";
  }
}

}  // namespace runtime
}  // namespace seraph
