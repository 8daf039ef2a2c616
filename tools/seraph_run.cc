// seraph_run — run a Seraph continuous query over a recorded event log.
//
//   seraph_run <query.seraph> <events.log> [--csv | --json] [--stats]
//              [--explain] [--metrics=<path|->] [--trace=<path>]
//              [--progress=<n>] [--dead-letter=<path>] [--threads=<n>]
//              [--match-threads=<n>] [--checkpoint-dir=<dir>]
//              [--checkpoint-every=<n>] [--restore]
//              [--queue-capacity=<n>] [--overflow-policy=<policy>]
//              [--eval-deadline-ms=<n>] [--shed-lag-ms=<n>]
//   seraph_run --inspect-checkpoint --checkpoint-dir=<dir>
//
// The query file holds one REGISTER QUERY statement; the event log uses
// the text format of io/graph_text.h (`@ <ISO datetime>` headers followed
// by node/rel lines). Results are printed as ASCII tables per evaluation,
// or as CSV / JSON lines with --csv / --json. With --stats, per-query
// execution counters are reported at the end.
//
// Observability:
//   --metrics=<path>  dump the engine's metrics registry in Prometheus
//                     text format after the run ("-" = stdout): per-stage
//                     latency histograms (window / snapshot / match /
//                     policy / sink), reuse and maintenance counters,
//                     per-stream ingestion counts.
//   --trace=<path>    record every pipeline stage as a span and write a
//                     Chrome trace-event JSON file loadable in
//                     chrome://tracing or https://ui.perfetto.dev.
//   --progress=<n>    print a stats line to stderr every n ingested
//                     events (and advance the engine as events arrive, so
//                     the counters are live). Requires a chronologically
//                     ordered event log.
//   --metrics-port=<p>  serve the live observability endpoint on
//                     127.0.0.1:<p> for the duration of the run (0 picks
//                     an ephemeral port, announced on stderr): GET
//                     /metrics (Prometheus text, incl. the
//                     seraph_emit_latency_micros histograms and
//                     per-stream lag gauges), /healthz, and /queries
//                     (JSON per-query status). See docs/INTERNALS.md,
//                     "Latency accounting & lag".
//   --stats-interval=<sec>  print a one-line status to stderr every
//                     <sec> seconds while the run is in flight: elements
//                     in, rows out, p99 emit latency, max lag, dead-letter
//                     depth. Reads only the (atomic) metrics registry, so
//                     it is safe alongside the run.
//
// Fault tolerance (docs/INTERNALS.md, "Failure model"):
//   --dead-letter=<path>  capture results permanently rejected by the
//                     output sink as JSON lines at <path> instead of
//                     losing them; a summary goes to stderr. The sink is
//                     retried on transient failures and quarantined after
//                     repeated ones.
//   SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS  environment knobs arming
//                     the deterministic fault injector (e.g.
//                     SERAPH_FAULT_POINTS="sink.emit=0.05") for chaos
//                     runs; see common/fault.h.
//
// Durability (docs/INTERNALS.md, "Durability & recovery"):
//   --checkpoint-dir=<dir>  route events through an EventQueue +
//                     StreamDriver and commit atomic checkpoints (engine
//                     state, consumer offsets, dead letters) into <dir>
//                     at the engine's batch barrier.
//   --checkpoint-every=<n>  checkpoint cadence in evaluation batches
//                     (default 1, or the SERAPH_CHECKPOINT_EVERY
//                     environment variable).
//   --restore         before running, restore engine state and the
//                     consumer offset from the newest valid checkpoint
//                     in --checkpoint-dir, then replay only the event
//                     suffix past it; output continues bit-identically.
//                     Without a loadable checkpoint the run cold-starts.
//   --inspect-checkpoint  print every checkpoint generation in
//                     --checkpoint-dir (segments, sizes, CRC status,
//                     streams, offsets, queries) and exit.
//
// Overload protection (docs/INTERNALS.md, "Overload & backpressure"):
//   --queue-capacity=<n>  bound the durable EventQueue to <n> retained
//                     elements (checkpoint mode only; default 0 =
//                     unbounded). Retained means past the retention
//                     horizon — delivered-and-checkpointed entries are
//                     trimmed, so memory tracks consumer lag, not log
//                     size. SERAPH_QUEUE_CAPACITY supplies the default.
//   --overflow-policy=<block|reject|shed_oldest>  what a full queue does
//                     to the producer (default block): block = bounded
//                     wait for a trim, then reject; reject = fail the
//                     produce (the tool pumps the consumer and retries);
//                     shed_oldest = evict the oldest retained element,
//                     dead-lettering it with exact accounting.
//                     SERAPH_OVERFLOW_POLICY supplies the default.
//   --eval-deadline-ms=<n>  cooperative per-evaluation deadline: an
//                     evaluation that exceeds it is cancelled at the next
//                     matcher boundary and fails with kDeadlineExceeded,
//                     flowing through the isolation path (dead-letter,
//                     error budget, disable). 0 = off (default).
//                     SERAPH_EVAL_DEADLINE_MS supplies the default.
//   --shed-lag-ms=<n>  degraded-mode threshold: when the delivered
//                     horizon falls this many event-time ms behind the
//                     newest queued event, the driver switches to larger
//                     pump batches until lag halves. 0 = off (default).
//                     SERAPH_SHED_LAG_MS supplies the default.
//
// Parallel evaluation (docs/INTERNALS.md, "Parallel evaluation"):
//   --threads=<n>     evaluation worker threads: 1 = serial (default),
//                     0 = one per hardware thread. Output is identical at
//                     any thread count. The SERAPH_EVAL_THREADS
//                     environment variable supplies the default when the
//                     flag is absent.
//   --match-threads=<n>  intra-query parallel pattern matching (morsel-
//                     partitioned seed scan; docs/INTERNALS.md,
//                     "Intra-query parallelism"): 1 = serial matching
//                     (default), 0 = one worker per hardware thread.
//                     Results are bit-identical at any thread count. The
//                     SERAPH_MATCH_THREADS environment variable supplies
//                     the default when the flag is absent.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/trace.h"
#include "io/graph_text.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "seraph/seraph_parser.h"
#include "seraph/sinks.h"
#include "seraph/stream_driver.h"
#include "server/metrics_server.h"
#include "stream/event_queue.h"
#include "stream/overflow_policy.h"

namespace {

using namespace seraph;

// Offset key of the tool's queue consumer in checkpoint mode.
constexpr char kRunConsumer[] = "seraph-run";

int Fail(const std::string& message) {
  std::cerr << "seraph_run: " << message << "\n";
  return 1;
}

const char* RoleName(persist::SegmentRole role) {
  switch (role) {
    case persist::SegmentRole::kQueries:
      return "queries";
    case persist::SegmentRole::kOffsets:
      return "offsets";
    case persist::SegmentRole::kDeadLetters:
      return "dead-letters";
    case persist::SegmentRole::kStream:
      return "stream";
  }
  return "unknown";
}

// --inspect-checkpoint: a human-readable manifest-by-manifest summary.
int InspectCheckpoints(const std::string& dir) {
  auto summaries = persist::InspectCheckpoints(dir);
  if (!summaries.ok()) return Fail(summaries.status().ToString());
  if (summaries->empty()) {
    std::cout << "no checkpoints in '" << dir << "'\n";
    return 0;
  }
  for (const persist::ManifestSummary& summary : *summaries) {
    std::cout << persist::ManifestFileName(summary.seq) << ": "
              << (summary.valid ? "VALID" : "INVALID") << "\n";
    if (!summary.valid) {
      std::cout << "  error: " << summary.error << "\n";
    }
    for (const persist::SegmentSummary& segment : summary.segments) {
      std::cout << "  " << RoleName(segment.role) << "  " << segment.file
                << "  " << segment.manifest_size << " bytes";
      if (!segment.present) {
        std::cout << "  MISSING";
      } else if (segment.actual_size != segment.manifest_size) {
        std::cout << "  SIZE MISMATCH (" << segment.actual_size
                  << " on disk)";
      } else {
        std::cout << (segment.crc_ok ? "  crc ok" : "  CRC MISMATCH");
      }
      std::cout << "\n";
    }
    if (!summary.image.has_value()) continue;
    const persist::CheckpointImage& image = *summary.image;
    std::cout << "  clock: " << image.engine.clock.ToString() << "\n";
    for (const auto& [name, stream] : image.engine.streams) {
      std::cout << "  stream '" << name << "': " << stream.elements.size()
                << " retained element(s) from offset " << stream.base_offset
                << ", max " << stream.max_timestamp.ToString();
      if (stream.base_offset > 0) {
        std::cout << ", trimmed through "
                  << stream.trimmed_through.ToString();
      }
      std::cout << "\n";
    }
    for (const auto& [consumer, offset] : image.offsets) {
      std::cout << "  offset " << consumer << ": " << offset << "\n";
    }
    for (const QueryCheckpoint& query : image.engine.queries) {
      std::cout << "  query '" << query.name
                << "': next_eval=" << query.next_eval.ToString()
                << ", evaluations=" << query.stats.evaluations
                << (query.disabled ? ", DISABLED" : "") << "\n";
    }
    std::cout << "  dead letters: " << image.dead_letters.size() << "\n";
  }
  return 0;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Value of a `--flag=value` argument, if `arg` starts with `prefix`.
bool FlagValue(const std::string& arg, const std::string& prefix,
               std::string* value) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Non-negative integer environment default for an overload knob;
// malformed or negative values fall back.
int64_t Int64FromEnvVar(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0) return fallback;
  return static_cast<int64_t>(parsed);
}

void PrintProgressLine(const ContinuousEngine& engine,
                       const std::string& name, size_t ingested,
                       size_t total) {
  auto stats = engine.StatsFor(name);
  std::cerr << "[seraph_run] ingested " << ingested << "/" << total
            << " events";
  if (stats.ok()) {
    std::cerr << ", evaluations=" << stats->evaluations
              << ", reused=" << stats->reused_results
              << ", rows_emitted=" << stats->rows_emitted;
  }
  std::cerr << "\n";
}

// The --stats-interval reporter: a background thread printing a one-line
// status every interval. It reads only the metrics registry, whose
// instruments are atomics, so running it alongside ingestion/evaluation
// is race-free (the histogram it snapshots is single-writer on the
// engine side, multi-reader by design).
class StatsReporter {
 public:
  StatsReporter(MetricsRegistry* registry, std::string query,
                int interval_sec)
      : registry_(registry),
        query_(std::move(query)),
        interval_sec_(interval_sec) {}

  ~StatsReporter() { Stop(); }

  void Start() {
    ingested_ = registry_->CounterFor("seraph_stream_elements_ingested_total",
                                      {{"stream", "<default>"}});
    rows_ = registry_->CounterFor("seraph_query_rows_emitted_total",
                                  {{"query", query_}});
    latency_ = registry_->HistogramFor("seraph_emit_latency_micros",
                                       {{"query", query_}});
    lag_max_ = registry_->GaugeFor("seraph_stream_lag_max_millis",
                                   {{"stream", "<default>"}});
    dead_letter_depth_ = registry_->GaugeFor("seraph_dead_letter_depth");
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    using namespace std::chrono;
    auto next = steady_clock::now() + seconds(interval_sec_);
    while (!stop_.load(std::memory_order_relaxed)) {
      // Sleep in short slices so Stop() is prompt.
      std::this_thread::sleep_for(milliseconds(50));
      if (steady_clock::now() < next) continue;
      next += seconds(interval_sec_);
      HistogramSnapshot latency = latency_->Snapshot();
      std::cerr << "[seraph_run] in=" << ingested_->value()
                << " rows_out=" << rows_->value()
                << " p99_emit_us=" << latency.p99
                << " max_lag_ms=" << lag_max_->value()
                << " dlq=" << dead_letter_depth_->value() << "\n";
    }
  }

  MetricsRegistry* registry_;
  std::string query_;
  int interval_sec_;
  Counter* ingested_ = nullptr;
  Counter* rows_ = nullptr;
  Histogram* latency_ = nullptr;
  Gauge* lag_max_ = nullptr;
  Gauge* dead_letter_depth_ = nullptr;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool csv = false;
  bool json = false;
  bool stats = false;
  bool explain = false;
  std::string metrics_path;
  std::string trace_path;
  std::string dead_letter_path;
  std::string checkpoint_dir;
  bool restore = false;
  bool inspect_checkpoint = false;
  // Cadence default: every batch, overridable by env then flag.
  long checkpoint_every = 1;
  if (const char* env = std::getenv("SERAPH_CHECKPOINT_EVERY")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) checkpoint_every = parsed;
  }
  long progress_every = 0;
  int metrics_port = -1;    // -1 = endpoint off; 0 = ephemeral port.
  int stats_interval = 0;   // Seconds; 0 = reporter off.
  // --threads beats SERAPH_EVAL_THREADS beats serial; --match-threads
  // beats SERAPH_MATCH_THREADS likewise.
  int eval_threads = EvalThreadsFromEnv(1);
  int match_threads = MatchThreadsFromEnv(1);
  // Overload knobs: flag beats environment beats off. Environment-only
  // values are ignored outside checkpoint mode (there is no queue to
  // bound); explicit flags there are an error instead.
  size_t queue_capacity =
      static_cast<size_t>(Int64FromEnvVar("SERAPH_QUEUE_CAPACITY", 0));
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  if (const char* env = std::getenv("SERAPH_OVERFLOW_POLICY")) {
    ParseOverflowPolicy(env, &overflow_policy);
  }
  int64_t eval_deadline_ms = EvalDeadlineMillisFromEnv(0);
  int64_t shed_lag_ms = Int64FromEnvVar("SERAPH_SHED_LAG_MS", 0);
  bool overload_flags_explicit = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    std::string value;
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (FlagValue(arg, "--metrics=", &metrics_path)) {
      if (metrics_path.empty()) {
        return Fail("--metrics expects a file path or '-' for stdout");
      }
    } else if (FlagValue(arg, "--trace=", &trace_path)) {
      if (trace_path.empty()) {
        return Fail("--trace expects a file path");
      }
    } else if (FlagValue(arg, "--dead-letter=", &dead_letter_path)) {
      if (dead_letter_path.empty()) {
        return Fail("--dead-letter expects a file path");
      }
    } else if (FlagValue(arg, "--checkpoint-dir=", &checkpoint_dir)) {
      if (checkpoint_dir.empty()) {
        return Fail("--checkpoint-dir expects a directory path");
      }
    } else if (FlagValue(arg, "--checkpoint-every=", &value)) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        return Fail("--checkpoint-every expects a positive batch count");
      }
      checkpoint_every = parsed;
    } else if (arg == "--restore") {
      restore = true;
    } else if (arg == "--inspect-checkpoint") {
      inspect_checkpoint = true;
    } else if (FlagValue(arg, "--progress=", &value)) {
      progress_every = std::strtol(value.c_str(), nullptr, 10);
      if (progress_every <= 0) {
        return Fail("--progress expects a positive event count");
      }
    } else if (FlagValue(arg, "--metrics-port=", &value)) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0 ||
          parsed > 65535) {
        return Fail("--metrics-port expects a port number "
                    "(0 = ephemeral)");
      }
      metrics_port = static_cast<int>(parsed);
    } else if (FlagValue(arg, "--stats-interval=", &value)) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        return Fail("--stats-interval expects a positive second count");
      }
      stats_interval = static_cast<int>(parsed);
    } else if (FlagValue(arg, "--threads=", &value)) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return Fail("--threads expects a non-negative thread count "
                    "(0 = hardware concurrency)");
      }
      eval_threads = static_cast<int>(parsed);
    } else if (FlagValue(arg, "--queue-capacity=", &value)) {
      char* end = nullptr;
      long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        return Fail("--queue-capacity expects a positive element count");
      }
      queue_capacity = static_cast<size_t>(parsed);
      overload_flags_explicit = true;
    } else if (FlagValue(arg, "--overflow-policy=", &value)) {
      if (!ParseOverflowPolicy(value, &overflow_policy)) {
        return Fail(
            "--overflow-policy expects block, reject, or shed_oldest");
      }
      overload_flags_explicit = true;
    } else if (FlagValue(arg, "--eval-deadline-ms=", &value)) {
      char* end = nullptr;
      long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return Fail("--eval-deadline-ms expects a non-negative millisecond "
                    "count (0 = off)");
      }
      eval_deadline_ms = static_cast<int64_t>(parsed);
    } else if (FlagValue(arg, "--shed-lag-ms=", &value)) {
      char* end = nullptr;
      long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return Fail("--shed-lag-ms expects a non-negative millisecond "
                    "count (0 = off)");
      }
      shed_lag_ms = static_cast<int64_t>(parsed);
      overload_flags_explicit = true;
    } else if (FlagValue(arg, "--match-threads=", &value)) {
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        return Fail("--match-threads expects a non-negative thread count "
                    "(0 = hardware concurrency)");
      }
      match_threads = static_cast<int>(parsed);
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: seraph_run <query.seraph> <events.log> "
             "[--csv | --json] [--stats] [--explain]\n"
             "                  [--metrics=<path|->] [--trace=<path>] "
             "[--progress=<n>]\n"
             "                  [--dead-letter=<path>] [--threads=<n>] "
             "[--match-threads=<n>]\n"
             "                  [--checkpoint-dir=<dir>] "
             "[--checkpoint-every=<n>] [--restore]\n"
             "                  [--metrics-port=<p>] "
             "[--stats-interval=<sec>]\n"
             "                  [--queue-capacity=<n>] "
             "[--overflow-policy=<block|reject|shed_oldest>]\n"
             "                  [--eval-deadline-ms=<n>] "
             "[--shed-lag-ms=<n>]\n"
             "       seraph_run --inspect-checkpoint "
             "--checkpoint-dir=<dir>\n";
      return 0;
    } else {
      positional.push_back(arg);
    }
  }
  if (csv && json) return Fail("--csv and --json are mutually exclusive");
  if (inspect_checkpoint) {
    if (checkpoint_dir.empty()) {
      return Fail("--inspect-checkpoint requires --checkpoint-dir=<dir>");
    }
    return InspectCheckpoints(checkpoint_dir);
  }
  if (restore && checkpoint_dir.empty()) {
    return Fail("--restore requires --checkpoint-dir=<dir>");
  }
  if (!checkpoint_dir.empty() && progress_every > 0) {
    return Fail("--progress is not supported with --checkpoint-dir; the "
                "restore banner reports the replay backlog instead");
  }
  if (checkpoint_dir.empty() && overload_flags_explicit) {
    return Fail("--queue-capacity/--overflow-policy/--shed-lag-ms bound "
                "the durable event queue and require --checkpoint-dir");
  }
  if (positional.size() != 2) {
    return Fail("expected <query.seraph> <events.log> (see --help)");
  }

  auto query_text = ReadFile(positional[0]);
  if (!query_text.ok()) return Fail(query_text.status().ToString());
  auto query = ParseSeraphQuery(*query_text);
  if (!query.ok()) return Fail(query.status().ToString());
  if (explain) std::cerr << query->Describe();

  auto log_text = ReadFile(positional[1]);
  if (!log_text.ok()) return Fail(log_text.status().ToString());
  std::istringstream log_stream(*log_text);
  auto events = io::ReadEventLog(&log_stream);
  if (!events.ok()) return Fail(events.status().ToString());

  // Output columns come from the query's own projection aliases.
  std::vector<std::string> columns;
  for (const ProjectionItem& item : query->projection.items) {
    columns.push_back(item.alias);
  }
  std::string name = query->name;

  // Environment-driven fault injection for chaos runs (no-op unless
  // SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS are set).
  FaultInjector::Global().ConfigureFromEnv();

  TraceRecorder tracer;
  DeadLetterQueue dead_letters;
  EngineOptions options;
  if (!trace_path.empty()) {
    tracer.Enable();
    options.tracer = &tracer;
  }
  if (!dead_letter_path.empty()) {
    options.dead_letter = &dead_letters;
  }
  options.eval_threads = eval_threads;
  options.match_threads = match_threads;
  options.eval_deadline_millis = eval_deadline_ms;
  if (!checkpoint_dir.empty()) {
    options.checkpoint_every = checkpoint_every;
  }
  ContinuousEngine engine(options);
  // Live dead-letter depth for /metrics and the stats line (the gauge
  // mirrors every queue mutation).
  dead_letters.BindDepthGauge(
      engine.metrics().GaugeFor("seraph_dead_letter_depth"));
  // /queries serves a published snapshot: the engine's query state is not
  // thread-safe to walk from the server thread, so the run refreshes this
  // string at quiescent points and the server only copies it.
  std::mutex queries_json_mutex;
  std::string queries_json = "[]";
  auto publish_queries = [&] {
    std::string fresh = QueriesStatusJson(engine);
    std::lock_guard<std::mutex> lock(queries_json_mutex);
    queries_json = std::move(fresh);
  };
  MetricsServer::Options server_options;
  server_options.port = metrics_port < 0 ? 0 : metrics_port;
  server_options.registry = &engine.metrics();
  server_options.queries_json = [&]() -> std::string {
    std::lock_guard<std::mutex> lock(queries_json_mutex);
    return queries_json;
  };
  MetricsServer server(server_options);
  if (metrics_port >= 0) {
    if (Status s = server.Start(); !s.ok()) return Fail(s.ToString());
    std::cerr << "[seraph_run] metrics on http://127.0.0.1:" << server.port()
              << "/metrics (also /healthz, /queries)\n";
  }
  StatsReporter reporter(&engine.metrics(), name, stats_interval);
  if (stats_interval > 0) reporter.Start();
  PrintingSink printer(&std::cout, columns);
  CsvSink csv_sink(&std::cout, columns);
  JsonLinesSink json_sink(&std::cout, /*include_empty=*/false);
  // With a dead-letter destination the sink gets the full isolation
  // treatment: transient failures retried, permanent rejections captured.
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 3;
  EmitSink* output = csv ? static_cast<EmitSink*>(&csv_sink)
                         : json ? static_cast<EmitSink*>(&json_sink)
                                : static_cast<EmitSink*>(&printer);
  engine.AddSink(output, "output", sink_policy);
  if (Status s = engine.Register(std::move(query).value()); !s.ok()) {
    return Fail(s.ToString());
  }
  publish_queries();
  if (!checkpoint_dir.empty()) {
    // Durable mode: route the event log through an EventQueue so the
    // consumer offset is a checkpointable position, commit a generation
    // at every batch barrier, and (with --restore) resume from the
    // newest valid one — replaying only the uncheckpointed suffix.
    EventQueue::Options queue_options;
    queue_options.capacity = queue_capacity;
    queue_options.overflow_policy = overflow_policy;
    EventQueue queue(queue_options);
    // Shed elements are a recorded loss, not a silent one: each eviction
    // lands in the dead-letter queue with the overflow reason.
    queue.SetShedCallback([&](const StreamElement& element) {
      dead_letters.AddElement(kRunConsumer, element,
                              Status::Unavailable(
                                  "shed: event queue overflow (shed_oldest)"),
                              /*attempts=*/0);
    });
    // Unbounded runs preload the whole log so the restore banner reports
    // the true replay backlog; bounded runs produce after recovery, under
    // backpressure, so the queue never exceeds its capacity.
    if (queue_capacity == 0) {
      for (const StreamElement& event : *events) {
        if (Status s = queue.Produce(event.graph, event.timestamp);
            !s.ok()) {
          return Fail(s.ToString());
        }
      }
    }
    persist::CheckpointOptions checkpoint_options;
    checkpoint_options.dir = checkpoint_dir;
    persist::CheckpointManager manager(checkpoint_options);
    manager.BindQueue(kRunConsumer, &queue);
    manager.BindDeadLetter(&dead_letters);
    manager.AttachTo(&engine);
    if (restore) {
      auto report = persist::RecoverAll(
          checkpoint_dir, &engine, &queue, {kRunConsumer},
          options.dead_letter != nullptr ? &dead_letters : nullptr);
      if (report.ok()) {
        std::cerr << "[seraph_run] restored checkpoint seq="
                  << report->seq << ": " << report->queries
                  << " query(ies), " << report->stream_elements
                  << " checkpointed element(s), replay backlog "
                  << report->replay_backlog.at(kRunConsumer) << "\n";
      } else if (report.status().code() == StatusCode::kNotFound) {
        std::cerr << "[seraph_run] no checkpoint in '" << checkpoint_dir
                  << "'; cold-starting\n";
        queue.Subscribe(kRunConsumer);
      } else {
        return Fail(report.status().ToString());
      }
    } else {
      queue.Subscribe(kRunConsumer);
    }
    // Retention: entries below min(committed offsets, checkpoint horizon)
    // are trimmed after each commit, so queue memory tracks consumer lag
    // rather than log size. Bound AFTER recovery so the horizon starts at
    // the restore point.
    manager.ManageRetention(&queue);
    StreamDriver::Options driver_options;
    driver_options.consumer = kRunConsumer;
    driver_options.shed_lag_millis = shed_lag_ms;
    if (options.dead_letter != nullptr) {
      driver_options.dead_letter = &dead_letters;
    }
    StreamDriver driver(&queue, &engine, driver_options);
    size_t delivered = 0;
    if (queue_capacity > 0) {
      // Bounded ingest: a refused produce (queue full under block/reject)
      // drains the consumer — advancing the committed offset and, at
      // batch barriers, the checkpoint horizon — then retries. A retry
      // that can free nothing means the capacity cannot cover the replay
      // suffix between checkpoints; fail with the remedy.
      for (const StreamElement& event : *events) {
        int stalled_retries = 0;
        while (true) {
          Status s = queue.Produce(event.graph, event.timestamp);
          if (s.ok()) break;
          if (s.code() != StatusCode::kUnavailable) return Fail(s.ToString());
          const int64_t trimmed_before = queue.trimmed_total();
          auto drained = driver.PumpAll();  // Trims what it handed off.
          if (!drained.ok()) return Fail(drained.status().ToString());
          delivered += *drained;
          if (*drained == 0 && queue.trimmed_total() == trimmed_before) {
            if (++stalled_retries >= 3) {
              return Fail(
                  "event queue full (capacity " +
                  std::to_string(queue_capacity) +
                  ") and the consumer cannot free space; increase "
                  "--queue-capacity, lower --checkpoint-every, or use "
                  "--overflow-policy=shed_oldest");
            }
          } else {
            stalled_retries = 0;
          }
        }
      }
    }
    auto pumped = driver.PumpAll();
    if (!pumped.ok()) return Fail(pumped.status().ToString());
    delivered += *pumped;
    if (Status s = driver.Finish(); !s.ok()) return Fail(s.ToString());
    std::cerr << "[seraph_run] delivered " << delivered << " event(s), "
              << manager.checkpoints_written() << " checkpoint(s) written"
              << " (last seq=" << manager.last_seq() << ")";
    if (manager.checkpoint_failures() > 0) {
      std::cerr << ", " << manager.checkpoint_failures() << " failed";
    }
    std::cerr << "\n";
    if (queue_capacity > 0) {
      std::cerr << "[seraph_run] queue: capacity " << queue_capacity
                << " (policy " << OverflowPolicyName(overflow_policy)
                << "), shed " << queue.shed_total() << ", rejected "
                << queue.rejected_total() << ", trimmed "
                << queue.trimmed_total() << ", driver shed "
                << driver.shed_total() << ", degraded entries "
                << driver.degraded_entries() << "\n";
    }
  } else {
    size_t ingested = 0;
    for (const StreamElement& event : *events) {
      if (Status s = engine.Ingest(event.graph, event.timestamp); !s.ok()) {
        return Fail(s.ToString());
      }
      ++ingested;
      if (progress_every > 0 &&
          ingested % static_cast<size_t>(progress_every) == 0) {
        // Advance so the progress counters reflect evaluations up to this
        // event; needs the log in chronological order.
        if (Status s = engine.AdvanceTo(event.timestamp); !s.ok()) {
          return Fail(s.ToString() +
                      " (--progress requires a chronological event log)");
        }
        PrintProgressLine(engine, name, ingested, events->size());
        publish_queries();
      }
    }
    if (Status s = engine.Drain(); !s.ok()) return Fail(s.ToString());
    if (progress_every > 0) {
      PrintProgressLine(engine, name, ingested, events->size());
    }
  }

  // The run is quiescent again: refresh /queries and stop the periodic
  // reporter (the endpoint itself stays up until exit so a scraper can
  // collect the final state).
  publish_queries();
  reporter.Stop();

  // Query isolation: evaluation failures no longer abort the run, so
  // surface them here — and treat a disabled query (error budget
  // exhausted) as a failed run.
  QueryStats final_stats = *engine.StatsFor(name);
  if (final_stats.eval_failures > 0) {
    std::cerr << "[seraph_run] " << final_stats.eval_failures
              << " evaluation(s) failed, last error: "
              << final_stats.last_error.ToString() << "\n";
  }

  if (stats) {
    QueryStats counters = *engine.StatsFor(name);
    std::cerr << "evaluations: " << counters.evaluations
              << ", reused: " << counters.reused_results
              << ", rows emitted: " << counters.rows_emitted << "\n"
              << "latency (us): " << engine.LatencyFor(name)->ToString()
              << "\n"
              << "stage micros (cumulative): window="
              << counters.window_micros
              << " snapshot=" << counters.snapshot_micros
              << " match=" << counters.match_micros
              << " policy=" << counters.policy_micros
              << " sink=" << counters.sink_micros << "\n";
  }
  if (!metrics_path.empty()) {
    std::string text = engine.metrics().ToPrometheusText();
    if (metrics_path == "-") {
      std::cout << text;
    } else {
      std::ofstream out(metrics_path);
      if (!out) return Fail("cannot open metrics file '" + metrics_path + "'");
      out << text;
    }
  }
  if (!dead_letter_path.empty()) {
    if (!dead_letters.empty()) {
      std::ofstream out(dead_letter_path);
      if (!out) {
        return Fail("cannot open dead-letter file '" + dead_letter_path + "'");
      }
      if (Status s = dead_letters.WriteJsonLines(&out); !s.ok()) {
        return Fail(s.ToString());
      }
      std::cerr << "[seraph_run] " << dead_letters.size()
                << " dead-lettered entr"
                << (dead_letters.size() == 1 ? "y" : "ies") << " written to "
                << dead_letter_path
                << (engine.SinkQuarantined("output")
                        ? " (output sink quarantined)"
                        : "")
                << "\n";
    } else {
      std::cerr << "[seraph_run] no dead-lettered entries\n";
    }
  }
  if (!trace_path.empty()) {
    if (Status s = tracer.WriteJsonFile(trace_path); !s.ok()) {
      return Fail(s.ToString());
    }
    std::cerr << "[seraph_run] wrote " << tracer.size()
              << " trace events to " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (engine.QueryDisabled(name)) {
    return Fail("query '" + name + "' was disabled after repeated "
                "evaluation failures (last: " +
                final_stats.last_error.ToString() + ")");
  }
  return 0;
}
