// seraph_serve — the serving front-end: one continuous engine behind one
// HTTP endpoint (docs/INTERNALS.md, "The serving front-end").
//
// `seraph_serve --help` lists the flags. The engine and its event queue
// are wired by the serving runtime (runtime/runtime.h); this file holds
// the HTTP handlers, the long-poll result buffer and the signal loop.
//
// HTTP API (loopback only; one request per connection):
//   POST /queries                REGISTER QUERY text in the body →
//                                {"name": ...}.
//   POST /ingest                 JSON lines, one event per line:
//                                {"t_ms": <int>, "graph": "<graph text>"}
//                                (graph text as in io/graph_text.h).
//                                Every line is checked before any is
//                                produced: a malformed line refuses the
//                                batch with 400, a late one with 409.
//                                The batch is produced, evaluated through
//                                its newest timestamp and, when durable,
//                                committed before the reply
//                                {"ingested": n, "watermark_ms": w}.
//   GET  /queries/<q>/results?after=<seq>
//                                Long-poll: emissions of <q> with
//                                seq > after; parks until data arrives or
//                                --long-poll-ms elapses (→ 204).
//   POST /queries/<q>/revive     Re-enable a disabled query.
//   GET  /queries                Per-query status JSON.
//   GET  /metrics                The engine registry (Prometheus text).
//   GET  /healthz                Liveness.
//
// With --checkpoint-dir each ingest batch is committed as one checkpoint
// generation before its reply (a failed commit fails the request), and
// startup restores the newest generation. POST /ingest cannot be
// replayed and needs no replay: every acknowledged batch is in that
// generation.
// Queries preloaded with --queries (one REGISTER QUERY statement per
// file) are re-registered before the restore, which is what makes their
// checkpointed state recoverable. Every handler runs on the server
// thread, which is the engine's thread while serving: requests are
// serialized, and the main thread touches the engine again only after
// the server stops. The poll loop keeps slow clients from wedging the
// line (tests/metrics_server_test.cc).
#include <csignal>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/graph_text.h"
#include "io/json.h"
#include "runtime/flags.h"
#include "runtime/runtime.h"

namespace {

using namespace seraph;

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

bool ParseInt64(const std::string& text, int64_t* out) {
  char* end = nullptr;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

// One emission retained for long-polling clients.
struct BufferedResult {
  int64_t seq = 0;
  int64_t t_ms = 0;
  std::string json;  // io::ToJson(table): {"win_start","win_end","rows"}.
};

// The /results source: a sink buffering the engine's output per query.
// Runs on the server thread (the engine is pumped from request
// handlers), so it needs no locking.
class ResultBuffer final : public EmitSink {
 public:
  explicit ResultBuffer(size_t per_query_cap) : cap_(per_query_cap) {}

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    std::deque<BufferedResult>& results = per_query_[query_name];
    BufferedResult entry;
    entry.seq = ++last_seq_;
    entry.t_ms = evaluation_time.millis();
    entry.json = io::ToJson(table);
    results.push_back(std::move(entry));
    while (results.size() > cap_) results.pop_front();
    return Status::OK();
  }

  // Results of `query` with seq > after (empty when caught up); false
  // when the query has never emitted and is unknown to the buffer.
  const std::deque<BufferedResult>* ResultsFor(
      const std::string& query) const {
    auto it = per_query_.find(query);
    return it == per_query_.end() ? nullptr : &it->second;
  }

  int64_t last_seq() const { return last_seq_; }

 private:
  size_t cap_;
  int64_t last_seq_ = 0;
  std::map<std::string, std::deque<BufferedResult>> per_query_;
};

// "after=3&x=y" → 3 (0 when absent or malformed).
int64_t AfterFromQuery(const std::string& query) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.rfind("after=", 0) != 0) continue;
    int64_t after = 0;
    if (ParseInt64(pair.substr(6), &after) && after >= 0) return after;
  }
  return 0;
}

// One POST /ingest line: {"t_ms": <int>, "graph": "<graph text>"}.
Result<StreamElement> ParseIngestLine(const std::string& line) {
  auto doc = io::ParseJson(line);
  if (doc.ok() && doc->is_map()) {
    const Value::Map& fields = doc->AsMap();
    auto t_it = fields.find("t_ms");
    auto g_it = fields.find("graph");
    if (t_it != fields.end() && t_it->second.is_int() &&
        g_it != fields.end() && g_it->second.is_string()) {
      SERAPH_ASSIGN_OR_RETURN(PropertyGraph graph,
                              io::DecodeGraph(g_it->second.AsString()));
      return StreamElement{
          std::make_shared<const PropertyGraph>(std::move(graph)),
          Timestamp::FromMillis(t_it->second.AsInt())};
    }
  }
  return Status::InvalidArgument(
      "expected {\"t_ms\": <int>, \"graph\": <graph text>}");
}

HttpReply JsonReply(int code, const char* reason, std::string body) {
  HttpReply reply;
  reply.code = code;
  reply.reason = reason;
  reply.content_type = "application/json";
  reply.body = std::move(body);
  return reply;
}

HttpReply ErrorReply(int code, const char* reason,
                     const std::string& message) {
  return JsonReply(code, reason,
                   "{\"error\":\"" + EscapeJsonString(message) + "\"}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> query_files;
  int64_t max_runtime_sec = 0;  // 0 = run until SIGINT/SIGTERM.
  runtime::RuntimeOptions options;
  options.tool = "seraph_serve";
  options.metrics_port = 0;
  runtime::CommandLine cli("seraph_serve", "[flags]", {
      {"--port=<p>", &options.metrics_port,
       "HTTP port on 127.0.0.1 (0 = ephemeral)", 0, 65535},
      {"--queries=<file>", &query_files,
       "REGISTER QUERY file registered at startup (repeatable)"},
      {"--checkpoint-dir=<dir>", &options.checkpoint_dir,
       "commit every ingest batch here and restore from it on startup"},
      {"--queue-capacity=<n>", &options.queue.capacity,
       "bound the event queue (default unbounded)", 1},
      {"--overflow-policy=<reject|shed_oldest>",
       &options.queue.overflow_policy,
       "what a full queue does (default reject)"},
      {"--io-timeout-ms=<n>", &options.io_timeout_millis,
       "per-connection IO deadline (default 5000)", 1},
      {"--long-poll-ms=<n>", &options.long_poll_millis,
       "long-poll budget before 204 (default 10000)", 1},
      {"--max-runtime-sec=<n>", &max_runtime_sec,
       "stop after <n> seconds (0 = until signalled)"},
      {"--threads=<n>", &options.engine.eval_threads,
       "evaluation threads (0 = hardware concurrency)", 0, 4096,
       "SERAPH_EVAL_THREADS"},
      {"--match-threads=<n>", &options.engine.match_threads,
       "intra-query matching threads (0 = hardware concurrency)", 0, 4096,
       "SERAPH_MATCH_THREADS"},
  });
  if (auto exit_code = cli.Parse(argc, argv)) return *exit_code;
  options.restore = !options.checkpoint_dir.empty();

  runtime::Runtime rt(options);
  ContinuousEngine& engine = rt.engine();
  ResultBuffer results(/*per_query_cap=*/1024);
  rt.AddSink(&results);

  // Preloaded queries must be registered before the restore so their
  // checkpointed state has definitions to land on.
  for (const std::string& path : query_files) {
    std::ifstream in(path);
    if (!in) return cli.Fail("cannot open query file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto name = rt.Register(buffer.str());
    if (!name.ok()) {
      return cli.Fail("register '" + path + "': " + name.status().ToString());
    }
    std::cerr << "[seraph_serve] registered '" << *name << "'\n";
  }

  MetricsServer& server = rt.server();

  // POST /queries (register) and POST /queries/<q>/revive share the
  // method+prefix, so one handler dispatches on the path shape.
  server.Handle("POST", "/queries", [&](const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    if (request.path == "/queries") {
      auto name = rt.Register(request.body);
      if (!name.ok()) {
        const int code =
            name.status().code() == StatusCode::kAlreadyExists ? 409 : 400;
        return ErrorReply(code, code == 409 ? "Conflict" : "Bad Request",
                          name.status().ToString());
      }
      return JsonReply(200, "OK",
                       "{\"name\":\"" + EscapeJsonString(*name) + "\"}\n");
    }
    const std::string revive_suffix = "/revive";
    if (request.path.size() > 9 + revive_suffix.size() &&
        request.path.compare(request.path.size() - revive_suffix.size(),
                             revive_suffix.size(), revive_suffix) == 0) {
      const std::string name = request.path.substr(
          9, request.path.size() - 9 - revive_suffix.size());
      if (Status s = engine.ReviveQuery(name); !s.ok()) {
        return ErrorReply(404, "Not Found", s.ToString());
      }
      rt.Publish();
      return JsonReply(200, "OK",
                       "{\"revived\":\"" + EscapeJsonString(name) + "\"}\n");
    }
    return ErrorReply(404, "Not Found",
                      "unknown POST path '" + request.path + "'");
  });

  server.Handle("POST", "/ingest", [&](const HttpRequest& request)
                                       -> std::optional<HttpReply> {
    // Every line is checked before any is produced, so a refused batch
    // leaves nothing queued and its client may send it again whole.
    std::vector<StreamElement> batch;
    std::optional<Timestamp> newest;
    if (rt.queue().size() > 0) newest = rt.queue().MaxTimestamp();
    std::istringstream lines(request.body);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      const std::string where = "line " + std::to_string(line_no) + ": ";
      auto element = ParseIngestLine(line);
      if (!element.ok()) {
        return ErrorReply(400, "Bad Request",
                          where + element.status().ToString());
      }
      const Timestamp t = element->timestamp;
      if (newest.has_value() && t < *newest) {
        return ErrorReply(409, "Conflict",
                          where + "late element at " + t.ToString() +
                              ", after " + newest->ToString());
      }
      newest = t;
      batch.push_back(std::move(element).value());
    }
    // What can still fail here is the queue itself (a bounded one that
    // cannot free space), which leaves the earlier lines produced.
    for (StreamElement& element : batch) {
      if (Status s = rt.Produce(std::move(element.graph), element.timestamp);
          !s.ok()) {
        return ErrorReply(500, "Internal Server Error", s.ToString());
      }
    }
    // An ingest batch is complete: its newest instant closes with it (so
    // elements a later batch sends at that timestamp miss that instant),
    // and a durable server commits it before acknowledging it.
    if (Status s = rt.Commit(); !s.ok()) {
      return ErrorReply(500, "Internal Server Error", s.ToString());
    }
    return JsonReply(
        200, "OK",
        "{\"ingested\":" + std::to_string(batch.size()) +
            ",\"watermark_ms\":" +
            std::to_string(engine.stream().MaxTimestamp().millis()) + "}\n");
  });

  // GET /queries/<q>/results?after=<seq> — long-poll until new
  // emissions arrive (nullopt parks the connection; the serve loop keeps
  // re-invoking until data shows up or --long-poll-ms expires → 204).
  server.Handle("GET", "/queries/", [&](const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    const std::string results_suffix = "/results";
    if (request.path.size() <= 9 + results_suffix.size() ||
        request.path.compare(request.path.size() - results_suffix.size(),
                             results_suffix.size(), results_suffix) != 0) {
      return ErrorReply(404, "Not Found",
                        "unknown GET path '" + request.path + "'");
    }
    const std::string name = request.path.substr(
        9, request.path.size() - 9 - results_suffix.size());
    const int64_t after = AfterFromQuery(request.query);
    if (!engine.StatsFor(name).ok()) {
      return ErrorReply(404, "Not Found", "unknown query '" + name + "'");
    }
    const std::deque<BufferedResult>* buffered = results.ResultsFor(name);
    bool any = false;
    std::string body = "{\"query\":\"" + EscapeJsonString(name) +
                       "\",\"results\":[";
    int64_t last_seq = after;
    if (buffered != nullptr) {
      for (const BufferedResult& entry : *buffered) {
        if (entry.seq <= after) continue;
        if (any) body += ",";
        any = true;
        body += "{\"seq\":" + std::to_string(entry.seq) +
                ",\"t_ms\":" + std::to_string(entry.t_ms) +
                ",\"result\":" + entry.json + "}";
        last_seq = entry.seq;
      }
    }
    if (!any) return std::nullopt;  // Park: nothing past `after` yet.
    body += "],\"last_seq\":" + std::to_string(last_seq) + "}\n";
    return JsonReply(200, "OK", body);
  });

  if (Status s = rt.Start(); !s.ok()) return cli.Fail(s.ToString());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (max_runtime_sec > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(max_runtime_sec)) {
      break;
    }
  }

  server.Stop();
  if (Status s = rt.Finish(); !s.ok()) {
    std::cerr << "[seraph_serve] final drain: " << s.ToString() << "\n";
  }
  std::cerr << "[seraph_serve] served " << server.requests_served()
            << " request(s), emitted " << results.last_seq()
            << " result(s)\n";
  return 0;
}
