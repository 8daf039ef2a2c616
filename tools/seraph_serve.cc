// seraph_serve — the sharded serving front-end: N per-shard engines
// behind one HTTP endpoint (docs/INTERNALS.md, "Sharded serving tier").
//
// `seraph_serve --help` lists the flags. The fleet is wired by the serving
// runtime (runtime/runtime.h); this file holds the HTTP handlers, the
// long-poll result buffer and the signal loop.
//
// HTTP API (loopback only; one request per connection):
//   POST /queries                REGISTER QUERY text in the body →
//                                {"name": ..., "shards": [...]} with the
//                                placement the query's streams imply.
//   POST /ingest                 JSON lines, one event per line:
//                                {"t_ms": <int>, "graph": "<graph text>"}
//                                (graph text as in io/graph_text.h).
//                                Events are routed through the fleet's
//                                routes, pumped, and merged;
//                                responds {"ingested": n, "deliveries": d,
//                                "watermark_ms": w}.
//   GET  /queries/<q>/results?after=<seq>
//                                Long-poll: merged emissions of <q> with
//                                seq > after; parks until data arrives or
//                                --long-poll-ms elapses (→ 204).
//   POST /queries/<q>/revive     Re-enable a disabled query.
//   GET  /queries                Per-query status JSON (with shard sets).
//   GET  /metrics                Coordinator registry: fleet watermark,
//                                per-shard health gauges, router and
//                                merge counters (Prometheus text).
//   GET  /shards/<i>/metrics     Shard i's full engine registry.
//   GET  /healthz                Liveness.
//
// With --checkpoint-dir the fleet checkpoints each shard at its own batch
// barrier (cadence --checkpoint-every) and auto-restores on startup;
// queries preloaded with --queries (one REGISTER QUERY statement per
// file) are re-registered before the restore, which is what makes their
// checkpointed state recoverable. Every handler runs on the server
// thread, which is the fleet's thread while serving: requests are
// serialized, and the main thread touches the fleet again only after
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

// One merged emission retained for long-polling clients.
struct BufferedResult {
  int64_t seq = 0;
  int64_t t_ms = 0;
  std::string json;  // io::ToJson(table): {"win_start","win_end","rows"}.
};

// The /results source: a sink buffering merged fleet output per query.
// Runs on the server thread (the fleet is pumped from request handlers),
// so it needs no locking.
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

std::string PlacementJson(const shard::QueryPlacement& placement) {
  std::string out =
      "{\"name\":\"" + EscapeJsonString(placement.name) + "\",\"shards\":[";
  for (size_t i = 0; i < placement.shards.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(placement.shards[i]);
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> query_files;
  int64_t max_runtime_sec = 0;  // 0 = run until SIGINT/SIGTERM.
  runtime::RuntimeOptions options;
  options.tool = "seraph_serve";
  options.fleet = true;
  options.metrics_port = 0;
  options.checkpoint_every = 1;
  runtime::CommandLine cli("seraph_serve", "[flags]", {
      {"--port=<p>", &options.metrics_port,
       "HTTP port on 127.0.0.1 (0 = ephemeral)", 0, 65535},
      {"--shards=<n>", &options.shards, "engine shards", 1},
      {"--queries=<file>", &query_files,
       "REGISTER QUERY file registered at startup (repeatable)"},
      {"--checkpoint-dir=<dir>", &options.checkpoint_dir,
       "checkpoint every shard here and restore from it on startup"},
      {"--checkpoint-every=<n>", &options.checkpoint_every,
       "checkpoint cadence in evaluation batches (default 1)", 1},
      {"--queue-capacity=<n>", &options.queue.capacity,
       "bound each lane's queue (default unbounded)", 1},
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
       "evaluation threads per shard (0 = hardware concurrency)", 0, 4096,
       "SERAPH_EVAL_THREADS"},
      {"--match-threads=<n>", &options.engine.match_threads,
       "intra-query matching threads (0 = hardware concurrency)", 0, 4096,
       "SERAPH_MATCH_THREADS"},
  });
  if (auto exit_code = cli.Parse(argc, argv)) return *exit_code;
  options.restore = !options.checkpoint_dir.empty();

  runtime::Runtime rt(options);
  shard::ShardedEngine& fleet = *rt.fleet();
  ResultBuffer results(/*per_query_cap=*/1024);
  rt.AddSink(&results);

  // Preloaded queries must be registered before the restore so their
  // checkpointed state has definitions to land on.
  for (const std::string& path : query_files) {
    std::ifstream in(path);
    if (!in) return cli.Fail("cannot open query file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto placement = rt.Register(buffer.str());
    if (!placement.ok()) {
      return cli.Fail("register '" + path + "': " +
                      placement.status().ToString());
    }
    std::cerr << "[seraph_serve] registered '" << placement->name
              << "' on " << placement->shards.size() << " shard(s)\n";
  }

  MetricsServer& server = rt.server();

  // POST /queries (register) and POST /queries/<q>/revive share the
  // method+prefix, so one handler dispatches on the path shape.
  server.Handle("POST", "/queries", [&](const HttpRequest& request)
                                        -> std::optional<HttpReply> {
    if (request.path == "/queries") {
      auto placement = rt.Register(request.body);
      if (!placement.ok()) {
        const int code =
            placement.status().code() == StatusCode::kAlreadyExists ? 409
                                                                    : 400;
        return ErrorReply(code, code == 409 ? "Conflict" : "Bad Request",
                          placement.status().ToString());
      }
      return JsonReply(200, "OK", PlacementJson(*placement));
    }
    const std::string revive_suffix = "/revive";
    if (request.path.size() > 9 + revive_suffix.size() &&
        request.path.compare(request.path.size() - revive_suffix.size(),
                             revive_suffix.size(), revive_suffix) == 0) {
      const std::string name = request.path.substr(
          9, request.path.size() - 9 - revive_suffix.size());
      if (Status s = fleet.ReviveQuery(name); !s.ok()) {
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
    int64_t ingested = 0;
    int64_t deliveries = 0;
    std::istringstream lines(request.body);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      auto doc = io::ParseJson(line);
      if (!doc.ok() || !doc->is_map()) {
        return ErrorReply(400, "Bad Request",
                          "line " + std::to_string(line_no) +
                              ": expected {\"t_ms\": <int>, \"graph\": "
                              "<graph text>}");
      }
      const Value::Map& fields = doc->AsMap();
      auto t_it = fields.find("t_ms");
      auto g_it = fields.find("graph");
      if (t_it == fields.end() || !t_it->second.is_int() ||
          g_it == fields.end() || !g_it->second.is_string()) {
        return ErrorReply(400, "Bad Request",
                          "line " + std::to_string(line_no) +
                              ": expected {\"t_ms\": <int>, \"graph\": "
                              "<graph text>}");
      }
      auto graph = io::DecodeGraph(g_it->second.AsString());
      if (!graph.ok()) {
        return ErrorReply(400, "Bad Request",
                          "line " + std::to_string(line_no) + ": " +
                              graph.status().ToString());
      }
      auto delivered = rt.Produce(
          std::make_shared<const PropertyGraph>(std::move(graph).value()),
          Timestamp::FromMillis(t_it->second.AsInt()));
      if (!delivered.ok()) {
        const int code =
            delivered.status().code() == StatusCode::kOutOfRange ? 409 : 500;
        return ErrorReply(code,
                          code == 409 ? "Conflict" : "Internal Server Error",
                          "line " + std::to_string(line_no) + ": " +
                              delivered.status().ToString());
      }
      ++ingested;
      deliveries += *delivered;
    }
    // An ingest batch is complete: its newest instant closes with it, so
    // elements a later batch sends at that timestamp miss that instant.
    if (Status s = fleet.PumpAll(); !s.ok()) {
      return ErrorReply(500, "Internal Server Error", s.ToString());
    }
    rt.Publish();
    return JsonReply(
        200, "OK",
        "{\"ingested\":" + std::to_string(ingested) +
            ",\"deliveries\":" + std::to_string(deliveries) +
            ",\"watermark_ms\":" +
            std::to_string(fleet.FleetWatermarkMillis()) + "}\n");
  });

  // GET /queries/<q>/results?after=<seq> — long-poll until new merged
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
    if (!fleet.PlacementFor(name).ok()) {
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

  // GET /shards/<i>/metrics — one shard's full engine registry (the
  // coordinator /metrics carries the fleet-level aggregation).
  server.Handle("GET", "/shards/", [&](const HttpRequest& request)
                                       -> std::optional<HttpReply> {
    const std::string metrics_suffix = "/metrics";
    if (request.path.size() <= 8 + metrics_suffix.size() ||
        request.path.compare(request.path.size() - metrics_suffix.size(),
                             metrics_suffix.size(), metrics_suffix) != 0) {
      return ErrorReply(404, "Not Found",
                        "unknown GET path '" + request.path + "'");
    }
    const std::string index_text = request.path.substr(
        8, request.path.size() - 8 - metrics_suffix.size());
    int64_t index = -1;
    if (!ParseInt64(index_text, &index) || index < 0 ||
        index >= fleet.num_shards()) {
      return ErrorReply(404, "Not Found",
                        "shard index out of range (fleet has " +
                            std::to_string(fleet.num_shards()) +
                            " shard(s))");
    }
    HttpReply reply;
    reply.content_type = "text/plain; version=0.0.4; charset=utf-8";
    reply.body = fleet.shard_engine(static_cast<int>(index))
                     ->metrics()
                     .ToPrometheusText();
    return reply;
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
  if (!options.checkpoint_dir.empty()) {
    if (Status s = fleet.Checkpoint(); !s.ok()) {
      std::cerr << "[seraph_serve] final checkpoint: " << s.ToString()
                << "\n";
    }
  }
  std::cerr << "[seraph_serve] served " << server.requests_served()
            << " request(s), released " << fleet.released_total()
            << " merged emission(s)\n";
  return 0;
}
