// A minimal plain-HTTP serving front-end (no third-party deps — POSIX
// sockets only). Historically the metrics-only observability endpoint;
// now a small poll()-driven multi-connection server seraph_serve mounts
// its API on (docs/INTERNALS.md, "The serving front-end"):
//
//   GET /metrics  → Prometheus text exposition of a MetricsRegistry
//   GET /healthz  → "ok" (liveness)
//   GET /queries  → JSON array of per-query status (caller-provided)
//   ... plus any routes registered with Handle() before Start()
//     (e.g. seraph_serve's POST /ingest, POST /queries,
//      GET /queries/<name>/results long-poll).
//
// The server owns one background thread running a poll() loop over the
// listener plus every open connection, so one slow client never wedges
// the others; each connection still carries its own IO deadline
// (Options::io_timeout_millis), so a connect-and-hang or stop-reading
// client is abandoned on time. A handler may *park* a request (long
// poll) by returning std::nullopt: it is re-invoked on every loop tick
// until it produces a reply or Options::long_poll_timeout_millis
// expires (→ 204 No Content).
//
// Threading contract: every handler (and queries_json) runs on the
// server thread. /metrics reads the registry (whose instruments are
// atomic, so scraping a live engine is race-free); anything else the
// handlers touch must be synchronized by the caller (seraph_serve's
// handlers are the only code touching its engine while the server runs).
#ifndef SERAPH_SERVER_METRICS_SERVER_H_
#define SERAPH_SERVER_METRICS_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "seraph/continuous_engine.h"

namespace seraph {

// One parsed HTTP request, as handed to handlers.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/queries/q1/results" (no query string)
  std::string query;   // "after=3" (raw, without the '?'; may be empty)
  std::string body;    // Raw request body ("" for bodyless requests)
};

struct HttpReply {
  int code = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain";
  std::string body;
};

class MetricsServer {
 public:
  // Returns the reply, or std::nullopt to park the request (long poll):
  // the handler is re-invoked on every serve-loop tick until it replies
  // or the long-poll budget expires.
  using HttpHandler =
      std::function<std::optional<HttpReply>(const HttpRequest&)>;

  struct Options {
    // Port to bind on 127.0.0.1; 0 picks an ephemeral port (tests), read
    // back via port() after Start.
    int port = 0;
    // Source of /metrics. Not owned; must outlive the server.
    const MetricsRegistry* registry = nullptr;
    // Source of /queries (a JSON document, typically
    // QueriesStatusJson(...)). May be empty; then /queries serves "[]".
    // Called on the server thread — must be thread-safe.
    std::function<std::string()> queries_json;
    // Per-connection IO budget: a connection that stalls while its
    // request is being read or its response drained is abandoned after
    // this long. Parked (long-poll) time does not count against it.
    int io_timeout_millis = 5000;
    // How long a parked (long-poll) request may wait for data before the
    // server answers 204 No Content.
    int long_poll_timeout_millis = 10000;
  };

  explicit MetricsServer(Options options) : options_(std::move(options)) {}
  ~MetricsServer() { Stop(); }

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  // Registers a handler for `method` + a path prefix, matched in
  // registration order before the built-in GET routes. Call before
  // Start() (the route table is not synchronized).
  void Handle(std::string method, std::string path_prefix,
              HttpHandler handler);

  // Binds, listens, and starts the serve loop. Fails (kUnavailable) when
  // the port cannot be bound.
  Status Start();

  // Shuts the listener down, closes open connections, joins the loop;
  // idempotent.
  void Stop();

  // The bound port (resolved after Start; 0 before).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Total requests dispatched to a handler/built-in (introspection).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Connections abandoned because the client stalled past
  // Options::io_timeout_millis (introspection for tests).
  int64_t connections_timed_out() const {
    return connections_timed_out_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::string method;
    std::string prefix;
    HttpHandler handler;
  };
  struct Connection;

  void Serve();  // The poll loop (server thread).
  // Drains readable bytes; true while the connection should stay open.
  bool ReadSome(Connection* conn);
  // Parses + dispatches once the request is complete.
  void MaybeDispatch(Connection* conn);
  // Re-invokes a parked connection's handler (long poll).
  void TickParked(Connection* conn, int64_t now_millis);
  // Sends pending response bytes; true while the connection stays open.
  bool WriteSome(Connection* conn);
  // Renders `reply` into the connection and switches it to writing.
  void StartReply(Connection* conn, const HttpReply& reply);
  // The built-in GET routes; false when the path is unknown.
  bool BuiltinReply(const HttpRequest& request, HttpReply* reply) const;

  Options options_;
  std::vector<Route> routes_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> connections_timed_out_{0};
};

// The /queries payload of one engine: a JSON array with one object per
// query — name, disabled flag, QueryStats counters, the last error when
// there is one, and the evaluation-latency summary (count/p50/p99/p999
// micros of seraph_query_eval_micros). Reads engine state without
// synchronization, so call it only from the engine's own thread at a
// quiescent point and publish the returned string to the server's
// queries_json callback (see runtime/runtime.h).
std::string QueriesStatusJson(const ContinuousEngine& engine);

}  // namespace seraph

#endif  // SERAPH_SERVER_METRICS_SERVER_H_
