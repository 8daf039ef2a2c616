#include "server/metrics_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "seraph/continuous_engine.h"

namespace seraph {

namespace {

// Header block cap: a client streaming an unbounded preamble is cut off.
constexpr size_t kMaxHeaderBytes = 16 * 1024;
// Body cap (JSON-lines ingest batches stay well under this) → 413 beyond.
constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;
// Serve-loop tick: parked long-polls and IO deadlines are re-checked at
// this cadence, so timeouts are accurate to ~one tick.
constexpr int kTickMillis = 50;
// Open connections accepted concurrently; further clients wait in the
// listen backlog.
constexpr size_t kMaxConnections = 32;

int64_t SteadyNowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string RenderResponse(const HttpReply& reply) {
  std::string out = "HTTP/1.1 " + std::to_string(reply.code) + " " +
                    reply.reason + "\r\nContent-Type: " + reply.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(reply.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += reply.body;
  return out;
}

HttpReply TextReply(int code, const char* reason, std::string body) {
  HttpReply reply;
  reply.code = code;
  reply.reason = reason;
  reply.body = std::move(body);
  return reply;
}

// Parses the request line and headers of `in` (the head ends at
// `head_end`, the offset of "\r\n\r\n"). False on a malformed request
// line; Content-Length defaults to 0 when absent.
bool ParseRequestHead(const std::string& in, size_t head_end,
                      HttpRequest* request, size_t* content_length) {
  const size_t line_end = in.find("\r\n");
  if (line_end == std::string::npos || line_end > head_end) return false;
  std::istringstream line(in.substr(0, line_end));
  std::string target;
  std::string version;
  if (!(line >> request->method >> target >> version)) return false;
  if (target.empty() || target[0] != '/') return false;
  const size_t q = target.find('?');
  if (q == std::string::npos) {
    request->path = target;
    request->query.clear();
  } else {
    request->path = target.substr(0, q);
    request->query = target.substr(q + 1);
  }
  *content_length = 0;
  size_t pos = line_end + 2;
  while (pos < head_end) {
    size_t eol = in.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) eol = head_end;
    std::string header = in.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string name = header.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name == "content-length") {
      size_t value = colon + 1;
      while (value < header.size() && header[value] == ' ') ++value;
      *content_length = std::strtoull(header.c_str() + value, nullptr, 10);
    }
  }
  return true;
}

}  // namespace

// Per-connection state machine: kReading until the full request (head +
// Content-Length body) arrives, then dispatched — either straight to
// kWriting, or to kParked while its handler long-polls. The IO deadline
// is armed while reading and writing; parked time is budgeted separately
// by Options::long_poll_timeout_millis.
struct MetricsServer::Connection {
  enum class State { kReading, kParked, kWriting };

  int fd = -1;
  State state = State::kReading;
  std::string in;
  size_t head_end = 0;        // Offset past "\r\n\r\n" once seen; 0 before.
  size_t content_length = 0;  // Valid once head_end > 0.
  HttpRequest request;
  const HttpHandler* parked_handler = nullptr;
  std::string out;
  size_t out_sent = 0;
  int64_t io_deadline_millis = 0;
  int64_t park_deadline_millis = 0;
};

void MetricsServer::Handle(std::string method, std::string path_prefix,
                           HttpHandler handler) {
  SERAPH_CHECK(!running_.load(std::memory_order_relaxed))
      << "Handle() must be called before Start()";
  routes_.push_back(
      Route{std::move(method), std::move(path_prefix), std::move(handler)});
}

Status MetricsServer::Start() {
  if (running_.load(std::memory_order_relaxed)) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("metrics server: socket: ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("metrics server: bind 127.0.0.1:" +
                               std::to_string(options_.port) + ": " + error);
  }
  if (::listen(listen_fd_, 32) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string("metrics server: listen: ") +
                               error);
  }
  // Resolve the bound port (meaningful with port 0 = ephemeral).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  SetNonBlocking(listen_fd_);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void MetricsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // The serve loop polls with a timeout, so flipping running_ is enough;
  // shutting the listener down just makes it exit immediately.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsServer::Serve() {
  // All open connections, interleaved with the listener in one poll set.
  // A slow reader/writer only parks its own entry; everyone else keeps
  // being served (see tests/metrics_server_test.cc,
  // TwoConcurrentClients / SlowClientCannotWedgeTheServeLoop).
  std::deque<Connection> connections;
  std::vector<pollfd> fds;

  while (running_.load(std::memory_order_relaxed)) {
    fds.clear();
    const bool accepting =
        connections.size() < kMaxConnections;
    fds.push_back(
        pollfd{listen_fd_, static_cast<short>(accepting ? POLLIN : 0), 0});
    for (const Connection& conn : connections) {
      short events = 0;
      if (conn.state == Connection::State::kReading) events = POLLIN;
      if (conn.state == Connection::State::kWriting) events = POLLOUT;
      fds.push_back(pollfd{conn.fd, events, 0});
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kTickMillis);
    if (!running_.load(std::memory_order_relaxed)) break;
    if (ready < 0 && errno != EINTR) break;

    if ((fds[0].revents & POLLIN) != 0) {
      while (connections.size() < kMaxConnections) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) break;  // EAGAIN: backlog drained.
        SetNonBlocking(client);
        Connection conn;
        conn.fd = client;
        conn.io_deadline_millis =
            SteadyNowMillis() + options_.io_timeout_millis;
        connections.push_back(std::move(conn));
      }
    }

    const int64_t now = SteadyNowMillis();
    for (size_t i = 0; i < connections.size();) {
      Connection& conn = connections[i];
      // fds[0] is the listener; connection i sat at fds[i + 1] when this
      // round's poll was issued. Just-accepted connections (and any
      // entries shifted by an erase below) fail the fd match and simply
      // wait for the next round's rebuilt poll set.
      const pollfd* pfd =
          (i + 1 < fds.size() && fds[i + 1].fd == conn.fd) ? &fds[i + 1]
                                                           : nullptr;
      bool keep = true;
      bool timed_out = false;
      switch (conn.state) {
        case Connection::State::kReading:
          if (pfd != nullptr &&
              (pfd->revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            keep = ReadSome(&conn);
          }
          if (keep && conn.state == Connection::State::kReading &&
              now >= conn.io_deadline_millis) {
            timed_out = true;
          }
          break;
        case Connection::State::kParked:
          TickParked(&conn, now);
          break;
        case Connection::State::kWriting:
          if (pfd != nullptr &&
              (pfd->revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
            keep = WriteSome(&conn);
          }
          if (keep && conn.state == Connection::State::kWriting &&
              now >= conn.io_deadline_millis) {
            timed_out = true;
          }
          break;
      }
      if (timed_out) {
        connections_timed_out_.fetch_add(1, std::memory_order_relaxed);
        SERAPH_LOG(WARNING) << "metrics server: dropping stalled connection "
                               "(io deadline "
                            << options_.io_timeout_millis << " ms exceeded)";
        keep = false;
      }
      if (keep) {
        ++i;
      } else {
        ::close(conn.fd);
        connections.erase(connections.begin() +
                          static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  for (Connection& conn : connections) ::close(conn.fd);
}

bool MetricsServer::ReadSome(Connection* conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // Peer closed before a full request.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }

  if (conn->head_end == 0) {
    const size_t pos = conn->in.find("\r\n\r\n");
    if (pos == std::string::npos) {
      return conn->in.size() <= kMaxHeaderBytes;  // Keep reading the head.
    }
    conn->head_end = pos + 4;
    if (!ParseRequestHead(conn->in, pos, &conn->request,
                          &conn->content_length)) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      StartReply(conn, TextReply(400, "Bad Request", "bad request\n"));
      return true;
    }
    if (conn->content_length > kMaxBodyBytes) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      StartReply(conn,
                 TextReply(413, "Payload Too Large", "body too large\n"));
      return true;
    }
  }
  if (conn->in.size() < conn->head_end + conn->content_length) {
    return true;  // Body incomplete; keep reading.
  }
  conn->request.body = conn->in.substr(conn->head_end, conn->content_length);
  MaybeDispatch(conn);
  return true;
}

void MetricsServer::MaybeDispatch(Connection* conn) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  for (const Route& route : routes_) {
    if (conn->request.method != route.method) continue;
    if (conn->request.path.rfind(route.prefix, 0) != 0) continue;
    std::optional<HttpReply> reply = route.handler(conn->request);
    if (reply.has_value()) {
      StartReply(conn, *reply);
    } else {
      conn->state = Connection::State::kParked;
      conn->parked_handler = &route.handler;
      conn->park_deadline_millis =
          SteadyNowMillis() + options_.long_poll_timeout_millis;
    }
    return;
  }

  HttpReply reply;
  if (BuiltinReply(conn->request, &reply)) {
    StartReply(conn, reply);
    return;
  }
  StartReply(conn, TextReply(404, "Not Found",
                             "not found; try /metrics, /healthz, /queries\n"));
}

void MetricsServer::TickParked(Connection* conn, int64_t now_millis) {
  std::optional<HttpReply> reply = (*conn->parked_handler)(conn->request);
  if (reply.has_value()) {
    StartReply(conn, *reply);
    return;
  }
  if (now_millis >= conn->park_deadline_millis) {
    HttpReply timeout;
    timeout.code = 204;
    timeout.reason = "No Content";
    StartReply(conn, timeout);
  }
}

bool MetricsServer::WriteSome(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_sent,
                             conn->out.size() - conn->out_sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      conn->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // Client went away; nothing to salvage.
  }
  return false;  // Fully sent → close (Connection: close semantics).
}

void MetricsServer::StartReply(Connection* conn, const HttpReply& reply) {
  conn->out = RenderResponse(reply);
  conn->out_sent = 0;
  conn->state = Connection::State::kWriting;
  conn->parked_handler = nullptr;
  // The write phase gets a fresh IO budget; a long-poll that waited most
  // of its park budget still has full time to drain the response.
  conn->io_deadline_millis = SteadyNowMillis() + options_.io_timeout_millis;
}

bool MetricsServer::BuiltinReply(const HttpRequest& request,
                                 HttpReply* reply) const {
  if (request.method != "GET") return false;
  if (request.path == "/metrics") {
    reply->body = options_.registry != nullptr
                      ? options_.registry->ToPrometheusText()
                      : std::string();
    reply->content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (request.path == "/healthz") {
    reply->body = "ok\n";
    return true;
  }
  if (request.path == "/queries") {
    reply->body = options_.queries_json ? options_.queries_json() : "[]";
    reply->content_type = "application/json";
    return true;
  }
  return false;
}

std::string QueriesStatusJson(const ContinuousEngine& engine) {
  std::string out = "[";
  for (const std::string& name : engine.QueryNames()) {
    if (out.size() > 1) out += ",";
    const QueryStats stats = *engine.StatsFor(name);
    out += "{\"name\":";
    AppendJsonString(name, &out);
    out += ",\"disabled\":";
    out += engine.QueryDisabled(name) ? "true" : "false";
    out += ",\"evaluations\":" + std::to_string(stats.evaluations);
    out += ",\"rows_emitted\":" + std::to_string(stats.rows_emitted);
    out += ",\"eval_failures\":" + std::to_string(stats.eval_failures);
    out += ",\"reused_results\":" + std::to_string(stats.reused_results);
    if (!stats.last_error.ok()) {
      out += ",\"last_error\":";
      AppendJsonString(stats.last_error.ToString(), &out);
    }
    const HistogramSnapshot latency = *engine.LatencyFor(name);
    out += ",\"eval_latency_micros\":{\"count\":" +
           std::to_string(latency.count) +
           ",\"p50\":" + std::to_string(latency.p50) +
           ",\"p99\":" + std::to_string(latency.p99) +
           ",\"p999\":" + std::to_string(latency.p999) + "}";
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace seraph
