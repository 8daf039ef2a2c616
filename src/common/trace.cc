#include "common/trace.h"

#include <chrono>
#include <fstream>

#include "common/strings.h"

namespace seraph {

namespace {

void AppendEvent(const TraceRecorder::Event& event, std::string* out) {
  *out += "{\"name\":";
  AppendJsonString(event.name, out);
  *out += ",\"cat\":";
  AppendJsonString(event.category, out);
  *out += ",\"ph\":\"";
  *out += event.phase;
  *out += "\",\"ts\":" + std::to_string(event.ts_micros);
  if (event.phase == 'X') {
    *out += ",\"dur\":" + std::to_string(event.dur_micros);
  }
  if (event.phase == 'i') {
    // Instant events need a scope; "t" = thread.
    *out += ",\"s\":\"t\"";
  }
  *out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
  if (!event.args.empty()) {
    *out += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : event.args) {
      if (!first) *out += ",";
      first = false;
      AppendJsonString(key, out);
      *out += ":";
      AppendJsonString(value, out);
    }
    *out += "}";
  }
  *out += "}";
}

// Trace tid of the calling thread (0 = coordinator lane).
thread_local int64_t tl_trace_tid = 0;

}  // namespace

int64_t TraceRecorder::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceRecorder::SetCurrentThreadTid(int64_t tid) { tl_trace_tid = tid; }

int64_t TraceRecorder::CurrentThreadTid() { return tl_trace_tid; }

void TraceRecorder::AddComplete(std::string name, std::string category,
                                int64_t start_micros, int64_t dur_micros,
                                TraceArgs args) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'X';
  event.ts_micros = start_micros;
  event.dur_micros = dur_micros;
  event.tid = tl_trace_tid;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddInstant(std::string name, std::string category,
                               int64_t ts_micros, TraceArgs args) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'i';
  event.ts_micros = ts_micros;
  event.tid = tl_trace_tid;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& event : events_) {
    if (!first) out += ",\n";
    first = false;
    AppendEvent(event, &out);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceRecorder::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  out << ToJson() << "\n";
  if (!out.good()) {
    return Status::Internal("failed writing trace file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace seraph
