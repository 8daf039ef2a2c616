// Measurement plumbing shared by the perfbench workloads: a monotonic
// clock, an in-memory span log written out as a Chrome trace, the
// measuring sink, diffs of the engine's own metrics registry, process
// memory readings, and the snapshot-reducibility oracle.
//
// Everything here sits *outside* the engine: spans wrap the benchmark's
// calls into public entry points, and per-layer counts come from the
// engine's existing registry series, read before and after the timed
// region.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "seraph/continuous_engine.h"
#include "seraph/seraph_query.h"
#include "stream/graph_stream.h"
#include "table/table.h"

namespace perfbench {

using seraph::Status;

// Steady-clock nanoseconds (differences only).
int64_t NowNs();

// Peak resident set size of this process in KiB (getrusage's ru_maxrss,
// the kernel's RSS high-water mark).
int64_t RssPeakKiB();

// Spans recorded by the benchmark around its own calls, kept in memory and
// written out once the run ends. Single-threaded: every call the benchmark
// makes (and every sink callback) runs on the coordinator thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int64_t instant_ms;  // Evaluation instant the call serves.
    int64_t start_ns;
    int64_t dur_ns;
    int32_t parent;      // Enclosing span, or -1.
  };
  // Per-name aggregate; self time excludes child spans.
  struct Summary {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;
    std::vector<double> durations_us;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Returns the span's index, or -1 when disabled.
  int Open(const char* name, const char* layer, int64_t instant_ms);
  void Close(int index);

  std::map<std::string, Summary> Summarize() const;
  size_t size() const { return spans_.size(); }
  // Chrome trace-event JSON; `other_data` lands under "otherData".
  Status WriteChromeTrace(const std::string& path,
                          const std::string& other_data_json) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer,
             int64_t instant_ms)
      : log_(log), index_(log->Open(name, layer, instant_ms)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Accumulates wall time spent inside the system's calls.
class CallTimer {
 public:
  int64_t Start() { return start_ = NowNs(); }
  int64_t Stop() {
    const int64_t d = NowNs() - start_;
    total_ns_ += d;
    return d;
  }
  int64_t total_ns() const { return total_ns_; }

 private:
  int64_t start_ = 0;
  int64_t total_ns_ = 0;
};

// The sink every workload attaches. It measures processing latency — from
// the start of the pump in which an instant became due to the sink
// receiving that (query, t) — keeps an order-independent digest of every
// emission, and keeps full tables only for the instants the oracle
// re-checks.
class BenchSink final : public seraph::EmitSink {
 public:
  explicit BenchSink(SpanLog* spans) : spans_(spans) {}

  Status OnResult(const std::string& query, seraph::Timestamp t,
                  const seraph::TimeAnnotatedTable& table) override;

  // Marks the start of a pump; emissions until the next call are timed
  // against it.
  void BeginPump(int64_t start_ns) { pump_start_ns_ = start_ns; }
  // Emissions are counted and timed only while recording (timed region).
  void set_recording(bool on) { recording_ = on; }
  void KeepInstants(std::set<int64_t> instants_ms) {
    keep_ = std::move(instants_ms);
  }

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  int64_t recorded() const { return static_cast<int64_t>(latencies_ms_.size()); }
  const std::map<std::string, int64_t>& recorded_per_query() const {
    return per_query_;
  }
  uint64_t digest() const { return digest_; }
  // Kept emissions keyed by (query, instant millis).
  const std::map<std::pair<std::string, int64_t>,
                 seraph::TimeAnnotatedTable>& kept() const {
    return kept_;
  }

 private:
  SpanLog* spans_;
  int64_t pump_start_ns_ = 0;
  bool recording_ = false;
  std::set<int64_t> keep_;
  std::vector<double> latencies_ms_;
  std::map<std::string, int64_t> per_query_;
  uint64_t digest_ = 0;
  std::map<std::pair<std::string, int64_t>, seraph::TimeAnnotatedTable>
      kept_;
};

// The engine registry series the per-layer metrics are built from, summed
// over queries (and shards). Read before and after the timed region and
// diffed, never used as lifetime totals.
struct EngineCounters {
  int64_t evaluations = 0;
  int64_t reuse_hits = 0;
  int64_t match_rows = 0;
  int64_t rows_emitted = 0;
  int64_t snapshot_advances = 0;
  int64_t elements_added = 0;
  int64_t elements_evicted = 0;
  int64_t entities_recomputed = 0;
  int64_t eval_failures = 0;
  int64_t delta_hits = 0;
  int64_t delta_fallbacks = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_failures = 0;
  // seraph_stage_micros sums: window, snapshot, match, policy, sink.
  std::array<int64_t, 5> stage_us{};
  seraph::HistogramSnapshot batch_size;
  seraph::HistogramSnapshot checkpoint_us;
  seraph::HistogramSnapshot checkpoint_bytes;
};

EngineCounters ReadCounters(
    const std::vector<const seraph::ContinuousEngine*>& engines);
// after − before; histogram buckets and sums are diffed, min/max keep the
// later (lifetime) bounds so percentiles stay clamped to observed values.
EngineCounters Diff(const EngineCounters& after, const EngineCounters& before);

// Percentile of a (diffed) histogram, interpolated within its power-of-two
// bucket and clamped to [min, max] like the engine's own snapshots.
double HistogramPercentile(const seraph::HistogramSnapshot& h, double q);

// Exact percentile (nearest rank) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// Snapshot-reducibility oracle: the report a query must deliver at `t`,
// recomputed from scratch — BuildSnapshot of the active window over
// `stream`, one-time Cypher execution of the body, and the report
// policy's bag difference against the result at the previous instant.
// Supports the single-MATCH queries the workloads register. The query's
// clauses are lent to the executor and handed back before returning.
seraph::Result<seraph::Table> OracleReport(
    seraph::RegisteredQuery* query,
    const seraph::PropertyGraphStream& stream, seraph::Timestamp t);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
