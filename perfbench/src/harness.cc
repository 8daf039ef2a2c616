#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "cypher/executor.h"
#include "stream/snapshot.h"
#include "stream/window.h"

namespace perfbench {

using namespace seraph;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// splitmix64 finalizer: spreads row hashes before they are summed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void AppendJsonString(std::ostringstream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
  os << '"';
}

}  // namespace

int64_t RssPeakKiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss);  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

int SpanLog::Open(const char* name, const char* layer, int64_t instant_ms) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, layer, instant_ms, NowNs(), 0, parent});
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].dur_ns =
      NowNs() - spans_[static_cast<size_t>(index)].start_ns;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanLog::Summary> SpanLog::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[static_cast<size_t>(span.parent)] += span.dur_ns;
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Summary& s = out[spans_[i].name];
    const double us = static_cast<double>(spans_[i].dur_ns) / 1e3;
    ++s.count;
    s.total_us += us;
    s.self_us += static_cast<double>(spans_[i].dur_ns - child_ns[i]) / 1e3;
    s.durations_us.push_back(us);
  }
  return out;
}

Status SpanLog::WriteChromeTrace(const std::string& path,
                                 const std::string& other_data_json) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[static_cast<size_t>(span.parent)] += span.dur_ns;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream os;
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data_json
     << ",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":";
    AppendJsonString(os, s.name);
    os << ",\"cat\":";
    AppendJsonString(os, s.layer);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
       << ",\"args\":{\"instant_ms\":" << s.instant_ms << ",\"self_us\":"
       << static_cast<double>(s.dur_ns - child_ns[i]) / 1e3 << "}}";
  }
  os << "]}\n";
  std::ofstream out(path);
  out << os.str();
  out.close();
  if (!out) return Status::Internal("cannot write trace file " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BenchSink
// ---------------------------------------------------------------------------

Status BenchSink::OnResult(const std::string& query, Timestamp t,
                           const TimeAnnotatedTable& table) {
  const int64_t received_ns = NowNs();
  ScopedSpan span(spans_, "sink", "seraph", t.millis());
  uint64_t bag = Mix(table.table.size());
  for (const Record& row : table.table.rows()) bag += Mix(row.Hash());
  digest_ += Mix(bag ^ Mix(std::hash<std::string>{}(query)) ^
                 Mix(static_cast<uint64_t>(t.millis())));
  if (recording_) {
    latencies_ms_.push_back(static_cast<double>(received_ns - pump_start_ns_) /
                            1e6);
    ++per_query_[query];
  }
  if (keep_.contains(t.millis())) kept_.insert_or_assign({query, t.millis()}, table);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Registry diffs
// ---------------------------------------------------------------------------

namespace {

int64_t CounterValue(const MetricsRegistry& registry, const std::string& name,
                     const MetricLabels& labels = {}) {
  const Counter* c = registry.FindCounter(name, labels);
  return c == nullptr ? 0 : c->value();
}

void MergeHistogram(const MetricsRegistry& registry, const std::string& name,
                    const MetricLabels& labels, HistogramSnapshot* into) {
  const Histogram* h = registry.FindHistogram(name, labels);
  if (h != nullptr) MergeHistogramSnapshot(into, h->Snapshot());
}

HistogramSnapshot DiffHistogram(const HistogramSnapshot& after,
                                const HistogramSnapshot& before) {
  HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (int i = 0; i < kHistogramBuckets; ++i) d.buckets[i] -= before.buckets[i];
  d.mean = d.count > 0 ? static_cast<double>(d.sum) / d.count : 0.0;
  return d;
}

}  // namespace

EngineCounters ReadCounters(
    const std::vector<const ContinuousEngine*>& engines) {
  static const char* kStages[5] = {"window", "snapshot", "match", "policy",
                                   "sink"};
  EngineCounters c;
  for (const ContinuousEngine* engine : engines) {
    const MetricsRegistry& r = engine->metrics();
    for (const std::string& q : engine->QueryNames()) {
      const MetricLabels ql{{"query", q}};
      c.evaluations += CounterValue(r, "seraph_query_evaluations_total", ql);
      c.reuse_hits += CounterValue(r, "seraph_query_reuse_hits_total", ql);
      c.match_rows += CounterValue(r, "seraph_query_match_rows_total", ql);
      c.rows_emitted += CounterValue(r, "seraph_query_rows_emitted_total", ql);
      c.snapshot_advances +=
          CounterValue(r, "seraph_query_snapshots_incremental_total", ql);
      c.elements_added +=
          CounterValue(r, "seraph_window_elements_added_total", ql);
      c.elements_evicted +=
          CounterValue(r, "seraph_window_elements_evicted_total", ql);
      c.entities_recomputed +=
          CounterValue(r, "seraph_window_entities_recomputed_total", ql);
      c.eval_failures +=
          CounterValue(r, "seraph_query_eval_failures_total", ql);
      c.delta_hits += CounterValue(r, "seraph_delta_hits_total", ql);
      c.delta_fallbacks += CounterValue(r, "seraph_delta_fallbacks_total", ql);
      for (int s = 0; s < 5; ++s) {
        const Histogram* h = r.FindHistogram(
            "seraph_stage_micros", {{"query", q}, {"stage", kStages[s]}});
        if (h != nullptr) c.stage_us[static_cast<size_t>(s)] += h->sum();
      }
    }
    c.checkpoints += CounterValue(r, "seraph_checkpoint_total");
    c.checkpoint_failures += CounterValue(r, "seraph_checkpoint_failures_total");
    MergeHistogram(r, "seraph_engine_eval_batch_size", {}, &c.batch_size);
    MergeHistogram(r, "seraph_checkpoint_duration_micros", {},
                   &c.checkpoint_us);
    MergeHistogram(r, "seraph_checkpoint_bytes", {}, &c.checkpoint_bytes);
  }
  return c;
}

EngineCounters Diff(const EngineCounters& a, const EngineCounters& b) {
  EngineCounters d;
  d.evaluations = a.evaluations - b.evaluations;
  d.reuse_hits = a.reuse_hits - b.reuse_hits;
  d.match_rows = a.match_rows - b.match_rows;
  d.rows_emitted = a.rows_emitted - b.rows_emitted;
  d.snapshot_advances = a.snapshot_advances - b.snapshot_advances;
  d.elements_added = a.elements_added - b.elements_added;
  d.elements_evicted = a.elements_evicted - b.elements_evicted;
  d.entities_recomputed = a.entities_recomputed - b.entities_recomputed;
  d.eval_failures = a.eval_failures - b.eval_failures;
  d.delta_hits = a.delta_hits - b.delta_hits;
  d.delta_fallbacks = a.delta_fallbacks - b.delta_fallbacks;
  d.checkpoints = a.checkpoints - b.checkpoints;
  d.checkpoint_failures = a.checkpoint_failures - b.checkpoint_failures;
  for (size_t s = 0; s < d.stage_us.size(); ++s) {
    d.stage_us[s] = a.stage_us[s] - b.stage_us[s];
  }
  d.batch_size = DiffHistogram(a.batch_size, b.batch_size);
  d.checkpoint_us = DiffHistogram(a.checkpoint_us, b.checkpoint_us);
  d.checkpoint_bytes = DiffHistogram(a.checkpoint_bytes, b.checkpoint_bytes);
  return d;
}

double HistogramPercentile(const HistogramSnapshot& h, double q) {
  if (h.count <= 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n <= 0) continue;
    if (seen + n >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i);
      const double hi = std::ldexp(1.0, i + 1);
      const double estimate = lo + (hi - lo) * ((rank - seen) / n);
      return std::clamp(estimate, static_cast<double>(h.min),
                        static_cast<double>(h.max));
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

namespace {

Result<Table> OneTimeResult(RegisteredQuery* query,
                            const PropertyGraphStream& stream, Timestamp t) {
  const auto* match = std::get_if<MatchClause>(&query->clauses.front());
  if (match == nullptr || !match->within.has_value()) {
    return Status::InvalidArgument("oracle expects a leading windowed MATCH");
  }
  WindowConfig config{query->starting_at, *match->within, query->every,
                      WindowSemantics::kLookback};
  std::optional<TimeInterval> window = config.ActiveWindow(t);
  if (!window.has_value()) window = TimeInterval{t, t};
  SERAPH_ASSIGN_OR_RETURN(PropertyGraph snapshot,
                          BuildSnapshot(stream, *window, config.bounds()));
  ExecutionOptions exec;
  exec.now = t;
  exec.window = window;
  SingleQuery single;
  single.clauses = std::move(query->clauses);
  single.ret.body = std::move(query->projection);
  Result<Table> result = ExecuteSingleQuery(
      single, SingleGraphResolver(snapshot), Table::Unit(), exec);
  query->clauses = std::move(single.clauses);
  query->projection = std::move(single.ret.body);
  return result;
}

}  // namespace

Result<Table> OracleReport(RegisteredQuery* query,
                           const PropertyGraphStream& stream, Timestamp t) {
  for (const Clause& clause : query->clauses) {
    const auto* match = std::get_if<MatchClause>(&clause);
    if (match != nullptr && &clause != &query->clauses.front()) {
      return Status::InvalidArgument("oracle expects a single MATCH clause");
    }
  }
  SERAPH_ASSIGN_OR_RETURN(Table current, OneTimeResult(query, stream, t));
  if (query->policy == ReportPolicy::kSnapshot) return current;
  const Timestamp previous_t = t - query->every;
  if (previous_t < query->starting_at) {
    return query->policy == ReportPolicy::kOnEntering
               ? current
               : Table(current.fields());
  }
  SERAPH_ASSIGN_OR_RETURN(Table previous,
                          OneTimeResult(query, stream, previous_t));
  return query->policy == ReportPolicy::kOnEntering
             ? Table::BagDifference(current, previous)
             : Table::BagDifference(previous, current);
}

}  // namespace perfbench
