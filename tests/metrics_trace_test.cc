// The observability layer: metrics primitives and registry exposition,
// the trace recorder's chrome://tracing JSON, the engine's per-stage
// instrumentation, and the configurable logging sink.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "seraph/continuous_engine.h"
#include "stream/snapshot.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, FirstSampleSetsMinAndMax) {
  Histogram h;
  h.Record(5);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 5);
  EXPECT_EQ(snap.max, 5);
  EXPECT_EQ(snap.sum, 5);
  EXPECT_DOUBLE_EQ(snap.mean, 5.0);
  // A single sample's percentiles are clamped to [min, max] = {5}.
  EXPECT_EQ(snap.p50, 5);
  EXPECT_EQ(snap.p99, 5);
}

TEST(HistogramTest, ZeroFirstSample) {
  Histogram h;
  h.Record(0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.p50, 0);
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-7);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.sum, 0);
}

TEST(HistogramTest, PercentileInterpolationWithinBucket) {
  Histogram h;
  // 100 samples spread across the [64, 128) bucket.
  for (int i = 0; i < 100; ++i) h.Record(64 + i % 64);
  HistogramSnapshot snap = h.Snapshot();
  // Interpolation keeps estimates inside the bucket (and inside
  // [min, max]).
  EXPECT_GE(snap.p50, 64);
  EXPECT_LE(snap.p50, 127);
  EXPECT_GE(snap.p90, snap.p50);
  EXPECT_GE(snap.p99, snap.p90);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(HistogramTest, PercentilesOrderedAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);   // [8,16) bucket.
  for (int i = 0; i < 10; ++i) h.Record(1000);  // [512,1024) bucket.
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_GE(snap.p50, 8);
  EXPECT_LE(snap.p50, 16);
  EXPECT_GE(snap.p99, 512);
  EXPECT_LE(snap.p99, 1000);
  EXPECT_EQ(snap.count, 100);
}

TEST(HistogramTest, ResetClearsState) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.Snapshot().max, 0);
}

// ---------------------------------------------------------------------------
// Counter / Gauge / registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.CounterFor("seraph_test_total", {{"q", "x"}});
  Counter* b = registry.CounterFor("seraph_test_total", {{"q", "x"}});
  Counter* c = registry.CounterFor("seraph_test_total", {{"q", "y"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(3);
  EXPECT_EQ(registry.FindCounter("seraph_test_total", {{"q", "x"}})->value(),
            3);
  EXPECT_EQ(registry.FindCounter("seraph_test_total", {{"q", "z"}}),
            nullptr);
  EXPECT_EQ(registry.FindCounter("absent_total"), nullptr);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(MetricsRegistryTest, GaugeMovesBothWays) {
  MetricsRegistry registry;
  Gauge* g = registry.GaugeFor("seraph_level");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsSeries) {
  MetricsRegistry registry;
  Counter* c = registry.CounterFor("seraph_c_total");
  Histogram* h = registry.HistogramFor("seraph_h_micros");
  c->Increment(5);
  h->Record(100);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(registry.series_count(), 2u);
  // Pointers stay valid after Reset.
  c->Increment();
  EXPECT_EQ(registry.FindCounter("seraph_c_total")->value(), 1);
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_events_total", {{"stream", "s1"}})
      ->Increment(7);
  registry.GaugeFor("seraph_queries_registered")->Set(2);
  Histogram* h =
      registry.HistogramFor("seraph_stage_micros",
                            {{"query", "q"}, {"stage", "match"}});
  h->Record(100);
  h->Record(200);
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE seraph_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("seraph_events_total{stream=\"s1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE seraph_queries_registered gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("seraph_queries_registered 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE seraph_stage_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros{query=\"q\",stage=\"match\",quantile=\"0.5\"}"),
      std::string::npos);
  // Native cumulative buckets: 100 and 200 both land in [64, 128) and
  // [128, 256) respectively, so le="127" counts 1, le="255" counts 2, and
  // +Inf always equals _count.
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"127\"} "
          "1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"255\"} "
          "2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "seraph_stage_micros_bucket{query=\"q\",stage=\"match\",le=\"+Inf\"}"
          " 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("seraph_stage_micros_sum{query=\"q\",stage=\"match\"} 300\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("seraph_stage_micros_count{query=\"q\",stage=\"match\"} 2\n"),
      std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusLabelEscaping) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_odd_total",
                      {{"name", "a\"b\\c\nd"}})
      ->Increment();
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("seraph_odd_total{name=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

// A tiny structural JSON check: balanced braces/brackets outside strings
// and no trailing garbage — enough to catch emitter bugs without a full
// parser.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_FALSE(in_string) << json;
}

TEST(MetricsRegistryTest, JsonFormat) {
  MetricsRegistry registry;
  registry.CounterFor("seraph_events_total", {{"stream", "s1"}})
      ->Increment(7);
  Histogram* h = registry.HistogramFor("seraph_lat_micros");
  h->Record(10);
  std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"seraph_events_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"stream\":\"s1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceRecorder / TraceSpan
// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;  // Disabled by default.
  {
    TraceSpan span(&recorder, "work", "test");
    EXPECT_FALSE(span.recording());
  }
  {
    TraceSpan span(nullptr, "work", "test");
    EXPECT_FALSE(span.recording());
  }
  recorder.AddComplete("x", "test", 0, 1);
  recorder.AddInstant("y", "test", 0);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceTest, SpanRecordsCompleteEventWithArgs) {
  TraceRecorder recorder;
  recorder.Enable();
  {
    TraceSpan span(&recorder, "match", "engine");
    EXPECT_TRUE(span.recording());
    span.AddArg("query", "q1");
  }
  ASSERT_EQ(recorder.size(), 1u);
  const TraceRecorder::Event& event = recorder.events()[0];
  EXPECT_EQ(event.name, "match");
  EXPECT_EQ(event.category, "engine");
  EXPECT_EQ(event.phase, 'X');
  EXPECT_GE(event.dur_micros, 0);
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "query");
  EXPECT_EQ(event.args[0].second, "q1");
}

TEST(TraceTest, JsonExportIsChromeTraceShaped) {
  TraceRecorder recorder;
  recorder.Enable();
  recorder.AddComplete("stage \"a\"", "engine", 100, 50,
                       {{"k", "v\nw"}});
  recorder.AddInstant("marker", "stream", 175);
  std::string json = recorder.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // Instant scope.
  EXPECT_NE(json.find("stage \\\"a\\\""), std::string::npos);
  EXPECT_NE(json.find("v\\nw"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

constexpr char kQuery[] = R"(
  REGISTER QUERY q STARTING AT '1970-01-01T00:05'
  {
    MATCH (b:Bike)-[r:rentedAt]->(s:Station)
    WITHIN PT20M
    EMIT r.user_id, s.id ON ENTERING EVERY PT5M
  })";

void Replay(ContinuousEngine* engine, int num_events) {
  workloads::BikeSharingConfig config;
  config.num_events = num_events;
  auto events = workloads::GenerateBikeSharingStream(config);
  ASSERT_TRUE(engine->RegisterText(kQuery).ok());
  for (const auto& event : events) {
    ASSERT_TRUE(engine->Ingest(event.graph, event.timestamp).ok());
  }
  ASSERT_TRUE(engine->Drain().ok());
}

TEST(EngineObservabilityTest, StatsForUnknownQueryIsNotFound) {
  ContinuousEngine engine;
  auto stats = engine.StatsFor("nope");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  auto latency = engine.LatencyFor("nope");
  ASSERT_FALSE(latency.ok());
  EXPECT_EQ(latency.status().code(), StatusCode::kNotFound);
}

TEST(EngineObservabilityTest, StageHistogramsCoverEveryEvaluation) {
  ContinuousEngine engine;
  Replay(&engine, 12);
  QueryStats stats = *engine.StatsFor("q");
  ASSERT_GT(stats.evaluations, 0);
  for (const char* stage : {"window", "snapshot", "match", "policy",
                            "sink"}) {
    const Histogram* h = engine.metrics().FindHistogram(
        "seraph_stage_micros", {{"query", "q"}, {"stage", stage}});
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count(), stats.evaluations) << stage;
  }
  const Histogram* total = engine.metrics().FindHistogram(
      "seraph_query_eval_micros", {{"query", "q"}});
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), stats.evaluations);
  // The registry's evaluation counter agrees with QueryStats, and the
  // reuse split partitions the evaluations.
  EXPECT_EQ(engine.metrics()
                .FindCounter("seraph_query_evaluations_total",
                             {{"query", "q"}})
                ->value(),
            stats.evaluations);
  EXPECT_EQ(stats.reused_results + stats.fresh_executions,
            stats.evaluations);
}

TEST(EngineObservabilityTest, IngestionCountersPerStream) {
  ContinuousEngine engine;
  Replay(&engine, 8);
  const Counter* ingested = engine.metrics().FindCounter(
      "seraph_stream_elements_ingested_total", {{"stream", "<default>"}});
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->value(), 8);
}

// The retention gauges (docs/INTERNALS.md, "Stream retention") describe
// the trimmed stream: what it holds, what it released, and how far its
// oldest element trails the engine clock.
TEST(EngineObservabilityTest, RetentionGaugesTrackTheTrim) {
  ContinuousEngine engine;
  Replay(&engine, 12);
  const PropertyGraphStream& stream = engine.stream();
  const MetricLabels labels{{"stream", "<default>"}};
  const Gauge* retained =
      engine.metrics().FindGauge("seraph_stream_retained_elements", labels);
  const Gauge* trimmed =
      engine.metrics().FindGauge("seraph_stream_trimmed_total", labels);
  const Gauge* lag =
      engine.metrics().FindGauge("seraph_stream_retention_lag_millis", labels);
  ASSERT_NE(retained, nullptr);
  ASSERT_NE(trimmed, nullptr);
  ASSERT_NE(lag, nullptr);
  // A PT20M window over an hour of batches released the early ones.
  EXPECT_GT(trimmed->value(), 0);
  EXPECT_GT(retained->value(), 0);
  EXPECT_EQ(trimmed->value(), static_cast<int64_t>(stream.base_offset()));
  EXPECT_EQ(retained->value(), static_cast<int64_t>(stream.retained()));
  EXPECT_EQ(retained->value() + trimmed->value(), 12);
  const int64_t clock =
      engine.metrics().FindGauge("seraph_engine_clock_millis")->value();
  EXPECT_EQ(lag->value(),
            clock - stream.at(stream.base_offset()).timestamp.millis());
  // Nothing older than the window plus one slide is held.
  EXPECT_LE(lag->value(), 25 * 60'000);
}

TEST(EngineObservabilityTest, SnapshotMaintenanceCounters) {
  ContinuousEngine engine;  // Incremental maintenance on by default.
  Replay(&engine, 12);
  QueryStats stats = *engine.StatsFor("q");
  EXPECT_GT(stats.snapshots_incremental, 0);
  EXPECT_EQ(stats.snapshots_rebuilt, 0);
  // Every stream element entered some window at some point.
  EXPECT_EQ(stats.window_elements_added, 12);
  EXPECT_GT(stats.window_elements_evicted, 0);  // PT20M window, 1h stream.
}

// Two readers of one window: every instant advances the shared snapshot
// once, charged to the first reader by name, and a reader registered after
// the window advanced builds its own snapshots until it catches up. The
// window gauges show the readers and the snapshot's size.
TEST(EngineObservabilityTest, SharedWindowChargesOnceAndCatchUpRebuilds) {
  workloads::BikeSharingConfig config;
  config.num_events = 12;
  auto events = workloads::GenerateBikeSharingStream(config);
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kQuery).ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Ingest(events[i].graph, events[i].timestamp).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(events[3].timestamp).ok());
  const int64_t advanced = engine.StatsFor("q")->snapshots_incremental;
  ASSERT_GT(advanced, 0);
  // "p" sorts before "q", so from its first shared instant on it is the
  // one charged.
  std::string copy = kQuery;
  copy.replace(copy.find("QUERY q"), 7, "QUERY p");
  ASSERT_TRUE(engine.RegisterText(copy).ok());
  const MetricLabels window{
      {"stream", "<default>"},
      {"window", "WITHIN PT20M EVERY PT5M STARTING AT 1970-01-01T00:05"}};
  const Gauge* readers =
      engine.metrics().FindGauge("seraph_window_readers", window);
  const Gauge* entities =
      engine.metrics().FindGauge("seraph_window_snapshot_entities", window);
  ASSERT_NE(readers, nullptr);
  ASSERT_NE(entities, nullptr);
  EXPECT_EQ(readers->value(), 2);
  for (size_t i = 4; i < events.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(events[i].graph, events[i].timestamp).ok());
  }
  ASSERT_TRUE(engine.Drain().ok());

  const QueryStats q = *engine.StatsFor("q");
  const QueryStats p = *engine.StatsFor("p");
  // The late reader rebuilt exactly the instants the window had passed.
  EXPECT_EQ(p.snapshots_rebuilt, advanced);
  EXPECT_EQ(q.snapshots_rebuilt, 0);
  EXPECT_EQ(p.evaluations, q.evaluations);
  // One advance per instant across both readers.
  EXPECT_EQ(q.snapshots_incremental + p.snapshots_incremental,
            q.evaluations);
  EXPECT_EQ(q.snapshots_incremental, advanced);
  EXPECT_EQ(q.window_elements_added + p.window_elements_added, 12);
  // The late reader's delta index sat out the catch-up (full matches)
  // and was built once, against the shared snapshot.
  auto delta = [&](const char* name, const std::string& query) {
    return engine.metrics().FindCounter(name, {{"query", query}})->value();
  };
  EXPECT_EQ(delta("seraph_delta_fallbacks_total", "p"), advanced);
  EXPECT_EQ(delta("seraph_delta_rebuilds_total", "p"), 1);
  EXPECT_EQ(delta("seraph_delta_hits_total", "p"), p.evaluations - advanced);
  EXPECT_EQ(delta("seraph_delta_fallbacks_total", "q"), 0);
  EXPECT_EQ(delta("seraph_delta_hits_total", "q"), q.evaluations);
  EXPECT_EQ(engine.metrics()
                    .FindCounter("seraph_query_snapshots_incremental_total",
                                 {{"query", "q"}})
                    ->value() +
                engine.metrics()
                    .FindCounter("seraph_query_snapshots_incremental_total",
                                 {{"query", "p"}})
                    ->value(),
            q.evaluations);
  // The gauge counts the shared snapshot: the window ending at the last
  // instant.
  Timestamp last = Timestamp::FromMillis(5 * 60'000);
  while (last + Duration::FromMinutes(5) <= events.back().timestamp) {
    last = last + Duration::FromMinutes(5);
  }
  auto snapshot = BuildSnapshot(
      engine.stream(), TimeInterval{last - Duration::FromMinutes(20), last},
      IntervalBounds::kLeftOpenRightClosed);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(entities->value(), 0);
  EXPECT_EQ(entities->value(),
            static_cast<int64_t>(snapshot->num_nodes() +
                                 snapshot->num_relationships()));

  // The window goes with its last reader; its series stay, at zero.
  ASSERT_TRUE(engine.Unregister("q").ok());
  EXPECT_EQ(readers->value(), 1);
  ASSERT_TRUE(engine.Unregister("p").ok());
  EXPECT_EQ(readers->value(), 0);
  EXPECT_EQ(entities->value(), 0);
}

TEST(EngineObservabilityTest, TracerCapturesPipelineSpans) {
  TraceRecorder recorder;
  recorder.Enable();
  EngineOptions options;
  options.tracer = &recorder;
  ContinuousEngine engine(options);
  Replay(&engine, 8);
  ASSERT_GT(recorder.size(), 0u);
  bool saw_eval = false, saw_snapshot = false, saw_ingest = false;
  int64_t shared_windows = 0;
  for (const auto& event : recorder.events()) {
    if (event.name == "evaluate") saw_eval = true;
    if (event.name == "snapshot") saw_snapshot = true;
    if (event.name == "ingest") saw_ingest = true;
    if (event.name == "shared_window") {
      ++shared_windows;
      EXPECT_EQ(event.tid, 0) << "shared advances run on the coordinator";
    }
  }
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_ingest);
  // One advance span per instant of the single window.
  EXPECT_EQ(shared_windows, engine.StatsFor("q")->evaluations);
  // Span nesting: every 'sink' child must lie inside some 'evaluate'
  // parent. The evaluate span runs to the end of sink delivery precisely
  // so the merged trace nests even with a worker-to-coordinator
  // scheduling gap between the policy and sink stages.
  for (const auto& child : recorder.events()) {
    if (child.name != "sink") continue;
    bool contained = false;
    for (const auto& parent : recorder.events()) {
      if (parent.name != "evaluate") continue;
      if (parent.ts_micros <= child.ts_micros &&
          parent.ts_micros + parent.dur_micros >=
              child.ts_micros + child.dur_micros) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "sink span escapes its evaluate parent";
  }
  ExpectBalancedJson(recorder.ToJson());
}

TEST(EngineObservabilityTest, MetricsSurviveUnregister) {
  ContinuousEngine engine;
  Replay(&engine, 8);
  int64_t evals = engine.StatsFor("q")->evaluations;
  ASSERT_TRUE(engine.Unregister("q").ok());
  EXPECT_FALSE(engine.StatsFor("q").ok());
  // The registry still exposes the completed query's series.
  const Counter* total = engine.metrics().FindCounter(
      "seraph_query_evaluations_total", {{"query", "q"}});
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), evals);
  EXPECT_EQ(
      engine.metrics().FindGauge("seraph_queries_registered")->value(), 0);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

struct CapturedLine {
  internal_logging::Severity severity;
  std::string message;
};

class LogCapture {
 public:
  LogCapture() {
    internal_logging::SetLogSink(
        [this](internal_logging::Severity severity, const char*, int,
               const std::string& message) {
          lines_.push_back({severity, message});
        });
  }
  ~LogCapture() {
    internal_logging::SetLogSink(nullptr);
    internal_logging::SetMinLogSeverity(
        internal_logging::Severity::kInfo);
  }
  const std::vector<CapturedLine>& lines() const { return lines_; }

 private:
  std::vector<CapturedLine> lines_;
};

TEST(LoggingTest, SinkCapturesMessages) {
  LogCapture capture;
  SERAPH_LOG(INFO) << "hello " << 42;
  SERAPH_LOG(WARNING) << "uh oh";
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0].message, "hello 42");
  EXPECT_EQ(capture.lines()[0].severity,
            internal_logging::Severity::kInfo);
  EXPECT_EQ(capture.lines()[1].message, "uh oh");
}

TEST(LoggingTest, MinSeverityFiltersLowerLevels) {
  LogCapture capture;
  internal_logging::SetMinLogSeverity(
      internal_logging::Severity::kError);
  SERAPH_LOG(INFO) << "dropped";
  SERAPH_LOG(WARNING) << "dropped too";
  SERAPH_LOG(ERROR) << "kept";
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].message, "kept");
}

TEST(LoggingTest, DcheckPassesOnTrueCondition) {
  // Under !NDEBUG this evaluates; under NDEBUG it compiles away. Either
  // way a true condition must not abort.
  SERAPH_DCHECK(1 + 1 == 2) << "arithmetic still works";
  SUCCEED();
}

}  // namespace
}  // namespace seraph
