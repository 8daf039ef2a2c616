// The emit-latency SLO layer (docs/INTERNALS.md, "Latency accounting &
// lag"): arrival stamping through queue → driver → engine, deterministic
// latency histograms under an injected ManualClock, the per-stage
// breakdown, and watermark/lag gauges.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/stream_driver.h"
#include "stream/event_queue.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id) {
  return GraphBuilder()
      .Node(id, {"X"}, {{"id", Value::Int(id)}})
      .Build();
}

std::string CountQuery(const char* name) {
  std::string q = "REGISTER QUERY ";
  q += name;
  q += " STARTING AT '1970-01-01T00:05' "
       "{ MATCH (n:X) WITHIN PT10M EMIT n.id SNAPSHOT EVERY PT5M }";
  return q;
}

// Engine-side stamping: with a ManualClock, the recorded ingest→emit
// latencies are exact.
TEST(EmitLatencyTest, DeterministicLatencyUnderManualClock) {
  ManualClock clock(1'000);
  EngineOptions options;
  options.clock = &clock;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());

  // Two elements stamped 1000 and 2000 on the manual clock.
  ASSERT_TRUE(engine.Ingest(Item(1), T(6)).ok());
  clock.Set(2'000);
  ASSERT_TRUE(engine.Ingest(Item(2), T(7)).ok());
  // Delivery happens at clock 10'000: latencies are exactly 9000 and
  // 8000 us.
  clock.Set(10'000);
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());

  const Histogram* h = engine.metrics().FindHistogram(
      "seraph_emit_latency_micros", {{"query", "q"}});
  ASSERT_NE(h, nullptr);
  HistogramSnapshot snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.count, 2);
  EXPECT_EQ(snapshot.sum, 9'000 + 8'000);
  EXPECT_EQ(snapshot.max, 9'000);
  EXPECT_EQ(snapshot.min, 8'000);
  // The fleet-wide histogram saw the same samples.
  const Histogram* fleet =
      engine.metrics().FindHistogram("seraph_engine_emit_latency_micros");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->Snapshot().count, 2);
}

// Each element's latency is charged exactly once, at the first delivered
// instant covering it.
TEST(EmitLatencyTest, ElementsChargedOncePerQuery) {
  ManualClock clock(1'000);
  EngineOptions options;
  options.clock = &clock;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());

  ASSERT_TRUE(engine.Ingest(Item(1), T(6)).ok());
  clock.Set(5'000);
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());  // ET 5, 10: covers @6.
  const Histogram* h = engine.metrics().FindHistogram(
      "seraph_emit_latency_micros", {{"query", "q"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Snapshot().count, 1);
  EXPECT_EQ(h->Snapshot().sum, 4'000);

  // Further evaluations re-cover the same element (the window still
  // contains it) but record nothing new.
  clock.Set(50'000);
  ASSERT_TRUE(engine.AdvanceTo(T(15)).ok());
  EXPECT_EQ(h->Snapshot().count, 1);

  // A fresh element is charged at its own covering instant.
  clock.Set(60'000);
  ASSERT_TRUE(engine.Ingest(Item(2), T(19)).ok());
  clock.Set(61'000);
  ASSERT_TRUE(engine.AdvanceTo(T(20)).ok());
  EXPECT_EQ(h->Snapshot().count, 2);
  EXPECT_EQ(h->Snapshot().sum, 4'000 + 1'000);
}

// The queue-wait stage is (evaluation start − arrival) on the same
// clock, once per element.
TEST(EmitLatencyTest, StageBreakdownRecorded) {
  ManualClock clock(1'000);
  EngineOptions options;
  options.clock = &clock;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(6)).ok());
  clock.Set(3'000);
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());  // ET 5 and 10.

  auto stage = [&](const char* name) {
    return engine.metrics().FindHistogram(
        "seraph_emit_stage_micros", {{"query", "q"}, {"stage", name}});
  };
  ASSERT_NE(stage("queue"), nullptr);
  // One queue-wait sample (one element), exactly 2000 us: ingested at
  // 1000, evaluations all started at clock 3000.
  EXPECT_EQ(stage("queue")->Snapshot().count, 1);
  EXPECT_EQ(stage("queue")->Snapshot().sum, 2'000);
}

// End to end through EventQueue + StreamDriver: the Produce stamp rides
// through the driver into the emit latency.
TEST(EmitLatencyTest, ArrivalStampRidesThroughDriver) {
  ManualClock clock(10'000);
  EventQueue queue;
  queue.SetClock(&clock);
  EngineOptions options;
  options.clock = &clock;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());

  StreamDriver driver(&queue, &engine, {});

  // Each element is stamped at Produce time. The third element pushes
  // the delivered horizon past the ET 5 grid point so the first two get
  // covered (and charged) there.
  ASSERT_TRUE(queue.Produce(Item(1), T(3)).ok());
  clock.Set(20'000);
  ASSERT_TRUE(queue.Produce(Item(2), T(4)).ok());
  clock.Set(25'000);
  ASSERT_TRUE(queue.Produce(Item(3), T(6)).ok());
  clock.Set(30'000);
  auto pumped = driver.PumpAll();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  clock.Set(100'000);
  ASSERT_TRUE(driver.PumpAll().ok());

  const Histogram* h = engine.metrics().FindHistogram(
      "seraph_emit_latency_micros", {{"query", "q"}});
  ASSERT_NE(h, nullptr);
  HistogramSnapshot snapshot = h->Snapshot();
  // The ET 5 evaluation ran during the first pump (clock 30000) and
  // charged the two covered elements: latencies 30000-10000 and
  // 30000-20000. The idle pump at clock 100000 runs nothing, and the
  // element at @6 stays uncharged until a later instant covers it.
  EXPECT_EQ(snapshot.count, 2);
  EXPECT_EQ(snapshot.sum, 20'000 + 10'000);
}

// Watermark and lag gauges track event time deterministically.
TEST(EmitLatencyTest, WatermarkAndLagGauges) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());

  ASSERT_TRUE(engine.Ingest(Item(1), T(10)).ok());
  const Gauge* watermark = engine.metrics().FindGauge(
      "seraph_stream_watermark_millis", {{"stream", "<default>"}});
  const Gauge* lag = engine.metrics().FindGauge("seraph_stream_lag_millis",
                                          {{"stream", "<default>"}});
  const Gauge* lag_max = engine.metrics().FindGauge(
      "seraph_stream_lag_max_millis", {{"stream", "<default>"}});
  ASSERT_NE(watermark, nullptr);
  ASSERT_NE(lag, nullptr);
  ASSERT_NE(lag_max, nullptr);
  EXPECT_EQ(watermark->value(), T(10).millis());
  // Clock not started: the whole watermark is lag.
  EXPECT_EQ(lag->value(), T(10).millis());

  // Advancing the clock to the watermark clears the lag.
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  EXPECT_EQ(lag->value(), 0);
  EXPECT_EQ(engine.metrics().FindGauge("seraph_engine_clock_millis")->value(),
            T(10).millis());
  EXPECT_EQ(lag_max->value(), T(10).millis());  // The running max stays.

  // New elements ahead of the clock re-open the lag; the max ratchets.
  ASSERT_TRUE(engine.Ingest(Item(2), T(25)).ok());
  EXPECT_EQ(watermark->value(), T(25).millis());
  EXPECT_EQ(lag->value(), T(15).millis());
  EXPECT_EQ(lag_max->value(), T(15).millis());
  ASSERT_TRUE(engine.AdvanceTo(T(25)).ok());
  EXPECT_EQ(lag->value(), 0);
  EXPECT_EQ(lag_max->value(), T(15).millis());
}

// The p999 percentile and the native bucket exposition surface through a
// real engine run.
TEST(EmitLatencyTest, PrometheusBucketsExposed) {
  ManualClock clock(1'000);
  EngineOptions options;
  options.clock = &clock;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(CountQuery("q")).ok());
  ASSERT_TRUE(engine.Ingest(Item(1), T(6)).ok());
  clock.Set(9'000);
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());

  const std::string text = engine.metrics().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE seraph_emit_latency_micros histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("seraph_emit_latency_micros_bucket{query=\"q\",le="),
            std::string::npos);
  EXPECT_NE(
      text.find("seraph_emit_latency_micros{query=\"q\",quantile=\"0.999\"}"),
      std::string::npos);
  EXPECT_NE(text.find(
                "seraph_emit_latency_micros_bucket{query=\"q\",le=\"+Inf\"} "
                "1"),
            std::string::npos);
}

// Replayed (restored) elements carry no arrival stamp and are never
// charged: latency is a processing-time concern of the current life.
TEST(EmitLatencyTest, RestoreSkipsCheckpointedElements) {
  ManualClock clock(1'000);
  EngineOptions options;
  options.clock = &clock;

  EngineCheckpoint image;
  {
    ContinuousEngine first(options);
    CollectingSink sink;
    first.AddSink(&sink);
    ASSERT_TRUE(first.RegisterText(CountQuery("q")).ok());
    ASSERT_TRUE(first.Ingest(Item(1), T(6)).ok());
    ASSERT_TRUE(first.AdvanceTo(T(10)).ok());
    image = first.CaptureCheckpoint();
  }

  ContinuousEngine restored(options);
  CollectingSink sink;
  restored.AddSink(&sink);
  ASSERT_TRUE(restored.RegisterText(CountQuery("q")).ok());
  ASSERT_TRUE(restored.RestoreFrom(image).ok());
  clock.Set(500'000);
  ASSERT_TRUE(restored.Ingest(Item(2), T(19)).ok());
  clock.Set(501'000);
  ASSERT_TRUE(restored.AdvanceTo(T(20)).ok());
  const Histogram* h = restored.metrics().FindHistogram(
      "seraph_emit_latency_micros", {{"query", "q"}});
  ASSERT_NE(h, nullptr);
  // Only the post-restore element was charged (1000 us), never the
  // restored prefix.
  EXPECT_EQ(h->Snapshot().count, 1);
  EXPECT_EQ(h->Snapshot().sum, 1'000);
}

}  // namespace
}  // namespace seraph
