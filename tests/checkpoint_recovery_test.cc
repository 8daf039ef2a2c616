// Durability subsystem: codec round trips, atomic checkpoint commits,
// and crash recovery (docs/INTERNALS.md, "Durability & recovery").
//
// The central property asserted here is replay exactness: every victim
// commits one generation after each pump, as the serving runtime does,
// and for a crash at ANY pump — before the generation write, before its
// rename, during recovery itself, or with the newest generation torn /
// bit-flipped / cut at a frame boundary — restoring from the newest valid
// generation into a fresh queue and re-producing the source from the
// restored offset yields sink output bit-identical to the uninterrupted
// run. Concretely: the recovered run emits exactly the oracle's suffix
// starting at the restored evaluation count, so (pre-crash committed
// output) + (post-restore output) == oracle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "fault_doubles.h"
#include "graph/graph_builder.h"
#include "io/json.h"
#include "persist/checkpoint.h"
#include "persist/codec.h"
#include "persist/recovery.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "seraph/stream_driver.h"

namespace seraph {
namespace {

namespace fs = std::filesystem;
using persist::AppendFileHeader;
using persist::AppendFrame;
using persist::CheckpointManager;
using persist::CheckpointOptions;
using persist::Decoder;
using persist::Encoder;
using persist::FrameReader;

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id) {
  return GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build();
}

constexpr char kCountQuery[] = R"(
  REGISTER QUERY q STARTING AT '1970-01-01T00:05'
  { MATCH (n:X) WITHIN PT30M EMIT n.id SNAPSHOT EVERY PT5M })";

constexpr char kConsumer[] = "seraph-engine";

// The victim runs produce in rounds and pump after each round, so a
// "crash" can land between any two pumps.
constexpr int kRounds = 6;
constexpr int kPerRound = 3;
constexpr int kEvents = kRounds * kPerRound;

// Event i of the stream, 0 <= i < kEvents.
Status ProduceEvent(EventQueue* queue, int i) {
  return queue->Produce(Item(i + 1), T(1 + 2 * i));
}

void ProduceRound(EventQueue* queue, int round) {
  for (int i = round * kPerRound; i < (round + 1) * kPerRound; ++i) {
    ASSERT_TRUE(ProduceEvent(queue, i).ok());
  }
}

// The uninterrupted run: same events, same pump cadence, no faults.
TimeVaryingTable Oracle() {
  EventQueue queue;
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  EXPECT_TRUE(engine.RegisterText(kCountQuery).ok());
  StreamDriver driver(&queue, &engine, {});
  for (int r = 0; r < kRounds; ++r) {
    ProduceRound(&queue, r);
    auto pumped = driver.PumpAll();
    EXPECT_TRUE(pumped.ok()) << pumped.status();
  }
  return sink.ResultsFor("q");
}

// `actual` must be exactly `expected[from..]`, windows and rows included.
void ExpectSuffixMatch(const TimeVaryingTable& actual,
                       const TimeVaryingTable& expected, size_t from) {
  ASSERT_LE(from, expected.size());
  ASSERT_EQ(actual.size(), expected.size() - from);
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.entries()[i].window, expected.entries()[from + i].window);
    EXPECT_EQ(io::ToJson(actual.entries()[i].table.Canonicalized()),
              io::ToJson(expected.entries()[from + i].table.Canonicalized()))
        << "recovered result " << i << " diverged from oracle result "
        << (from + i);
  }
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "seraph_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

class CheckpointRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Codec: round trips and corruption detection
// ---------------------------------------------------------------------------

TEST_F(CheckpointRecoveryTest, ValueCodecRoundTripsEveryKind) {
  std::vector<Value> values;
  values.push_back(Value::Null());
  values.push_back(Value::Bool(true));
  values.push_back(Value::Int(-42));
  values.push_back(Value::Float(3.25));
  values.push_back(Value::String("héllo \"wörld\""));
  values.push_back(Value::MakeList({Value::Int(1), Value::String("x")}));
  values.push_back(Value::MakeMap(
      {{"a", Value::Int(1)}, {"b", Value::MakeList({Value::Null()})}}));
  values.push_back(Value::DateTime(T(90)));
  values.push_back(Value::Dur(Duration::FromMinutes(7)));
  values.push_back(Value::Node(NodeId{17}));
  values.push_back(Value::Relationship(RelId{23}));
  PathValue path;
  path.nodes = {NodeId{1}, NodeId{2}};
  path.rels = {RelId{5}};
  values.push_back(Value::Path(std::move(path)));

  for (const Value& value : values) {
    Encoder enc;
    persist::WriteValue(value, &enc);
    Decoder dec(enc.buffer());
    auto back = persist::ReadValue(&dec);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(dec.done());
    // Deterministic encoding: re-encoding the decoded value reproduces
    // the exact bytes (the basis of byte-identical checkpoints).
    Encoder again;
    persist::WriteValue(*back, &again);
    EXPECT_EQ(enc.buffer(), again.buffer());
  }
}

TEST_F(CheckpointRecoveryTest, GraphAndElementCodecRoundTrip) {
  PropertyGraph graph = GraphBuilder()
                            .Node(1, {"Station"}, {{"id", Value::Int(1)}})
                            .Node(5, {"E-Bike", "Vehicle"})
                            .Rel(9, 5, 1, "rentedAt",
                                 {{"user", Value::String("ann")}})
                            .Build();
  Encoder enc;
  persist::WriteGraph(graph, &enc);
  Decoder dec(enc.buffer());
  auto back = persist::ReadGraph(&dec);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back->num_nodes(), 2u);
  EXPECT_EQ(back->num_relationships(), 1u);
  Encoder again;
  persist::WriteGraph(*back, &again);
  EXPECT_EQ(enc.buffer(), again.buffer());

  StreamElement element{std::make_shared<const PropertyGraph>(graph), T(12)};
  Encoder element_enc;
  persist::WriteStreamElement(element, &element_enc);
  Decoder element_dec(element_enc.buffer());
  auto element_back = persist::ReadStreamElement(&element_dec);
  ASSERT_TRUE(element_back.ok()) << element_back.status();
  EXPECT_EQ(element_back->timestamp, T(12));
  EXPECT_EQ(element_back->graph->num_nodes(), 2u);
}

TEST_F(CheckpointRecoveryTest, QueryCheckpointCodecRoundTrip) {
  QueryCheckpoint query;
  query.name = "q";
  query.next_eval = T(25);
  query.done = false;
  query.disabled = true;
  query.consecutive_failures = 3;
  query.has_previous = true;
  Table previous(std::set<std::string>{"n.id"});
  Record row;
  row.Set("n.id", Value::Int(7));
  previous.AppendUnchecked(std::move(row));
  query.previous_result = std::move(previous);
  query.stats.evaluations = 11;
  query.stats.rows_emitted = 4;
  query.stats.eval_failures = 2;
  query.stats.last_error = Status::EvaluationError("boom");

  Encoder enc;
  persist::WriteQueryCheckpoint(query, &enc);
  Decoder dec(enc.buffer());
  auto back = persist::ReadQueryCheckpoint(&dec);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back->name, "q");
  EXPECT_EQ(back->next_eval, T(25));
  EXPECT_TRUE(back->disabled);
  EXPECT_EQ(back->consecutive_failures, 3);
  EXPECT_TRUE(back->has_previous);
  EXPECT_TRUE(back->stats == query.stats);
  Encoder again;
  persist::WriteQueryCheckpoint(*back, &again);
  EXPECT_EQ(enc.buffer(), again.buffer());
}

TEST_F(CheckpointRecoveryTest, DeadLetterEntryCodecRoundTrip) {
  DeadLetterQueue dlq;
  TimeAnnotatedTable result;
  result.window = TimeInterval{T(0), T(5)};
  Table table(std::set<std::string>{"n.id"});
  Record row;
  row.Set("n.id", Value::Int(3));
  table.AppendUnchecked(std::move(row));
  result.table = std::move(table);
  dlq.AddSinkResult("csv", "q", T(5), result,
                    Status::EvaluationError("schema mismatch"), 3);
  dlq.AddElement(kConsumer,
                 StreamElement{std::make_shared<const PropertyGraph>(Item(7)),
                               T(9)},
                 Status::Unavailable("poison"), 2);
  dlq.AddEvaluationFailure("q2", T(10), Status::EvaluationError("div"));

  for (const DeadLetterEntry& entry : dlq.entries()) {
    Encoder enc;
    persist::WriteDeadLetterEntry(entry, &enc);
    Decoder dec(enc.buffer());
    auto back = persist::ReadDeadLetterEntry(&dec);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(back->kind, entry.kind);
    EXPECT_EQ(back->source, entry.source);
    EXPECT_EQ(back->error, entry.error);
    ASSERT_EQ(back->element.has_value(), entry.element.has_value());
    if (entry.element.has_value()) {
      // A stream element keeps only its graph's summary.
      EXPECT_EQ(back->element->nodes, 1);
      EXPECT_EQ(back->element->relationships, 0);
    }
    Encoder again;
    persist::WriteDeadLetterEntry(*back, &again);
    EXPECT_EQ(enc.buffer(), again.buffer());
  }
}

TEST_F(CheckpointRecoveryTest, FrameReaderRejectsCorruption) {
  std::string file;
  AppendFileHeader(&file);
  Encoder enc;
  enc.PutString("payload");
  enc.PutI64(42);
  AppendFrame(enc.buffer(), &file);

  {
    FrameReader reader(file);
    ASSERT_TRUE(reader.ReadHeader().ok());
    auto frame = reader.Next();
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_TRUE(reader.done());
    // Readers know how many frames to expect, so asking past the end is
    // a file cut short.
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Bit flip inside the payload: the frame CRC catches it.
    std::string flipped = file;
    flipped[flipped.size() - 3] ^= 0x40;
    FrameReader reader(flipped);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Torn write: the file ends mid-frame.
    std::string torn = file.substr(0, file.size() - 2);
    FrameReader reader(torn);
    ASSERT_TRUE(reader.ReadHeader().ok());
    EXPECT_EQ(reader.Next().status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Wrong magic: not one of our files at all.
    std::string alien = file;
    alien[0] ^= 0xFF;
    FrameReader reader(alien);
    EXPECT_EQ(reader.ReadHeader().code(), StatusCode::kInvalidArgument);
  }
  {
    // Another format version: intact but unreadable by this build.
    std::string older = file;
    older[4] = 1;
    FrameReader reader(older);
    const Status header = reader.ReadHeader();
    EXPECT_EQ(header.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(header.message().find("unsupported format version 1"),
              std::string::npos)
        << header;
  }
}

// ---------------------------------------------------------------------------
// Engine capture/restore (no disk)
// ---------------------------------------------------------------------------

TEST_F(CheckpointRecoveryTest, CaptureRestoreRoundTripContinuesIdentically) {
  ContinuousEngine original;
  CollectingSink before;
  original.AddSink(&before);
  ASSERT_TRUE(original.RegisterText(kCountQuery).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(original.Ingest(Item(i + 1), T(1 + 2 * i)).ok());
  }
  ASSERT_TRUE(original.AdvanceTo(T(11)).ok());
  EngineCheckpoint checkpoint = original.CaptureCheckpoint();
  EXPECT_EQ(checkpoint.queries.size(), 1u);
  EXPECT_EQ(checkpoint.streams.at("").elements.size(), 6u);

  ContinuousEngine restored;
  ASSERT_TRUE(restored.RegisterText(kCountQuery).ok());
  ASSERT_TRUE(restored.RestoreFrom(checkpoint).ok());
  EXPECT_EQ(restored.evaluations_run(), original.evaluations_run());
  EXPECT_TRUE(*restored.StatsFor("q") == *original.StatsFor("q"));
  EXPECT_EQ(restored.stream().size(), original.stream().size());

  // Restoring into a non-fresh engine is rejected.
  EXPECT_FALSE(restored.RestoreFrom(checkpoint).ok());
  // A checkpoint naming an unregistered query is rejected.
  ContinuousEngine empty;
  EXPECT_FALSE(empty.RestoreFrom(checkpoint).ok());

  // Both engines continue over the same future events and must emit
  // identical output from here on.
  CollectingSink original_after;
  CollectingSink restored_after;
  original.AddSink(&original_after);
  restored.AddSink(&restored_after);
  for (int i = 6; i < 12; ++i) {
    ASSERT_TRUE(original.Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    ASSERT_TRUE(restored.Ingest(Item(i + 1), T(1 + 2 * i)).ok());
  }
  ASSERT_TRUE(original.AdvanceTo(T(25)).ok());
  ASSERT_TRUE(restored.AdvanceTo(T(25)).ok());
  const TimeVaryingTable& a = original_after.ResultsFor("q");
  const TimeVaryingTable& b = restored_after.ResultsFor("q");
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].window, b.entries()[i].window);
    EXPECT_EQ(io::ToJson(a.entries()[i].table.Canonicalized()),
              io::ToJson(b.entries()[i].table.Canonicalized()));
  }
}

// ---------------------------------------------------------------------------
// QueryStats is a view over the registry, across restores
// ---------------------------------------------------------------------------

// Fails while id 3 is in its window, so failures and last_error are
// checkpointed; once the stream goes quiet its empty window is reused.
constexpr char kFlakyQuery[] = R"(
  REGISTER QUERY flaky STARTING AT '1970-01-01T00:05'
  { MATCH (n:X) WITHIN PT4M EMIT 10 / (n.id - 3) AS v SNAPSHOT EVERY PT5M })";

// Every count of `stats` equals its series in `engine`'s registry.
void ExpectStatsAreTheSeries(const QueryStats& stats,
                             const ContinuousEngine& engine,
                             const std::string& query) {
  auto series = [&](const char* name) -> int64_t {
    const Counter* counter =
        engine.metrics().FindCounter(name, {{"query", query}});
    EXPECT_NE(counter, nullptr) << name;
    return counter != nullptr ? counter->value() : 0;
  };
  EXPECT_EQ(stats.evaluations, series("seraph_query_evaluations_total"));
  EXPECT_EQ(stats.reused_results, series("seraph_query_reuse_hits_total"));
  EXPECT_EQ(stats.fresh_executions,
            series("seraph_query_reuse_misses_total"));
  EXPECT_EQ(stats.match_rows, series("seraph_query_match_rows_total"));
  EXPECT_EQ(stats.rows_emitted, series("seraph_query_rows_emitted_total"));
  EXPECT_EQ(stats.snapshots_incremental,
            series("seraph_query_snapshots_incremental_total"));
  EXPECT_EQ(stats.snapshots_rebuilt,
            series("seraph_query_snapshots_rebuilt_total"));
  EXPECT_EQ(stats.window_elements_added,
            series("seraph_window_elements_added_total"));
  EXPECT_EQ(stats.window_elements_evicted,
            series("seraph_window_elements_evicted_total"));
  EXPECT_EQ(stats.eval_failures, series("seraph_query_eval_failures_total"));
}

TEST_F(CheckpointRecoveryTest, RestoredStatsAreTheRegistrySeries) {
  const std::vector<std::string> queries = {"q", "flaky"};
  auto make_engine = [] {
    auto engine = std::make_unique<ContinuousEngine>();
    EXPECT_TRUE(engine->RegisterText(kCountQuery).ok());
    EXPECT_TRUE(engine->RegisterText(kFlakyQuery).ok());
    return engine;
  };
  auto original = make_engine();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(original->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
  }
  ASSERT_TRUE(original->AdvanceTo(T(11)).ok());
  ASSERT_EQ(original->StatsFor("flaky")->eval_failures, 1);
  auto restored = make_engine();
  ASSERT_TRUE(restored->RestoreFrom(original->CaptureCheckpoint()).ok());
  for (const std::string& query : queries) {
    SCOPED_TRACE("one engine, at the cut: " + query);
    const QueryStats stats = *restored->StatsFor(query);
    EXPECT_TRUE(stats == *original->StatsFor(query));
    ExpectStatsAreTheSeries(stats, *restored, query);
  }
  for (ContinuousEngine* engine : {original.get(), restored.get()}) {
    for (int i = 6; i < 12; ++i) {
      ASSERT_TRUE(engine->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    }
    ASSERT_TRUE(engine->AdvanceTo(T(60)).ok());
  }
  EXPECT_GT(restored->StatsFor("flaky")->reused_results, 0);
  for (const std::string& query : queries) {
    SCOPED_TRACE("one engine, after more instants: " + query);
    const QueryStats stats = *restored->StatsFor(query);
    EXPECT_EQ(stats.evaluations, original->StatsFor(query)->evaluations);
    ExpectStatsAreTheSeries(stats, *restored, query);
  }
}

// A restored stream's watermark is the newest element it ever held, so
// /metrics reads the same before and after a restart, and the stream's
// lag starts from it instead of from 0.
TEST_F(CheckpointRecoveryTest, RestoredWatermarkIsTheCheckpointedMax) {
  ContinuousEngine original;
  ASSERT_TRUE(original.RegisterText(kCountQuery).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(original.Ingest(Item(i + 1), T(1 + 2 * i)).ok());
  }
  ASSERT_TRUE(original.AdvanceTo(T(5)).ok());
  ContinuousEngine restored;
  ASSERT_TRUE(restored.RegisterText(kCountQuery).ok());
  ASSERT_TRUE(restored.RestoreFrom(original.CaptureCheckpoint()).ok());
  auto gauge = [](const ContinuousEngine& engine, const std::string& name,
                  const MetricLabels& labels) -> int64_t {
    const Gauge* found = engine.metrics().FindGauge(name, labels);
    return found != nullptr ? found->value() : -1;
  };
  const MetricLabels stream{{"stream", "<default>"}};
  EXPECT_EQ(gauge(restored, "seraph_stream_watermark_millis", stream),
            T(7).millis());
  EXPECT_EQ(gauge(restored, "seraph_stream_lag_millis", stream),
            T(2).millis());
  EXPECT_EQ(gauge(restored, "seraph_engine_clock_millis", {}),
            T(5).millis());
  for (const char* name : {"seraph_stream_watermark_millis",
                           "seraph_stream_lag_millis"}) {
    EXPECT_EQ(gauge(restored, name, stream), gauge(original, name, stream))
        << name;
  }
  // The next ingest moves it on from there.
  ASSERT_TRUE(restored.Ingest(Item(5), T(9)).ok());
  EXPECT_EQ(gauge(restored, "seraph_stream_watermark_millis", stream),
            T(9).millis());
}

// ---------------------------------------------------------------------------
// Checkpoint manager: commits, cadence, GC, failure accounting
// ---------------------------------------------------------------------------

// Runs a checkpointed victim for `pumps` rounds, committing one
// generation after each pump. When `arm_point` is non-null, the fault
// point is armed at probability 1 right before the final round, so that
// round's commit dies — simulating a crash mid-commit. Returns the last
// committed generation via `last_seq`.
void RunVictim(const std::string& dir, int pumps, const char* arm_point,
               uint64_t* last_seq) {
  EventQueue queue;
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindQueue(kConsumer, &queue);
  StreamDriver driver(&queue, &engine, {});
  for (int r = 0; r < pumps; ++r) {
    const bool armed = r == pumps - 1 && arm_point != nullptr;
    if (armed) FaultInjector::Global().ArmProbability(arm_point, 1.0);
    ProduceRound(&queue, r);
    auto pumped = driver.PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    const Status committed = manager.Checkpoint(&engine);
    EXPECT_EQ(committed.ok(), !armed) << committed;
  }
  if (arm_point != nullptr) {
    EXPECT_EQ(manager.checkpoint_failures(), 1)
        << arm_point << " never fired";
    EXPECT_EQ(engine.metrics()
                  .FindCounter("seraph_checkpoint_failures_total")
                  ->value(),
              1);
  } else if (pumps > 0) {
    EXPECT_EQ(manager.checkpoints_written(), pumps);
    EXPECT_EQ(
        engine.metrics().FindCounter("seraph_checkpoint_total")->value(),
        pumps);
    EXPECT_EQ(engine.metrics()
                  .FindHistogram("seraph_checkpoint_duration_micros")
                  ->count(),
              pumps);
  }
  if (last_seq != nullptr) *last_seq = manager.last_seq();
  // The victim "crashes" here: queue, engine, driver, and manager are
  // abandoned with whatever the directory holds.
}

// Recovers from `dir` into a fresh engine and a fresh queue, re-produces
// the stream from the restored offset with the victim's cadence (a pump
// after each round), and asserts the output is exactly the oracle suffix.
void RecoverAndCheck(const std::string& dir,
                     const TimeVaryingTable& expected) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  EventQueue queue;
  size_t restored_evals = 0;
  auto report = persist::RecoverAll(dir, &engine, &queue, kConsumer, nullptr);
  if (report.ok()) {
    restored_evals = static_cast<size_t>(engine.StatsFor("q")->evaluations);
    // Generations are cut between pumps, so the committed offset and the
    // checkpointed stream cover the same prefix: whole rounds.
    ASSERT_EQ(queue.size(), engine.stream().size());
    ASSERT_EQ(queue.size() % kPerRound, 0u);
  } else {
    // No generation ever committed: recovery degrades to a cold start.
    ASSERT_EQ(report.status().code(), StatusCode::kNotFound)
        << report.status();
    queue.Subscribe(kConsumer);
  }
  StreamDriver driver(&queue, &engine, {});
  for (int i = static_cast<int>(queue.size()); i < kEvents; ++i) {
    ASSERT_TRUE(ProduceEvent(&queue, i).ok()) << i;
    if ((i + 1) % kPerRound != 0) continue;
    auto pumped = driver.PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
  }
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  ExpectSuffixMatch(sink.ResultsFor("q"), expected, restored_evals);
}

TEST_F(CheckpointRecoveryTest, GarbageCollectionKeepsConfiguredGenerations) {
  const std::string dir = FreshDir("gc");
  // A stray tmp a crashed writer of an older build left behind.
  fs::create_directories(dir);
  std::ofstream(dir + "/queries-1.seg.tmp") << "torn";
  uint64_t last_seq = 0;
  RunVictim(dir, kRounds, nullptr, &last_seq);
  ASSERT_EQ(last_seq, static_cast<uint64_t>(kRounds));
  int manifests = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_FALSE(name.ends_with(".tmp")) << name << " leaked";
    // A generation is one file; nothing writes segments any more.
    EXPECT_FALSE(name.ends_with(".seg")) << name;
    uint64_t seq = 0;
    if (persist::ParseManifestFileName(name, &seq)) {
      ++manifests;
      EXPECT_GE(seq, last_seq - 1);  // kKeptGenerations = 2.
    }
  }
  EXPECT_EQ(manifests, 2);
  // Both retained generations load cleanly.
  EXPECT_TRUE(persist::LoadCheckpoint(dir, last_seq).ok());
  EXPECT_TRUE(persist::LoadCheckpoint(dir, last_seq - 1).ok());
  EXPECT_FALSE(persist::LoadCheckpoint(dir, last_seq - 2).ok());
}

// ---------------------------------------------------------------------------
// The crash-recovery equivalence property
// ---------------------------------------------------------------------------

// Crash at every fault point, at every pump boundary: after recovery the
// output continues bit-identically. "none" crashes with all checkpoints
// committed; the checkpoint.* points kill the final pump's commit,
// forcing the fallback to the previous generation (or a cold start when
// the very first pump's commit dies).
TEST_F(CheckpointRecoveryTest, CrashRecoveryEquivalenceAtEveryFaultPoint) {
  const TimeVaryingTable expected = Oracle();
  // The CI crash-recovery matrix sets SERAPH_CRASH_POINT to pin one
  // fault point per job leg ("none" = crash with no injected checkpoint
  // fault); locally, unset, every point runs.
  const char* only_point = std::getenv("SERAPH_CRASH_POINT");
  int case_id = 0;
  for (const char* point :
       {static_cast<const char*>(nullptr), "checkpoint.write",
        "checkpoint.rename"}) {
    if (only_point != nullptr &&
        std::string(only_point) != (point ? point : "none")) {
      continue;
    }
    for (int crash_pump = 1; crash_pump <= kRounds; ++crash_pump) {
      SCOPED_TRACE(std::string("point=") + (point ? point : "none") +
                   " crash_pump=" + std::to_string(crash_pump));
      FaultInjector::Global().Reset();
      const std::string dir =
          FreshDir("equiv_" + std::to_string(case_id++));
      RunVictim(dir, crash_pump, point, nullptr);
      FaultInjector::Global().Reset();
      RecoverAndCheck(dir, expected);
    }
  }
}

TEST_F(CheckpointRecoveryTest, RecoveryReadFaultIsTransientAndRetriable) {
  const TimeVaryingTable expected = Oracle();
  const std::string dir = FreshDir("recovery_read");
  RunVictim(dir, 3, nullptr, nullptr);

  // The first recovery attempt dies at the recovery.read fault point —
  // the process killed mid-recovery. The retry (a fresh engine, as after
  // a real restart) succeeds and continues exactly.
  FaultInjector::Global().ArmNext("recovery.read", 1);
  {
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
    EventQueue queue;
    auto report =
        persist::RecoverAll(dir, &engine, &queue, kConsumer, nullptr);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsTransient()) << report.status();
  }
  RecoverAndCheck(dir, expected);
}

// Corruption of the newest generation (bit rot, a torn file, a file cut
// at a frame boundary) falls back to the previous generation — and the
// run still continues bit-identically from there.
TEST_F(CheckpointRecoveryTest, CorruptedNewestGenerationFallsBack) {
  const TimeVaryingTable expected = Oracle();
  struct Corruption {
    const char* name;
    void (*apply)(const std::string& path);
  };
  const Corruption corruptions[] = {
      {"bitflip",
       [](const std::string& path) {
         const auto middle =
             static_cast<std::streamoff>(fs::file_size(path) / 2);
         std::fstream file(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
         ASSERT_TRUE(file.is_open());
         char byte = 0;
         file.seekg(middle);
         file.get(byte);
         byte = static_cast<char>(byte ^ 0x20);
         file.seekp(middle);
         file.put(byte);
       }},
      {"torn_manifest",
       [](const std::string& path) {
         const auto size = fs::file_size(path);
         ASSERT_GT(size, 4u);
         fs::resize_file(path, size / 2);
       }},
      // Drops the last whole frame (the consumer offset): every frame
      // left verifies, so only the meta frame's counts catch the cut.
      {"truncated_at_frame_boundary",
       [](const std::string& path) {
         std::ifstream in(path, std::ios::binary);
         const std::string bytes((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
         FrameReader reader(bytes);
         ASSERT_TRUE(reader.ReadHeader().ok());
         size_t last_frame = 0;
         while (!reader.done()) {
           auto payload = reader.Next();
           ASSERT_TRUE(payload.ok()) << payload.status();
           last_frame = static_cast<size_t>(payload->data() - bytes.data()) - 8;
         }
         ASSERT_GT(last_frame, 8u);
         fs::resize_file(path, last_frame);
       }},
  };
  int case_id = 0;
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.name);
    const std::string dir =
        FreshDir("corrupt_" + std::to_string(case_id++));
    uint64_t last_seq = 0;
    RunVictim(dir, 3, nullptr, &last_seq);
    ASSERT_GT(last_seq, 1u);
    corruption.apply(dir + "/" + persist::ManifestFileName(last_seq));

    // The damaged generation is skipped; the fallback loads.
    auto latest = persist::LoadLatestCheckpoint(dir);
    ASSERT_TRUE(latest.ok()) << latest.status();
    EXPECT_LT(latest->seq, last_seq);

    // Inspection reports the damage instead of hiding it.
    auto summaries = persist::InspectCheckpoints(dir);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    ASSERT_GE(summaries->size(), 2u);
    EXPECT_EQ(summaries->front().seq, last_seq);
    EXPECT_FALSE(summaries->front().valid);
    EXPECT_FALSE(summaries->front().error.empty());
    EXPECT_TRUE((*summaries)[1].valid);

    RecoverAndCheck(dir, expected);
  }
}

// A crash at checkpoint.rename leaves the whole generation in
// MANIFEST-<seq>.tmp. Recovery never reads a tmp: it restores the last
// committed generation, and the restarted writer's next commit leaves no
// tmp behind.
TEST_F(CheckpointRecoveryTest, CrashAtRenameLeavesATmpThatRecoveryIgnores) {
  const std::string dir = FreshDir("rename_tmp");
  uint64_t last_seq = 0;
  RunVictim(dir, 3, "checkpoint.rename", &last_seq);
  FaultInjector::Global().Reset();
  ASSERT_EQ(last_seq, 2u);
  const std::string uncommitted = persist::ManifestFileName(last_seq + 1);
  const std::string tmp = dir + "/" + uncommitted + ".tmp";
  ASSERT_TRUE(fs::exists(tmp));
  {
    // The tmp is complete: under its final name it would load.
    const std::string probe = FreshDir("rename_tmp_probe");
    fs::create_directories(probe);
    fs::copy_file(tmp, probe + "/" + uncommitted);
    EXPECT_TRUE(persist::LoadCheckpoint(probe, last_seq + 1).ok());
  }
  auto summaries = persist::InspectCheckpoints(dir);
  ASSERT_TRUE(summaries.ok()) << summaries.status();
  ASSERT_FALSE(summaries->empty());
  EXPECT_EQ(summaries->front().seq, last_seq);

  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  EventQueue queue;
  auto report = persist::RecoverAll(dir, &engine, &queue, kConsumer, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->seq, last_seq);
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindQueue(kConsumer, &queue);
  const Status committed = manager.Checkpoint(&engine);
  ASSERT_TRUE(committed.ok()) << committed;
  EXPECT_EQ(manager.last_seq(), last_seq + 1);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().filename().string().ends_with(".tmp"))
        << entry.path() << " leaked";
  }
  EXPECT_TRUE(persist::LoadCheckpoint(dir, last_seq + 1).ok());
}

// ---------------------------------------------------------------------------
// Crash recovery after retention trims (docs/INTERNALS.md, "Stream
// retention")
// ---------------------------------------------------------------------------

// A 10-minute window over a data lane that falls silent for longer than
// the window while a heartbeat lane, feeding a stream no query reads,
// keeps the clock moving. Each round produces to one lane and pumps only
// that lane's driver (a driver advances the clock to its own delivered
// horizon). Generations cut inside the silence hold an empty data suffix
// and an empty heartbeat suffix.
constexpr char kShortWindowQuery[] = R"(
  REGISTER QUERY q STARTING AT '1970-01-01T00:05'
  { MATCH (n:X) WITHIN PT10M EMIT n.id SNAPSHOT EVERY PT5M })";
constexpr char kDataConsumer[] = "data";
constexpr char kTickConsumer[] = "ticks";

struct SilenceRound {
  bool ticks;
  std::vector<int64_t> minutes;
};

const std::vector<SilenceRound>& SilenceRounds() {
  static const auto* rounds = new std::vector<SilenceRound>{
      {false, {1, 2, 3, 4}}, {false, {6, 7, 9}}, {false, {11, 13}},
      {true, {20}},          {true, {35}},        {true, {50}},
      {false, {52, 53, 56}}, {false, {58, 61, 63}}};
  return *rounds;
}

struct Lanes {
  EventQueue data;
  EventQueue ticks;
};

StreamDriver::Options LaneOptions(bool ticks) {
  StreamDriver::Options options;
  options.consumer = ticks ? kTickConsumer : kDataConsumer;
  options.target_stream = ticks ? "ticks" : "";
  return options;
}

// Produces rounds [from, to) and pumps the round's lane after each; with
// `manager` set, commits one generation of `engine` after each pump.
void PumpSilenceRounds(Lanes* lanes, StreamDriver* data, StreamDriver* ticks,
                       size_t from, size_t to,
                       CheckpointManager* manager = nullptr,
                       ContinuousEngine* engine = nullptr) {
  for (size_t r = from; r < to; ++r) {
    const SilenceRound& round = SilenceRounds()[r];
    for (int64_t minute : round.minutes) {
      EventQueue& lane = round.ticks ? lanes->ticks : lanes->data;
      ASSERT_TRUE(lane.Produce(Item(minute), T(minute)).ok());
    }
    auto pumped = (round.ticks ? ticks : data)->PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    // An armed checkpoint fault fails the commit; the manager counts it.
    if (manager != nullptr) (void)manager->Checkpoint(engine);
  }
}

TimeVaryingTable SilenceOracle() {
  Lanes lanes;
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  EXPECT_TRUE(engine.RegisterText(kShortWindowQuery).ok());
  StreamDriver data(&lanes.data, &engine, LaneOptions(false));
  StreamDriver ticks(&lanes.ticks, &engine, LaneOptions(true));
  PumpSilenceRounds(&lanes, &data, &ticks, 0, SilenceRounds().size());
  return sink.ResultsFor("q");
}

// Runs the checkpointed victim for `rounds` rounds, one commit per pump;
// with `arm_point` set, the last round's commit dies there.
void RunSilenceVictim(const std::string& dir, size_t rounds,
                      const char* arm_point, uint64_t* last_seq) {
  Lanes lanes;
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kShortWindowQuery).ok());
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindQueue(kDataConsumer, &lanes.data);
  manager.BindQueue(kTickConsumer, &lanes.ticks);
  StreamDriver data(&lanes.data, &engine, LaneOptions(false));
  StreamDriver ticks(&lanes.ticks, &engine, LaneOptions(true));
  PumpSilenceRounds(&lanes, &data, &ticks, 0, rounds - 1, &manager, &engine);
  if (arm_point != nullptr) {
    FaultInjector::Global().ArmProbability(arm_point, 1.0);
  }
  PumpSilenceRounds(&lanes, &data, &ticks, rounds - 1, rounds, &manager,
                    &engine);
  FaultInjector::Global().Reset();
  EXPECT_EQ(manager.checkpoint_failures(), arm_point != nullptr ? 1 : 0);
  *last_seq = manager.last_seq();
}

// Recovers into a fresh engine and fresh lanes (the manual composition
// RecoverAll performs for one queue), re-produces what each lane's
// restored offset does not cover, pumps both lanes and the remaining
// rounds, and checks the output against the oracle suffix.
void RecoverSilenceRun(const std::string& dir, size_t rounds_done,
                       const TimeVaryingTable& expected,
                       bool* restored_empty_suffix) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kShortWindowQuery).ok());
  Lanes lanes;
  size_t restored_evals = 0;
  auto image = persist::LoadLatestCheckpoint(dir);
  if (image.ok()) {
    const StreamCheckpoint& data = image->engine.streams.at("");
    if (data.elements.empty() && data.base_offset > 0) {
      *restored_empty_suffix = true;
    }
    restored_evals =
        static_cast<size_t>(image->engine.queries.at(0).stats.evaluations);
    ASSERT_TRUE(engine.RestoreFrom(image->engine).ok());
    ASSERT_TRUE(
        persist::RestoreConsumer(*image, kDataConsumer, &lanes.data).ok());
    ASSERT_TRUE(
        persist::RestoreConsumer(*image, kTickConsumer, &lanes.ticks).ok());
  } else {
    ASSERT_EQ(image.status().code(), StatusCode::kNotFound) << image.status();
    lanes.data.Subscribe(kDataConsumer);
    lanes.ticks.Subscribe(kTickConsumer);
  }
  // Each lane resumes its source at its own offset: the k-th element a
  // lane was ever sent sits at offset k.
  size_t sent[2] = {0, 0};
  for (size_t r = 0; r < rounds_done; ++r) {
    const SilenceRound& round = SilenceRounds()[r];
    EventQueue& lane = round.ticks ? lanes.ticks : lanes.data;
    for (int64_t minute : round.minutes) {
      if (sent[round.ticks]++ < lane.size()) continue;
      ASSERT_TRUE(lane.Produce(Item(minute), T(minute)).ok());
    }
  }
  StreamDriver data(&lanes.data, &engine, LaneOptions(false));
  StreamDriver ticks(&lanes.ticks, &engine, LaneOptions(true));
  // What the checkpoint missed sits in the crashed round's lane; an idle
  // lane's pump delivers nothing and leaves the clock alone.
  ASSERT_TRUE(data.PumpAll().ok());
  ASSERT_TRUE(ticks.PumpAll().ok());
  PumpSilenceRounds(&lanes, &data, &ticks, rounds_done,
                    SilenceRounds().size());
  EXPECT_EQ(engine.stream().size(), lanes.data.size());
  EXPECT_EQ(engine.stream("ticks").size(), lanes.ticks.size());
  ExpectSuffixMatch(sink.ResultsFor("q"), expected, restored_evals);
}

// Crash at every fault point after every round of a run whose streams were
// trimmed before the crash — including cuts inside the silence, where the
// restored suffix is empty. "drop_newest" removes the newest manifest of
// a clean run, so recovery falls back one pump. "recovery.read" kills the
// first recovery of a clean run before it reads a file, then retries it.
TEST_F(CheckpointRecoveryTest, CrashRecoveryEquivalenceAfterRetentionTrims) {
  const TimeVaryingTable expected = SilenceOracle();
  ASSERT_GT(expected.size(), 0u);
  const char* only_point = std::getenv("SERAPH_CRASH_POINT");
  bool restored_empty_suffix = false;
  int case_id = 0;
  for (const std::string point : {"none", "drop_newest", "checkpoint.write",
                                   "checkpoint.rename", "recovery.read"}) {
    const std::string leg = point == "drop_newest" ? "none" : point;
    if (only_point != nullptr && leg != only_point) continue;
    for (size_t crash_round = 1; crash_round <= SilenceRounds().size();
         ++crash_round) {
      SCOPED_TRACE("point=" + point +
                   " crash_round=" + std::to_string(crash_round));
      FaultInjector::Global().Reset();
      const std::string dir =
          FreshDir("trim_equiv_" + std::to_string(case_id++));
      const bool writer_fault = point.starts_with("checkpoint.");
      uint64_t last_seq = 0;
      RunSilenceVictim(dir, crash_round,
                       writer_fault ? point.c_str() : nullptr, &last_seq);
      if (point == "drop_newest") {
        ASSERT_EQ(last_seq, crash_round);
        ASSERT_TRUE(
            fs::remove(dir + "/" + persist::ManifestFileName(last_seq)));
      }
      if (point == "recovery.read") {
        FaultInjector::Global().ArmNext("recovery.read", 1);
        auto killed = persist::LoadLatestCheckpoint(dir);
        ASSERT_FALSE(killed.ok());
        EXPECT_TRUE(killed.status().IsTransient()) << killed.status();
        FaultInjector::Global().Reset();
      }
      RecoverSilenceRun(dir, crash_round, expected, &restored_empty_suffix);
    }
  }
  EXPECT_TRUE(restored_empty_suffix);
}

// ---------------------------------------------------------------------------
// Driver resume under chaos (satellite): exactly-once with flaky
// transport and flaky sinks on both sides of the crash
// ---------------------------------------------------------------------------

TEST_F(CheckpointRecoveryTest, DriverResumeExactlyOnceUnderChaos) {
  uint64_t seed = 42;
  if (const char* env = std::getenv("SERAPH_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const TimeVaryingTable expected = Oracle();
  const std::string dir = FreshDir("chaos_" + std::to_string(seed));

  FaultInjector& fi = FaultInjector::Global();
  fi.Seed(seed);
  fi.ArmProbability("driver.deliver", 0.2);

  CollectingSink collected_before;
  size_t accepted_before = 0;
  constexpr int kCrashPump = 3;
  {
    FlakyQueue queue(/*fail_every=*/3);
    ContinuousEngine engine;
    FlakySink flaky(&collected_before, /*fail_every=*/3);
    SinkPolicy sink_policy;
    sink_policy.retry.max_attempts = 4;
    engine.AddSink(&flaky, "chaos-sink", sink_policy);
    ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
    CheckpointOptions checkpoint_options;
    checkpoint_options.dir = dir;
    checkpoint_options.fsync = false;
    CheckpointManager manager(checkpoint_options);
    manager.BindQueue(kConsumer, &queue);
    StreamDriver::Options driver_options;
    driver_options.poll_batch = 4;
    driver_options.delivery_retry.max_attempts = 3;
    driver_options.element_error_budget = 1000;
    StreamDriver driver(&queue, &engine, driver_options);
    for (int r = 0; r < kCrashPump; ++r) {
      ProduceRound(&queue, r);
      bool pumped_ok = false;
      for (int i = 0; i < 10'000 && !pumped_ok; ++i) {
        auto pumped = driver.PumpAll();
        if (pumped.ok()) {
          pumped_ok = true;
        } else {
          EXPECT_TRUE(pumped.status().IsTransient()) << pumped.status();
        }
      }
      ASSERT_TRUE(pumped_ok) << "chaos pump did not converge";
      ASSERT_TRUE(manager.Checkpoint(&engine).ok());
    }
    accepted_before = collected_before.ResultsFor("q").size();
    // Crash.
  }

  // The restart faces the same chaos (different draw) and must still
  // produce exactly the oracle suffix.
  fi.Reset();
  fi.Seed(seed + 1);
  fi.ArmProbability("driver.deliver", 0.2);

  ContinuousEngine engine;
  CollectingSink collected_after;
  FlakySink flaky(&collected_after, /*fail_every=*/3);
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 4;
  engine.AddSink(&flaky, "chaos-sink", sink_policy);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  FlakyQueue queue(/*fail_every=*/3);
  auto report =
      persist::RecoverAll(dir, &engine, &queue, kConsumer, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  // The last pump's commit covers every round before the crash.
  ASSERT_EQ(queue.size(), static_cast<size_t>(kCrashPump * kPerRound));
  const size_t restored_evals =
      static_cast<size_t>(engine.StatsFor("q")->evaluations);

  StreamDriver::Options driver_options;
  driver_options.poll_batch = 4;
  driver_options.delivery_retry.max_attempts = 3;
  driver_options.element_error_budget = 1000;
  StreamDriver driver(&queue, &engine, driver_options);
  for (int r = kCrashPump; r < kRounds; ++r) {
    ProduceRound(&queue, r);
    bool pumped_ok = false;
    for (int i = 0; i < 10'000 && !pumped_ok; ++i) {
      auto pumped = driver.PumpAll();
      if (pumped.ok()) pumped_ok = true;
    }
    ASSERT_TRUE(pumped_ok) << "post-restore pump did not converge";
  }

  // Exactly once into the engine: the restored prefix plus the
  // re-produced suffix covers every element once.
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  // The pre-crash run emitted at least the checkpointed prefix; recovery
  // resumes exactly at the restored evaluation count, so the committed
  // prefix plus the recovered output is the oracle with no gap and no
  // duplicate.
  ASSERT_GE(accepted_before, restored_evals);
  ExpectSuffixMatch(collected_after.ResultsFor("q"), expected,
                    restored_evals);
  const TimeVaryingTable& prefix = collected_before.ResultsFor("q");
  for (size_t i = 0; i < restored_evals; ++i) {
    EXPECT_EQ(io::ToJson(prefix.entries()[i].table.Canonicalized()),
              io::ToJson(expected.entries()[i].table.Canonicalized()));
  }
}

// Rewrites the header version of the generation files in `dir` (every
// one, or only MANIFEST-<only_seq>), as a build with another
// kFormatVersion would have written them. The header sits outside every
// frame CRC, so the files stay otherwise intact.
void StampManifestVersion(const std::string& dir, uint32_t version,
                          uint64_t only_seq = 0) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (!persist::ParseManifestFileName(entry.path().filename().string(),
                                        &seq) ||
        (only_seq != 0 && seq != only_seq)) {
      continue;
    }
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    Encoder stamp;
    stamp.PutU32(version);
    file.seekp(4);
    file.write(stamp.buffer().data(),
               static_cast<std::streamsize>(stamp.buffer().size()));
  }
}

// A generation written in another format version is not damage: recovery
// fails loudly instead of falling back past it or reporting kNotFound,
// which callers treat as a cold start that re-emits every result the
// earlier run already delivered.
TEST_F(CheckpointRecoveryTest, OtherFormatVersionFailsRecoveryLoudly) {
  for (uint32_t old_version : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("every generation from an older build, version " +
                 std::to_string(old_version));
    const std::string dir =
        FreshDir("old_format_v" + std::to_string(old_version));
    RunVictim(dir, 3, nullptr, nullptr);
    StampManifestVersion(dir, old_version);
    auto latest = persist::LoadLatestCheckpoint(dir);
    ASSERT_EQ(latest.status().code(), StatusCode::kFailedPrecondition)
        << latest.status();
    EXPECT_NE(latest.status().message().find("unsupported format version " +
                                             std::to_string(old_version)),
              std::string::npos)
        << latest.status();
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
    EventQueue queue;
    auto report =
        persist::RecoverAll(dir, &engine, &queue, kConsumer, nullptr);
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
        << report.status();
    EXPECT_EQ(engine.stream().size(), 0u);
  }
  {
    SCOPED_TRACE("newest generation from a newer build");
    const std::string dir = FreshDir("newer_format");
    uint64_t last_seq = 0;
    RunVictim(dir, 3, nullptr, &last_seq);
    ASSERT_GT(last_seq, 1u);
    StampManifestVersion(dir, persist::kFormatVersion + 1, last_seq);
    // The older generation still loads on its own, but restoring it would
    // silently drop the newer generation's progress.
    EXPECT_TRUE(persist::LoadCheckpoint(dir, last_seq - 1).ok());
    auto latest = persist::LoadLatestCheckpoint(dir);
    EXPECT_EQ(latest.status().code(), StatusCode::kFailedPrecondition)
        << latest.status();
  }
}

// ---------------------------------------------------------------------------
// Dead letters survive the crash (checkpointed and JSON round trip)
// ---------------------------------------------------------------------------

TEST_F(CheckpointRecoveryTest, DeadLettersAreCheckpointedAndRestored) {
  const std::string dir = FreshDir("dlq");
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  DeadLetterQueue dlq;
  dlq.AddEvaluationFailure("q", T(5), Status::EvaluationError("lost eval"));
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindDeadLetter(&dlq);
  ASSERT_TRUE(engine.Ingest(Item(1), T(1)).ok());
  ASSERT_TRUE(engine.AdvanceTo(T(5)).ok());
  ASSERT_TRUE(manager.Checkpoint(&engine).ok());

  auto image = persist::LoadLatestCheckpoint(dir);
  ASSERT_TRUE(image.ok()) << image.status();
  ASSERT_EQ(image->dead_letters.size(), 1u);
  DeadLetterQueue restored;
  restored.Restore(image->dead_letters, image->dead_letter_totals);
  EXPECT_EQ(restored.evaluation_failures(), 1);
  EXPECT_EQ(restored.entries()[0].query, "q");
  EXPECT_EQ(restored.entries()[0].error,
            Status::EvaluationError("lost eval"));
}

// Under a sustained overload the queue keeps only the newest letters;
// the per-kind totals still count every one, across a checkpoint too.
TEST_F(CheckpointRecoveryTest, DeadLetterRingKeepsTheNewestAndExactTotals) {
  const int64_t capacity = static_cast<int64_t>(kDeadLetterCapacity);
  const int64_t letters = 3 * capacity;
  TimeAnnotatedTable result;
  result.window = TimeInterval{T(0), T(5)};
  const StreamElement element{std::make_shared<const PropertyGraph>(Item(7)),
                              T(9)};
  MetricsRegistry registry;
  Gauge* depth = registry.GaugeFor("seraph_dead_letter_depth");
  DeadLetterQueue dlq;
  dlq.BindDepthGauge(depth);
  // Letter i is stamped at i ms; its kind cycles sink result, element,
  // evaluation (the Kind enum's order).
  for (int64_t i = 0; i < letters; ++i) {
    const Timestamp at = Timestamp::FromMillis(i);
    switch (i % 3) {
      case 0:
        dlq.AddSinkResult("csv", "q", at, result, Status::Unavailable("down"),
                          3);
        break;
      case 1:
        dlq.AddElement(kConsumer, StreamElement{element.graph, at},
                       Status::Unavailable("shed"), 0);
        break;
      default:
        dlq.AddEvaluationFailure("q", at, Status::EvaluationError("div"));
        break;
    }
  }
  auto expect_ring = [&](const DeadLetterQueue& queue) {
    ASSERT_EQ(queue.size(), kDeadLetterCapacity);
    EXPECT_EQ(queue.sink_results(), capacity);
    EXPECT_EQ(queue.elements(), capacity);
    EXPECT_EQ(queue.evaluation_failures(), capacity);
    EXPECT_EQ(queue.total(), letters);
    for (int64_t i = 0; i < capacity; ++i) {
      const DeadLetterEntry& entry = queue.entries()[static_cast<size_t>(i)];
      const int64_t n = letters - capacity + i;
      ASSERT_EQ(entry.timestamp, Timestamp::FromMillis(n)) << i;
      ASSERT_EQ(static_cast<int64_t>(entry.kind), n % 3) << i;
    }
  };
  expect_ring(dlq);
  EXPECT_EQ(depth->value(), capacity);

  const std::string dir = FreshDir("dlq_ring");
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindDeadLetter(&dlq);
  ASSERT_TRUE(manager.Checkpoint(&engine).ok());
  ContinuousEngine restored_engine;
  ASSERT_TRUE(restored_engine.RegisterText(kCountQuery).ok());
  EventQueue queue;
  Gauge* restored_depth = restored_engine.metrics().GaugeFor(
      "seraph_dead_letter_depth");
  DeadLetterQueue restored;
  restored.BindDepthGauge(restored_depth);
  auto report =
      persist::RecoverAll(dir, &restored_engine, &queue, kConsumer, &restored);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->dead_letters, kDeadLetterCapacity);
  expect_ring(restored);
  EXPECT_EQ(restored_depth->value(), capacity);
}

TEST_F(CheckpointRecoveryTest, DeadLetterJsonExportCoversEveryKind) {
  DeadLetterQueue dlq;
  TimeAnnotatedTable result;
  result.window = TimeInterval{T(0), T(5)};
  Table table(std::set<std::string>{"n.id", "who"});
  Record row;
  row.Set("n.id", Value::Int(3));
  row.Set("who", Value::String("ann \"the\" bold"));
  table.AppendUnchecked(std::move(row));
  Record row2;
  row2.Set("n.id", Value::Node(NodeId{4}));
  row2.Set("who", Value::Float(2.5));
  table.AppendUnchecked(std::move(row2));
  result.table = std::move(table);
  dlq.AddSinkResult("csv", "q", T(5), result,
                    Status::EvaluationError("schema mismatch"), 3);
  dlq.AddElement(kConsumer,
                 StreamElement{std::make_shared<const PropertyGraph>(
                                   GraphBuilder()
                                       .Node(1, {"X"})
                                       .Node(2, {"Y"})
                                       .Rel(1, 1, 2, "liked")
                                       .Build()),
                               T(9)},
                 Status::Unavailable("poison"), 2);
  dlq.AddEvaluationFailure("q2", T(10), Status::EvaluationError("div"));

  // One line per entry: a sink result with its window and canonical
  // rows, an element with its graph summary, an evaluation with neither.
  std::ostringstream out;
  ASSERT_TRUE(dlq.WriteJsonLines(&out).ok());
  EXPECT_EQ(out.str(),
            R"({"kind":"sink_result","source":"csv","query":"q",)"
            R"("at":"1970-01-01T00:05",)"
            R"("error":"evaluation_error: schema mismatch","attempts":3,)"
            R"("win_start":"1970-01-01T00:00","win_end":"1970-01-01T00:05",)"
            R"("rows":[{"n.id":{"$node":4},"who":2.5},)"
            R"({"n.id":3,"who":"ann \"the\" bold"}]})"
            "\n"
            R"({"kind":"stream_element","source":"seraph-engine",)"
            R"("at":"1970-01-01T00:09","error":"unavailable: poison",)"
            R"("attempts":2,"element":{"nodes":2,"relationships":1}})"
            "\n"
            R"({"kind":"evaluation","source":"engine","query":"q2",)"
            R"("at":"1970-01-01T00:10","error":"evaluation_error: div",)"
            R"("attempts":1})"
            "\n");
}

}  // namespace
}  // namespace seraph
