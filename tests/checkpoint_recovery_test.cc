// Durability subsystem: codec round trips, atomic checkpoint commits,
// and crash recovery (docs/INTERNALS.md, "Durability & recovery").
//
// The central property asserted here is replay exactness: for a crash at
// ANY point — before the generation write, before its rename, during
// recovery itself, or with the newest generation torn / bit-flipped /
// cut at a frame boundary — restoring from the newest valid generation
// and replaying the queue suffix produces sink output bit-identical to
// the uninterrupted run. Concretely: the recovered run emits exactly the
// oracle's suffix starting at the restored evaluation count, so
// (pre-crash committed output) + (post-restore output) == oracle.
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
#include "shard/partitioner.h"
#include "shard/sharded_engine.h"

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

void ProduceRound(EventQueue* queue, int round) {
  for (int i = round * kPerRound; i < (round + 1) * kPerRound; ++i) {
    ASSERT_TRUE(queue->Produce(Item(i + 1), T(1 + 2 * i)).ok());
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

// Every count of `stats` equals its registry series summed over `engines`.
void ExpectStatsAreTheSeries(
    const QueryStats& stats, const std::vector<const ContinuousEngine*>& engines,
    const std::string& query) {
  auto series = [&](const char* name) {
    int64_t total = 0;
    for (const ContinuousEngine* engine : engines) {
      const Counter* counter =
          engine->metrics().FindCounter(name, {{"query", query}});
      EXPECT_NE(counter, nullptr) << name;
      if (counter != nullptr) total += counter->value();
    }
    return total;
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
    ExpectStatsAreTheSeries(stats, {restored.get()}, query);
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
    ExpectStatsAreTheSeries(stats, {restored.get()}, query);
  }

  const std::string dir = FreshDir("restored_stats_fleet");
  auto make_fleet = [&dir](bool durable) {
    shard::ShardedEngineOptions options;
    options.shards = 2;
    if (durable) options.checkpoint_dir = dir;
    options.checkpoint_fsync = false;
    auto fleet = std::make_unique<shard::ShardedEngine>(options);
    EXPECT_TRUE(fleet->RegisterText(kCountQuery).ok());
    EXPECT_TRUE(fleet->RegisterText(kFlakyQuery).ok());
    return fleet;
  };
  auto placement_engines = [](const shard::ShardedEngine& fleet,
                              const std::string& query) {
    std::vector<const ContinuousEngine*> engines;
    const shard::QueryPlacement placement = *fleet.PlacementFor(query);
    for (int s : placement.shards) engines.push_back(fleet.shard_engine(s));
    return engines;
  };
  const std::vector<std::string> fleet_queries = {"q", "flaky"};
  // `first` runs uninterrupted; `second` restores the checkpoint
  // `victim` committed at the cut.
  auto first = make_fleet(false);
  {
    auto victim = make_fleet(true);
    for (shard::ShardedEngine* fleet : {first.get(), victim.get()}) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(fleet->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
        ASSERT_TRUE(fleet->PumpAll().ok());
      }
    }
    ASSERT_TRUE(victim->Checkpoint().ok());
  }
  auto second = make_fleet(true);
  ASSERT_TRUE(second->Restore().ok());
  for (const std::string& query : fleet_queries) {
    SCOPED_TRACE("2-shard fleet, at the cut: " + query);
    const QueryStats stats = *second->StatsFor(query);
    EXPECT_GT(stats.evaluations, 0);
    EXPECT_TRUE(stats == *first->StatsFor(query));
    ExpectStatsAreTheSeries(stats, placement_engines(*second, query), query);
  }
  for (shard::ShardedEngine* fleet : {first.get(), second.get()}) {
    for (int i = 6; i < 12; ++i) {
      ASSERT_TRUE(fleet->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
      ASSERT_TRUE(fleet->PumpAll().ok());
    }
    ASSERT_TRUE(fleet->Finish().ok());
  }
  for (const std::string& query : fleet_queries) {
    SCOPED_TRACE("2-shard fleet, after more instants: " + query);
    const QueryStats stats = *second->StatsFor(query);
    EXPECT_EQ(stats.evaluations, first->StatsFor(query)->evaluations);
    ExpectStatsAreTheSeries(stats, placement_engines(*second, query), query);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint manager: commits, cadence, GC, failure accounting
// ---------------------------------------------------------------------------

// Runs a checkpointed victim for `pumps` rounds over `queue`. When
// `arm_point` is non-null, the fault point is armed at probability 1
// right before the final pump, so every checkpoint attempt of that pump
// dies — simulating a crash mid-commit. Returns the last committed
// generation via `last_seq`.
void RunVictim(const std::string& dir, EventQueue* queue, int pumps,
               const char* arm_point, uint64_t* last_seq) {
  EngineOptions options;
  options.checkpoint_every = 1;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindQueue(kConsumer, queue);
  manager.AttachTo(&engine);
  StreamDriver driver(queue, &engine, {});
  for (int r = 0; r < pumps; ++r) {
    if (r == pumps - 1 && arm_point != nullptr) {
      FaultInjector::Global().ArmProbability(arm_point, 1.0);
    }
    ProduceRound(queue, r);
    auto pumped = driver.PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
  }
  if (arm_point != nullptr) {
    EXPECT_GT(manager.checkpoint_failures(), 0)
        << arm_point << " never fired";
    EXPECT_GT(engine.metrics()
                  .FindCounter("seraph_checkpoint_failures_total")
                  ->value(),
              0);
  } else if (pumps > 0) {
    EXPECT_GT(manager.checkpoints_written(), 0);
    EXPECT_GT(
        engine.metrics().FindCounter("seraph_checkpoint_total")->value(), 0);
    EXPECT_GT(engine.metrics()
                  .FindHistogram("seraph_checkpoint_duration_micros")
                  ->count(),
              0);
  }
  if (last_seq != nullptr) *last_seq = manager.last_seq();
  // The victim "crashes" here: engine, driver, and manager are abandoned
  // with whatever the directory holds.
}

// Recovers from `dir` into a fresh engine over the same queue, pumps the
// remaining rounds, and asserts the output is exactly the oracle suffix.
void RecoverAndCheck(const std::string& dir, EventQueue* queue,
                     const TimeVaryingTable& expected, int pumps_done) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  size_t restored_evals = 0;
  auto report =
      persist::RecoverAll(dir, &engine, queue, {kConsumer}, nullptr);
  if (report.ok()) {
    restored_evals = static_cast<size_t>(engine.StatsFor("q")->evaluations);
    // The committed offset and the checkpointed stream cover the same
    // prefix, so the backlog is exactly what the checkpoint missed.
    ASSERT_EQ(report->replay_backlog.at(kConsumer),
              queue->size() - engine.stream().size());
    EXPECT_EQ(engine.metrics()
                  .FindCounter("seraph_recovery_replayed_elements")
                  ->value(),
              static_cast<int64_t>(report->replay_backlog.at(kConsumer)));
  } else {
    // No generation ever committed: recovery degrades to a cold start.
    ASSERT_EQ(report.status().code(), StatusCode::kNotFound)
        << report.status();
    queue->Subscribe(kConsumer);
  }
  StreamDriver driver(queue, &engine, {});
  for (int r = pumps_done; r < kRounds; ++r) {
    ProduceRound(queue, r);
    auto pumped = driver.PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
  }
  // Replay whatever backlog remains even when no rounds are left.
  auto pumped = driver.PumpAll();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  EXPECT_EQ(engine.stream().size(), static_cast<size_t>(kEvents));
  ExpectSuffixMatch(sink.ResultsFor("q"), expected, restored_evals);
}

TEST_F(CheckpointRecoveryTest, GarbageCollectionKeepsConfiguredGenerations) {
  const std::string dir = FreshDir("gc");
  // A stray tmp a crashed writer of an older build left behind.
  fs::create_directories(dir);
  std::ofstream(dir + "/queries-1.seg.tmp") << "torn";
  EventQueue queue;
  uint64_t last_seq = 0;
  RunVictim(dir, &queue, kRounds, nullptr, &last_seq);
  ASSERT_GT(last_seq, 2u);
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
// committed; the checkpoint.* points kill every commit of the final pump,
// forcing the fallback to the previous generation (or a cold start when
// the very first pump's checkpoints die).
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
      EventQueue queue;
      RunVictim(dir, &queue, crash_pump, point, nullptr);
      FaultInjector::Global().Reset();
      RecoverAndCheck(dir, &queue, expected, crash_pump);
    }
  }
}

TEST_F(CheckpointRecoveryTest, RecoveryReadFaultIsTransientAndRetriable) {
  const TimeVaryingTable expected = Oracle();
  const std::string dir = FreshDir("recovery_read");
  EventQueue queue;
  RunVictim(dir, &queue, 3, nullptr, nullptr);

  // The first recovery attempt dies at the recovery.read fault point —
  // the process killed mid-recovery. The retry (a fresh engine, as after
  // a real restart) succeeds and continues exactly.
  FaultInjector::Global().ArmNext("recovery.read", 1);
  {
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
    auto report =
        persist::RecoverAll(dir, &engine, &queue, {kConsumer}, nullptr);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsTransient()) << report.status();
  }
  RecoverAndCheck(dir, &queue, expected, 3);
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
    EventQueue queue;
    uint64_t last_seq = 0;
    RunVictim(dir, &queue, 3, nullptr, &last_seq);
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

    RecoverAndCheck(dir, &queue, expected, 3);
  }
}

// A crash at checkpoint.rename leaves the whole generation in
// MANIFEST-<seq>.tmp. Recovery never reads a tmp: it restores the last
// committed generation, and the restarted writer's next commit leaves no
// tmp behind.
TEST_F(CheckpointRecoveryTest, CrashAtRenameLeavesATmpThatRecoveryIgnores) {
  const std::string dir = FreshDir("rename_tmp");
  EventQueue queue;
  uint64_t last_seq = 0;
  RunVictim(dir, &queue, 3, "checkpoint.rename", &last_seq);
  FaultInjector::Global().Reset();
  ASSERT_GT(last_seq, 0u);
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

  EngineOptions options;
  options.checkpoint_every = 1;
  ContinuousEngine engine(options);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  auto report =
      persist::RecoverAll(dir, &engine, &queue, {kConsumer}, nullptr);
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

// The checkpoint barrier fires per batch INSIDE AdvanceTo, so falling
// back past the final generation can restore a mid-batch cut: the clock
// sits at its last evaluated instant while later instants of the same
// AdvanceTo already ran (and were lost with the newer generation). With
// every event already committed there is no queue backlog, so only the
// interrupted-batch catch-up inside RecoverAll (Drain to the restored
// horizon) can produce the missing suffix — this pins it.
TEST_F(CheckpointRecoveryTest, MidBatchRestoreCompletesInterruptedBatch) {
  const TimeVaryingTable expected = Oracle();
  const std::string dir = FreshDir("midbatch");
  EventQueue queue;
  uint64_t last_seq = 0;
  RunVictim(dir, &queue, kRounds, nullptr, &last_seq);
  ASSERT_GT(last_seq, 1u);
  // Simulate a crash before the final manifest rename: the newest
  // generation never committed, the fallback is the barrier one batch
  // earlier in the same AdvanceTo.
  ASSERT_TRUE(fs::remove(dir + "/" + persist::ManifestFileName(last_seq)));
  auto fallback = persist::LoadCheckpoint(dir, last_seq - 1);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  ASSERT_EQ(fallback->engine.queries.size(), 1u);
  const size_t restored_evals =
      static_cast<size_t>(fallback->engine.queries[0].stats.evaluations);
  ASSERT_LT(restored_evals, expected.size());

  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kCountQuery).ok());
  auto report =
      persist::RecoverAll(dir, &engine, &queue, {kConsumer}, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->seq, last_seq - 1);
  EXPECT_EQ(report->replay_backlog.at(kConsumer), 0u);

  // Nothing left to replay — the missing evaluations must already have
  // fired during RecoverAll, on the restored window contents.
  StreamDriver driver(&queue, &engine, {});
  auto pumped = driver.PumpAll();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  EXPECT_EQ(*pumped, 0);
  ASSERT_GT(sink.ResultsFor("q").size(), 0u);
  ExpectSuffixMatch(sink.ResultsFor("q"), expected, restored_evals);
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

void PumpSilenceRounds(Lanes* lanes, StreamDriver* data, StreamDriver* ticks,
                       size_t from, size_t to) {
  for (size_t r = from; r < to; ++r) {
    const SilenceRound& round = SilenceRounds()[r];
    for (int64_t minute : round.minutes) {
      EventQueue& lane = round.ticks ? lanes->ticks : lanes->data;
      ASSERT_TRUE(lane.Produce(Item(minute), T(minute)).ok());
    }
    auto pumped = (round.ticks ? ticks : data)->PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
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

// Runs the checkpointed victim for `rounds` rounds; with `arm_point` set,
// every checkpoint of the last round dies there.
void RunSilenceVictim(const std::string& dir, Lanes* lanes, size_t rounds,
                      const char* arm_point, uint64_t* last_seq) {
  EngineOptions options;
  options.checkpoint_every = 1;
  ContinuousEngine engine(options);
  ASSERT_TRUE(engine.RegisterText(kShortWindowQuery).ok());
  CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  CheckpointManager manager(checkpoint_options);
  manager.BindQueue(kDataConsumer, &lanes->data);
  manager.BindQueue(kTickConsumer, &lanes->ticks);
  manager.AttachTo(&engine);
  StreamDriver data(&lanes->data, &engine, LaneOptions(false));
  StreamDriver ticks(&lanes->ticks, &engine, LaneOptions(true));
  PumpSilenceRounds(lanes, &data, &ticks, 0, rounds - 1);
  if (arm_point != nullptr) {
    FaultInjector::Global().ArmProbability(arm_point, 1.0);
  }
  PumpSilenceRounds(lanes, &data, &ticks, rounds - 1, rounds);
  FaultInjector::Global().Reset();
  *last_seq = manager.last_seq();
}

// Recovers into a fresh engine over the same lanes (the manual
// composition RecoverAll performs for one queue), replays the backlog and
// the remaining rounds, and checks the output against the oracle suffix.
void RecoverSilenceRun(const std::string& dir, Lanes* lanes,
                       size_t rounds_done, const TimeVaryingTable& expected,
                       bool* restored_empty_suffix) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(kShortWindowQuery).ok());
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
    // The interrupted batch ends at the heartbeat's max timestamp, which
    // survives the trim of its stream to nothing.
    ASSERT_TRUE(engine.Drain().ok());
    ASSERT_TRUE(
        persist::RestoreConsumer(*image, kDataConsumer, &lanes->data).ok());
    ASSERT_TRUE(
        persist::RestoreConsumer(*image, kTickConsumer, &lanes->ticks).ok());
  } else {
    ASSERT_EQ(image.status().code(), StatusCode::kNotFound) << image.status();
    lanes->data.Subscribe(kDataConsumer);
    lanes->ticks.Subscribe(kTickConsumer);
  }
  StreamDriver data(&lanes->data, &engine, LaneOptions(false));
  StreamDriver ticks(&lanes->ticks, &engine, LaneOptions(true));
  // The backlog sits in the crashed round's lane; an idle lane's pump
  // delivers nothing and leaves the clock alone.
  ASSERT_TRUE(data.PumpAll().ok());
  ASSERT_TRUE(ticks.PumpAll().ok());
  PumpSilenceRounds(lanes, &data, &ticks, rounds_done, SilenceRounds().size());
  EXPECT_EQ(engine.stream().size(), lanes->data.size());
  EXPECT_EQ(engine.stream("ticks").size(), lanes->ticks.size());
  ExpectSuffixMatch(sink.ResultsFor("q"), expected, restored_evals);
}

// Crash at every fault point after every round of a run whose streams were
// trimmed before the crash — including cuts inside the silence, where the
// restored suffix is empty. "drop_newest" removes the newest manifest of
// a clean run, so a round with several barriers restores a mid-batch cut
// that only the interrupted-batch catch-up can complete. "recovery.read"
// kills the first recovery of a clean run before it reads a file, then
// retries it.
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
      Lanes lanes;
      const bool writer_fault = point.starts_with("checkpoint.");
      uint64_t last_seq = 0;
      RunSilenceVictim(dir, &lanes, crash_round,
                       writer_fault ? point.c_str() : nullptr, &last_seq);
      if (point == "drop_newest") {
        if (last_seq < 2) continue;
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
      RecoverSilenceRun(dir, &lanes, crash_round, expected,
                        &restored_empty_suffix);
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

  FlakyQueue queue(/*fail_every=*/3);
  FaultInjector& fi = FaultInjector::Global();
  fi.Seed(seed);
  fi.ArmProbability("driver.deliver", 0.2);

  CollectingSink collected_before;
  size_t accepted_before = 0;
  constexpr int kCrashPump = 3;
  {
    EngineOptions options;
    options.checkpoint_every = 1;
    ContinuousEngine engine(options);
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
    manager.AttachTo(&engine);
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
    }
    EXPECT_GT(manager.checkpoints_written(), 0);
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
  auto report = persist::RecoverAll(dir, &engine, &queue, {kConsumer},
                                    nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
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

  // Exactly once into the engine: the restored prefix plus the replayed
  // suffix covers every produced element once.
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

// ---------------------------------------------------------------------------
// Sharded fleet: one shard's checkpoint commit dies mid-run, the fleet
// still recovers to a consistent cut (docs/INTERNALS.md, "Sharded
// serving tier"). The shards end up on *different* generations — the
// victim falls back while the healthy shard restores its newest — and
// each replays its own ingest-log suffix, so per query the recovered
// output is exactly the oracle suffix: nothing replayed, nothing lost.
// ---------------------------------------------------------------------------

PropertyGraph Sided(const std::string& label, int64_t id) {
  return GraphBuilder()
      .Node(id, {label}, {{"id", Value::Int(id)}})
      .Build();
}

// Per-minute cadence so every per-event pump crosses a due instant —
// each pump is a batch barrier, and with checkpoint_every=1 each shard
// commits a generation per pump (what the armed fault below targets).
constexpr char kLeftQuery[] = R"(
  REGISTER QUERY q_left STARTING AT '1970-01-01T00:05'
  { MATCH (n:L) WITHIN PT30M FROM left EMIT n.id SNAPSHOT EVERY PT1M })";
constexpr char kRightQuery[] = R"(
  REGISTER QUERY q_right STARTING AT '1970-01-01T00:05'
  { MATCH (n:R) WITHIN PT30M FROM right EMIT n.id SNAPSHOT EVERY PT1M })";

constexpr int kShardedEvents = 18;
constexpr int kShardedCrashAt = 12;

PropertyGraph ShardedEvent(int i) {
  return (i % 2 == 0) ? Sided("L", 100 + i) : Sided("R", 200 + i);
}

void ConfigureFleet(shard::ShardedEngine* fleet) {
  // Two pinned sub-streams on different shards; the default broadcast
  // route stays, keeping both shard clocks moving on every element.
  fleet->AddRoute("left", HasLabel("L"), shard::FixedShard(0));
  fleet->AddRoute("right", HasLabel("R"), shard::FixedShard(1));
  ASSERT_TRUE(fleet->RegisterText(kLeftQuery).ok());
  ASSERT_TRUE(fleet->RegisterText(kRightQuery).ok());
}

TEST_F(CheckpointRecoveryTest, ShardedFleetRecoversWhenOneShardCommitDies) {
  // The uninterrupted fleet run (per-query timelines).
  CollectingSink oracle_sink;
  {
    shard::ShardedEngineOptions options;
    options.shards = 2;
    shard::ShardedEngine oracle(options);
    oracle.AddSink(&oracle_sink);
    ConfigureFleet(&oracle);
    for (int i = 0; i < kShardedEvents; ++i) {
      ASSERT_TRUE(oracle.Ingest(ShardedEvent(i), T(1 + i)).ok());
      ASSERT_TRUE(oracle.PumpAll().ok());
    }
    ASSERT_TRUE(oracle.Finish().ok());
  }
  ASSERT_GT(oracle_sink.ResultsFor("q_left").size(), 0u);
  ASSERT_GT(oracle_sink.ResultsFor("q_right").size(), 0u);

  for (const char* point : {"checkpoint.write", "checkpoint.rename"}) {
    SCOPED_TRACE(point);
    FaultInjector::Global().Reset();
    const std::string dir = FreshDir(std::string("sharded_") + point);
    shard::ShardedEngineOptions options;
    options.shards = 2;
    options.checkpoint_dir = dir;
    options.checkpoint_every = 1;  // Every batch barrier commits.
    options.checkpoint_fsync = false;

    // The victim: on the final pump before the "crash", exactly ONE
    // shard's commit dies at the fault point (ArmNext(1) kills the first
    // attempt; the other shard commits its newer generation).
    {
      shard::ShardedEngine victim(options);
      CollectingSink sink;
      victim.AddSink(&sink);
      ConfigureFleet(&victim);
      for (int i = 0; i < kShardedCrashAt; ++i) {
        if (i == kShardedCrashAt - 1) {
          FaultInjector::Global().ArmNext(point, 1);
        }
        ASSERT_TRUE(victim.Ingest(ShardedEvent(i), T(1 + i)).ok());
        ASSERT_TRUE(victim.PumpAll().ok());
      }
      int64_t failures = 0;
      for (int s = 0; s < 2; ++s) {
        const Counter* counter = victim.shard_engine(s)->metrics().FindCounter(
            "seraph_checkpoint_failures_total");
        if (counter != nullptr) failures += counter->value();
      }
      EXPECT_EQ(failures, 1) << point << ": expected exactly one shard's "
                                         "commit to die";
      // Crash: the fleet is abandoned with whatever the shard dirs hold.
    }
    FaultInjector::Global().Reset();

    // Recovery: fresh fleet, same routes, queries re-registered, then
    // Restore() — each shard from its own newest valid generation plus
    // its ingest-log suffix.
    shard::ShardedEngine recovered(options);
    CollectingSink sink;
    recovered.AddSink(&sink);
    ConfigureFleet(&recovered);
    ASSERT_TRUE(recovered.Restore().ok());
    std::map<std::string, size_t> restored_evals;
    for (const char* query : {"q_left", "q_right"}) {
      auto stats = recovered.StatsFor(query);
      ASSERT_TRUE(stats.ok());
      restored_evals[query] = static_cast<size_t>(stats->evaluations);
    }
    // Replay the backlog, then continue with the post-crash events.
    ASSERT_TRUE(recovered.PumpAll().ok());
    for (int i = kShardedCrashAt; i < kShardedEvents; ++i) {
      ASSERT_TRUE(recovered.Ingest(ShardedEvent(i), T(1 + i)).ok());
      ASSERT_TRUE(recovered.PumpAll().ok());
    }
    ASSERT_TRUE(recovered.Finish().ok());

    // Exactly-once ingest across the crash: every shard's broadcast
    // stream holds each produced element once.
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(recovered.shard_engine(s)->stream().size(),
                static_cast<size_t>(kShardedEvents))
          << "shard " << s;
    }
    EXPECT_EQ(recovered.shard_engine(0)->stream("left").size(),
              static_cast<size_t>(kShardedEvents / 2));
    EXPECT_EQ(recovered.shard_engine(1)->stream("right").size(),
              static_cast<size_t>(kShardedEvents / 2));

    // Per query, the recovered output is exactly the oracle suffix from
    // the restored evaluation count — no replayed, no lost emissions,
    // even though the two shards restored different generations.
    for (const char* query : {"q_left", "q_right"}) {
      SCOPED_TRACE(query);
      ExpectSuffixMatch(sink.ResultsFor(query), oracle_sink.ResultsFor(query),
                        restored_evals[query]);
    }
  }
}

// A bounded fleet's Restore replays each shard's lanes merged in
// timestamp order. Its backpressure pumps advance the shard clock to
// just before the refused element, so a lane replayed whole before its
// sibling would let the sibling's query evaluate before its elements are
// back. The victim pumps through 00:06 (a checkpoint per batch), then
// ingests six more elements unpumped and crashes, so the recovered
// 2-slot lanes replay a suffix three times their capacity.
TEST_F(CheckpointRecoveryTest, BoundedShardedRestoreReplaysInTimestampOrder) {
  CollectingSink oracle_sink;
  {
    shard::ShardedEngineOptions options;
    options.shards = 2;
    shard::ShardedEngine oracle(options);
    oracle.AddSink(&oracle_sink);
    ConfigureFleet(&oracle);
    for (int i = 0; i < kShardedEvents; ++i) {
      ASSERT_TRUE(oracle.Ingest(ShardedEvent(i), T(1 + i)).ok());
      ASSERT_TRUE(oracle.PumpAll().ok());
    }
    ASSERT_TRUE(oracle.Finish().ok());
  }
  shard::ShardedEngineOptions options;
  options.shards = 2;
  options.checkpoint_dir = FreshDir("sharded_bounded_restore");
  options.checkpoint_every = 1;
  options.checkpoint_fsync = false;
  {
    shard::ShardedEngine victim(options);
    ConfigureFleet(&victim);
    for (int i = 0; i < kShardedCrashAt; ++i) {
      ASSERT_TRUE(victim.Ingest(ShardedEvent(i), T(1 + i)).ok());
      if (i < 6) {
        ASSERT_TRUE(victim.PumpAll().ok());
      }
    }
  }
  options.queue.capacity = 2;
  options.queue.overflow_policy = OverflowPolicy::kReject;
  shard::ShardedEngine recovered(options);
  CollectingSink sink;
  recovered.AddSink(&sink);
  ConfigureFleet(&recovered);
  const Status restored = recovered.Restore();
  ASSERT_TRUE(restored.ok()) << restored;
  ASSERT_TRUE(recovered.PumpAll().ok());
  for (int i = kShardedCrashAt; i < kShardedEvents; ++i) {
    ASSERT_TRUE(recovered.Ingest(ShardedEvent(i), T(1 + i)).ok());
    ASSERT_TRUE(recovered.PumpAll().ok());
  }
  ASSERT_TRUE(recovered.Finish().ok());
  for (const char* query : {"q_left", "q_right"}) {
    SCOPED_TRACE(query);
    // The victim evaluated 00:05 and 00:06; the recovered fleet emits
    // every later instant exactly as the oracle did.
    ExpectSuffixMatch(sink.ResultsFor(query), oracle_sink.ResultsFor(query),
                      /*from=*/2);
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
    EventQueue queue;
    RunVictim(dir, &queue, 3, nullptr, nullptr);
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
    auto report =
        persist::RecoverAll(dir, &engine, &queue, {kConsumer}, nullptr);
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
        << report.status();
    EXPECT_EQ(engine.stream().size(), 0u);
  }
  {
    SCOPED_TRACE("newest generation from a newer build");
    const std::string dir = FreshDir("newer_format");
    EventQueue queue;
    uint64_t last_seq = 0;
    RunVictim(dir, &queue, 3, nullptr, &last_seq);
    ASSERT_GT(last_seq, 1u);
    StampManifestVersion(dir, persist::kFormatVersion + 1, last_seq);
    // The older generation still loads on its own, but restoring it would
    // silently drop the newer generation's progress.
    EXPECT_TRUE(persist::LoadCheckpoint(dir, last_seq - 1).ok());
    auto latest = persist::LoadLatestCheckpoint(dir);
    EXPECT_EQ(latest.status().code(), StatusCode::kFailedPrecondition)
        << latest.status();
  }
  for (uint32_t old_version : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("sharded fleet, version " + std::to_string(old_version));
    const std::string dir =
        FreshDir("old_format_sharded_v" + std::to_string(old_version));
    shard::ShardedEngineOptions options;
    options.shards = 2;
    options.checkpoint_dir = dir;
    options.checkpoint_every = 1;
    options.checkpoint_fsync = false;
    {
      shard::ShardedEngine victim(options);
      ConfigureFleet(&victim);
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(victim.Ingest(ShardedEvent(i), T(1 + i)).ok());
        ASSERT_TRUE(victim.PumpAll().ok());
      }
    }
    StampManifestVersion(dir + "/shard-1", old_version);
    shard::ShardedEngine recovered(options);
    ConfigureFleet(&recovered);
    const Status restored = recovered.Restore();
    EXPECT_EQ(restored.code(), StatusCode::kFailedPrecondition) << restored;
  }
}

// ---------------------------------------------------------------------------
// Dead letters survive the crash (checkpointed and JSON round trip)
// ---------------------------------------------------------------------------

TEST_F(CheckpointRecoveryTest, DeadLettersAreCheckpointedAndRestored) {
  const std::string dir = FreshDir("dlq");
  EngineOptions options;
  options.checkpoint_every = 1;
  ContinuousEngine engine(options);
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
      persist::RecoverAll(dir, &restored_engine, &queue, {}, &restored);
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
