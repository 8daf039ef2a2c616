// The serving runtime (runtime/runtime.h) and its flag parser
// (runtime/flags.h): the endpoint is scraped while the runtime produces
// and pumps (the shape the thread-sanitizer job race-hunts), a lane-fed
// run equals a direct Ingest + Drain run, bounded runs equal the
// unbounded run, a restarted runtime carries on exactly where the
// checkpoint left off, and the flag table parses strictly with
// environment fallbacks.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "runtime/flags.h"
#include "runtime/runtime.h"
#include "workloads/bike_sharing.h"

namespace seraph {
namespace runtime {
namespace {

// GET <path> against 127.0.0.1:<port>; the raw response, "" on failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[4096];
      for (ssize_t n; (n = recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
        response.append(buffer, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  return response;
}

std::vector<workloads::Event> BikeStream() {
  workloads::BikeSharingConfig config;
  config.num_events = 24;
  config.seed = 7;
  return workloads::GenerateBikeSharingStream(config);
}

// Every query once per report policy: a delta-served hop, an aggregate,
// and the paper's Listing 5.
std::vector<std::string> BikeQueries() {
  std::vector<std::string> queries;
  int p = 0;
  for (const std::string policy : {"SNAPSHOT", "ON ENTERING", "ON EXITING"}) {
    const std::string suffix = std::to_string(p++);
    queries.push_back(
        "REGISTER QUERY rentals_" + suffix +
        " STARTING AT '1970-01-01T00:05' { MATCH (b:Bike)-[r:rentedAt]->"
        "(s:Station) WITHIN PT30M EMIT r.user_id AS user, s.id AS station " +
        policy + " EVERY PT5M }");
    queries.push_back(
        "REGISTER QUERY returns_" + suffix +
        " STARTING AT '1970-01-01T00:10' { MATCH (b:Bike)-[r:returnedAt]->"
        "(s:Station) WITHIN PT1H WHERE r.duration < 20 EMIT s.id AS station, "
        "count(r) AS n " + policy + " EVERY PT10M }");
    std::string listing5 = workloads::RunningExampleSeraphQuery();
    listing5.replace(listing5.find("student_trick"), 13,
                     "student_trick_" + suffix);
    listing5.replace(listing5.find("ON ENTERING"), 11, policy);
    queries.push_back(listing5);
  }
  return queries;
}

// Every emission as "<query> @ <t>: <table json>", in delivery order.
class RecordingSink final : public EmitSink {
 public:
  Status OnResult(const std::string& query, Timestamp t,
                  const TimeAnnotatedTable& table) override {
    lines.push_back(query + " @ " + t.ToString() + ": " + io::ToJson(table));
    return Status::OK();
  }
  std::vector<std::string> lines;
};

// ---------------------------------------------------------------------------
// The runtime
// ---------------------------------------------------------------------------

// The oracle: the same queries fed by direct Ingest, then Drain.
std::vector<std::string> DirectRun() {
  ContinuousEngine engine;
  RecordingSink sink;
  engine.AddSink(&sink);
  for (const std::string& text : BikeQueries()) {
    EXPECT_TRUE(engine.RegisterText(text).ok()) << text;
  }
  for (const workloads::Event& event : BikeStream()) {
    EXPECT_TRUE(engine.Ingest(event.graph, event.timestamp).ok());
  }
  EXPECT_TRUE(engine.Drain().ok());
  return sink.lines;
}

// A run through the runtime's lane; `pump_every` > 0 pumps after that
// many produces (as seraph_run --progress does), else once at the end.
std::vector<std::string> LaneRun(size_t capacity, int pump_every) {
  RuntimeOptions options;
  options.tool = "runtime_test";
  options.queue.capacity = capacity;
  Runtime rt(options);
  RecordingSink sink;
  rt.AddSink(&sink);
  for (const std::string& text : BikeQueries()) {
    EXPECT_TRUE(rt.Register(text).ok()) << text;
  }
  EXPECT_TRUE(rt.Start().ok());
  int produced = 0;
  for (const workloads::Event& event : BikeStream()) {
    auto graph = std::make_shared<const PropertyGraph>(event.graph);
    EXPECT_TRUE(rt.Produce(graph, event.timestamp).ok());
    if (pump_every > 0 && ++produced % pump_every == 0) {
      EXPECT_TRUE(rt.Pump().ok());
    }
  }
  EXPECT_TRUE(rt.Pump().ok());
  EXPECT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.dead_letters().total(), 0);
  return sink.lines;
}

TEST(RuntimeTest, LaneFedRunEqualsDirectIngest) {
  const std::vector<std::string> expected = DirectRun();
  ASSERT_GT(expected.size(), 20u);
  EXPECT_EQ(LaneRun(/*capacity=*/0, /*pump_every=*/0), expected);
  EXPECT_EQ(LaneRun(/*capacity=*/0, /*pump_every=*/2), expected);
  // A bounded queue refuses produces; the runtime pumps and retries.
  EXPECT_EQ(LaneRun(/*capacity=*/3, /*pump_every=*/0), expected);
}

// A scraper thread reads /queries and /metrics while the engine thread
// produces and pumps, and the reporter prints alongside: the endpoint
// serves only the registry and the published document.
TEST(RuntimeTest, EndpointScrapedWhileRunning) {
  RuntimeOptions options;
  options.tool = "runtime_test";
  options.metrics_port = 0;
  options.stats_interval_sec = 1;
  Runtime rt(options);
  RecordingSink sink;
  rt.AddSink(&sink);
  for (const std::string& text : BikeQueries()) {
    ASSERT_TRUE(rt.Register(text).ok()) << text;
  }
  ASSERT_TRUE(rt.Start().ok());
  const int port = rt.server().port();
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::string last_queries;
  std::thread scraper([&] {
    while (!stop.load()) {
      last_queries = HttpGet(port, "/queries");
      if (HttpGet(port, "/metrics").find("# TYPE seraph_") !=
          std::string::npos) {
        scrapes.fetch_add(1);
      }
    }
  });
  const auto started = std::chrono::steady_clock::now();
  const std::vector<workloads::Event> events = BikeStream();
  for (size_t i = 0;
       scrapes.load() < 5 ||
       std::chrono::steady_clock::now() - started < std::chrono::seconds(1);
       ++i) {
    // Replays the stream shifted a day per lap, so time keeps advancing.
    const workloads::Event& event = events[i % events.size()];
    const int64_t lap = static_cast<int64_t>(i / events.size());
    auto graph = std::make_shared<const PropertyGraph>(event.graph);
    const Timestamp t = Timestamp::FromMillis(event.timestamp.millis() +
                                              lap * 86'400'000);
    if (!rt.Produce(graph, t).ok() || !rt.Pump().ok()) {
      ADD_FAILURE() << "produce or pump failed at element " << i;
      break;
    }
  }
  EXPECT_TRUE(rt.Finish().ok());
  stop.store(true);
  scraper.join();
  EXPECT_GE(scrapes.load(), 5);
  EXPECT_NE(last_queries.find("\"name\":\"rentals_0\""), std::string::npos)
      << last_queries;
  EXPECT_FALSE(sink.lines.empty());
}

// ---------------------------------------------------------------------------
// Backpressure pumps: one clock rule
// ---------------------------------------------------------------------------

constexpr char kTiesQuery[] =
    "REGISTER QUERY ties STARTING AT '1970-01-01T00:00:01' "
    "{ MATCH (n:X) WITHIN PT10S EMIT n.id SNAPSHOT EVERY PT1S }";

// One X node per element at each of `seconds`, all produced before the
// first explicit pump, so every relief of a full queue is a pump the
// runtime makes for a refused element; then one pump and Finish.
std::vector<std::string> BackpressureRun(RuntimeOptions options,
                                         const std::vector<int64_t>& seconds) {
  options.tool = "runtime_test";
  Runtime rt(options);
  RecordingSink sink;
  rt.AddSink(&sink);
  EXPECT_TRUE(rt.Register(kTiesQuery).ok());
  EXPECT_TRUE(rt.Start().ok());
  int64_t id = 0;
  for (int64_t second : seconds) {
    ++id;
    auto graph = std::make_shared<const PropertyGraph>(
        GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build());
    Status produced = rt.Produce(graph, Timestamp::FromMillis(second * 1000));
    EXPECT_TRUE(produced.ok()) << "element " << id << ": " << produced;
  }
  EXPECT_TRUE(rt.Pump().ok());
  EXPECT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.queue().shed_total(), 0);
  return sink.lines;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "seraph_runtime_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A pump made for a refused element at t must not evaluate instant t
// before t's remaining elements arrive: at capacity 1 the instant at 1 s
// sees all three of its elements, as in the unbounded run.
TEST(RuntimeTest, BoundedRunOverTimestampTiesEqualsUnbounded) {
  const std::vector<int64_t> seconds = {1, 1, 1, 2, 2};
  const std::vector<std::string> expected =
      BackpressureRun(RuntimeOptions(), seconds);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_NE(expected[0].find("\"n.id\":3"), std::string::npos)
      << expected[0];
  RuntimeOptions bounded;
  bounded.queue.capacity = 1;
  bounded.queue.overflow_policy = OverflowPolicy::kReject;
  EXPECT_EQ(BackpressureRun(bounded, seconds), expected);
}

// A durable queue trims to its consumer like any other: a pump for a
// refused element delivers and frees the space, and the generation that
// pump commits pins nothing. Six elements between pumps at capacity 2,
// and timestamp ties at capacities 1 and 2, are all admitted, and each
// run emits what the unbounded run emits.
TEST(RuntimeTest, DurableBoundedQueueAdmitsBetweenPumps) {
  struct Case {
    std::vector<int64_t> seconds;
    size_t capacity;
    size_t instants;
  };
  for (const Case& run : {Case{{1, 2, 3, 4, 5, 6}, 2, 6},
                          Case{{1, 1, 1, 2, 2}, 1, 2},
                          Case{{1, 1, 1, 2, 2}, 2, 2}}) {
    SCOPED_TRACE("capacity " + std::to_string(run.capacity) + ", " +
                 std::to_string(run.seconds.size()) + " elements");
    const std::vector<std::string> expected =
        BackpressureRun(RuntimeOptions(), run.seconds);
    ASSERT_EQ(expected.size(), run.instants);
    RuntimeOptions durable;
    durable.checkpoint_dir = FreshDir("durable_bounded");
    durable.checkpoint_fsync = false;
    durable.queue.capacity = run.capacity;
    durable.queue.overflow_policy = OverflowPolicy::kReject;
    EXPECT_EQ(BackpressureRun(durable, run.seconds), expected);
  }
}

// /queries lists every query with its counters, its last error when it
// has one, and a name that needs escaping still parses.
TEST(RuntimeTest, QueriesDocumentParsesAndCarriesTheLastError) {
  // Fails while the element is in its window, so last_error shows too.
  const std::string text =
      "REGISTER QUERY `a\"b` STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT10M EMIT n.id / 0 AS v EVERY PT5M }";
  RuntimeOptions options;
  options.tool = "runtime_test";
  Runtime rt(options);
  auto name = rt.Register(text);
  ASSERT_TRUE(name.ok()) << name.status();
  EXPECT_EQ(*name, "a\"b");
  ASSERT_TRUE(rt.Start().ok());
  auto element = [](int64_t id, const char* label) {
    return std::make_shared<const PropertyGraph>(
        GraphBuilder().Node(id, {label}, {{"id", Value::Int(id)}}).Build());
  };
  ASSERT_TRUE(rt.Produce(element(1, "X"), Timestamp::FromMillis(60'000)).ok());
  ASSERT_TRUE(rt.Produce(element(2, "Y"), Timestamp::FromMillis(600'000)).ok());
  ASSERT_TRUE(rt.Finish().ok());
  const std::string json = QueriesStatusJson(rt.engine());
  auto doc = io::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << json;
  ASSERT_EQ(doc->AsList().size(), 1u);
  const Value::Map& entry = doc->AsList()[0].AsMap();
  EXPECT_EQ(entry.at("name").AsString(), "a\"b");
  EXPECT_TRUE(entry.contains("last_error")) << json;
  const QueryStats stats = *rt.engine().StatsFor("a\"b");
  EXPECT_EQ(entry.at("evaluations"), Value::Int(stats.evaluations));
  EXPECT_EQ(entry.at("eval_failures"), Value::Int(stats.eval_failures));
  EXPECT_GT(stats.eval_failures, 0);
}

// ---------------------------------------------------------------------------
// Restarts: one restore path
// ---------------------------------------------------------------------------

std::shared_ptr<const PropertyGraph> XNode(int64_t id) {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build());
}

Timestamp Minute(int64_t minute) {
  return Timestamp::FromMillis(minute * 60'000);
}

RuntimeOptions Durable(const std::string& name) {
  RuntimeOptions options;
  options.tool = "runtime_test";
  options.checkpoint_dir = FreshDir(name);
  options.checkpoint_fsync = false;
  return options;
}

// Life 1 ingests minutes 1-4 durably and finishes; life 2 restores,
// produces nothing again, and ingests minutes 5-7. The queue restarts at
// the checkpointed offset, so each new ingest is delivered, and the two
// lives emit what one uninterrupted run emits.
TEST(RuntimeTest, PostRestoreIngestsReachTheEngine) {
  const std::string query =
      "REGISTER QUERY minutes STARTING AT '1970-01-01T00:01' "
      "{ MATCH (n:X) WITHIN PT10M EMIT n.id SNAPSHOT EVERY PT1M }";
  auto run = [&query](RuntimeOptions options, int64_t from, int64_t to,
                      size_t resume_at) {
    Runtime rt(std::move(options));
    RecordingSink sink;
    rt.AddSink(&sink);
    EXPECT_TRUE(rt.Register(query).ok());
    EXPECT_TRUE(rt.Start().ok());
    EXPECT_EQ(rt.next_offset(), resume_at);
    for (int64_t minute = from; minute <= to; ++minute) {
      EXPECT_TRUE(rt.Produce(XNode(minute), Minute(minute)).ok()) << minute;
    }
    EXPECT_TRUE(rt.Finish().ok());
    EXPECT_EQ(rt.engine().stream().size(), static_cast<size_t>(to));
    return sink.lines;
  };
  RuntimeOptions plain;
  plain.tool = "runtime_test";
  const std::vector<std::string> expected = run(plain, 1, 7, 0);
  ASSERT_EQ(expected.size(), 7u);

  RuntimeOptions durable = Durable("post_restore_ingest");
  std::vector<std::string> lives = run(durable, 1, 4, 0);
  durable.restore = true;
  const std::vector<std::string> suffix = run(durable, 5, 7, 4);
  EXPECT_EQ(suffix.size(), 3u);
  lives.insert(lives.end(), suffix.begin(), suffix.end());
  EXPECT_EQ(lives, expected);
}

// The generations in `dir`, by sequence number.
std::vector<uint64_t> Generations(const std::string& dir) {
  std::vector<uint64_t> seqs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    uint64_t seq = 0;
    if (persist::ParseManifestFileName(entry.path().filename().string(),
                                       &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

// A commit that would hold what the newest generation holds is skipped:
// Finish right after a Commit that covered everything writes nothing,
// while a Finish after new produces commits one more generation, and a
// restart from it carries on exactly.
TEST(RuntimeTest, FinishCommitsOnlyWhatTheLastCommitLeftOut) {
  const std::string query =
      "REGISTER QUERY minutes STARTING AT '1970-01-01T00:01' "
      "{ MATCH (n:X) WITHIN PT10M EMIT n.id SNAPSHOT EVERY PT1M }";
  // Produces minutes [from, to], committing after `commit_at` (0 = never)
  // and finishing.
  auto run = [&query](RuntimeOptions options, int64_t from, int64_t to,
                      int64_t commit_at) {
    Runtime rt(std::move(options));
    RecordingSink sink;
    rt.AddSink(&sink);
    EXPECT_TRUE(rt.Register(query).ok());
    EXPECT_TRUE(rt.Start().ok());
    for (int64_t minute = from; minute <= to; ++minute) {
      EXPECT_TRUE(rt.Produce(XNode(minute), Minute(minute)).ok()) << minute;
      if (minute == commit_at) {
        EXPECT_TRUE(rt.Commit().ok());
      }
    }
    EXPECT_TRUE(rt.Finish().ok());
    return sink.lines;
  };
  RuntimeOptions plain;
  plain.tool = "runtime_test";
  const std::vector<std::string> expected = run(plain, 1, 7, 0);
  ASSERT_EQ(expected.size(), 7u);

  RuntimeOptions committed = Durable("commit_then_finish");
  EXPECT_EQ(run(committed, 1, 2, 2),
            std::vector<std::string>(expected.begin(), expected.begin() + 2));
  EXPECT_EQ(Generations(committed.checkpoint_dir),
            std::vector<uint64_t>{1});

  RuntimeOptions durable = Durable("produce_after_commit");
  std::vector<std::string> lives = run(durable, 1, 4, 2);
  EXPECT_EQ(Generations(durable.checkpoint_dir),
            (std::vector<uint64_t>{1, 2}));
  durable.restore = true;
  const std::vector<std::string> suffix = run(durable, 5, 7, 0);
  lives.insert(lives.end(), suffix.begin(), suffix.end());
  EXPECT_EQ(lives, expected);
}

// X nodes at 1, 2, 2, 2 and 3 s with a pump after every element. A
// restart after any of them emits, together with the first life, what
// the uninterrupted run emits. A pump holds its newest instant back, and
// so does the generation it commits, so the restored instant at 2 s
// waits for the ties the resumed source produces again: rows 1-4, not
// 1-2. A restart after the last element closes 3 s at Finish.
TEST(RuntimeTest, RestartInsideTiesWaitsForTheirRemainingElements) {
  const std::vector<int64_t> seconds = {1, 2, 2, 2, 3};
  // A cut life is dropped without Finish, as a crash would leave it.
  auto life = [&seconds](RuntimeOptions options, size_t cut, bool finish) {
    Runtime rt(std::move(options));
    RecordingSink sink;
    rt.AddSink(&sink);
    EXPECT_TRUE(rt.Register(kTiesQuery).ok());
    EXPECT_TRUE(rt.Start().ok());
    for (size_t i = rt.next_offset(); i < cut; ++i) {
      EXPECT_TRUE(rt.Produce(XNode(static_cast<int64_t>(i) + 1),
                             Timestamp::FromMillis(seconds[i] * 1000))
                      .ok());
      EXPECT_TRUE(rt.Pump().ok());
    }
    if (finish) {
      EXPECT_TRUE(rt.Finish().ok());
    }
    return sink.lines;
  };
  RuntimeOptions plain;
  plain.tool = "runtime_test";
  const std::vector<std::string> expected =
      life(plain, seconds.size(), /*finish=*/true);
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_NE(expected[1].find("\"n.id\":4"), std::string::npos) << expected[1];
  for (size_t cut = 1; cut <= seconds.size(); ++cut) {
    SCOPED_TRACE("dropped after element " + std::to_string(cut));
    RuntimeOptions durable = Durable("restart_ties");
    std::vector<std::string> lives = life(durable, cut, /*finish=*/false);
    durable.restore = true;
    const std::vector<std::string> suffix =
        life(durable, seconds.size(), /*finish=*/true);
    lives.insert(lives.end(), suffix.begin(), suffix.end());
    EXPECT_EQ(lives, expected);
  }
}

// Queue sheds reach the dead-letter ring even when evaluation failures
// do not, and every generation holds the ring, so a restored run keeps
// the letters and their totals.
TEST(RuntimeTest, RestoredRunKeepsItsDeadLetters) {
  RuntimeOptions durable = Durable("restart_dead_letters");
  durable.dead_letter_failures = false;
  durable.queue.capacity = 1;
  durable.queue.overflow_policy = OverflowPolicy::kShedOldest;
  auto life = [](const RuntimeOptions& options,
                 const std::vector<int64_t>& seconds) {
    Runtime rt(options);
    EXPECT_TRUE(rt.Register(kTiesQuery).ok());
    EXPECT_TRUE(rt.Start().ok());
    for (size_t i = rt.next_offset(); i < seconds.size(); ++i) {
      EXPECT_TRUE(rt.Produce(XNode(static_cast<int64_t>(i) + 1),
                             Timestamp::FromMillis(seconds[i] * 1000))
                      .ok());
    }
    EXPECT_TRUE(rt.Finish().ok());
    return rt.dead_letters().total();
  };
  // Every element but the newest is shed before the one pump at Finish.
  EXPECT_EQ(life(durable, {1, 1, 1, 2, 2}), 4);
  durable.restore = true;
  EXPECT_EQ(life(durable, {1, 1, 1, 2, 2, 3, 3}), 5);
  auto image = persist::LoadLatestCheckpoint(durable.checkpoint_dir);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->dead_letters.size(), 5u);
  EXPECT_EQ(image->dead_letter_totals.total(), 5);
}

// How a restarted source catches up: a replayable one resumes its input
// at next_offset(), one that cannot be replayed commits after every batch
// and produces nothing twice.
enum class Resume { kAtOffset, kCommitEachBatch };

// A source for the restart test: its queries, its events, and how many
// produces each Pump (or Commit) closes.
struct Source {
  std::string name;
  std::vector<std::string> queries;
  std::vector<workloads::Event> events;
  size_t batch;
};

Source BikeSource() { return {"bike", BikeQueries(), BikeStream(), 3}; }

// X nodes in runs of tied timestamps, with a pump after every element,
// so a cut lands inside a run of ties.
Source TiesSource() {
  Source source{"ties", {kTiesQuery}, {}, 1};
  const std::vector<int64_t> seconds = {1, 1, 2, 2, 2, 3, 4, 4, 4,
                                        4, 5, 5, 6, 7, 7, 7, 9, 9};
  for (size_t i = 0; i < seconds.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i) + 1;
    source.events.push_back(
        {GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build(),
         Timestamp::FromMillis(seconds[i] * 1000)});
  }
  return source;
}

// Produces `source.events[from, to)` in batches of `source.batch` (by
// absolute index), closing each batch with Pump or, for kCommitEachBatch,
// Commit.
void ProduceBatches(Runtime* rt, Resume resume, const Source& source,
                    size_t from, size_t to) {
  const std::vector<workloads::Event>& events = source.events;
  for (size_t i = from; i < to; ++i) {
    auto graph = std::make_shared<const PropertyGraph>(events[i].graph);
    ASSERT_TRUE(rt->Produce(graph, events[i].timestamp).ok()) << i;
    if ((i + 1) % source.batch == 0 || i + 1 == events.size()) {
      ASSERT_TRUE((resume == Resume::kAtOffset ? rt->Pump() : rt->Commit())
                      .ok())
          << i;
    }
  }
}

// One life: registers the source's queries, starts, and produces its
// events from where it resumes up to `cut` (or to the end, then Finish).
// A cut life is dropped without Finish, as a crash would leave it, with
// the elements produced since its last pump lost.
std::vector<std::string> Life(const RuntimeOptions& options, Resume resume,
                              const Source& source,
                              std::optional<size_t> cut,
                              size_t* resumed_at = nullptr) {
  Runtime rt(options);
  RecordingSink sink;
  rt.AddSink(&sink);
  for (const std::string& text : source.queries) {
    EXPECT_TRUE(rt.Register(text).ok()) << text;
  }
  EXPECT_TRUE(rt.Start().ok());
  const size_t from = rt.next_offset();
  if (resumed_at != nullptr) *resumed_at = from;
  ProduceBatches(&rt, resume, source, from,
                 cut.value_or(source.events.size()));
  if (!cut.has_value()) {
    EXPECT_TRUE(rt.Finish().ok());
  }
  return sink.lines;
}

// A durable runtime cut at a random point, restarted with `restore`:
// what the first life emitted plus what the second emits is the
// uninterrupted run, for both resume styles, bounded and unbounded, over
// the bike stream and over a stream of timestamp ties. A replayable
// source may be cut anywhere and produces again what the checkpoint does
// not cover; an unreplayable one is cut after a Commit, since a batch it
// never acknowledged is its client's to send again.
TEST(RuntimeTest, RestartAtARandomPumpConcatenatesToTheUninterruptedRun) {
  std::mt19937 rng(2026);
  int produced_again = 0;
  for (const Source& source : {BikeSource(), TiesSource()}) {
    const size_t events = source.events.size();
    const size_t batches = (events + source.batch - 1) / source.batch;
    for (const Resume resume :
         {Resume::kAtOffset, Resume::kCommitEachBatch}) {
      for (const size_t capacity : {size_t{0}, size_t{3}}) {
        RuntimeOptions plain;
        plain.tool = "runtime_test";
        plain.queue.capacity = capacity;
        const std::vector<std::string> expected =
            Life(plain, resume, source, std::nullopt);
        ASSERT_GT(expected.size(), 8u);
        for (int round = 0; round < 3; ++round) {
          const size_t draw = static_cast<size_t>(rng());
          const size_t cut =
              resume == Resume::kAtOffset
                  ? 1 + draw % (events - 1)
                  : source.batch * (1 + draw % (batches - 1));
          SCOPED_TRACE(source.name + ", " +
                       (resume == Resume::kAtOffset ? "resume at offset"
                                                    : "commit each batch") +
                       ", capacity " + std::to_string(capacity) + ", cut " +
                       std::to_string(cut));
          RuntimeOptions durable = Durable("restart_split");
          durable.queue.capacity = capacity;
          std::vector<std::string> lives = Life(durable, resume, source, cut);
          durable.restore = true;
          size_t resumed_at = 0;
          const std::vector<std::string> suffix =
              Life(durable, resume, source, std::nullopt, &resumed_at);
          if (resume == Resume::kCommitEachBatch) {
            // Every acknowledged batch was committed: nothing is produced
            // twice.
            EXPECT_EQ(resumed_at, cut);
          } else {
            EXPECT_LE(resumed_at, cut);
            if (resumed_at < cut) ++produced_again;
          }
          lives.insert(lives.end(), suffix.begin(), suffix.end());
          EXPECT_EQ(lives, expected);
        }
      }
    }
  }
  // Some cut fell between pumps, so a resumed source produced elements
  // again.
  EXPECT_GT(produced_again, 0);
}

// ---------------------------------------------------------------------------
// The flag parser
// ---------------------------------------------------------------------------

// argv for CommandLine::Parse (argv[0] is the tool).
class Args {
 public:
  Args(std::initializer_list<std::string> args) : storage_(args) {
    storage_.insert(storage_.begin(), "tool");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

struct Knobs {
  int64_t count = 1;
  int port = -1;
  size_t capacity = 0;
  double rate = 2.0;
  bool verbose = false;
  std::string out = "report.json";
  std::vector<std::string> files;
  OverflowPolicy policy = OverflowPolicy::kShedOldest;
};

CommandLine KnobTable(Knobs* knobs) {
  return CommandLine(
      "tool", "[flags]",
      {
          {"--count=<n>", &knobs->count, "how many", 1, kNoMax,
           "SERAPH_RUNTIME_TEST_COUNT"},
          {"--port=<p>", &knobs->port, "port", 0, 65535},
          {"--capacity=<n>", &knobs->capacity, "bound", 1},
          {"--rate=<x>", &knobs->rate, "rate", 0},
          {"--verbose", &knobs->verbose, "talk more"},
          {"--out=<path>", &knobs->out, "report"},
          {"--file=<path>", &knobs->files, "input (repeatable)"},
          {"--policy=<reject|shed_oldest>", &knobs->policy, "policy", 0,
           kNoMax, "SERAPH_RUNTIME_TEST_POLICY"},
      });
}

// Parses `args` into fresh knobs; returns the exit code (-1 = go on).
int ParseInto(Knobs* knobs, std::initializer_list<std::string> args,
              std::vector<std::string>* positional = nullptr) {
  CommandLine cli = KnobTable(knobs);
  Args argv(args);
  testing::internal::CaptureStderr();
  auto exit_code = cli.Parse(argv.argc(), argv.argv(), positional);
  testing::internal::GetCapturedStderr();
  return exit_code.value_or(-1);
}

TEST(FlagParserTest, ParsesEveryDestinationType) {
  Knobs knobs;
  std::vector<std::string> positional;
  ASSERT_EQ(ParseInto(&knobs,
                      {"--count=3", "--port=0", "--capacity=7", "--rate=0.5",
                       "--verbose", "--out=x.json", "--file=a", "in.log",
                       "--file=b", "--policy=reject"},
                      &positional),
            -1);
  EXPECT_EQ(knobs.count, 3);
  EXPECT_EQ(knobs.port, 0);
  EXPECT_EQ(knobs.capacity, 7u);
  EXPECT_EQ(knobs.rate, 0.5);
  EXPECT_TRUE(knobs.verbose);
  EXPECT_EQ(knobs.out, "x.json");
  EXPECT_EQ(knobs.files, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(knobs.policy, OverflowPolicy::kReject);
  EXPECT_EQ(positional, std::vector<std::string>{"in.log"});
}

TEST(FlagParserTest, RejectsGarbageAndOutOfRangeValues) {
  for (const std::string bad :
       {"--count=2x", "--count=", "--count=0", "--count=-1", "--count= 2",
        "--port=65536", "--port=-1", "--port=1e3", "--capacity=-1",
        "--capacity=0", "--rate=0", "--rate=-1", "--rate=2/s", "--rate=nan",
        "--out=", "--file=", "--policy=drop", "--policy=block", "--verbose=1",
        "--count",
        "--bogus=1", "stray"}) {
    Knobs knobs;
    EXPECT_EQ(ParseInto(&knobs, {bad}), 1) << bad;
    EXPECT_EQ(knobs.count, 1) << bad;  // Untouched.
  }
}

TEST(FlagParserTest, FlagBeatsEnvironmentBeatsDefault) {
  setenv("SERAPH_RUNTIME_TEST_COUNT", "5", 1);
  setenv("SERAPH_RUNTIME_TEST_POLICY", "reject", 1);
  {
    Knobs knobs;
    ASSERT_EQ(ParseInto(&knobs, {}), -1);
    EXPECT_EQ(knobs.count, 5);
    EXPECT_EQ(knobs.policy, OverflowPolicy::kReject);
  }
  {
    Knobs knobs;
    CommandLine cli = KnobTable(&knobs);
    Args argv({"--count=7"});
    ASSERT_FALSE(cli.Parse(argv.argc(), argv.argv()).has_value());
    EXPECT_EQ(knobs.count, 7);
    EXPECT_EQ(knobs.policy, OverflowPolicy::kReject);
  }
  // A malformed or out-of-range environment value leaves the default.
  for (const char* malformed : {"5x", "0", "", "-3"}) {
    setenv("SERAPH_RUNTIME_TEST_COUNT", malformed, 1);
    setenv("SERAPH_RUNTIME_TEST_POLICY", "sometimes", 1);
    Knobs knobs;
    ASSERT_EQ(ParseInto(&knobs, {}), -1) << malformed;
    EXPECT_EQ(knobs.count, 1) << malformed;
    EXPECT_EQ(knobs.policy, OverflowPolicy::kShedOldest);
  }
  unsetenv("SERAPH_RUNTIME_TEST_COUNT");
  unsetenv("SERAPH_RUNTIME_TEST_POLICY");
}

TEST(FlagParserTest, HelpListsEveryDeclaredFlag) {
  Knobs knobs;
  CommandLine cli = KnobTable(&knobs);
  Args argv({"--help"});
  testing::internal::CaptureStdout();
  EXPECT_EQ(cli.Parse(argv.argc(), argv.argv()), 0);
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_EQ(help.rfind("usage: tool [flags]\n", 0), 0u) << help;
  for (const std::string name :
       {"--count=<n>", "--port=<p>", "--capacity=<n>", "--rate=<x>",
        "--verbose", "--out=<path>", "--file=<path>",
        "--policy=<reject|shed_oldest>", "SERAPH_RUNTIME_TEST_COUNT",
        "SERAPH_RUNTIME_TEST_POLICY"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(help, cli.Help());
}

}  // namespace
}  // namespace runtime
}  // namespace seraph
