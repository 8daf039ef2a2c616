// The serving runtime (runtime/runtime.h) and its flag parser
// (runtime/flags.h): the endpoint is scraped while the runtime produces
// and pumps (the shape the thread-sanitizer job race-hunts), a lane-fed
// run equals a direct Ingest + Drain run, bounded runs in both shapes
// equal the unbounded run, and the flag table parses strictly with
// environment fallbacks.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
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
  EXPECT_EQ(rt.Overload().dead_letters, 0);
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
void ScrapeWhileRunning(int shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  RuntimeOptions options;
  options.tool = "runtime_test";
  options.shards = shards;
  options.fleet = shards > 1;
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

TEST(RuntimeTest, EndpointScrapedWhileRunningOneEngine) {
  ScrapeWhileRunning(1);
}

TEST(RuntimeTest, EndpointScrapedWhileRunningAFleet) {
  ScrapeWhileRunning(2);
}

// ---------------------------------------------------------------------------
// Backpressure pumps: one clock rule in both shapes
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
    Result<int> produced =
        rt.Produce(graph, Timestamp::FromMillis(second * 1000));
    EXPECT_TRUE(produced.ok()) << "element " << id << ": "
                               << produced.status().ToString();
  }
  EXPECT_TRUE(rt.Pump().ok());
  EXPECT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.Overload().queue_shed, 0);
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
  bounded.fleet = true;  // One shard: the same rule in the fleet's lanes.
  EXPECT_EQ(BackpressureRun(bounded, seconds), expected);
}

// A durable fleet frees queue space only once a checkpoint moves the
// retention horizon, and checkpoints happen at batch barriers: a pump
// for a refused element must advance the shard clock so the barrier
// comes. Capacity 2, six elements between pumps: all admitted.
TEST(RuntimeTest, DurableBoundedFleetAdmitsBetweenPumps) {
  const std::vector<int64_t> seconds = {1, 2, 3, 4, 5, 6};
  RuntimeOptions unbounded;
  unbounded.fleet = true;
  const std::vector<std::string> expected =
      BackpressureRun(unbounded, seconds);
  ASSERT_EQ(expected.size(), 6u);
  RuntimeOptions durable = unbounded;
  durable.checkpoint_dir = FreshDir("durable_fleet");
  durable.checkpoint_every = 1;
  durable.checkpoint_fsync = false;
  durable.queue.capacity = 2;
  durable.queue.overflow_policy = OverflowPolicy::kReject;
  EXPECT_EQ(BackpressureRun(durable, seconds), expected);
  // At ties the capacity must hold one instant; when it cannot, the
  // error names the remedy instead of wedging.
  durable.checkpoint_dir = FreshDir("durable_fleet_ties");
  Runtime rt(durable);
  ASSERT_TRUE(rt.Register(kTiesQuery).ok());
  ASSERT_TRUE(rt.Start().ok());
  Status status;
  for (int64_t id = 1; id <= 3 && status.ok(); ++id) {
    status = rt.Produce(std::make_shared<const PropertyGraph>(
                            GraphBuilder().Node(id, {"X"}).Build()),
                        Timestamp::FromMillis(1000))
                 .status();
  }
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("--queue-capacity"), std::string::npos)
      << status.ToString();
}

// Both shapes render /queries through one writer: a fleet entry carries
// every field of the single-engine entry plus its shard set, and a name
// that needs escaping still parses.
TEST(RuntimeTest, FleetQueriesDocumentHasTheSingleEngineShape) {
  // Fails while the element is in its window, so last_error shows too.
  const std::string text =
      "REGISTER QUERY `a\"b` STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT10M EMIT n.id / 0 AS v EVERY PT5M }";
  auto element = [](int64_t id, const char* label) {
    return std::make_shared<const PropertyGraph>(
        GraphBuilder().Node(id, {label}, {{"id", Value::Int(id)}}).Build());
  };
  const Timestamp one = Timestamp::FromMillis(60'000);
  const Timestamp ten = Timestamp::FromMillis(600'000);
  ContinuousEngine engine;
  ASSERT_TRUE(engine.RegisterText(text).ok());
  ASSERT_TRUE(engine.Ingest(element(1, "X"), one).ok());
  ASSERT_TRUE(engine.Ingest(element(2, "Y"), ten).ok());
  ASSERT_TRUE(engine.AdvanceTo(ten).ok());
  shard::ShardedEngineOptions options;
  options.shards = 2;
  shard::ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.RegisterText(text).ok());
  ASSERT_TRUE(fleet.Ingest(element(1, "X"), one).ok());
  ASSERT_TRUE(fleet.Ingest(element(2, "Y"), ten).ok());
  ASSERT_TRUE(fleet.PumpAll().ok());

  const std::string single_json = QueriesStatusJson(engine);
  const std::string fleet_json = QueriesStatusJson(fleet);
  auto single = io::ParseJson(single_json);
  auto fleet_doc = io::ParseJson(fleet_json);
  ASSERT_TRUE(single.ok()) << single.status() << "\n" << single_json;
  ASSERT_TRUE(fleet_doc.ok()) << fleet_doc.status() << "\n" << fleet_json;
  ASSERT_EQ(single->AsList().size(), 1u);
  ASSERT_EQ(fleet_doc->AsList().size(), 1u);
  const Value::Map& one_engine = single->AsList()[0].AsMap();
  const Value::Map& entry = fleet_doc->AsList()[0].AsMap();
  EXPECT_EQ(entry.at("name").AsString(), "a\"b");
  ASSERT_TRUE(one_engine.contains("last_error")) << single_json;
  for (const auto& [key, value] : one_engine) {
    EXPECT_TRUE(entry.contains(key)) << key << " missing from " << fleet_json;
  }
  EXPECT_EQ(entry.size(), one_engine.size() + 1) << fleet_json;
  ASSERT_TRUE(entry.contains("shards"));
  EXPECT_EQ(entry.at("shards").AsList().size(), 1u);
  EXPECT_EQ(entry.at("evaluations"), one_engine.at("evaluations"));
  EXPECT_EQ(entry.at("eval_failures"), one_engine.at("eval_failures"));
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
