// latency_harness — steady-state emit-latency measurement for the
// end-to-end pipeline (docs/INTERNALS.md, "Latency accounting & lag").
// `latency_harness --help` lists the flags.
//
// The harness is a load generator over the serving runtime
// (runtime/runtime.h): it produces synthetic person-sighting events at a
// sustained target rate (paced against the wall clock, catching up after
// scheduling hiccups rather than drifting) into <n> identical
// sliding-window queries, pumping as it goes, and reports the resulting
// ingest→emit latency distribution: p50 / p99 / p999 / max microseconds,
// the achieved rate, the maximum event-time lag, the overload ledger
// (shed / rejected / trimmed / producer retries, and the dead letters
// that account for every shed element) and the process RSS. Results go
// to stdout and, as JSON, to --out.
//
// With --shards=N (N > 1) the runtime drives a ShardedEngine: events are
// broadcast through the fleet's default route, each query lands on its
// home shard, and the latency distribution merges the shards'
// `seraph_engine_emit_latency_micros` histograms. The report is the same
// at every shard count.
//
// --metrics-port serves /metrics, /healthz and /queries during the run
// (CI's latency-smoke job scrapes them mid-flight); --stats-interval
// prints the runtime's status line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "graph/graph_builder.h"
#include "runtime/flags.h"
#include "runtime/runtime.h"

namespace {

using namespace seraph;

// Resident set size in MiB from /proc/self/status (VmRSS), or -1 when
// the file is unavailable. Good enough for CI's bounded-memory assert.
double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB.
    }
  }
  return -1.0;
}

// One synthetic event: a person sighted in a room — enough structure for
// a MATCH with a relationship hop, tiny enough that event construction
// does not dominate the measured pipeline.
PropertyGraph MakeEvent(int64_t i) {
  GraphBuilder b;
  const int64_t person = 1 + (i % 64);
  const int64_t room = 1000 + (i % 8);
  b.Node(person, {"Person"}, {{"id", Value::Int(person)}});
  b.Node(room, {"Room"}, {{"id", Value::Int(room)}});
  b.Rel(2000 + i, person, room, "IN");
  return b.Build();
}

// A sink that only counts: the harness measures pipeline latency, not
// output formatting.
class CountingSink final : public EmitSink {
 public:
  Status OnResult(const std::string&, Timestamp,
                  const TimeAnnotatedTable& table) override {
    ++emits_;
    rows_ += static_cast<int64_t>(table.table.size());
    return Status::OK();
  }
  int64_t emits() const { return emits_; }
  int64_t rows() const { return rows_; }

 private:
  int64_t emits_ = 0;
  int64_t rows_ = 0;
};

// A sliding 10 s window, evaluated every second of event time. Event time
// advances at one simulated millisecond per produced event scaled to the
// target rate, so each harness second triggers about one evaluation per
// query regardless of rate.
std::string QueryText(int index) {
  return "REGISTER QUERY lat_q" + std::to_string(index) +
         " STARTING AT '1970-01-01T00:00:01' {\n"
         "  MATCH (p:Person)-[:IN]->(r:Room) WITHIN PT10S\n"
         "  EMIT p.id AS person, r.id AS room EVERY PT1S\n"
         "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  double rate = 2000.0;
  int duration_sec = 5;
  int queries = 1;
  std::string out_path = "BENCH_latency.json";
  runtime::RuntimeOptions options;
  options.tool = "latency_harness";
  options.poll_batch = 256;
  runtime::CommandLine cli("latency_harness", "[flags]", {
      {"--rate=<events/sec>", &rate, "target production rate", 0},
      {"--duration-sec=<n>", &duration_sec, "sustained production window",
       1},
      {"--queries=<n>", &queries, "identical queries sharing the stream", 1},
      {"--out=<path>", &out_path, "JSON report (default BENCH_latency.json)"},
      {"--shards=<n>", &options.shards,
       "engine shards; > 1 drives a ShardedEngine", 1},
      {"--metrics-port=<p>", &options.metrics_port,
       "serve /metrics, /healthz, /queries on 127.0.0.1:<p> (0 = ephemeral)",
       0, 65535},
      {"--stats-interval=<sec>", &options.stats_interval_sec,
       "print a status line every <sec> seconds", 1},
      {"--queue-capacity=<n>", &options.queue.capacity,
       "bound each lane's queue (default unbounded)", 1, runtime::kNoMax,
       "SERAPH_QUEUE_CAPACITY"},
      {"--overflow-policy=<reject|shed_oldest>",
       &options.queue.overflow_policy,
       "what a full queue does (default reject)", 0, runtime::kNoMax,
       "SERAPH_OVERFLOW_POLICY"},
  });
  if (auto exit_code = cli.Parse(argc, argv)) return *exit_code;
  options.fleet = options.shards > 1;

  runtime::Runtime rt(options);
  CountingSink sink;
  rt.AddSink(&sink);
  for (int q = 0; q < queries; ++q) {
    auto placement = rt.Register(QueryText(q));
    if (!placement.ok()) return cli.Fail(placement.status().ToString());
  }
  if (Status s = rt.Start(); !s.ok()) return cli.Fail(s.ToString());

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto deadline = start + std::chrono::seconds(duration_sec);
  const double event_millis_per_event = 1000.0 / rate;
  int64_t produced = 0;
  while (clock::now() < deadline) {
    const double elapsed_sec =
        std::chrono::duration<double>(clock::now() - start).count();
    // Catch-up pacing: produce the deficit between the schedule and what
    // has been produced so far, then deliver it.
    const int64_t due = static_cast<int64_t>(elapsed_sec * rate);
    const bool idle = produced >= due;
    for (; produced < due; ++produced) {
      const int64_t t_ms =
          1000 + static_cast<int64_t>(produced * event_millis_per_event);
      auto delivered =
          rt.Produce(std::make_shared<const PropertyGraph>(MakeEvent(produced)),
                     Timestamp::FromMillis(t_ms));
      if (!delivered.ok()) return cli.Fail(delivered.status().ToString());
    }
    if (Status s = rt.Pump(); !s.ok()) return cli.Fail(s.ToString());
    if (idle) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (Status s = rt.Finish(); !s.ok()) return cli.Fail(s.ToString());

  const double wall_sec =
      std::chrono::duration<double>(clock::now() - start).count();
  const HistogramSnapshot latency = rt.EmitLatency();
  if (latency.count == 0) {
    return cli.Fail("no emit-latency samples were recorded — the run "
                    "produced no delivered evaluations (rate/duration too "
                    "small?)");
  }
  const double achieved = static_cast<double>(produced) / wall_sec;
  // The overload ledger: every element a bounded queue evicted is
  // counted here and dead-lettered, so delivered + shed partitions the
  // input.
  const shard::OverloadLedger ledger = rt.Overload();
  const long long shed_total = ledger.queue_shed;
  const long long max_lag_ms = rt.MaxLagMillis();
  const double rss_mb = RssMb();

  char line[640];
  std::snprintf(line, sizeof(line),
                "events=%lld (%.0f/s target %.0f/s)  shards=%d  queries=%d"
                "  emits=%lld  rows=%lld\n"
                "emit latency (us): p50=%lld p99=%lld p999=%lld max=%lld"
                "  samples=%lld\n"
                "max lag: %lld ms  dead letters: %lld\n"
                "overload: shed=%lld rejected=%lld trimmed=%lld"
                " producer_retries=%lld  rss=%.1f MiB\n",
                static_cast<long long>(produced), achieved, rate,
                options.shards, queries,
                static_cast<long long>(sink.emits()),
                static_cast<long long>(sink.rows()),
                static_cast<long long>(latency.p50),
                static_cast<long long>(latency.p99),
                static_cast<long long>(latency.p999),
                static_cast<long long>(latency.max),
                static_cast<long long>(latency.count), max_lag_ms,
                static_cast<long long>(ledger.dead_letters), shed_total,
                static_cast<long long>(ledger.rejected),
                static_cast<long long>(ledger.trimmed),
                static_cast<long long>(rt.producer_retries()), rss_mb);
  std::cout << line;

  std::ofstream out(out_path);
  if (!out) return cli.Fail("cannot open '" + out_path + "'");
  out << "{\n"
      << "  \"rate_target\": " << rate << ",\n"
      << "  \"rate_achieved\": " << achieved << ",\n"
      << "  \"duration_sec\": " << duration_sec << ",\n"
      << "  \"shards\": " << options.shards << ",\n"
      << "  \"queries\": " << queries << ",\n"
      << "  \"events\": " << produced << ",\n"
      << "  \"emits\": " << sink.emits() << ",\n"
      << "  \"rows\": " << sink.rows() << ",\n"
      << "  \"latency_samples\": " << latency.count << ",\n"
      << "  \"p50_us\": " << latency.p50 << ",\n"
      << "  \"p99_us\": " << latency.p99 << ",\n"
      << "  \"p999_us\": " << latency.p999 << ",\n"
      << "  \"max_us\": " << latency.max << ",\n"
      << "  \"max_lag_ms\": " << max_lag_ms << ",\n"
      << "  \"dead_letters\": " << ledger.dead_letters << ",\n"
      << "  \"queue_capacity\": " << options.queue.capacity << ",\n"
      << "  \"overflow_policy\": \""
      << OverflowPolicyName(options.queue.overflow_policy) << "\",\n"
      << "  \"shed_total\": " << shed_total << ",\n"
      << "  \"rejected_total\": " << ledger.rejected << ",\n"
      << "  \"trimmed_total\": " << ledger.trimmed << ",\n"
      << "  \"producer_retries\": " << rt.producer_retries() << ",\n"
      << "  \"rss_mb\": " << rss_mb << "\n"
      << "}\n";
  std::cerr << "[latency_harness] wrote " << out_path << "\n";
  return 0;
}
