// perfbench: the end-to-end benchmark of the Seraph engine (README.md).
//
//   seraph_perfbench --workload <hub_slide|fleet_shared|fraud_durable>
//                    [--seed N] [--seconds S] [--trace 0|1] [--toy]
//                    [--work-dir DIR] [--trace-file PATH]
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run, and the spans are written to --trace-file as a Chrome trace.
// Every run re-checks sampled emissions against the snapshot-reducibility
// oracle and fails (correct=false) on any mismatch or failed operation.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "replay.h"
#include "seraph/seraph_parser.h"
#include "stream/window.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace seraph;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 7;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".bench_build";
  std::string trace_file;
};

// One set-up plus (optionally) the timed region over a fresh system.
struct Pass {
  // Declared before `system`, so the engine (which points at the sink) is
  // destroyed first.
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<System> system;
  double setup_s = 0;
  int64_t fill_elements = 0;
  int64_t fill_rss_growth_kib = 0;
  int64_t timed_elements = 0;
  int64_t call_ns = 0;  // Inside Produce/Ingest + PumpAll, timed region.
  int64_t pump_ns = 0;
  int64_t deliveries = 0;
  int workers = 1;  // Evaluation threads behind each pump.
  int64_t rss_peak_kib = 0;
  int64_t retained = 0;
  int64_t timed_spans = 0;  // Spans recorded during the timed region.
  int64_t dropped = 0;  // Elements missing from the engine's streams.
  EngineCounters counters;  // Timed-region diff.
};

class Runner {
 public:
  Runner(Workload* workload, SpanLog* spans) : w_(workload), spans_(spans) {}

  Status Init() {
    for (const std::string& text : w_->queries()) {
      SERAPH_ASSIGN_OR_RETURN(RegisteredQuery q, ParseSeraphQuery(text));
      parsed_.push_back(std::move(q));
    }
    const Duration every = parsed_.front().every;
    for (const RegisteredQuery& q : parsed_) {
      if (q.every != every) {
        return Status::InvalidArgument("workload queries share one EVERY");
      }
    }
    const auto& steps = w_->steps();
    timed_after_ = steps[w_->timed_begin() - 1].instant;
    last_ = steps.back().instant;
    instants_ = (last_ - timed_after_).millis() / every.millis();
    // Oracle samples: evenly spaced timed instants, last one included.
    const int64_t k = std::min<int64_t>(8, instants_);
    for (int64_t i = 0; i < k; ++i) {
      const int64_t index = k == 1 ? instants_ : 1 + i * (instants_ - 1) / (k - 1);
      samples_.insert(timed_after_.millis() + index * every.millis());
    }
    return Status::OK();
  }

  // Resets the per-pass stream accounting (each pass starts a new system).
  void ResetAccounting() { handed_.clear(); }

  int64_t instants() const { return instants_; }
  int64_t expected_emissions() const {
    return instants_ * static_cast<int64_t>(parsed_.size());
  }
  Timestamp timed_after() const { return timed_after_; }
  Timestamp last() const { return last_; }
  const std::vector<RegisteredQuery>& parsed() const { return parsed_; }

  // Set-up (construction, registration, window fill, warm-up) and, when
  // `timed`, the timed region. The system stays alive in `pass`.
  Status RunPass(int rep, bool timed, Pass* pass) {
    w_->ResetInput();
    pass->sink = std::make_unique<BenchSink>(spans_);
    pass->sink->KeepInstants(samples_);
    CallTimer setup;
    setup.Start();
    auto system = w_->NewSystem(pass->sink.get(), rep);
    setup.Stop();
    if (!system.ok()) return system.status();
    pass->system = std::move(system).value();
    System* sys = pass->system.get();
    pass->workers = sys->workers();
    for (const std::string& text : w_->queries()) {
      ScopedSpan span(spans_, "RegisterText", "seraph", -1);
      setup.Start();
      Status registered = sys->Register(text);
      setup.Stop();
      SERAPH_RETURN_IF_ERROR(registered);
    }
    // In a fresh process RSS only grows across the fill, so the growth of
    // its high-water mark is the memory the fill retained.
    const int64_t rss_before_fill = RssPeakKiB();
    for (size_t i = 0; i < w_->fill_steps(); ++i) {
      SERAPH_RETURN_IF_ERROR(HandIn(sys, i, &setup, &pass->fill_elements));
    }
    SERAPH_RETURN_IF_ERROR(PumpStep(sys, pass, w_->fill_steps() - 1, &setup));
    pass->fill_rss_growth_kib = RssPeakKiB() - rss_before_fill;
    for (size_t i = w_->fill_steps(); i < w_->timed_begin(); ++i) {
      int64_t warm_elements = 0;
      SERAPH_RETURN_IF_ERROR(HandIn(sys, i, &setup, &warm_elements));
      SERAPH_RETURN_IF_ERROR(PumpStep(sys, pass, i, &setup));
    }
    pass->setup_s = static_cast<double>(setup.total_ns()) / 1e9;
    if (!timed) return Status::OK();

    const EngineCounters before = ReadCounters(sys->engines());
    const int64_t deliveries_before = sys->deliveries();
    const size_t spans_before = spans_->size();
    CallTimer calls;
    pass->sink->set_recording(true);
    for (size_t i = w_->timed_begin(); i < w_->steps().size(); ++i) {
      SERAPH_RETURN_IF_ERROR(HandIn(sys, i, &calls, &pass->timed_elements));
      const int64_t pump_before = calls.total_ns();
      SERAPH_RETURN_IF_ERROR(PumpStep(sys, pass, i, &calls));
      pass->pump_ns += calls.total_ns() - pump_before;
    }
    pass->sink->set_recording(false);
    pass->call_ns = calls.total_ns();
    pass->timed_spans = static_cast<int64_t>(spans_->size() - spans_before);
    pass->rss_peak_kib = RssPeakKiB();
    pass->counters = Diff(ReadCounters(sys->engines()), before);
    pass->deliveries = sys->deliveries() - deliveries_before;
    pass->retained = sys->RetainedElements();
    // Every element handed in must sit in each engine stream it routes to.
    for (const ContinuousEngine* engine : sys->engines()) {
      for (const std::string& name : engine->StreamNames()) {
        const int64_t want = handed_[name];
        const int64_t got = static_cast<int64_t>(engine->stream(name).size());
        if (got != want) pass->dropped += std::llabs(want - got);
      }
    }
    return Status::OK();
  }

  // Recomputes every sampled (query, instant) from scratch over a stream
  // regenerated from the seed and compares it with what the sink received.
  // Returns the number of mismatches.
  Result<int64_t> CheckOracle(const BenchSink& sink) {
    w_->ResetInput();
    std::map<std::string, PropertyGraphStream> streams;
    const int64_t last_sample = *samples_.rbegin();
    for (size_t i = 0; i < w_->steps().size(); ++i) {
      const Step& step = w_->steps()[i];
      if (step.instant.millis() > last_sample) break;
      for (Element& e : w_->MakeStep(i)) {
        const std::vector<std::string> names =
            step.tick ? std::vector<std::string>{"ticks"} : w_->StreamsOf(*e.graph);
        for (const std::string& name : names) {
          SERAPH_RETURN_IF_ERROR(streams[name].Append(e.graph, e.timestamp));
        }
      }
    }
    int64_t mismatches = 0;
    for (int64_t t_ms : samples_) {
      const Timestamp t = Timestamp::FromMillis(t_ms);
      for (RegisteredQuery& q : parsed_) {
        const auto& match = std::get<MatchClause>(q.clauses.front());
        SERAPH_ASSIGN_OR_RETURN(Table want,
                                OracleReport(&q, streams[match.from_stream], t));
        auto it = sink.kept().find({q.name, t_ms});
        const TimeInterval window =
            *WindowConfig{q.starting_at, q.MaxWidth(), q.every}.ActiveWindow(t);
        if (it == sink.kept().end() || !(it->second.table == want) ||
            !(it->second.window == window)) {
          ++mismatches;
          std::cerr << "oracle mismatch: query " << q.name << " at "
                    << t.ToString() << "\n";
        }
      }
    }
    checked_ = static_cast<int64_t>(samples_.size() * parsed_.size());
    return mismatches;
  }
  int64_t checked() const { return checked_; }

 private:
  Status HandIn(System* sys, size_t i, CallTimer* timer, int64_t* count) {
    const Step& step = w_->steps()[i];
    const int64_t ms = step.instant.millis();
    std::vector<Element> elements = w_->MakeStep(i);
    for (const Element& e : elements) {
      ScopedSpan span(spans_, sys->hand_span(), sys->hand_layer(), ms);
      timer->Start();
      Status handed = sys->Hand(e, step.tick);
      timer->Stop();
      SERAPH_RETURN_IF_ERROR(handed);
    }
    for (const Element& e : elements) {
      if (step.tick) {
        ++handed_["ticks"];
      } else {
        for (const std::string& name : w_->StreamsOf(*e.graph)) ++handed_[name];
      }
    }
    *count += static_cast<int64_t>(elements.size());
    return Status::OK();
  }

  Status PumpStep(System* sys, Pass* pass, size_t i, CallTimer* timer) {
    const Step& step = w_->steps()[i];
    ScopedSpan span(spans_, sys->pump_span(), sys->pump_layer(),
                    step.instant.millis());
    pass->sink->BeginPump(timer->Start());
    Status pumped = sys->Pump(step.tick);
    timer->Stop();
    return pumped;
  }

  Workload* w_;
  SpanLog* spans_;
  std::vector<RegisteredQuery> parsed_;
  Timestamp timed_after_;
  Timestamp last_;
  int64_t instants_ = 0;
  std::set<int64_t> samples_;
  std::map<std::string, int64_t> handed_;
  int64_t checked_ = 0;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double MeanSpanUs(const std::map<std::string, SpanLog::Summary>& spans,
                  std::initializer_list<const char*> names) {
  double total = 0;
  int64_t count = 0;
  for (const char* name : names) {
    auto it = spans.find(name);
    if (it == spans.end()) continue;
    total += it->second.total_us;
    count += it->second.count;
  }
  return Ratio(total, static_cast<double>(count));
}

double MedianSpanUs(const std::map<std::string, SpanLog::Summary>& spans,
                    const char* name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : Median(it->second.durations_us);
}

double SumSpanUs(const std::map<std::string, SpanLog::Summary>& spans,
                 std::initializer_list<const char*> names) {
  double total = 0;
  for (const char* name : names) {
    auto it = spans.find(name);
    if (it != spans.end()) total += it->second.self_us;
  }
  return total;
}

double Throughput(const Pass& pass) {
  return Ratio(static_cast<double>(pass.timed_elements),
               static_cast<double>(pass.call_ns) / 1e9);
}

// Per-layer metrics of a traced pass (see README.md for definitions).
std::vector<Metric> PerLayer(const Runner& runner, const Pass& traced,
                             const SpanLog& spans, const ReplayStats& replay,
                             double span_ns) {
  const auto s = spans.Summarize();
  const EngineCounters& c = traced.counters;
  const double evals = static_cast<double>(c.evaluations);
  const double fresh = static_cast<double>(c.evaluations - c.reuse_hits);
  double stage_total = 0;
  for (int64_t us : c.stage_us) stage_total += static_cast<double>(us);
  const double replay_window = SumSpanUs(s, {"WindowConfig::ActiveWindow"});
  const double replay_snapshot = SumSpanUs(s, {"IncrementalSnapshotter::Advance"});
  const double replay_repair = SumSpanUs(s, {"DeltaIndex::ObserveAdvance"});
  const double replay_match = SumSpanUs(s, {"DeltaIndex::Emit", "ExecuteSingleQuery"});
  const double replay_policy = SumSpanUs(s, {"Table::BagDifference"});
  const double replay_total = replay_window + replay_snapshot + replay_repair +
                              replay_match + replay_policy;
  return {
      {"stream.snapshot_us", MeanSpanUs(s, {"IncrementalSnapshotter::Advance"}), "us"},
      {"stream.recomputed_per_eval", Ratio(static_cast<double>(c.entities_recomputed), evals), "count"},
      {"stream.churn_per_eval", Ratio(static_cast<double>(c.elements_added + c.elements_evicted), evals), "count"},
      {"stream.snapshot_advances_per_instant", Ratio(static_cast<double>(c.snapshot_advances), static_cast<double>(runner.instants())), "count"},
      {"stream.retained_elems", static_cast<double>(traced.retained), "count"},
      {"stream.produce_us", MeanSpanUs(s, {"EventQueue::Produce"}), "us"},
      {"stream.window_us", MeanSpanUs(s, {"WindowConfig::ActiveWindow"}), "us"},
      {"seraph.batch_size_p50", HistogramPercentile(c.batch_size, 0.5), "count"},
      {"common.pool_efficiency", Ratio(stage_total, traced.workers * static_cast<double>(traced.pump_ns) / 1e3), "ratio"},
      {"graph.bytes_per_window_elem", Ratio(static_cast<double>(traced.fill_rss_growth_kib) * 1024.0, static_cast<double>(traced.fill_elements)), "B"},
      {"graph.snapshot_entities", replay.snapshot_entities, "count"},
      {"seraph.pump_ms_p50", MedianSpanUs(s, "StreamDriver::PumpAll") / 1e3, "ms"},
      {"seraph.delta_repair_us", MeanSpanUs(s, {"DeltaIndex::ObserveAdvance"}), "us"},
      {"seraph.delta_hit_ratio", Ratio(static_cast<double>(c.delta_hits), static_cast<double>(c.delta_hits + c.delta_fallbacks)), "ratio"},
      {"cypher.match_us", MeanSpanUs(s, {"DeltaIndex::Emit", "ExecuteSingleQuery"}), "us"},
      {"cypher.rows_per_eval", Ratio(static_cast<double>(c.match_rows), fresh), "count"},
      {"seraph.policy_us", MeanSpanUs(s, {"Table::BagDifference"}), "us"},
      {"seraph.emit_ratio", Ratio(static_cast<double>(c.rows_emitted), static_cast<double>(c.match_rows)), "ratio"},
      {"seraph.sink_us", MeanSpanUs(s, {"sink"}), "us"},
      {"seraph.reuse_ratio", Ratio(static_cast<double>(c.reuse_hits), evals), "ratio"},
      {"seraph.register_ms", MeanSpanUs(s, {"RegisterText"}) / 1e3, "ms"},
      {"persist.checkpoint_ms_p50", HistogramPercentile(c.checkpoint_us, 0.5) / 1e3, "ms"},
      {"persist.bytes_per_checkpoint", Ratio(static_cast<double>(c.checkpoint_bytes.sum), static_cast<double>(c.checkpoint_bytes.count)), "B"},
      {"persist.checkpoints", static_cast<double>(c.checkpoints), "count"},
      {"shard.ingest_us", MeanSpanUs(s, {"ShardedEngine::Ingest"}), "us"},
      {"shard.pump_ms_p50", MedianSpanUs(s, "ShardedEngine::PumpAll") / 1e3, "ms"},
      {"shard.deliveries_per_elem", Ratio(static_cast<double>(traced.deliveries), static_cast<double>(traced.timed_elements)), "count"},
      // The engine's own stage series over the timed region, per
      // evaluation: the cross-check next to the replay.
      {"engine.window_us", Ratio(static_cast<double>(c.stage_us[0]), evals), "us"},
      {"engine.snapshot_us", Ratio(static_cast<double>(c.stage_us[1]), evals), "us"},
      {"engine.match_us", Ratio(static_cast<double>(c.stage_us[2]), evals), "us"},
      {"engine.policy_us", Ratio(static_cast<double>(c.stage_us[3]), evals), "us"},
      {"engine.sink_us", Ratio(static_cast<double>(c.stage_us[4]), evals), "us"},
      {"replay.snapshot_share", Ratio(replay_snapshot, replay_total), "ratio"},
      {"replay.repair_share", Ratio(replay_repair, replay_total), "ratio"},
      {"replay.match_share", Ratio(replay_match, replay_total), "ratio"},
      {"seraph.instants", static_cast<double>(runner.instants()), "count"},
      {"proc.samples", static_cast<double>(traced.sink->recorded()), "count"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.throughput_eps", Throughput(traced), "1/s"},
      {"trace.span_ns", span_ns, "ns"},
      {"trace.overhead_pct", 100.0 * Ratio(static_cast<double>(traced.timed_spans) * span_ns, static_cast<double>(traced.call_ns)), "%"},
  };
}

// Cost of recording one span (open + close), measured on a scratch log.
double SpanCostNs() {
  constexpr int kSpans = 200000;
  SpanLog log;
  log.set_enabled(true);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) log.Close(log.Open("calibrate", "bench", i));
  return static_cast<double>(NowNs() - start) / kSpans;
}

int Fail(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  return 1;
}

int Run(const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  const double scale = options.seconds / 10.0;
  std::unique_ptr<Workload> workload = MakeWorkload(
      options.workload, options.seed, scale, options.toy, options.work_dir);
  if (workload == nullptr) return Fail("unknown workload '" + options.workload + "'");
  SpanLog spans;
  Runner runner(workload.get(), &spans);
  if (Status s = runner.Init(); !s.ok()) return Fail(s.ToString());

  // One pass: set-up, then the timed region; with --trace 1 every call the
  // benchmark makes is wrapped in a span, and the replay follows.
  spans.set_enabled(options.trace);
  Pass pass;
  if (Status s = runner.RunPass(0, true, &pass); !s.ok()) {
    return Fail("run failed: " + s.ToString());
  }
  std::vector<double> setups{pass.setup_s};
  ReplayStats replay;
  if (options.trace) {
    std::vector<ReplayQuery> queries;
    for (const RegisteredQuery& q : runner.parsed()) {
      const auto& match = std::get<MatchClause>(q.clauses.front());
      auto stream = pass.system->StreamOf(q.name, match.from_stream);
      if (!stream.ok()) return Fail(stream.status().ToString());
      queries.push_back(ReplayQuery{workload->queries()[queries.size()], *stream});
    }
    if (Status s = Replay(queries, runner.timed_after(), runner.last(), &spans,
                          &replay);
        !s.ok()) {
      return Fail("replay failed: " + s.ToString());
    }
    spans.set_enabled(false);
  }
  pass.system.reset();
  Result<int64_t> mismatches = runner.CheckOracle(*pass.sink);
  if (!mismatches.ok()) return Fail("oracle failed: " + mismatches.status().ToString());
  if (!options.trace) {
    // More set-ups after the timed region (so they cannot inflate its peak
    // RSS); setup_s reports the median.
    for (int rep = 1; rep < kSetups; ++rep) {
      Pass again;
      runner.ResetAccounting();
      if (Status s = runner.RunPass(rep, false, &again); !s.ok()) {
        return Fail("set-up failed: " + s.ToString());
      }
      setups.push_back(again.setup_s);
    }
  }

  const Pass& m = pass;
  std::cerr << "set-up samples (s):";
  for (double v : setups) std::cerr << " " << v;
  std::cerr << "\n";
  const int64_t received = m.sink->recorded();
  const int64_t expected = runner.expected_emissions();
  // Each query must have delivered every instant of the timed region.
  int64_t missing = 0;
  for (const RegisteredQuery& q : runner.parsed()) {
    auto it = m.sink->recorded_per_query().find(q.name);
    const int64_t got = it == m.sink->recorded_per_query().end() ? 0 : it->second;
    missing += std::llabs(runner.instants() - got);
  }
  const int64_t failed = m.counters.eval_failures +
                         m.counters.checkpoint_failures + missing +
                         *mismatches + m.dropped;
  std::cout << "# " << workload->name() << " seed=" << options.seed
            << " instants=" << runner.instants() << " emissions=" << received
            << "/" << expected << " latency_samples=" << received
            << " oracle_checked=" << runner.checked()
            << " oracle_mismatches=" << *mismatches
            << " dropped_elements=" << m.dropped << " digest=" << std::hex
            << m.sink->digest() << std::dec << "\n";

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = PerLayer(runner, pass, spans, replay, SpanCostNs());
    std::string path = options.trace_file;
    if (path.empty()) {
      path = options.work_dir + "/traces/" + options.workload + "-seed" +
             std::to_string(options.seed) + ".trace.json";
    }
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    const std::string other = "{\"workload\": \"" + options.workload +
                              "\", \"seed\": " + std::to_string(options.seed) +
                              ", \"per_layer\": " + MetricsJson(metrics) + "}";
    if (Status s = spans.WriteChromeTrace(path, other); !s.ok()) {
      return Fail(s.ToString());
    }
    std::cout << "# trace written to " << path << "\n";
  } else {
    metrics = {
        {"throughput_eps", Throughput(m), "1/s"},
        {"proc_p50_ms", Percentile(m.sink->latencies_ms(), 0.50), "ms"},
        {"proc_p99_ms", Percentile(m.sink->latencies_ms(), 0.99), "ms"},
        {"rss_peak_mb", static_cast<double>(m.rss_peak_kib) / 1024.0, "MiB"},
        {"setup_s", Median(setups), "s"},
    };
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(expected, 1)
            << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--toy") {
      options->toy = true;
    } else if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--work-dir") {
      if (!value(&options->work_dir)) return false;
    } else if (arg == "--trace-file") {
      if (!value(&options->trace_file)) return false;
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace") {
      if (!value(&v)) return false;
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || n < 0) return false;
      if (arg == "--seed") options->seed = static_cast<uint64_t>(n);
      if (arg == "--seconds") options->seconds = static_cast<int>(std::max(1LL, n));
      if (arg == "--trace") options->trace = n != 0;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: seraph_perfbench --workload "
                 "<hub_slide|fleet_shared|fraud_durable> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--toy] [--work-dir DIR] "
                 "[--trace-file PATH]\n";
    return 2;
  }
  return perfbench::Run(options);
}
