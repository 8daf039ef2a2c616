// seraph_run — run a Seraph continuous query over a recorded event log.
// `seraph_run --help` lists the flags.
//
//   seraph_run <query.seraph> <events.log> [flags]
//   seraph_run --inspect-checkpoint --checkpoint-dir=<dir>
//
// The query file holds one REGISTER QUERY statement; the event log uses
// the text format of io/graph_text.h (`@ <ISO datetime>` headers followed
// by node/rel lines). Results are printed as ASCII tables per evaluation,
// or as CSV / JSON lines with --csv / --json. With --stats, per-query
// execution counters are reported at the end.
//
// Every run feeds the log through the serving runtime's lane
// (runtime/runtime.h): an EventQueue, optionally bounded
// (--queue-capacity, --overflow-policy), pumped by a StreamDriver into
// the engine. Output is identical at any thread count, and at any queue
// bound unless elements are shed.
//
// Observability (docs/INTERNALS.md, "Observability" and "Latency
// accounting & lag"): --metrics dumps the engine registry in Prometheus
// text after the run, --trace writes a chrome://tracing file,
// --progress prints counters every n events, --metrics-port serves
// /metrics, /healthz and /queries during the run, and --stats-interval
// prints the runtime's status line.
//
// Fault tolerance (docs/INTERNALS.md, "Failure model"): the output sink
// is retried on transient failures and quarantined after repeated ones;
// --dead-letter writes what it permanently rejects (plus poison and shed
// elements) to <path> as JSON lines. The
// SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS environment knobs arm the
// deterministic fault injector for chaos runs (common/fault.h).
//
// Durability (docs/INTERNALS.md, "Durability & recovery"):
// --checkpoint-dir commits an atomic checkpoint (engine state, consumer
// offset, dead letters) at the end of every pump; --restore resumes from
// the newest valid generation and produces the log from its consumer
// offset on, so the output is the suffix the checkpoint did not cover,
// bit-identically; a log shorter than that offset fails the run;
// --inspect-checkpoint prints every generation and exits.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/trace.h"
#include "io/graph_text.h"
#include "persist/recovery.h"
#include "runtime/flags.h"
#include "runtime/runtime.h"
#include "seraph/seraph_parser.h"
#include "seraph/sinks.h"

namespace {

using namespace seraph;

// --inspect-checkpoint: a human-readable generation-by-generation summary.
int InspectCheckpoints(const runtime::CommandLine& cli,
                       const std::string& dir) {
  auto summaries = persist::InspectCheckpoints(dir);
  if (!summaries.ok()) return cli.Fail(summaries.status().ToString());
  if (summaries->empty()) {
    std::cout << "no checkpoints in '" << dir << "'\n";
    return 0;
  }
  for (const persist::ManifestSummary& summary : *summaries) {
    std::cout << persist::ManifestFileName(summary.seq) << ": "
              << (summary.valid ? "VALID" : "INVALID") << " ("
              << summary.bytes << " bytes)\n";
    if (!summary.valid) {
      std::cout << "  error: " << summary.error << "\n";
      continue;
    }
    const persist::CheckpointImage& image = *summary.image;
    std::cout << "  clock: " << image.engine.clock.ToString() << "\n";
    for (const auto& [name, stream] : image.engine.streams) {
      std::cout << "  stream '" << name << "': " << stream.elements.size()
                << " retained element(s) from offset " << stream.base_offset
                << ", max " << stream.max_timestamp.ToString();
      if (stream.base_offset > 0) {
        std::cout << ", trimmed through "
                  << stream.trimmed_through.ToString();
      }
      std::cout << "\n";
    }
    for (const auto& [consumer, offset] : image.offsets) {
      std::cout << "  offset " << consumer << ": " << offset << "\n";
    }
    for (const QueryCheckpoint& query : image.engine.queries) {
      std::cout << "  query '" << query.name
                << "': next_eval=" << query.next_eval.ToString()
                << ", evaluations=" << query.stats.evaluations
                << (query.disabled ? ", DISABLED" : "") << "\n";
    }
    std::cout << "  dead letters: " << image.dead_letters.size() << " held, "
              << image.dead_letter_totals.total() << " in total\n";
  }
  return 0;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void PrintProgressLine(const ContinuousEngine& engine,
                       const std::string& name, size_t ingested,
                       size_t total) {
  auto stats = engine.StatsFor(name);
  std::cerr << "[seraph_run] ingested " << ingested << "/" << total
            << " events";
  if (stats.ok()) {
    std::cerr << ", evaluations=" << stats->evaluations
              << ", reused=" << stats->reused_results
              << ", rows_emitted=" << stats->rows_emitted;
  }
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool json = false;
  bool stats = false;
  bool explain = false;
  bool inspect_checkpoint = false;
  std::string metrics_path;
  std::string trace_path;
  std::string dead_letter_path;
  int64_t progress_every = 0;
  runtime::RuntimeOptions options;
  options.tool = "seraph_run";
  runtime::CommandLine cli(
      "seraph_run",
      "<query.seraph> <events.log> [flags]\n"
      "       seraph_run --inspect-checkpoint --checkpoint-dir=<dir>",
      {
          {"--csv", &csv, "print results as CSV"},
          {"--json", &json, "print results as JSON lines"},
          {"--stats", &stats, "print per-query counters at the end"},
          {"--explain", &explain, "print the parsed query to stderr"},
          {"--metrics=<path|->", &metrics_path,
           "dump the metrics registry after the run (- = stdout)"},
          {"--trace=<path>", &trace_path, "write a chrome://tracing file"},
          {"--progress=<n>", &progress_every,
           "print counters every <n> events", 1},
          {"--dead-letter=<path>", &dead_letter_path,
           "write dead-lettered results and elements as JSON lines"},
          {"--threads=<n>", &options.engine.eval_threads,
           "evaluation threads (0 = hardware concurrency)", 0, 4096,
           "SERAPH_EVAL_THREADS"},
          {"--match-threads=<n>", &options.engine.match_threads,
           "intra-query matching threads (0 = hardware concurrency)", 0,
           4096, "SERAPH_MATCH_THREADS"},
          {"--checkpoint-dir=<dir>", &options.checkpoint_dir,
           "commit checkpoints into <dir>"},
          {"--restore", &options.restore,
           "resume from the newest checkpoint in --checkpoint-dir"},
          {"--inspect-checkpoint", &inspect_checkpoint,
           "print the generations in --checkpoint-dir and exit"},
          {"--metrics-port=<p>", &options.metrics_port,
           "serve /metrics, /healthz, /queries on 127.0.0.1:<p> "
           "(0 = ephemeral)",
           0, 65535},
          {"--stats-interval=<sec>", &options.stats_interval_sec,
           "print a status line every <sec> seconds", 1},
          {"--queue-capacity=<n>", &options.queue.capacity,
           "bound the event queue (default unbounded)", 1, runtime::kNoMax,
           "SERAPH_QUEUE_CAPACITY"},
          {"--overflow-policy=<reject|shed_oldest>",
           &options.queue.overflow_policy,
           "what a full queue does (default reject)", 0, runtime::kNoMax,
           "SERAPH_OVERFLOW_POLICY"},
          {"--eval-deadline-ms=<n>", &options.engine.eval_deadline_millis,
           "cancel an evaluation after <n> ms (0 = off)", 0,
           runtime::kNoMax, "SERAPH_EVAL_DEADLINE_MS"},
      });
  std::vector<std::string> positional;
  if (auto exit_code = cli.Parse(argc, argv, &positional)) return *exit_code;
  if (csv && json) return cli.Fail("--csv and --json are mutually exclusive");
  if (inspect_checkpoint) {
    if (options.checkpoint_dir.empty()) {
      return cli.Fail("--inspect-checkpoint requires --checkpoint-dir=<dir>");
    }
    return InspectCheckpoints(cli, options.checkpoint_dir);
  }
  if (options.restore && options.checkpoint_dir.empty()) {
    return cli.Fail("--restore requires --checkpoint-dir=<dir>");
  }
  if (positional.size() != 2) {
    return cli.Fail("expected <query.seraph> <events.log> (see --help)");
  }

  auto query_text = ReadFile(positional[0]);
  if (!query_text.ok()) return cli.Fail(query_text.status().ToString());
  auto query = ParseSeraphQuery(*query_text);
  if (!query.ok()) return cli.Fail(query.status().ToString());
  if (explain) std::cerr << query->Describe();

  auto log_text = ReadFile(positional[1]);
  if (!log_text.ok()) return cli.Fail(log_text.status().ToString());
  std::istringstream log_stream(*log_text);
  auto events = io::ReadEventLog(&log_stream);
  if (!events.ok()) return cli.Fail(events.status().ToString());

  // Output columns come from the query's own projection aliases.
  std::vector<std::string> columns;
  for (const ProjectionItem& item : query->projection.items) {
    columns.push_back(item.alias);
  }
  const std::string name = query->name;

  // Environment-driven fault injection for chaos runs (no-op unless
  // SERAPH_FAULT_SEED / SERAPH_FAULT_POINTS are set).
  FaultInjector::Global().ConfigureFromEnv();

  TraceRecorder tracer;
  if (!trace_path.empty()) {
    tracer.Enable();
    options.engine.tracer = &tracer;
  }
  options.dead_letter_failures = !dead_letter_path.empty();
  runtime::Runtime rt(options);
  ContinuousEngine& engine = rt.engine();
  PrintingSink printer(&std::cout, columns);
  CsvSink csv_sink(&std::cout, columns);
  JsonLinesSink json_sink(&std::cout, /*include_empty=*/false);
  // With a dead-letter destination the sink gets the full isolation
  // treatment: transient failures retried, permanent rejections captured.
  SinkPolicy sink_policy;
  sink_policy.retry.max_attempts = 3;
  rt.AddSink(csv ? static_cast<EmitSink*>(&csv_sink)
             : json ? static_cast<EmitSink*>(&json_sink)
                    : static_cast<EmitSink*>(&printer),
             sink_policy);
  if (auto placed = rt.Register(*query_text); !placed.ok()) {
    return cli.Fail(placed.status().ToString());
  }
  if (Status s = rt.Start(); !s.ok()) return cli.Fail(s.ToString());
  // A restored run resumes the log at the checkpointed consumer offset:
  // the generation covers every element before it.
  size_t produced = rt.next_offset();
  if (produced > events->size()) {
    return cli.Fail("the checkpoint in '" + options.checkpoint_dir +
                    "' covers " + std::to_string(produced) +
                    " element(s), but '" + positional[1] + "' holds " +
                    std::to_string(events->size()));
  }
  for (; produced < events->size(); ++produced) {
    const StreamElement& event = (*events)[produced];
    if (Status s = rt.Produce(event.graph, event.timestamp); !s.ok()) {
      return cli.Fail(s.ToString());
    }
    if (progress_every > 0 &&
        (produced + 1) % static_cast<size_t>(progress_every) == 0) {
      if (Status s = rt.Pump(); !s.ok()) return cli.Fail(s.ToString());
      PrintProgressLine(engine, name, produced + 1, events->size());
    }
  }
  if (Status s = rt.Finish(); !s.ok()) return cli.Fail(s.ToString());
  if (progress_every > 0) {
    PrintProgressLine(engine, name, produced, events->size());
  }
  if (options.queue.capacity > 0) {
    const EventQueue& queue = rt.queue();
    std::cerr << "[seraph_run] queue: capacity " << options.queue.capacity
              << " (policy "
              << OverflowPolicyName(options.queue.overflow_policy)
              << "), shed " << queue.shed_total() << ", rejected "
              << queue.rejected_total() << ", trimmed "
              << queue.trimmed_total() << "\n";
  }

  // Query isolation: evaluation failures no longer abort the run, so
  // surface them here — and treat a disabled query (error budget
  // exhausted) as a failed run.
  QueryStats final_stats = *engine.StatsFor(name);
  if (final_stats.eval_failures > 0) {
    std::cerr << "[seraph_run] " << final_stats.eval_failures
              << " evaluation(s) failed, last error: "
              << final_stats.last_error.ToString() << "\n";
  }

  if (stats) {
    std::cerr << "evaluations: " << final_stats.evaluations
              << ", reused: " << final_stats.reused_results
              << ", rows emitted: " << final_stats.rows_emitted << "\n"
              << "latency (us): " << engine.LatencyFor(name)->ToString()
              << "\n"
              << "stage micros (cumulative):";
    // This process's share: the stage histograms restart on --restore.
    for (const char* stage : {"window", "snapshot", "match", "policy",
                              "sink"}) {
      std::cerr << " " << stage << "="
                << engine.metrics()
                       .FindHistogram("seraph_stage_micros",
                                      {{"query", name}, {"stage", stage}})
                       ->sum();
    }
    std::cerr << "\n";
  }
  if (!metrics_path.empty()) {
    std::string text = engine.metrics().ToPrometheusText();
    if (metrics_path == "-") {
      std::cout << text;
    } else {
      std::ofstream out(metrics_path);
      if (!out) {
        return cli.Fail("cannot open metrics file '" + metrics_path + "'");
      }
      out << text;
    }
  }
  if (!dead_letter_path.empty()) {
    const DeadLetterQueue& dead_letters = rt.dead_letters();
    if (!dead_letters.empty()) {
      std::ofstream out(dead_letter_path);
      if (!out) {
        return cli.Fail("cannot open dead-letter file '" + dead_letter_path +
                        "'");
      }
      if (Status s = dead_letters.WriteJsonLines(&out); !s.ok()) {
        return cli.Fail(s.ToString());
      }
      std::cerr << "[seraph_run] " << dead_letters.size()
                << " dead-lettered entr"
                << (dead_letters.size() == 1 ? "y" : "ies") << " written to "
                << dead_letter_path << " (" << dead_letters.total()
                << " in total)"
                << (engine.SinkQuarantined("output")
                        ? " (output sink quarantined)"
                        : "")
                << "\n";
    } else {
      std::cerr << "[seraph_run] no dead-lettered entries\n";
    }
  }
  if (!trace_path.empty()) {
    if (Status s = tracer.WriteJsonFile(trace_path); !s.ok()) {
      return cli.Fail(s.ToString());
    }
    std::cerr << "[seraph_run] wrote " << tracer.size()
              << " trace events to " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (engine.QueryDisabled(name)) {
    return cli.Fail("query '" + name + "' was disabled after repeated "
                    "evaluation failures (last: " +
                    final_stats.last_error.ToString() + ")");
  }
  return 0;
}
