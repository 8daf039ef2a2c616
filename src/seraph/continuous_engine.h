// The Seraph continuous query engine: the Fig. 5 pipeline.
//
//   stream S ──► window operator W(ω0, α, β) ──► snapshot graph G_w
//          ──► Cypher clause evaluation (fixed evaluation instant)
//          ──► report policy (SNAPSHOT / ON ENTERING / ON EXITING)
//          ──► stream of time-annotated tables (EMIT) or one table (RETURN)
//
// Evaluation is snapshot-reducible by construction (Def. 5.8): the result
// at every evaluation time instant equals running the body as a one-time
// Cypher query over the active window's snapshot graph; a property test
// asserts this against the independent one-time execution path.
//
// Beyond the paper's core, the engine implements four items of its §6/§8
// roadmap:
//  * multi-query window sharing (§6): one incrementally maintained
//    snapshot per distinct (stream, window configuration), advanced once
//    per evaluation instant for every query that reads it;
//  * result reuse across evaluations whose window contents are unchanged
//    ("avoidable re-executions on equal window contents", §6) — applied
//    only to queries whose results are window-content-deterministic;
//  * multiple named input streams (§8 (i)): each MATCH may window over a
//    specific stream via `WITHIN ... FROM <stream>`;
//  * static background graph data (§8 (iii)): entities present in every
//    snapshot underneath the stream's contributions.
#ifndef SERAPH_SERAPH_CONTINUOUS_ENGINE_H_
#define SERAPH_SERAPH_CONTINUOUS_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "seraph/dead_letter.h"
#include "seraph/seraph_query.h"
#include "stream/graph_stream.h"
#include "stream/snapshot.h"
#include "stream/window.h"
#include "table/time_table.h"

namespace seraph {

// Receives evaluation results. Implementations must not re-enter the
// engine.
class EmitSink {
 public:
  virtual ~EmitSink() = default;

  // Called once per evaluation that produces output under the query's
  // report policy. `table` carries the active window of the query's widest
  // WITHIN. Evaluations whose delta is empty (ON ENTERING / ON EXITING
  // with no change) are still reported, with an empty table, so sinks see
  // the full ET sequence.
  //
  // Returns OK when the result was accepted. A kUnavailable status marks
  // a transient failure the engine may retry per the sink's policy; any
  // other error is permanent for this delivery. Sink failures never fail
  // the evaluation: the engine isolates the sink (retry → dead-letter →
  // quarantine, see docs/INTERNALS.md "Failure model").
  virtual Status OnResult(const std::string& query_name,
                          Timestamp evaluation_time,
                          const TimeAnnotatedTable& table) = 0;
};

// Records every result per query; the recorded sequence is the
// time-varying table Ψ of Def. 5.7.
class CollectingSink final : public EmitSink {
 public:
  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override;

  // Results of `query_name` in evaluation order (empty if none).
  const TimeVaryingTable& ResultsFor(const std::string& query_name) const;

  // The result emitted at exactly `t`, if any.
  std::optional<TimeAnnotatedTable> ResultAt(const std::string& query_name,
                                             Timestamp t) const;

 private:
  std::map<std::string, TimeVaryingTable> results_;
  std::map<std::string, std::map<Timestamp, TimeAnnotatedTable>> by_time_;
};

struct EngineOptions {
  WindowSemantics semantics = WindowSemantics::kLookback;
  // Skip re-execution when every window's element range is unchanged
  // since the previous evaluation (and the query is window-content
  // deterministic) — ablated in bench_result_reuse.
  bool reuse_unchanged_windows = true;
  // Delta matching (docs/INTERNALS.md, "Incremental evaluation"): for
  // eligible single-pattern EMIT queries, keep a per-query partial-match
  // index synchronized with its shared window's dirty sets so an
  // evaluation costs work proportional to the window churn instead of
  // the window size — ablated in bench_delta. Not used while a
  // `parameters` value holds a node, relationship or path, or while a
  // pattern property value names an unbound one
  // (DeltaIndex::ParametersAdmit).
  bool delta_matching = true;
  // Greedy MATCH join-order optimization — ablated in bench_match.
  bool optimize_match_order = true;
  std::map<std::string, Value> parameters;
  // Optional span tracer (not owned; may outlive the engine's interest).
  // When null or disabled the instrumented paths never read the trace
  // clock — see common/trace.h. Spans map 1:1 onto the Fig. 5 stages
  // (window → snapshot → match → policy → sink).
  TraceRecorder* tracer = nullptr;
  // When set (not owned), results permanently rejected by a sink are
  // captured here instead of being lost.
  DeadLetterQueue* dead_letter = nullptr;
  // Worker threads for evaluation (docs/INTERNALS.md, "Parallel
  // evaluation"). 1 (default) keeps the serial engine; 0 means one
  // worker per hardware thread; N > 1 evaluates each instant's due
  // queries concurrently on N workers, and a batch smaller than the pool
  // gives its idle workers to its queries' seed scans, split into morsels
  // ("Intra-query parallelism"). Sink delivery stays sequential on the
  // coordinator in deterministic (timestamp, query name) order, so output
  // is identical to the serial engine at any thread count.
  int eval_threads = 1;
  // A seed scan is split into morsels only when its domain has at least
  // this many candidates.
  int match_min_seeds = 2048;
  // Seed candidates per morsel.
  int match_morsel_size = 512;
  // Evaluation deadline (docs/INTERNALS.md, "Overload & backpressure"):
  // when > 0, each query evaluation carries a cooperative cancellation
  // token the matcher checks at seed/expansion boundaries; an evaluation
  // exceeding the deadline fails with kDeadlineExceeded and flows through
  // the isolation path (dead-letter, error budget, disable, revive) like
  // any other evaluation failure. 0 (default) = no deadline, no token,
  // zero overhead. The deadline is measured on the latency clock
  // (`clock`), so tests drive it with a ManualClock.
  int64_t eval_deadline_millis = 0;
  // Query isolation: after this many *consecutive* failed evaluations a
  // query is disabled (it stops being scheduled; the rest of the fleet
  // keeps running — the query-side mirror of sink quarantine). 0 never
  // disables. ReviveQuery lifts it.
  int query_error_budget = 5;
  // The clock behind emit-latency accounting (docs/INTERNALS.md, "Latency
  // accounting & lag"): elements arriving unstamped are stamped with it at
  // ingestion, and sink delivery records each covered element's
  // ingest→emit latency into `seraph_emit_latency_micros{query=...}` and
  // its queue wait into `seraph_emit_stage_micros{query=...,stage=queue}`.
  // nullptr (default) = Clock::Steady(); tests inject a ManualClock for
  // deterministic latency histograms.
  const Clock* clock = nullptr;
};

// Per-sink failure handling (see docs/INTERNALS.md, "Failure model").
struct SinkPolicy {
  // Transient (kUnavailable) failures are retried in place, at once, up
  // to this many tries in all.
  RetryPolicy retry = RetryPolicy::None();
  // After this many *consecutive* failed deliveries (retries exhausted or
  // permanent error) the sink is quarantined: it stops receiving results
  // but evaluation and the other sinks continue.
  int quarantine_after = 5;
};

// Per-query execution counters: a view over the query's series in the
// engine's MetricsRegistry, which is their only record. Each count reads
// the `{query=...}` series named beside it. Stage times live only in
// `seraph_stage_micros{query,stage}`.
struct QueryStats {
  int64_t evaluations = 0;       // seraph_query_evaluations_total
  int64_t reused_results = 0;    // seraph_query_reuse_hits_total
  int64_t fresh_executions = 0;  // seraph_query_reuse_misses_total
  // seraph_query_match_rows_total: rows the fresh executions computed
  // (pre-policy); a reuse hit adds none.
  int64_t match_rows = 0;
  int64_t rows_emitted = 0;  // seraph_query_rows_emitted_total (post-policy)
  // Window / snapshot maintenance. A shared window's advance is charged
  // once, to its first due reader in name order (docs/INTERNALS.md,
  // "Shared windows"); its other readers at that instant count nothing.
  int64_t snapshots_incremental = 0;  // ..._snapshots_incremental_total
  int64_t snapshots_rebuilt = 0;      // ..._snapshots_rebuilt_total
  int64_t window_elements_added = 0;    // seraph_window_elements_added_total
  int64_t window_elements_evicted = 0;  // ..._elements_evicted_total
  // Query isolation (docs/INTERNALS.md, "Failure model").
  int64_t eval_failures = 0;  // seraph_query_eval_failures_total
  Status last_error;          // Most recent evaluation error (OK if none).

  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

// The persisted dynamic state of one registered query — everything the
// replay-exactness contract needs to resume the query's ET grid and
// report policy mid-stream (docs/INTERNALS.md, "Durability & recovery").
// The query *definition* is not captured: recovery re-registers queries
// from their source of truth (the run's configuration) and then overlays
// this state. Window/snapshotter internals and the unchanged-window reuse
// bookkeeping are deliberately absent: a restored query re-derives its
// windows from the restored streams on its next evaluation, and skipping
// the reuse fast path changes cost, never output.
struct QueryCheckpoint {
  std::string name;
  // ET-grid position: the next evaluation instant.
  Timestamp next_eval;
  bool done = false;      // RETURN-once query already produced its table.
  bool disabled = false;  // Disabled by the error budget (or RETURN fail).
  int consecutive_failures = 0;
  // Report-policy state: the previous evaluation's un-annotated result,
  // the minuend/subtrahend of the ON ENTERING / ON EXITING bag
  // differences.
  bool has_previous = false;
  Table previous_result;
  // The query's counts and last error at the cut; RestoreFrom seeds the
  // query's registry series with them, so they continue across restores.
  QueryStats stats;
};

// One stream as checkpointed: the retained suffix plus what the trimmed
// prefix leaves behind (docs/INTERNALS.md, "Stream retention").
struct StreamCheckpoint {
  // Absolute position of elements.front() (PropertyGraphStream::
  // base_offset()); everything below it was trimmed before the cut.
  size_t base_offset = 0;
  // PropertyGraphStream::MaxTimestamp(): the interrupted-batch catch-up
  // drains to it even when the retained suffix is empty.
  Timestamp max_timestamp;
  // PropertyGraphStream::TrimmedThrough() (meaningful when base_offset >
  // 0): late registrations are checked against it.
  Timestamp trimmed_through;
  // The retained suffix, element graphs shared (not deep copied) with the
  // live engine.
  std::vector<StreamElement> elements;
};

// A full, consistent image of the engine's dynamic state, captured
// between AdvanceTo calls (CaptureCheckpoint) and reapplied to a freshly
// constructed engine (RestoreFrom). persist/codec.h defines its binary
// encoding; persist/checkpoint.h writes it to disk.
struct EngineCheckpoint {
  Timestamp clock;
  bool clock_started = false;
  int64_t evaluations_run = 0;
  // Every stream's retained suffix, which holds every element a live
  // window can still read.
  std::map<std::string, StreamCheckpoint> streams;
  // Name-ordered, one entry per registered query.
  std::vector<QueryCheckpoint> queries;
};

class ContinuousEngine {
 public:
  explicit ContinuousEngine(EngineOptions options = {});
  ~ContinuousEngine();  // Out-of-line: QueryState is private/incomplete.

  // Non-copyable (owns per-query incremental state).
  ContinuousEngine(const ContinuousEngine&) = delete;
  ContinuousEngine& operator=(const ContinuousEngine&) = delete;

  // ---- Query registry (REGISTER QUERY) ----

  // Registers a parsed query. Fails with kAlreadyExists on name clashes,
  // and with kFailedPrecondition when the query's first window starts at
  // or before the trimmed-through timestamp of a stream it reads: the
  // retention trim already released elements that window would cover
  // (docs/INTERNALS.md, "Stream retention"). Each of its windows joins
  // the shared window of the same (stream, STARTING AT, WITHIN, EVERY)
  // when one exists; while the query's instants trail that window it
  // evaluates over snapshots built for it alone, until it catches up.
  Status Register(RegisteredQuery query);
  // Parses and registers Seraph query text.
  Status RegisterText(std::string_view seraph_text);
  // Deletes a registered query and its state.
  Status Unregister(const std::string& name);
  std::vector<std::string> QueryNames() const;

  // Execution counters of a registered query, read off its registry
  // series (kNotFound when no query of that name is registered now).
  // Series survive Unregister, so a name registered again continues
  // their counts, as LatencyFor does.
  Result<QueryStats> StatsFor(const std::string& name) const;

  // Wall-clock evaluation latency distribution (microseconds) of a query:
  // the registry series `seraph_query_eval_micros{query=name}`, which
  // survives Unregister like every other per-query series. kNotFound when
  // no query of that name was ever registered.
  Result<HistogramSnapshot> LatencyFor(const std::string& name) const;

  // The engine-lifetime metrics registry: per-query pipeline-stage
  // histograms (`seraph_stage_micros{query=...,stage=...}`), execution
  // counters, and per-stream ingestion counters. Series survive
  // Unregister so post-run exposition still sees completed queries.
  // Naming conventions are documented in docs/INTERNALS.md.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Sinks receive results of every query; not owned. Each sink is
  // isolated: a failing sink is retried per its policy, its permanently
  // rejected results go to the dead-letter queue (when configured), and
  // after `quarantine_after` consecutive failures it is quarantined —
  // without ever blocking evaluation or the other sinks. The unnamed
  // overload keeps the historical contract (no retry, metrics under
  // "sink<index>").
  void AddSink(EmitSink* sink);
  void AddSink(EmitSink* sink, std::string name, SinkPolicy policy = {});

  // Whether the named sink has been quarantined (false for unknown
  // names).
  bool SinkQuarantined(const std::string& name) const;
  // Lifts a sink's quarantine and resets its failure streak (operator
  // intervention after fixing the consumer).
  Status ReviveSink(const std::string& name);

  // Whether the named query was disabled after exhausting
  // `EngineOptions::query_error_budget` (false for unknown names). A
  // RETURN-once query whose single evaluation fails is disabled
  // immediately, regardless of the budget: it has no later instant to
  // retry at, and disabling makes the failure observable here instead of
  // the query silently counting as completed.
  bool QueryDisabled(const std::string& name) const;
  // Re-enables a disabled query and resets its failure streak. The query
  // resumes from where its ET grid stopped, catching up on instants
  // missed while disabled at the next AdvanceTo. For a failed RETURN-once
  // query this re-arms the single evaluation at its original instant.
  Status ReviveQuery(const std::string& name);

  // ---- Static background graph (§8 (iii)) ----

  // Installs graph data that is part of every snapshot, underneath the
  // stream contributions. Must be called before any query is registered.
  Status SetStaticGraph(PropertyGraph graph);

  // ---- Stream ingestion ----

  // Appends one element (G, ω) to the default stream. Elements must be
  // appended before the engine's clock passes ω.
  Status Ingest(PropertyGraph graph, Timestamp timestamp);
  Status Ingest(std::shared_ptr<const PropertyGraph> graph,
                Timestamp timestamp);

  // Appends to a named stream (created on first use; targeted by
  // `WITHIN ... FROM <name>`).
  Status IngestTo(const std::string& stream,
                  std::shared_ptr<const PropertyGraph> graph,
                  Timestamp timestamp);
  Status IngestTo(const std::string& stream, PropertyGraph graph,
                  Timestamp timestamp);
  // Same, with an upstream arrival stamp (microseconds on the engine
  // clock's timebase) carried from the transport — StreamDriver passes the
  // EventQueue's Produce stamp through here so emit latency covers queue
  // wait. 0 means unstamped: the element is stamped now (latency then
  // measures ingest→emit only).
  Status IngestTo(const std::string& stream,
                  std::shared_ptr<const PropertyGraph> graph,
                  Timestamp timestamp, int64_t arrival_micros);

  // ---- Evaluation driver ----

  // Advances the engine clock to `now`, running every due evaluation time
  // instant of every registered query in global chronological order.
  // At each batch barrier and once more before returning, every stream
  // is trimmed to its retention horizon — the oldest element a live
  // window can still add or evict — so memory and checkpoints are bounded
  // by window contents, not uptime.
  // Instants are processed in batches (all queries due at the same
  // instant form one batch). Before a batch fans out, the calling thread
  // advances each shared window its queries read exactly once; the
  // evaluations then only read those snapshots. With `eval_threads` > 1 a
  // batch's evaluations run concurrently, while delivery to sinks always
  // happens sequentially on the calling thread in (timestamp, query name)
  // order.
  // A batch smaller than the pool gives its idle workers to its queries'
  // top-level seed scans, which fan out in morsels (results stay
  // bit-identical to serial matching).
  // A query whose evaluation fails at runtime no longer fails the call:
  // the error is recorded per query (StatsFor(...).last_error,
  // seraph_query_eval_failures_total), dead-lettered when a queue is
  // configured, and the query is disabled after
  // `EngineOptions::query_error_budget` consecutive failures — the rest
  // of the fleet keeps running.
  Status AdvanceTo(Timestamp now);

  // Advances to the latest timestamp ever ingested across all streams
  // (MaxTimestamp, which survives trims and restores).
  Status Drain();

  // The engine clock: the instant the last AdvanceTo reached (or a
  // restored checkpoint carried); nullopt before the clock starts.
  std::optional<Timestamp> clock() const {
    if (!clock_started_) return std::nullopt;
    return clock_;
  }

  // ---- Durability (docs/INTERNALS.md, "Durability & recovery") ----

  // A consistent image of the engine's dynamic state. Only safe between
  // AdvanceTo calls, where every instant at or below the clock has fired
  // and none above it has.
  EngineCheckpoint CaptureCheckpoint() const;

  // Rebuilds dynamic state from `checkpoint` into this engine. The engine
  // must be freshly constructed (no ingested elements, clock not started)
  // with every query named in the checkpoint already re-registered —
  // recovery re-creates definitions first, then overlays dynamic state.
  // Streams come back at their checkpointed absolute positions. A
  // registered query the checkpoint does not name is held to Register's
  // late-registration rule against the restored streams
  // (kFailedPrecondition). Each checkpointed query's count series start
  // from its checkpointed QueryStats; the stage and latency histograms
  // start empty. Each restored stream's watermark gauge (and the lag
  // gauges) start from its checkpointed max timestamp.
  // After RestoreFrom, replaying the stream suffix past the checkpoint
  // clock produces output bit-identical to an uninterrupted run.
  Status RestoreFrom(const EngineCheckpoint& checkpoint);

  // The default stream (name "").
  const PropertyGraphStream& stream() const;
  // A named stream; a shared empty stream is returned for names that
  // were never ingested to (reading never creates state).
  const PropertyGraphStream& stream(const std::string& name) const;
  // Names of the streams that exist (ingested to, or referenced by a
  // registered query's WITHIN ... FROM).
  std::vector<std::string> StreamNames() const;
  const EngineOptions& options() const { return options_; }

  // Total evaluations run (introspection for tests/benches).
  int64_t evaluations_run() const { return evaluations_run_; }

 private:
  struct QueryState;
  struct SharedWindow;

  // One registered sink plus its isolation state and cached metric
  // handles (resolved once at AddSink).
  struct SinkState {
    EmitSink* sink = nullptr;
    std::string name;
    SinkPolicy policy;
    int consecutive_failures = 0;
    bool quarantined = false;
    Counter* deliveries = nullptr;
    Counter* failures = nullptr;
    Counter* retries = nullptr;
    Counter* dead_lettered = nullptr;
    Gauge* quarantined_gauge = nullptr;
  };

  // The computed-but-undelivered output of one evaluation: workers
  // produce these, the coordinator delivers them sequentially.
  struct PendingDelivery {
    TimeAnnotatedTable annotated;
    int64_t eval_start_micros = 0;  // Start of the evaluation stages.
    int64_t eval_end_micros = 0;    // End of the policy stage.
    // The queue-wait endpoint, filled by EvaluateAt. It is read from the
    // *latency* clock (options_.clock), which in tests is a ManualClock on
    // a different timebase than the trace clock above — queue wait is
    // (latency_eval_start − arrival), so both ends must come from the
    // same clock.
    int64_t latency_eval_start_micros = 0;
    // Shared-window advances charged to this evaluation by the
    // coordinator's pre-pass (AdvanceSharedWindows), for its snapshot
    // stage.
    int64_t charged_snapshot_micros = 0;
  };

  // Per-stream observability handles, cached so the Ingest hot path does
  // one map lookup, not four registry lookups. The lag gauges implement
  // the watermark/lag health surface (docs/INTERNALS.md, "Latency
  // accounting & lag"): all in event-time millis, hence deterministic.
  struct StreamObs {
    Counter* ingested = nullptr;        // Elements appended.
    Gauge* watermark_millis = nullptr;  // Max ingested event timestamp.
    Gauge* lag_millis = nullptr;        // watermark − engine clock, >= 0.
    Gauge* lag_max_millis = nullptr;    // Running max of lag_millis.
    // Shadow values (single-writer: the ingest/coordinator thread), so
    // updates need no gauge read-back.
    int64_t watermark_value = 0;
    int64_t lag_max_value = 0;
    bool any_ingested = false;
    // Stream retention (docs/INTERNALS.md, "Stream retention"), set by
    // TrimStreams: elements held, elements released by trims, and engine
    // clock − oldest retained timestamp.
    Gauge* retained = nullptr;
    Gauge* trimmed_total = nullptr;
    Gauge* retention_lag_millis = nullptr;
  };

  PropertyGraphStream* MutableStream(const std::string& name);
  // Read-only stream lookup that never mutates streams_ (safe from
  // worker threads); unknown names resolve to a shared empty stream.
  const PropertyGraphStream* FindStreamOrEmpty(
      const std::string& name) const;
  // The shared-window registry (docs/INTERNALS.md, "Shared windows").
  // AcquireWindow finds or creates the window of (stream, config) and
  // adds a reader; ReleaseWindow drops one and deletes the window with
  // its last reader.
  SharedWindow* AcquireWindow(const std::string& stream,
                              const WindowConfig& config);
  void ReleaseWindow(SharedWindow* window);
  // Empties `window` back to its never-advanced state (the static graph
  // only).
  void ResetWindow(SharedWindow* window);
  // The coordinator pre-pass of one batch: advances every window the
  // batch's queries read to `t`, once, unless it is already there or
  // ahead (its readers then catch up on their own), and charges each
  // advance to the first such reader in batch (= name) order, whose
  // snapshot-stage time lands in that reader's `outputs` entry.
  void AdvanceSharedWindows(const std::vector<QueryState*>& batch,
                            Timestamp t,
                            std::vector<PendingDelivery>* outputs);
  // Stages 1-3 of the Fig. 5 pipeline (windows → snapshots → body →
  // policy). Touches only per-query state and reads shared state (the
  // shared windows included) that stays frozen while a batch runs, so
  // distinct queries may run concurrently. The reported table lands in
  // `out`; delivery happens separately on the coordinator.
  Status EvaluateAt(QueryState* state, Timestamp t, PendingDelivery* out);
  // EvaluateAt with escaping exceptions translated to kInternal statuses,
  // so a throw on a worker thread surfaces as an ordinary evaluation
  // failure instead of being swallowed by the un-got future.
  Status EvaluateAtNoThrow(QueryState* state, Timestamp t,
                           PendingDelivery* out);
  // Stage 4 on the coordinator thread: sink fan-out plus the sink-stage
  // and whole-evaluation metrics/spans for one PendingDelivery.
  void FinishDelivery(QueryState* state, Timestamp t, PendingDelivery&& out);
  // Query-isolation bookkeeping for one failed evaluation (coordinator
  // thread): last error, metrics, dead-letter capture, error-budget
  // disable.
  void HandleEvalFailure(QueryState* state, Timestamp t, Status error);
  // Delivers one result to every live sink with per-sink retry /
  // dead-letter / quarantine handling; never fails the evaluation.
  void DeliverToSinks(const std::string& query_name, Timestamp t,
                      const TimeAnnotatedTable& annotated);
  // Coordinator-side emit-latency accounting for one delivered
  // evaluation: advances the query's per-stream latency cursors over the
  // elements newly covered at `t` and records arrival→now into the
  // query's and the fleet's emit-latency histograms, and each element's
  // queue wait (arrival → `out`'s evaluation start).
  void RecordEmitLatency(QueryState* state, Timestamp t,
                         const PendingDelivery& out);
  // Resolves (and caches) the observability handles of `stream`.
  StreamObs* ObsFor(const std::string& stream);
  // Refreshes every stream's lag gauge against the engine clock (called
  // at the batch barrier and at the end of AdvanceTo, where clock_ moved).
  void UpdateLagGauges();
  // The absolute position of the oldest element of `stream` that a
  // registered, not-done query can still read: through a started shared
  // window (its next advance evicts from window_begin()) or through a
  // catch-up snapshot of its own (stream.size() when there is none).
  size_t RetentionHorizon(const std::string& name,
                          const PropertyGraphStream& stream) const;
  // Resets every started shared window no live query reads (it pins
  // nothing, so the trim may release what it covers), drops each
  // stream's prefix below its RetentionHorizon, then refreshes the
  // retention gauges (AdvanceTo: at each batch barrier and on return).
  void TrimStreams();
  // The latency clock (options_.clock, defaulted to Clock::Steady()).
  const Clock* LatencyClock() const;

  EngineOptions options_;
  MetricsRegistry metrics_;
  // Per-stream observability handles, cached so the Ingest hot path
  // avoids registry lookups per element.
  std::map<std::string, StreamObs> stream_obs_;
  std::map<std::string, PropertyGraphStream> streams_;
  std::shared_ptr<const PropertyGraph> static_graph_;
  std::map<std::string, std::unique_ptr<QueryState>> queries_;
  // The shared windows, keyed on the stream plus the whole window
  // configuration; each lives as long as a registered query reads it.
  std::map<std::string, std::unique_ptr<SharedWindow>> windows_;
  std::vector<SinkState> sinks_;
  Timestamp clock_;
  bool clock_started_ = false;
  int64_t evaluations_run_ = 0;
  // Evaluation batches completed; a shared window records the batch it
  // last advanced in, so a reader can tell whether its snapshot is fresh.
  int64_t batches_completed_ = 0;
  // Lazily created on the first AdvanceTo that resolves to > 1 thread;
  // workers are reused across batches and engine lifetimes of calls.
  std::unique_ptr<ThreadPool> pool_;
  // Scheduler metrics, resolved once.
  Histogram* batch_size_ = nullptr;
  Counter* parallel_evals_ = nullptr;
  // Batch-barrier watchdog: number of evaluations currently overdue
  // (non-zero only while a batch is stuck past the watchdog period).
  Gauge* stuck_evals_ = nullptr;
  // Emit-latency fleet metrics (docs/INTERNALS.md, "Latency accounting &
  // lag"), resolved at construction: the all-queries latency histogram
  // and the engine event-time clock gauge the per-stream lag is measured
  // against.
  Histogram* fleet_emit_latency_ = nullptr;
  Gauge* engine_clock_millis_ = nullptr;
};

// The value of the SERAPH_EVAL_THREADS environment variable (a
// non-negative integer; 0 = hardware concurrency), or `fallback` when it
// is unset or malformed. Tools and tests use this so CI can run whole
// suites with a parallel engine (e.g. under TSan).
int EvalThreadsFromEnv(int fallback);

}  // namespace seraph

#endif  // SERAPH_SERAPH_CONTINUOUS_ENGINE_H_
