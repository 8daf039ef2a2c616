#include "seraph/continuous_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <utility>

#include "common/cancel.h"
#include "common/logging.h"
#include "cypher/executor.h"
#include "cypher/matcher.h"
#include "graph/graph_union.h"
#include "seraph/delta/delta_index.h"
#include "seraph/seraph_parser.h"

namespace seraph {

// ---------------------------------------------------------------------------
// CollectingSink
// ---------------------------------------------------------------------------

Status CollectingSink::OnResult(const std::string& query_name,
                                Timestamp evaluation_time,
                                const TimeAnnotatedTable& table) {
  results_[query_name].Insert(table);
  // Last write wins: a second result for the same (query, timestamp) —
  // e.g. after Unregister/Register of the same name — replaces the first,
  // matching time-varying-table semantics (ResultsFor keeps the full
  // delivery sequence).
  by_time_[query_name].insert_or_assign(evaluation_time, table);
  return Status::OK();
}

const TimeVaryingTable& CollectingSink::ResultsFor(
    const std::string& query_name) const {
  static const TimeVaryingTable* kEmpty = new TimeVaryingTable();
  auto it = results_.find(query_name);
  return it == results_.end() ? *kEmpty : it->second;
}

std::optional<TimeAnnotatedTable> CollectingSink::ResultAt(
    const std::string& query_name, Timestamp t) const {
  auto qit = by_time_.find(query_name);
  if (qit == by_time_.end()) return std::nullopt;
  auto tit = qit->second.find(t);
  if (tit == qit->second.end()) return std::nullopt;
  return tit->second;
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

// Cached registry handles for one query's observability series, resolved
// once at Register so the evaluation hot path never does a name lookup.
struct QueryMetricHandles {
  Counter* evaluations = nullptr;
  Counter* reuse_hits = nullptr;
  Counter* reuse_misses = nullptr;
  Counter* match_rows = nullptr;
  Counter* rows_emitted = nullptr;
  Counter* snapshots_incremental = nullptr;
  Counter* snapshots_rebuilt = nullptr;
  Counter* elements_added = nullptr;
  Counter* elements_evicted = nullptr;
  Counter* entities_recomputed = nullptr;
  Counter* eval_failures = nullptr;
  Gauge* disabled = nullptr;
  Histogram* stage_window = nullptr;
  Histogram* stage_snapshot = nullptr;
  Histogram* stage_match = nullptr;
  Histogram* stage_policy = nullptr;
  Histogram* stage_sink = nullptr;
  Histogram* eval_total = nullptr;
  // Intra-query parallel matching (written by the query's evaluating
  // worker via MatchParallelism — see cypher/matcher.h).
  Counter* match_partitions = nullptr;
  Histogram* match_seeds = nullptr;
  // Emit-latency accounting (docs/INTERNALS.md, "Latency accounting &
  // lag"): ingest→emit latency of each covered element, and its queue
  // wait (arrival → evaluation start). Written only by the coordinator in
  // FinishDelivery (single-writer histogram contract).
  Histogram* emit_latency = nullptr;
  Histogram* lat_queue = nullptr;
  // Delta matching (seraph/delta): evaluations served from the
  // partial-match index, full executions taken while delta matching was
  // enabled (ineligible query or invalidated index), index rebuilds,
  // matches whose output row was computed, and the current index
  // population.
  Counter* delta_hits = nullptr;
  Counter* delta_fallbacks = nullptr;
  Counter* delta_rebuilds = nullptr;
  Counter* delta_rows_projected = nullptr;
  Gauge* delta_entries = nullptr;
  // Shared match-index maintenance (builds and repairs) charged to this
  // query as its window's first due reader.
  Counter* delta_repairs = nullptr;
};

// Each QueryStats count and the series it is a view of: StatsFor reads
// them, RestoreFrom seeds them.
constexpr std::pair<int64_t QueryStats::*, Counter* QueryMetricHandles::*>
    kStatsSeries[] = {
        {&QueryStats::evaluations, &QueryMetricHandles::evaluations},
        {&QueryStats::reused_results, &QueryMetricHandles::reuse_hits},
        {&QueryStats::fresh_executions, &QueryMetricHandles::reuse_misses},
        {&QueryStats::match_rows, &QueryMetricHandles::match_rows},
        {&QueryStats::rows_emitted, &QueryMetricHandles::rows_emitted},
        {&QueryStats::snapshots_incremental,
         &QueryMetricHandles::snapshots_incremental},
        {&QueryStats::snapshots_rebuilt,
         &QueryMetricHandles::snapshots_rebuilt},
        {&QueryStats::window_elements_added,
         &QueryMetricHandles::elements_added},
        {&QueryStats::window_elements_evicted,
         &QueryMetricHandles::elements_evicted},
        {&QueryStats::eval_failures, &QueryMetricHandles::eval_failures},
};

// One window of the shared registry (docs/INTERNALS.md, "Shared
// windows"). Snapshot reducibility (Def. 5.8) makes a window's snapshot a
// function of its stream and its configuration (ω0, α, β) alone, so every
// registered query reading that pair reads this one snapshot. The
// coordinator advances it once per batch, before fan-out, and repairs its
// match indexes right after; evaluations only read them.
struct ContinuousEngine::SharedWindow {
  SharedWindow(const PropertyGraphStream* source, std::string stream_name,
               const WindowConfig& window_config)
      : stream(std::move(stream_name)),
        config(window_config),
        snapshotter(source, window_config.bounds()) {}

  std::string stream;
  WindowConfig config;
  IncrementalSnapshotter snapshotter;
  // Registered queries holding this window (the refcount).
  int readers = 0;
  // The instant of the last advance and the batch (batches_completed_)
  // it ran in: a reader due in that batch reads the snapshot; any other
  // reader at or before advanced_to trails the window and catches up.
  Timestamp advanced_to;
  int64_t advanced_batch = -1;
  Status advance_status;  // What the last advance returned.
  // The match indexes of the window's delta readers, one per pattern
  // skeleton (MatchIndex::SkeletonKey), each living while it has readers.
  // Never checkpointed: a reset or restored window builds them afresh.
  std::map<std::string, std::unique_ptr<MatchIndex>> indexes;
  // seraph_window_readers / seraph_window_snapshot_entities.
  Gauge* readers_gauge = nullptr;
  Gauge* entities_gauge = nullptr;
};

struct ContinuousEngine::QueryState {
  RegisteredQuery query;
  bool content_deterministic = false;

  // One window per distinct (stream, WITHIN width) pair a MATCH uses.
  struct WindowState {
    SharedWindow* shared = nullptr;
    // Element position range covered at the previous evaluation (for the
    // unchanged-window reuse check); cleared by a catch-up evaluation.
    size_t last_lo = 0;
    size_t last_hi = 0;
    bool has_last_range = false;
  };
  // Keyed by "<stream>\n<width_ms>".
  std::map<std::string, WindowState> windows;
  std::string widest_key;  // Window whose bounds annotate emissions.

  Timestamp next_eval;
  // Previous evaluation's (un-annotated) result, for delta policies and
  // for unchanged-window reuse.
  Table previous_result;
  bool has_previous = false;
  bool done = false;  // RETURN-once queries stop after one evaluation.
  // Query isolation (the query-side mirror of sink quarantine).
  int consecutive_failures = 0;
  bool disabled = false;
  // The one QueryStats field that is not a registry series.
  Status last_error;
  QueryMetricHandles metrics;
  // Emit-latency cursors, one per distinct stream among the query's
  // windows: the index of the first element whose latency has not been
  // charged yet. Advanced only by the coordinator (FinishDelivery) over
  // elements with timestamp <= the delivered instant.
  std::map<std::string, size_t> latency_cursors;
  // Intra-query parallel matching spec handed to the executor. `pool` is
  // set by the scheduler per batch (non-null only when the batch leaves
  // spare workers) and read by this query's single evaluating worker.
  MatchParallelism match_par;
  // Delta-matching reader (seraph/delta) of its window's match index for
  // the query's skeleton; null when the query is not eligible or delta
  // matching is disabled. Its cache is rebuilt lazily — never serialized
  // into checkpoints — and invalidated on evaluation failure, restore, and
  // revive, which touches neither the index nor its other readers.
  std::unique_ptr<DeltaIndex> delta;
};

namespace {

std::string WindowKey(const std::string& stream, Duration width) {
  return stream + "\n" + std::to_string(width.millis());
}

std::string StreamLabel(const std::string& stream) {
  return stream.empty() ? std::string("<default>") : stream;
}

// Human-readable window identifier for trace spans ("<stream>/PT..ms").
std::string WindowLabel(const std::string& stream, Duration width) {
  return StreamLabel(stream) + "/" + std::to_string(width.millis()) + "ms";
}

// The `window` label of a shared window's series, in query syntax.
std::string WindowConfigLabel(const WindowConfig& config) {
  return "WITHIN " + config.width.ToString() + " EVERY " +
         config.slide.ToString() + " STARTING AT " + config.start.ToString();
}

// Shared-window registry key: the stream plus the whole configuration
// (the label is exact to the millisecond).
std::string SharedWindowKey(const std::string& stream,
                            const WindowConfig& config) {
  return stream + "\n" + WindowConfigLabel(config) +
         (config.semantics == WindowSemantics::kLookback ? "" : "\nformal");
}

// The window an evaluation at `t` is annotated with: the active window,
// or the empty window ending at t before the first one opens.
TimeInterval AnnotatedWindow(const WindowConfig& config, Timestamp t) {
  std::optional<TimeInterval> window = config.ActiveWindow(t);
  return window.has_value() ? *window : TimeInterval{t, t};
}

// The interval whose elements the snapshot at `t` covers. Under
// kPaperFormal the active window may extend past the evaluation instant;
// elements there have not causally arrived yet, so selection is clamped
// at t, inclusive of t itself (the +1ms keeps an element arriving exactly
// at the instant inside the left-closed right-open selection).
TimeInterval EffectiveWindow(const WindowConfig& config, Timestamp t) {
  TimeInterval effective = AnnotatedWindow(config, t);
  if (t < effective.end) effective.end = Timestamp::FromMillis(t.millis() + 1);
  return effective;
}

int64_t EntityCount(const PropertyGraph& graph) {
  return static_cast<int64_t>(graph.num_nodes() + graph.num_relationships());
}

QueryMetricHandles MakeQueryMetrics(MetricsRegistry* registry,
                                    const std::string& query) {
  const MetricLabels q{{"query", query}};
  QueryMetricHandles m;
  m.evaluations = registry->CounterFor("seraph_query_evaluations_total", q);
  m.reuse_hits = registry->CounterFor("seraph_query_reuse_hits_total", q);
  m.reuse_misses =
      registry->CounterFor("seraph_query_reuse_misses_total", q);
  m.match_rows = registry->CounterFor("seraph_query_match_rows_total", q);
  m.rows_emitted =
      registry->CounterFor("seraph_query_rows_emitted_total", q);
  m.snapshots_incremental =
      registry->CounterFor("seraph_query_snapshots_incremental_total", q);
  m.snapshots_rebuilt =
      registry->CounterFor("seraph_query_snapshots_rebuilt_total", q);
  m.elements_added =
      registry->CounterFor("seraph_window_elements_added_total", q);
  m.elements_evicted =
      registry->CounterFor("seraph_window_elements_evicted_total", q);
  m.entities_recomputed =
      registry->CounterFor("seraph_window_entities_recomputed_total", q);
  m.eval_failures =
      registry->CounterFor("seraph_query_eval_failures_total", q);
  m.disabled = registry->GaugeFor("seraph_query_disabled", q);
  auto stage = [&](const char* name) {
    return registry->HistogramFor(
        "seraph_stage_micros",
        {{"query", query}, {"stage", name}});
  };
  m.stage_window = stage("window");
  m.stage_snapshot = stage("snapshot");
  m.stage_match = stage("match");
  m.stage_policy = stage("policy");
  m.stage_sink = stage("sink");
  m.eval_total = registry->HistogramFor("seraph_query_eval_micros", q);
  m.match_partitions =
      registry->CounterFor("seraph_match_partitions_total", q);
  m.match_seeds =
      registry->HistogramFor("seraph_match_seed_candidates", q);
  m.emit_latency = registry->HistogramFor("seraph_emit_latency_micros", q);
  m.lat_queue = registry->HistogramFor("seraph_emit_stage_micros",
                                       {{"query", query}, {"stage", "queue"}});
  m.delta_hits = registry->CounterFor("seraph_delta_hits_total", q);
  m.delta_fallbacks =
      registry->CounterFor("seraph_delta_fallbacks_total", q);
  m.delta_rebuilds = registry->CounterFor("seraph_delta_rebuilds_total", q);
  m.delta_rows_projected =
      registry->CounterFor("seraph_delta_rows_projected_total", q);
  m.delta_entries = registry->GaugeFor("seraph_delta_index_entries", q);
  m.delta_repairs = registry->CounterFor("seraph_delta_repairs_total", q);
  return m;
}

// The late-registration guard (docs/INTERNALS.md, "Stream retention"):
// a window whose first instant reaches back to elements the stream has
// already released would silently answer over a partial window.
Status CheckFirstWindowRetained(const std::string& query,
                                const std::string& stream,
                                const WindowConfig& config,
                                size_t base_offset,
                                Timestamp trimmed_through) {
  if (base_offset == 0) return Status::OK();
  std::optional<TimeInterval> first = config.ActiveWindow(config.start);
  if (!first.has_value() || first->start > trimmed_through) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "query '" + query + "' cannot start at " + config.start.ToString() +
      ": its first window over stream '" +
      (stream.empty() ? std::string("<default>") : stream) + "' starts at " +
      first->start.ToString() + ", but the stream is trimmed through " +
      trimmed_through.ToString());
}

// Resolves each MATCH clause to the snapshot of its (stream, WITHIN)
// window.
class WindowGraphResolver final : public GraphResolver {
 public:
  WindowGraphResolver(
      const std::map<std::string, const PropertyGraph*>& by_key,
      const PropertyGraph* base)
      : by_key_(by_key), base_(base) {}

  const PropertyGraph& GraphFor(const MatchClause& clause,
                                size_t) const override {
    SERAPH_CHECK(clause.within.has_value())
        << "Seraph MATCH without WITHIN reached the resolver";
    auto it = by_key_.find(WindowKey(clause.from_stream, *clause.within));
    SERAPH_CHECK(it != by_key_.end()) << "no snapshot for WITHIN window";
    return *it->second;
  }

  const PropertyGraph& BaseGraph() const override { return *base_; }

 private:
  const std::map<std::string, const PropertyGraph*>& by_key_;
  const PropertyGraph* base_;
};

}  // namespace

ContinuousEngine::ContinuousEngine(EngineOptions options)
    : options_(std::move(options)) {
  batch_size_ = metrics_.HistogramFor("seraph_engine_eval_batch_size");
  parallel_evals_ =
      metrics_.CounterFor("seraph_engine_parallel_evals_total");
  stuck_evals_ = metrics_.GaugeFor("seraph_engine_stuck_evals");
  fleet_emit_latency_ =
      metrics_.HistogramFor("seraph_engine_emit_latency_micros");
  engine_clock_millis_ = metrics_.GaugeFor("seraph_engine_clock_millis");
}

const Clock* ContinuousEngine::LatencyClock() const {
  return options_.clock != nullptr ? options_.clock : Clock::Steady();
}

ContinuousEngine::StreamObs* ContinuousEngine::ObsFor(
    const std::string& stream) {
  auto it = stream_obs_.find(stream);
  if (it == stream_obs_.end()) {
    const std::string label = stream.empty() ? "<default>" : stream;
    const MetricLabels labels{{"stream", label}};
    StreamObs obs;
    obs.ingested =
        metrics_.CounterFor("seraph_stream_elements_ingested_total", labels);
    obs.watermark_millis =
        metrics_.GaugeFor("seraph_stream_watermark_millis", labels);
    obs.lag_millis = metrics_.GaugeFor("seraph_stream_lag_millis", labels);
    obs.lag_max_millis =
        metrics_.GaugeFor("seraph_stream_lag_max_millis", labels);
    obs.retained =
        metrics_.GaugeFor("seraph_stream_retained_elements", labels);
    obs.trimmed_total =
        metrics_.GaugeFor("seraph_stream_trimmed_total", labels);
    obs.retention_lag_millis =
        metrics_.GaugeFor("seraph_stream_retention_lag_millis", labels);
    it = stream_obs_.emplace(stream, obs).first;
  }
  return &it->second;
}

void ContinuousEngine::UpdateLagGauges() {
  const int64_t clock_ms = clock_started_ ? clock_.millis() : 0;
  engine_clock_millis_->Set(clock_ms);
  for (auto& [name, obs] : stream_obs_) {
    if (!obs.any_ingested) continue;
    int64_t lag = obs.watermark_value - clock_ms;
    if (lag < 0) lag = 0;
    obs.lag_millis->Set(lag);
    if (lag > obs.lag_max_value) {
      obs.lag_max_value = lag;
      obs.lag_max_millis->Set(lag);
    }
  }
}

size_t ContinuousEngine::RetentionHorizon(
    const std::string& name, const PropertyGraphStream& stream) const {
  // A stream no live window reads keeps nothing.
  size_t horizon = stream.size();
  for (const auto& [query_name, state] : queries_) {
    // A RETURN query that answered never reads again. A disabled query
    // still pins its windows, so ReviveQuery's catch-up stays exact.
    if (state->done) continue;
    for (const auto& [key, ws] : state->windows) {
      const SharedWindow& window = *ws.shared;
      if (window.stream != name) continue;
      if (window.snapshotter.started()) {
        // The next advance evicts [window_begin, new_lo) before it adds.
        horizon = std::min(horizon, window.snapshotter.window_begin());
        // A reader past the last advance reads through the next one.
        if (state->next_eval > window.advanced_to) continue;
      }
      // The window is unstarted, or this reader trails it and builds its
      // own snapshots: either way it reads from the start of its next
      // active window on. A gap instant has none; the windows after it
      // open later still.
      std::optional<TimeInterval> active =
          window.config.ActiveWindow(state->next_eval);
      horizon = std::min(horizon, stream.LowerBound(active.has_value()
                                                        ? active->start
                                                        : state->next_eval));
    }
  }
  return horizon;
}

void ContinuousEngine::TrimStreams() {
  // A started window no live query reads pins nothing, so the trim below
  // may release what it covers: reset it first, and a later reader
  // restarts it from empty instead of evicting released positions.
  std::set<const SharedWindow*> live;
  for (const auto& [name, state] : queries_) {
    if (state->done) continue;
    for (const auto& [key, ws] : state->windows) live.insert(ws.shared);
  }
  for (auto& [key, window] : windows_) {
    if (window->snapshotter.started() && !live.contains(window.get())) {
      ResetWindow(window.get());
    }
  }
  const int64_t clock_ms = clock_started_ ? clock_.millis() : 0;
  for (auto& [name, stream] : streams_) {
    if (stream.empty()) continue;
    const size_t horizon = RetentionHorizon(name, stream);
    if (horizon > stream.base_offset()) {
      stream.DropFront(horizon - stream.base_offset());
    }
    StreamObs* obs = ObsFor(name);
    obs->retained->Set(static_cast<int64_t>(stream.retained()));
    obs->trimmed_total->Set(static_cast<int64_t>(stream.base_offset()));
    int64_t lag = 0;
    if (stream.retained() > 0) {
      lag = clock_ms - stream.at(stream.base_offset()).timestamp.millis();
    }
    obs->retention_lag_millis->Set(std::max<int64_t>(lag, 0));
  }
}

ContinuousEngine::SharedWindow* ContinuousEngine::AcquireWindow(
    const std::string& stream, const WindowConfig& config) {
  std::unique_ptr<SharedWindow>& slot =
      windows_[SharedWindowKey(stream, config)];
  if (slot == nullptr) {
    slot = std::make_unique<SharedWindow>(MutableStream(stream), stream,
                                          config);
    const MetricLabels labels{{"stream", StreamLabel(stream)},
                              {"window", WindowConfigLabel(config)}};
    slot->readers_gauge = metrics_.GaugeFor("seraph_window_readers", labels);
    slot->entities_gauge =
        metrics_.GaugeFor("seraph_window_snapshot_entities", labels);
    ResetWindow(slot.get());
  }
  slot->readers_gauge->Set(++slot->readers);
  return slot.get();
}

void ContinuousEngine::ReleaseWindow(SharedWindow* window) {
  window->readers_gauge->Set(--window->readers);
  if (window->readers > 0) return;
  // The series survive (like the per-query ones) at zero.
  window->entities_gauge->Set(0);
  windows_.erase(SharedWindowKey(window->stream, window->config));
}

void ContinuousEngine::ResetWindow(SharedWindow* window) {
  window->snapshotter = IncrementalSnapshotter(MutableStream(window->stream),
                                               window->config.bounds());
  if (static_graph_ != nullptr) {
    // The base is each of its entities' only contribution, so it cannot
    // conflict with itself.
    SERAPH_CHECK(window->snapshotter.SetBase(static_graph_).ok());
  }
  window->advanced_batch = -1;
  window->advance_status = Status::OK();
  for (auto& [skeleton, index] : window->indexes) index->Invalidate();
  window->entities_gauge->Set(EntityCount(window->snapshotter.graph()));
}

void ContinuousEngine::ReleaseDelta(QueryState* state) {
  if (state->delta == nullptr) return;
  SharedWindow* window = state->windows.begin()->second.shared;
  const auto& match = std::get<MatchClause>(state->query.clauses[0]);
  state->delta.reset();  // Deregisters from its index.
  auto it = window->indexes.find(MatchIndex::SkeletonKey(match.patterns[0]));
  if (it->second->readers() == 0) window->indexes.erase(it);
}

ContinuousEngine::~ContinuousEngine() {
  // Readers deregister from indexes their windows own.
  queries_.clear();
}

void ContinuousEngine::AddSink(EmitSink* sink) {
  AddSink(sink, "sink" + std::to_string(sinks_.size()), SinkPolicy{});
}

void ContinuousEngine::AddSink(EmitSink* sink, std::string name,
                               SinkPolicy policy) {
  SinkState state;
  state.sink = sink;
  state.name = std::move(name);
  state.policy = policy;
  const MetricLabels labels{{"sink", state.name}};
  state.deliveries =
      metrics_.CounterFor("seraph_sink_deliveries_total", labels);
  state.failures = metrics_.CounterFor("seraph_sink_failures_total", labels);
  state.retries = metrics_.CounterFor("seraph_sink_retries_total", labels);
  state.dead_lettered =
      metrics_.CounterFor("seraph_sink_dead_lettered_total", labels);
  state.quarantined_gauge =
      metrics_.GaugeFor("seraph_sink_quarantined", labels);
  sinks_.push_back(std::move(state));
}

bool ContinuousEngine::SinkQuarantined(const std::string& name) const {
  for (const SinkState& state : sinks_) {
    if (state.name == name) return state.quarantined;
  }
  return false;
}

Status ContinuousEngine::ReviveSink(const std::string& name) {
  for (SinkState& state : sinks_) {
    if (state.name != name) continue;
    state.quarantined = false;
    state.consecutive_failures = 0;
    state.quarantined_gauge->Set(0);
    return Status::OK();
  }
  return Status::NotFound("sink '" + name + "' is not registered");
}

bool ContinuousEngine::QueryDisabled(const std::string& name) const {
  auto it = queries_.find(name);
  return it != queries_.end() && it->second->disabled;
}

Status ContinuousEngine::ReviveQuery(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  QueryState* state = it->second.get();
  state->disabled = false;
  state->consecutive_failures = 0;
  state->metrics.disabled->Set(0);
  // The index missed every advance while the query was disabled.
  if (state->delta != nullptr) state->delta->Invalidate();
  return Status::OK();
}

void ContinuousEngine::DeliverToSinks(const std::string& query_name,
                                      Timestamp t,
                                      const TimeAnnotatedTable& annotated) {
  for (SinkState& state : sinks_) {
    if (state.quarantined) continue;
    Status status;
    int attempts = 0;
    for (;;) {
      ++attempts;
      status = state.sink->OnResult(query_name, t, annotated);
      if (status.ok()) break;
      if (!state.policy.retry.ShouldRetry(status, attempts)) break;
      state.retries->Increment();
    }
    if (status.ok()) {
      state.consecutive_failures = 0;
      state.deliveries->Increment();
      continue;
    }
    // Retries exhausted or the error was permanent: this delivery is
    // lost to the sink — capture it, count it, and keep everything else
    // running (sink isolation).
    state.failures->Increment();
    ++state.consecutive_failures;
    if (options_.dead_letter != nullptr) {
      options_.dead_letter->AddSinkResult(state.name, query_name, t,
                                          annotated, status, attempts);
      state.dead_lettered->Increment();
    }
    SERAPH_LOG(WARNING) << "sink '" << state.name << "' rejected result of '"
                        << query_name << "' at " << t.ToString() << " after "
                        << attempts << " attempt(s): " << status;
    if (state.consecutive_failures >= state.policy.quarantine_after) {
      state.quarantined = true;
      state.quarantined_gauge->Set(1);
      SERAPH_LOG(ERROR) << "sink '" << state.name << "' quarantined after "
                        << state.consecutive_failures
                        << " consecutive failures";
    }
  }
}

PropertyGraphStream* ContinuousEngine::MutableStream(
    const std::string& name) {
  return &streams_[name];
}

const PropertyGraphStream* ContinuousEngine::FindStreamOrEmpty(
    const std::string& name) const {
  static const PropertyGraphStream* kEmpty = new PropertyGraphStream();
  auto it = streams_.find(name);
  return it == streams_.end() ? kEmpty : &it->second;
}

Status ContinuousEngine::SetStaticGraph(PropertyGraph graph) {
  if (!queries_.empty()) {
    return Status::InvalidArgument(
        "SetStaticGraph must be called before registering queries");
  }
  static_graph_ =
      std::make_shared<const PropertyGraph>(std::move(graph));
  return Status::OK();
}

Status ContinuousEngine::Register(RegisteredQuery query) {
  SERAPH_RETURN_IF_ERROR(query.Validate());
  if (queries_.contains(query.name)) {
    return Status::AlreadyExists("query '" + query.name +
                                 "' is already registered");
  }
  auto state = std::make_unique<QueryState>();
  state->next_eval = query.starting_at;
  state->content_deterministic = query.IsWindowContentDeterministic();
  // One window per distinct (stream, WITHIN width) pair, all validated
  // before any joins the shared registry.
  Duration slide = query.mode == OutputMode::kEmitStream
                       ? query.every
                       : Duration::FromMillis(1);
  Duration max_width = Duration::FromMillis(0);
  std::map<std::string, std::pair<std::string, WindowConfig>> wanted;
  for (const Clause& clause : query.clauses) {
    const auto* match = std::get_if<MatchClause>(&clause);
    if (match == nullptr) continue;
    std::string key = WindowKey(match->from_stream, *match->within);
    if (state->widest_key.empty() || *match->within > max_width) {
      max_width = *match->within;
      state->widest_key = key;
    }
    if (wanted.contains(key)) continue;
    WindowConfig config{query.starting_at, *match->within, slide,
                        options_.semantics};
    SERAPH_RETURN_IF_ERROR(config.Validate());
    const PropertyGraphStream* stream = FindStreamOrEmpty(match->from_stream);
    SERAPH_RETURN_IF_ERROR(CheckFirstWindowRetained(
        query.name, match->from_stream, config, stream->base_offset(),
        stream->TrimmedThrough()));
    wanted.emplace(std::move(key),
                   std::make_pair(match->from_stream, config));
  }
  // Acquiring creates the stream eagerly, so streams_ never mutates
  // during evaluation: worker threads only ever read the map.
  for (const auto& [key, window] : wanted) {
    state->windows[key].shared = AcquireWindow(window.first, window.second);
  }
  state->query = std::move(query);
  state->metrics = MakeQueryMetrics(&metrics_, state->query.name);
  // The MatchClause and projection pointers stay valid: EvaluateAt's
  // clause-vector and body moves transfer heap buffers without relocating
  // elements. An entity-valued parameter rules the index out (its cached
  // rows could read an entity no match binds), as does an unbound one in
  // a property value (evaluating it would fail where the matcher need
  // not). An eligible query has one window; it reads that window's index
  // of its pattern's skeleton.
  if (options_.delta_matching && DeltaIndex::Eligible(state->query) &&
      DeltaIndex::ParametersAdmit(state->query, options_.parameters)) {
    const auto* match = std::get_if<MatchClause>(&state->query.clauses[0]);
    const PathPattern& pattern = match->patterns[0];
    Result<PatternProperties> properties =
        DeltaIndex::EvaluateProperties(pattern, options_.parameters);
    if (properties.ok()) {  // ParametersAdmit: it cannot fail.
      std::unique_ptr<MatchIndex>& index =
          state->windows.begin()->second.shared
              ->indexes[MatchIndex::SkeletonKey(pattern)];
      if (index == nullptr) index = std::make_unique<MatchIndex>(pattern);
      state->delta =
          std::make_unique<DeltaIndex>(match, &state->query.projection,
                                       index.get(), std::move(*properties));
    }
  }
  // Emit-latency cursors start at the streams' current sizes: elements
  // ingested before the query existed are not part of its latency SLO.
  for (const auto& [key, ws] : state->windows) {
    state->latency_cursors.emplace(
        ws.shared->stream, FindStreamOrEmpty(ws.shared->stream)->size());
  }
  // Static parts of the intra-query parallelism spec; the scheduler fills
  // in `pool` per batch when it grants parallel matching.
  state->match_par.min_seeds =
      static_cast<size_t>(std::max(options_.match_min_seeds, 1));
  state->match_par.morsel_size =
      static_cast<size_t>(std::max(options_.match_morsel_size, 1));
  state->match_par.partitions = state->metrics.match_partitions;
  state->match_par.seed_candidates = state->metrics.match_seeds;
  state->match_par.tracer = options_.tracer;
  state->match_par.query_label = state->query.name;
  std::string name = state->query.name;
  queries_.emplace(std::move(name), std::move(state));
  metrics_.GaugeFor("seraph_queries_registered")
      ->Set(static_cast<int64_t>(queries_.size()));
  return Status::OK();
}

Status ContinuousEngine::RegisterText(std::string_view seraph_text) {
  SERAPH_ASSIGN_OR_RETURN(RegisteredQuery query,
                          ParseSeraphQuery(seraph_text));
  return Register(std::move(query));
}

Status ContinuousEngine::Unregister(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  ReleaseDelta(it->second.get());
  for (auto& [key, ws] : it->second->windows) ReleaseWindow(ws.shared);
  queries_.erase(it);
  metrics_.GaugeFor("seraph_queries_registered")
      ->Set(static_cast<int64_t>(queries_.size()));
  return Status::OK();
}

std::vector<std::string> ContinuousEngine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [name, state] : queries_) names.push_back(name);
  return names;
}

Result<QueryStats> ContinuousEngine::StatsFor(const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("query '" + name + "' is not registered");
  }
  const QueryState& state = *it->second;
  QueryStats stats;
  for (const auto& [field, series] : kStatsSeries) {
    stats.*field = (state.metrics.*series)->value();
  }
  stats.last_error = state.last_error;
  return stats;
}

Result<HistogramSnapshot> ContinuousEngine::LatencyFor(
    const std::string& name) const {
  const Histogram* latency =
      metrics_.FindHistogram("seraph_query_eval_micros", {{"query", name}});
  if (latency == nullptr) {
    return Status::NotFound("query '" + name + "' was never registered");
  }
  return latency->Snapshot();
}

Status ContinuousEngine::Ingest(PropertyGraph graph, Timestamp timestamp) {
  return IngestTo("", std::make_shared<const PropertyGraph>(std::move(graph)),
                  timestamp);
}

Status ContinuousEngine::Ingest(std::shared_ptr<const PropertyGraph> graph,
                                Timestamp timestamp) {
  return IngestTo("", std::move(graph), timestamp);
}

Status ContinuousEngine::IngestTo(const std::string& stream,
                                  PropertyGraph graph, Timestamp timestamp) {
  return IngestTo(stream,
                  std::make_shared<const PropertyGraph>(std::move(graph)),
                  timestamp);
}

Status ContinuousEngine::IngestTo(
    const std::string& stream, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp) {
  return IngestTo(stream, std::move(graph), timestamp, 0);
}

Status ContinuousEngine::IngestTo(
    const std::string& stream, std::shared_ptr<const PropertyGraph> graph,
    Timestamp timestamp, int64_t arrival_micros) {
  if (clock_started_ && timestamp < clock_) {
    return Status::OutOfRange(
        "cannot ingest an element older than the engine clock (" +
        timestamp.ToString() + " < " + clock_.ToString() + ")");
  }
  // Elements that arrive unstamped (direct Ingest, no queue in front) get
  // their t0 here, so emit latency degrades gracefully to ingest→emit.
  if (arrival_micros == 0) arrival_micros = LatencyClock()->NowMicros();
  Status appended =
      MutableStream(stream)->Append(std::move(graph), timestamp,
                                    arrival_micros);
  if (appended.ok()) {
    StreamObs* obs = ObsFor(stream);
    obs->ingested->Increment();
    const int64_t ts_ms = timestamp.millis();
    if (!obs->any_ingested || ts_ms > obs->watermark_value) {
      obs->any_ingested = true;
      obs->watermark_value = ts_ms;
      obs->watermark_millis->Set(ts_ms);
      // The watermark moved ahead of the engine clock: refresh this
      // stream's lag (event-time millis, so deterministic).
      int64_t lag = ts_ms - (clock_started_ ? clock_.millis() : 0);
      if (lag < 0) lag = 0;
      obs->lag_millis->Set(lag);
      if (lag > obs->lag_max_value) {
        obs->lag_max_value = lag;
        obs->lag_max_millis->Set(lag);
      }
    }
    if (options_.tracer != nullptr && options_.tracer->enabled()) {
      options_.tracer->AddInstant(
          "ingest", "stream", TraceRecorder::NowMicros(),
          {{"stream", stream.empty() ? "<default>" : stream},
           {"t", timestamp.ToString()}});
    }
  }
  return appended;
}

const PropertyGraphStream& ContinuousEngine::stream() const {
  return *FindStreamOrEmpty("");
}

const PropertyGraphStream& ContinuousEngine::stream(
    const std::string& name) const {
  // Pure read: a never-ingested name must not insert an empty stream
  // into streams_ (a surprise mutation, and a data race under parallel
  // evaluation).
  return *FindStreamOrEmpty(name);
}

std::vector<std::string> ContinuousEngine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, stream] : streams_) names.push_back(name);
  return names;
}

Status ContinuousEngine::AdvanceTo(Timestamp now) {
  if (clock_started_ && now < clock_) {
    return Status::OutOfRange("engine clock cannot move backwards");
  }
  // Run all due evaluations across queries in global chronological order
  // so multi-query sinks observe a single timeline. Every query due at
  // the same instant forms one batch: the batch's stage-1..3 work may run
  // concurrently (eval_threads > 1), but delivery always happens here on
  // the coordinator, sequentially, in query-name order — which is exactly
  // the order the serial min-scan produced, so output is identical at any
  // thread count.
  // One pool serves both parallelism levels. Intra-query (morsel)
  // parallelism is granted per batch, only when the batch leaves idle
  // workers — a full batch already keeps the pool busy with whole queries.
  const int threads = ThreadPool::ResolveThreads(options_.eval_threads);
  std::vector<QueryState*> batch;
  std::vector<PendingDelivery> outputs;
  std::vector<Status> statuses;
  std::vector<std::future<void>> futures;
  while (true) {
    bool have_t = false;
    Timestamp t;
    for (auto& [name, state] : queries_) {
      if (state->done || state->disabled) continue;
      if (state->next_eval > now) continue;
      if (!have_t || state->next_eval < t) {
        t = state->next_eval;
        have_t = true;
      }
    }
    if (!have_t) break;

    // queries_ is a std::map, so the batch comes out in ascending name
    // order.
    batch.clear();
    for (auto& [name, state] : queries_) {
      if (state->done || state->disabled) continue;
      if (state->next_eval == t) batch.push_back(state.get());
    }
    batch_size_->Record(static_cast<int64_t>(batch.size()));

    outputs.assign(batch.size(), PendingDelivery{});
    statuses.assign(batch.size(), Status::OK());
    if (threads > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(threads);
    }
    // Pre-pass: each shared window moves once, and its match indexes are
    // repaired once, here (windows side by side on the pool); the
    // evaluations below (on workers or not) only read them.
    AdvanceSharedWindows(batch, t, &outputs);
    const bool parallel_queries = threads > 1 && batch.size() > 1;
    const bool parallel_match =
        threads > 1 && static_cast<int>(batch.size()) < threads;
    for (QueryState* state : batch) {
      state->match_par.pool = parallel_match ? pool_.get() : nullptr;
    }
    if (parallel_queries) {
      futures.clear();
      futures.reserve(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        QueryState* state = batch[i];
        PendingDelivery* out = &outputs[i];
        Status* status = &statuses[i];
        futures.push_back(pool_->Submit([this, state, t, out, status] {
          // Each worker traces into its own lane (tid 0 is the
          // coordinator).
          TraceRecorder::SetCurrentThreadTid(ThreadPool::CurrentWorkerId() +
                                             1);
          *status = EvaluateAtNoThrow(state, t, out);
        }));
      }
      // Batch barrier: nothing is delivered (and the next instant is not
      // scheduled) until every evaluation of this instant finished. The
      // joins also establish the happens-before edge that lets the
      // coordinator read worker-written per-query state without locks.
      // The barrier is watched: an evaluation still running past the
      // watchdog period is logged with the offending query's name and
      // gauged — query isolation catches failures, this catches hangs.
      // The coordinator still waits (delivery order must hold); the
      // watchdog makes the hang diagnosable, a cooperative deadline
      // (eval_deadline_millis) is what unwedges it. The period is 4x the
      // deadline with a 100 ms floor (the deadline should have fired long
      // before), else 10 s. Wall-clock by necessity: it detects stuck
      // threads that no injectable clock tick would ever reach.
      const int64_t watchdog_ms =
          options_.eval_deadline_millis > 0
              ? std::max<int64_t>(4 * options_.eval_deadline_millis, 100)
              : 10'000;
      bool any_stuck = false;
      for (size_t i = 0; i < futures.size(); ++i) {
        int64_t overdue_rounds = 0;
        while (futures[i].wait_for(std::chrono::milliseconds(watchdog_ms)) !=
               std::future_status::ready) {
          ++overdue_rounds;
          any_stuck = true;
          // Unjoined evaluations of this batch (at least this one).
          stuck_evals_->Set(static_cast<int64_t>(futures.size() - i));
          SERAPH_LOG(ERROR)
              << "batch watchdog: evaluation of query '"
              << batch[i]->query.name << "' at " << t.ToString()
              << " still running after " << watchdog_ms * overdue_rounds
              << " ms; batch barrier is stuck";
        }
      }
      if (any_stuck) stuck_evals_->Set(0);
      parallel_evals_->Increment(static_cast<int64_t>(batch.size()));
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        statuses[i] = EvaluateAtNoThrow(batch[i], t, &outputs[i]);
      }
    }

    // Coordinator half: sink delivery and failure bookkeeping, in batch
    // (= name) order. A failed evaluation is isolated — recorded,
    // dead-lettered, possibly disabling the query — and never aborts the
    // fleet. The grid advances on failure too; otherwise a poisoned
    // query would re-fail at the same instant forever.
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryState* state = batch[i];
      ++evaluations_run_;
      const bool ok = statuses[i].ok();
      if (ok) {
        state->consecutive_failures = 0;
        FinishDelivery(state, t, std::move(outputs[i]));
      } else {
        HandleEvalFailure(state, t, std::move(statuses[i]));
      }
      if (state->query.mode == OutputMode::kReturnOnce) {
        if (ok) {
          state->done = true;
        } else if (!state->disabled) {
          // A RETURN query has no later instant to retry at, so one
          // failure is terminal regardless of the error budget: disable
          // it (making the failure observable via QueryDisabled) rather
          // than marking it done. ReviveQuery re-arms the single
          // evaluation at the same instant.
          state->disabled = true;
          state->metrics.disabled->Set(1);
          SERAPH_LOG(ERROR)
              << "RETURN query '" << state->query.name
              << "' disabled after its single evaluation failed; "
                 "ReviveQuery() re-arms it";
        }
      } else {
        state->next_eval = t + state->query.every;
      }
    }

    // Batch barrier: every query due at t has evaluated, delivered, and
    // advanced its grid. Moving the clock here (not only at the end)
    // keeps memory and the lag gauges current during a long catch-up.
    // Catch-up batches (a revived or late-registered query evaluating
    // instants the clock already passed) must not move it backwards.
    if (!clock_started_ || t > clock_) clock_ = t;
    clock_started_ = true;
    // Every window has moved past this instant: release what no live
    // window can read again.
    TrimStreams();
    // The clock moved: the per-stream lag (watermark − clock) shrank.
    UpdateLagGauges();
    ++batches_completed_;
  }
  clock_ = now;
  clock_started_ = true;
  // Elements ingested since the last barrier into streams no live window
  // reads go now, even when no instant was due.
  TrimStreams();
  UpdateLagGauges();
  return Status::OK();
}

EngineCheckpoint ContinuousEngine::CaptureCheckpoint() const {
  EngineCheckpoint image;
  image.clock = clock_;
  image.clock_started = clock_started_;
  image.evaluations_run = evaluations_run_;
  for (const auto& [name, stream] : streams_) {
    StreamCheckpoint& suffix = image.streams[name];
    suffix.base_offset = stream.base_offset();
    suffix.max_timestamp = stream.MaxTimestamp();
    suffix.trimmed_through = stream.TrimmedThrough();
    suffix.elements.reserve(stream.retained());
    for (size_t i = stream.base_offset(); i < stream.size(); ++i) {
      suffix.elements.push_back(stream.at(i));
    }
  }
  for (const auto& [name, state] : queries_) {
    QueryCheckpoint q;
    q.name = name;
    q.next_eval = state->next_eval;
    q.done = state->done;
    q.disabled = state->disabled;
    q.consecutive_failures = state->consecutive_failures;
    q.has_previous = state->has_previous;
    q.previous_result = state->previous_result;
    q.stats = *StatsFor(name);
    image.queries.push_back(std::move(q));
  }
  return image;
}

Status ContinuousEngine::RestoreFrom(const EngineCheckpoint& checkpoint) {
  if (clock_started_ || evaluations_run_ != 0) {
    return Status::InvalidArgument(
        "RestoreFrom requires a freshly constructed engine (clock already "
        "started)");
  }
  for (const auto& [name, stream] : streams_) {
    if (!stream.empty()) {
      return Status::InvalidArgument(
          "RestoreFrom requires a freshly constructed engine (stream '" +
          name + "' already has elements)");
    }
  }
  // Definitions first, state second: every checkpointed query must already
  // be re-registered so its windows/metrics exist to overlay.
  std::set<std::string> checkpointed;
  for (const QueryCheckpoint& q : checkpoint.queries) {
    if (!queries_.contains(q.name)) {
      return Status::InvalidArgument(
          "checkpoint names query '" + q.name +
          "', which is not registered; re-register all queries before "
          "RestoreFrom");
    }
    checkpointed.insert(q.name);
  }
  // A query the checkpoint does not know starts fresh over the restored
  // streams, so it is held to the late-registration rule.
  for (const auto& [name, state] : queries_) {
    if (checkpointed.contains(name)) continue;
    for (const auto& [key, ws] : state->windows) {
      const SharedWindow& window = *ws.shared;
      auto it = checkpoint.streams.find(window.stream);
      if (it == checkpoint.streams.end()) continue;
      SERAPH_RETURN_IF_ERROR(CheckFirstWindowRetained(
          name, window.stream, window.config, it->second.base_offset,
          it->second.trimmed_through));
    }
  }
  // Rebuild the streams at their checkpointed absolute positions,
  // bypassing IngestTo: the checkpointed elements predate the restored
  // clock, so its clock guard (and its ingestion counters — restored
  // elements were already counted in their first life) must not apply.
  // Arrival stamps are dropped: latency is a processing-time concern.
  for (const auto& [name, suffix] : checkpoint.streams) {
    std::vector<StreamElement> elements;
    elements.reserve(suffix.elements.size());
    for (const StreamElement& element : suffix.elements) {
      elements.push_back(StreamElement{element.graph, element.timestamp});
    }
    SERAPH_RETURN_IF_ERROR(MutableStream(name)->Restore(
        suffix.base_offset, suffix.trimmed_through, suffix.max_timestamp,
        std::move(elements)));
    // The watermark is the newest element ever ingested, in either life.
    if (suffix.base_offset + suffix.elements.size() > 0) {
      StreamObs* obs = ObsFor(name);
      obs->any_ingested = true;
      obs->watermark_value = suffix.max_timestamp.millis();
      obs->watermark_millis->Set(obs->watermark_value);
    }
  }
  for (const QueryCheckpoint& q : checkpoint.queries) {
    QueryState* state = queries_.at(q.name).get();
    state->next_eval = q.next_eval;
    state->done = q.done;
    state->disabled = q.disabled;
    state->metrics.disabled->Set(q.disabled ? 1 : 0);
    state->consecutive_failures = q.consecutive_failures;
    state->has_previous = q.has_previous;
    state->previous_result = q.previous_result;
    // The count series continue from the cut. No evaluation ran in this
    // engine yet, so each is still at zero.
    for (const auto& [field, series] : kStatsSeries) {
      (state->metrics.*series)->Increment(q.stats.*field);
    }
    state->last_error = q.stats.last_error;
    // Window state stays fresh: no batch ran yet, so the first one after
    // the restore advances every shared window from the restored stream
    // (has_last_range is false, so the unchanged-window reuse fast path
    // cannot fire on stale bounds).
    // Latency cursors jump past the restored prefix: those elements'
    // emits happened in the first life (and their arrival stamps are not
    // persisted anyway — latency is a processing-time concern).
    for (auto& [stream_name, cursor] : state->latency_cursors) {
      cursor = FindStreamOrEmpty(stream_name)->size();
    }
    // Delta state is never serialized; the first post-restore evaluation
    // rebuilds the index against the re-derived snapshot.
    if (state->delta != nullptr) state->delta->Invalidate();
  }
  clock_ = checkpoint.clock;
  clock_started_ = checkpoint.clock_started;
  evaluations_run_ = checkpoint.evaluations_run;
  UpdateLagGauges();
  return Status::OK();
}

Status ContinuousEngine::Drain() {
  Timestamp horizon;
  bool any = false;
  for (const auto& [name, stream] : streams_) {
    if (stream.empty()) continue;
    if (!any || stream.MaxTimestamp() > horizon) {
      horizon = stream.MaxTimestamp();
    }
    any = true;
  }
  if (!any) return Status::OK();
  return AdvanceTo(horizon);
}

namespace {

const char* PolicyName(ReportPolicy policy) {
  switch (policy) {
    case ReportPolicy::kSnapshot:
      return "SNAPSHOT";
    case ReportPolicy::kOnEntering:
      return "ON ENTERING";
    case ReportPolicy::kOnExiting:
      return "ON EXITING";
  }
  return "?";
}

}  // namespace

void ContinuousEngine::AdvanceSharedWindows(
    const std::vector<QueryState*>& batch, Timestamp t,
    std::vector<PendingDelivery>* outputs) {
  TraceRecorder* tracer =
      (options_.tracer != nullptr && options_.tracer->enabled())
          ? options_.tracer
          : nullptr;
  // One move per window the batch reads that is not at t yet, charged to
  // its first due reader in batch (= name) order, so serial, parallel and
  // restored runs count alike. A window already at or past t is left
  // alone: its readers trail it and catch up in EvaluateAt.
  struct Move {
    SharedWindow* window;
    size_t reader;
    SnapshotterStats before;
    int64_t micros = 0;  // The advance plus the index repairs.
    int64_t repairs = 0;
    int64_t builds = 0;
  };
  std::vector<Move> moves;
  for (size_t i = 0; i < batch.size(); ++i) {
    for (auto& [key, ws] : batch[i]->windows) {
      SharedWindow* window = ws.shared;
      if (window->snapshotter.started() && window->advanced_to >= t) continue;
      if (std::any_of(moves.begin(), moves.end(), [&](const Move& m) {
            return m.window == window;
          })) {
        continue;
      }
      moves.push_back(Move{window, i, window->snapshotter.stats()});
    }
  }
  // Advances the window, then brings each of its indexes to the new
  // snapshot: a repair from the advance's dirty sets, or a build when the
  // index is new, was invalidated or missed an advance. Shared work runs
  // without a query's deadline, like the advance. Touches only the
  // window's own state.
  auto run = [&](Move* move) {
    SharedWindow* window = move->window;
    const std::string& charged_to = batch[move->reader]->query.name;
    const int64_t start = TraceRecorder::NowMicros();
    window->advance_status =
        window->snapshotter.Advance(EffectiveWindow(window->config, t));
    const int64_t advanced = TraceRecorder::NowMicros();
    if (tracer != nullptr) {
      tracer->AddComplete("shared_window", "engine", start, advanced - start,
                          {{"stream", StreamLabel(window->stream)},
                           {"window", WindowConfigLabel(window->config)},
                           {"t", t.ToString()},
                           {"readers", std::to_string(window->readers)},
                           {"charged_to", charged_to}});
    }
    for (auto& [skeleton, index] : window->indexes) {
      if (!window->advance_status.ok()) {
        index->Invalidate();
        continue;
      }
      const int64_t repair_start = TraceRecorder::NowMicros();
      index->ObserveAdvance(window->snapshotter);
      const bool build = !index->valid();
      if (build) {
        // Cannot fail: no deadline. An index left invalid fails its
        // readers' evaluations.
        (void)index->Build(window->snapshotter.graph(),
                           window->snapshotter.stats().advances, nullptr);
        ++move->builds;
      }
      ++move->repairs;
      if (tracer != nullptr) {
        tracer->AddComplete(
            "delta_repair", "engine", repair_start,
            TraceRecorder::NowMicros() - repair_start,
            {{"window", WindowConfigLabel(window->config)},
             {"mode", build ? "build" : "repair"},
             {"readers", std::to_string(index->readers())},
             {"inserted", std::to_string(build ? index->size()
                                               : index->inserted().size())},
             {"erased", std::to_string(build ? 0 : index->erased().size())},
             {"charged_to", charged_to}});
      }
    }
    move->micros = TraceRecorder::NowMicros() - start;
  };
  if (pool_ != nullptr && moves.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(moves.size());
    for (Move& move : moves) {
      futures.push_back(pool_->Submit([&run, &move] {
        TraceRecorder::SetCurrentThreadTid(ThreadPool::CurrentWorkerId() + 1);
        run(&move);
      }));
    }
    // Every window is done before any evaluation reads one (and before an
    // exception from one task leaves the others running).
    for (std::future<void>& future : futures) future.wait();
    for (std::future<void>& future : futures) future.get();
  } else {
    for (Move& move : moves) run(&move);
  }
  for (const Move& move : moves) {
    SharedWindow* window = move.window;
    window->advanced_to = t;
    window->advanced_batch = batches_completed_;
    window->entities_gauge->Set(EntityCount(window->snapshotter.graph()));
    const SnapshotterStats& after = window->snapshotter.stats();
    QueryMetricHandles& charged = batch[move.reader]->metrics;
    if (window->advance_status.ok()) charged.snapshots_incremental->Increment();
    charged.elements_added->Increment(after.elements_added -
                                      move.before.elements_added);
    charged.elements_evicted->Increment(after.elements_evicted -
                                        move.before.elements_evicted);
    charged.entities_recomputed->Increment(after.entities_recomputed -
                                           move.before.entities_recomputed);
    charged.delta_repairs->Increment(move.repairs);
    charged.delta_rebuilds->Increment(move.builds);
    (*outputs)[move.reader].charged_snapshot_micros += move.micros;
  }
}

Status ContinuousEngine::EvaluateAtNoThrow(QueryState* state, Timestamp t,
                                           PendingDelivery* out) {
  // On a worker thread the coordinator only wait()s on the task's future,
  // so an exception escaping EvaluateAt (e.g. std::bad_alloc) would be
  // stored there and silently discarded — leaving statuses[i] OK and a
  // default-constructed (empty) PendingDelivery delivered as a genuine
  // result. Translate exceptions to Status so both the serial and the
  // parallel path treat them as ordinary evaluation failures.
  try {
    return EvaluateAt(state, t, out);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation threw: ") + e.what());
  } catch (...) {
    return Status::Internal("evaluation threw a non-standard exception");
  }
}

Status ContinuousEngine::EvaluateAt(QueryState* state, Timestamp t,
                                    PendingDelivery* out) {
  // Stages 1-3 of the pipeline. May run on a worker thread: everything
  // written here is per-query state (disjoint across a batch), and the
  // shared state it reads (options_, streams_, static_graph_, the shared
  // windows the pre-pass advanced) is frozen while the batch runs. All
  // stage timing shares one clock
  // (TraceRecorder::NowMicros) so the histogram breakdown and the trace
  // spans agree. The tracer pointer is resolved once; when tracing is off
  // the only extra work per stage is the clock read feeding the stage
  // histograms.
  TraceRecorder* tracer =
      (options_.tracer != nullptr && options_.tracer->enabled())
          ? options_.tracer
          : nullptr;
  const int64_t eval_start = TraceRecorder::NowMicros();
  // Queue-wait's right endpoint, on the *latency* clock (which tests may
  // pin to a ManualClock on a different timebase than the trace clock —
  // both ends of a latency interval must come from the same clock).
  out->latency_eval_start_micros = LatencyClock()->NowMicros();
  state->metrics.evaluations->Increment();

  // 1. Read each window's snapshot: the shared one the batch pre-pass
  //    advanced to t, or, for a reader trailing its window, one built for
  //    this evaluation alone.
  std::map<std::string, const PropertyGraph*> snapshots;
  std::map<std::string, PropertyGraph> catch_up_snapshots;
  std::optional<TimeInterval> widest_window;
  bool all_ranges_unchanged = true;
  bool catching_up = false;
  int64_t snapshot_micros = 0;  // This evaluation's own snapshot work.
  for (auto& [key, ws] : state->windows) {
    const SharedWindow& window = *ws.shared;
    if (key == state->widest_key) {
      widest_window = AnnotatedWindow(window.config, t);
    }
    const int64_t snap_start = TraceRecorder::NowMicros();
    const bool in_sync = window.advanced_batch == batches_completed_;
    if (in_sync) {
      SERAPH_RETURN_IF_ERROR(window.advance_status);
      const IncrementalSnapshotter& shared = window.snapshotter;
      // The reader takes the churn its match index published when the
      // pre-pass repaired it (eligible queries have exactly one window).
      if (state->delta != nullptr) state->delta->Sync(shared.graph());
      snapshots[key] = &shared.graph();
      if (!ws.has_last_range || ws.last_lo != shared.window_begin() ||
          ws.last_hi != shared.window_end()) {
        all_ranges_unchanged = false;
      }
      ws.last_lo = shared.window_begin();
      ws.last_hi = shared.window_end();
      ws.has_last_range = true;
    } else {
      // This reader trails its window (revived after a disable, or
      // registered late on a window that already advanced): it reads a
      // snapshot of its own, and its delta index and reuse check sit out
      // until it catches up.
      SERAPH_ASSIGN_OR_RETURN(
          PropertyGraph snapshot,
          BuildSnapshot(*FindStreamOrEmpty(window.stream),
                        EffectiveWindow(window.config, t),
                        window.config.bounds()));
      if (static_graph_ != nullptr) {
        PropertyGraph with_base = *static_graph_;
        SERAPH_RETURN_IF_ERROR(MergeInto(&with_base, snapshot));
        snapshot = std::move(with_base);
      }
      snapshots[key] = &(catch_up_snapshots[key] = std::move(snapshot));
      catching_up = true;
      all_ranges_unchanged = false;
      ws.has_last_range = false;
      if (state->delta != nullptr) state->delta->Invalidate();
      state->metrics.snapshots_rebuilt->Increment();
    }
    const int64_t snap_dur = TraceRecorder::NowMicros() - snap_start;
    snapshot_micros += snap_dur;
    if (tracer != nullptr) {
      tracer->AddComplete(
          "snapshot", "engine", snap_start, snap_dur,
          {{"query", state->query.name},
           {"window", WindowLabel(window.stream, window.config.width)},
           {"mode", in_sync ? "shared" : "catch_up"}});
    }
  }
  SERAPH_CHECK(widest_window.has_value());
  const PropertyGraph* base = snapshots.at(state->widest_key);

  const int64_t windows_end = TraceRecorder::NowMicros();
  // "window" is the bookkeeping around the snapshot work; the snapshot
  // stage also carries the shared advances charged to this evaluation.
  const int64_t window_micros =
      (windows_end - eval_start) - snapshot_micros;
  snapshot_micros += out->charged_snapshot_micros;
  state->metrics.stage_window->Record(window_micros);
  state->metrics.stage_snapshot->Record(snapshot_micros);
  if (tracer != nullptr) {
    tracer->AddComplete("window_maintenance", "engine", eval_start,
                        windows_end - eval_start,
                        {{"query", state->query.name},
                         {"t", t.ToString()}});
  }

  // 2. Evaluate the body at instant t (snapshot reducibility) — or reuse
  //    the previous result when nothing in any window changed and the
  //    query cannot observe the evaluation instant.
  Table current;
  bool reused = false;
  if (options_.reuse_unchanged_windows && state->content_deterministic &&
      state->has_previous && all_ranges_unchanged) {
    current = state->previous_result;
    state->metrics.reuse_hits->Increment();
    reused = true;
  } else {
    WindowGraphResolver resolver(snapshots, base);
    ExecutionOptions exec;
    exec.parameters = options_.parameters;
    exec.now = t;
    exec.window = widest_window;
    exec.optimize_match_order = options_.optimize_match_order;
    // Intra-query morsel parallelism, when the scheduler granted it for
    // this batch (match_par.pool set by AdvanceTo).
    exec.match_parallelism =
        state->match_par.pool != nullptr ? &state->match_par : nullptr;
    // Evaluation deadline: a stack token on the latency clock, checked by
    // the matcher at seed/expansion boundaries. On expiry the evaluation
    // fails with kDeadlineExceeded, which flows through the isolation
    // path below exactly like any other evaluation failure. The
    // "eval.deadline" fault point deterministically simulates an expiry
    // for chaos tests (its kUnavailable is re-coded: a deadline is not
    // transient — retrying a too-slow query at the same instant would
    // just time out again, so it must hit the error budget instead).
    std::optional<CancellationToken> deadline;
    if (options_.eval_deadline_millis > 0) {
      if (FaultInjector::Global().armed()) {
        Status injected = FaultInjector::Global().Fire("eval.deadline");
        if (!injected.ok()) {
          return Status::DeadlineExceeded(
              "evaluation deadline exceeded (injected): " +
              injected.message());
        }
      }
      deadline.emplace(LatencyClock(),
                       LatencyClock()->NowMicros() +
                           options_.eval_deadline_millis * 1000);
      exec.cancellation = &*deadline;
    }
    bool delta_served = false;
    if (state->delta != nullptr && !catching_up) {
      // Delta path: the partial-match index (already repaired in stage 1)
      // hands out its cached output rows, projecting only the matches
      // indexed since the last evaluation. Any failure here is a normal
      // evaluation failure — no silent fallback within the instant — and
      // HandleEvalFailure invalidates the index.
      const IncrementalSnapshotter& shared =
          state->windows.begin()->second.shared->snapshotter;
      const int64_t delta_start = TraceRecorder::NowMicros();
      const bool rebuilt = !state->delta->valid();
      if (rebuilt) {
        SERAPH_RETURN_IF_ERROR(
            state->delta->Build(*base, shared.stats().advances, exec));
        state->metrics.delta_rebuilds->Increment();
      }
      const int64_t projected_before = state->delta->rows_projected();
      SERAPH_ASSIGN_OR_RETURN(current, state->delta->Output(*base, exec));
      const int64_t projected =
          state->delta->rows_projected() - projected_before;
      delta_served = true;
      state->metrics.delta_hits->Increment();
      state->metrics.delta_rows_projected->Increment(projected);
      state->metrics.delta_entries->Set(
          static_cast<int64_t>(state->delta->size()));
      if (tracer != nullptr) {
        tracer->AddComplete(
            "delta", "engine", delta_start,
            TraceRecorder::NowMicros() - delta_start,
            {{"query", state->query.name},
             {"mode", rebuilt ? "rebuild" : "incremental"},
             {"entries", std::to_string(state->delta->size())},
             {"projected", std::to_string(projected)}});
      }
    }
    if (!delta_served) {
      // Full execution. Counted as a delta fallback when delta matching
      // is on but could not serve this query (ineligible shape).
      if (options_.delta_matching) {
        state->metrics.delta_fallbacks->Increment();
      }
      // Share the clause/projection structures without copying expression
      // trees: move them into a temporary SingleQuery and back (the
      // executor only reads).
      SingleQuery single;
      single.clauses = std::move(state->query.clauses);
      single.ret.body = std::move(state->query.projection);
      auto result = ExecuteSingleQuery(single, resolver, Table::Unit(), exec);
      state->query.clauses = std::move(single.clauses);
      state->query.projection = std::move(single.ret.body);
      if (!result.ok()) return result.status();
      current = std::move(result).value();
    }
    // Delta and full executions count alike, so the checkpointed counts
    // and a replay of them are exact regardless of which path ran.
    state->metrics.reuse_misses->Increment();
    state->metrics.match_rows->Increment(
        static_cast<int64_t>(current.size()));
  }

  const int64_t match_end = TraceRecorder::NowMicros();
  const int64_t match_micros = match_end - windows_end;
  state->metrics.stage_match->Record(match_micros);
  if (tracer != nullptr) {
    tracer->AddComplete(reused ? "reuse" : "match", "engine", windows_end,
                        match_micros,
                        {{"query", state->query.name},
                         {"rows", std::to_string(current.size())}});
  }

  // 3. Apply the report policy.
  Table reported;
  switch (state->query.policy) {
    case ReportPolicy::kSnapshot:
      reported = current;
      break;
    case ReportPolicy::kOnEntering:
      reported = state->has_previous
                     ? Table::BagDifference(current, state->previous_result)
                     : current;
      break;
    case ReportPolicy::kOnExiting:
      reported = state->has_previous
                     ? Table::BagDifference(state->previous_result, current)
                     : Table(current.fields());
      break;
  }
  state->previous_result = std::move(current);
  state->has_previous = true;
  state->metrics.rows_emitted->Increment(
      static_cast<int64_t>(reported.size()));

  const int64_t policy_end = TraceRecorder::NowMicros();
  const int64_t policy_micros = policy_end - match_end;
  state->metrics.stage_policy->Record(policy_micros);
  if (tracer != nullptr) {
    tracer->AddComplete("policy", "engine", match_end, policy_micros,
                        {{"query", state->query.name},
                         {"policy", PolicyName(state->query.policy)}});
  }

  // Stage 4 (sink delivery) happens on the coordinator: hand the
  // time-annotated table back for FinishDelivery.
  out->annotated = TimeAnnotatedTable{std::move(reported), *widest_window};
  out->eval_start_micros = eval_start;
  out->eval_end_micros = policy_end;
  return Status::OK();
}

void ContinuousEngine::FinishDelivery(QueryState* state, Timestamp t,
                                      PendingDelivery&& out) {
  TraceRecorder* tracer =
      (options_.tracer != nullptr && options_.tracer->enabled())
          ? options_.tracer
          : nullptr;
  // The sink stage is timed as its own interval rather than "since the
  // policy stage ended": under parallel evaluation there is a scheduling
  // gap between a worker finishing stage 3 and the coordinator getting
  // here, and that gap is not sink time.
  const int64_t sink_start = TraceRecorder::NowMicros();
  // Sink failures are isolated inside DeliverToSinks (retry →
  // dead-letter → quarantine) and never fail the evaluation.
  DeliverToSinks(state->query.name, t, out.annotated);
  const int64_t sink_end = TraceRecorder::NowMicros();
  const int64_t sink_micros = sink_end - sink_start;
  state->metrics.stage_sink->Record(sink_micros);

  // The shared advances charged to this evaluation ran on the coordinator
  // before it started; they count toward its latency like its own stages.
  const int64_t eval_micros = out.eval_end_micros - out.eval_start_micros +
                              out.charged_snapshot_micros;
  const int64_t total_micros = eval_micros + sink_micros;
  if (tracer != nullptr) {
    tracer->AddComplete("sink", "engine", sink_start, sink_micros,
                        {{"query", state->query.name},
                         {"sinks", std::to_string(sinks_.size())}});
    // The 'evaluate' span must enclose its 'sink' child, so it runs to
    // sink_end: the worker-to-coordinator scheduling gap sits *inside*
    // the span (visible as the space between the policy and sink
    // children), while the latency metrics below deliberately exclude it.
    tracer->AddComplete("evaluate", "pipeline", out.eval_start_micros,
                        sink_end - out.eval_start_micros,
                        {{"query", state->query.name},
                         {"t", t.ToString()}});
  }
  state->metrics.eval_total->Record(total_micros);
  RecordEmitLatency(state, t, out);
}

void ContinuousEngine::RecordEmitLatency(QueryState* state, Timestamp t,
                                         const PendingDelivery& out) {
  // Coordinator-only (single-writer histogram contract). Every element
  // with timestamp <= t is now covered by this query's delivered result;
  // charge arrival→now once per element, per query. Elements covered by
  // instants whose evaluation *failed* were not advanced past (failures
  // skip FinishDelivery), so their latency lands on the next successful
  // emit — truthfully including the failed attempts' delay.
  const int64_t now = LatencyClock()->NowMicros();
  for (auto& [stream_name, cursor] : state->latency_cursors) {
    const PropertyGraphStream* stream = FindStreamOrEmpty(stream_name);
    // Elements the retention trim released before this query charged
    // them lay outside all of its windows (a gap between WITHIN and
    // EVERY, or the stretch a failing evaluation slid past); they carry
    // no emit latency for it.
    cursor = std::max(cursor, stream->base_offset());
    while (cursor < stream->size() && stream->at(cursor).timestamp <= t) {
      const StreamElement& element = stream->at(cursor);
      ++cursor;
      if (element.arrival_micros <= 0) continue;  // Unstamped (restored).
      int64_t latency = now - element.arrival_micros;
      if (latency < 0) latency = 0;
      state->metrics.emit_latency->Record(latency);
      fleet_emit_latency_->Record(latency);
      int64_t queue_wait =
          out.latency_eval_start_micros - element.arrival_micros;
      if (queue_wait < 0) queue_wait = 0;
      state->metrics.lat_queue->Record(queue_wait);
    }
  }
}

void ContinuousEngine::HandleEvalFailure(QueryState* state, Timestamp t,
                                         Status error) {
  // The failed evaluation already recorded its windows' element ranges
  // (EvaluateAt updates last_lo/last_hi before the match stage) but never
  // produced a result. If the ranges stayed frozen, the next instant's
  // unchanged-window check would pass and the reuse path would emit
  // previous_result — a table from the last *successful* evaluation over
  // different window content — and, since reuse skips execution, a
  // content-deterministic error would never re-fire (so the error budget
  // could never trip). Invalidate the precondition: the next instant must
  // re-execute.
  for (auto& [key, ws] : state->windows) ws.has_last_range = false;
  // Same reasoning for the partial-match index: the failed evaluation may
  // have left it mid-repair, and stage 1 already consumed this advance's
  // dirty sets — rebuild from scratch next time.
  if (state->delta != nullptr) state->delta->Invalidate();
  state->metrics.eval_failures->Increment();
  SERAPH_LOG(WARNING) << "evaluation of query '" << state->query.name
                      << "' at " << t.ToString()
                      << " failed: " << error.ToString();
  if (options_.dead_letter != nullptr) {
    options_.dead_letter->AddEvaluationFailure(state->query.name, t, error);
  }
  state->last_error = std::move(error);
  ++state->consecutive_failures;
  if (options_.query_error_budget > 0 && !state->disabled &&
      state->consecutive_failures >= options_.query_error_budget) {
    state->disabled = true;
    state->metrics.disabled->Set(1);
    SERAPH_LOG(ERROR) << "query '" << state->query.name
                      << "' disabled after " << state->consecutive_failures
                      << " consecutive evaluation failures; ReviveQuery() "
                         "re-enables it";
  }
}

int EvalThreadsFromEnv(int fallback) {
  const char* raw = std::getenv("SERAPH_EVAL_THREADS");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 0 || value > 4096) {
    return fallback;
  }
  return static_cast<int>(value);
}

}  // namespace seraph
