#include "replay.h"

#include <memory>
#include <optional>

#include "cypher/executor.h"
#include "seraph/delta/delta_index.h"
#include "seraph/seraph_parser.h"
#include "stream/snapshot.h"
#include "stream/window.h"

namespace perfbench {

using namespace seraph;

namespace {

struct ReplayedQuery {
  RegisteredQuery query;
  std::unique_ptr<DeltaIndex> delta;
  Table previous;
  bool has_previous = false;
};

struct ReplayedWindow {
  const PropertyGraphStream* stream = nullptr;
  WindowConfig config;
  std::unique_ptr<IncrementalSnapshotter> snapshotter;
  std::vector<ReplayedQuery*> queries;
  size_t last_lo = 0;
  size_t last_hi = 0;
  bool has_range = false;
};

// Runs the query body (or, on the delta path, only its projection over the
// index's MATCH-stage table), lending the clauses to the executor as the
// engine does.
Result<Table> Execute(ReplayedQuery* q, const PropertyGraph& graph,
                      const ExecutionOptions& exec, SpanLog* spans,
                      int64_t instant_ms) {
  SingleQuery single;
  Table input = Table::Unit();
  if (q->delta != nullptr) {
    ScopedSpan span(spans, "DeltaIndex::Emit", "cypher", instant_ms);
    SERAPH_ASSIGN_OR_RETURN(input, q->delta->Emit(graph, exec));
    single.ret.body = std::move(q->query.projection);
    Result<Table> out =
        ExecuteSingleQuery(single, SingleGraphResolver(graph), input, exec);
    q->query.projection = std::move(single.ret.body);
    return out;
  }
  ScopedSpan span(spans, "ExecuteSingleQuery", "cypher", instant_ms);
  single.clauses = std::move(q->query.clauses);
  single.ret.body = std::move(q->query.projection);
  Result<Table> out =
      ExecuteSingleQuery(single, SingleGraphResolver(graph), input, exec);
  q->query.clauses = std::move(single.clauses);
  q->query.projection = std::move(single.ret.body);
  return out;
}

}  // namespace

Status Replay(const std::vector<ReplayQuery>& queries, Timestamp record_after,
              Timestamp last, SpanLog* spans, ReplayStats* stats) {
  std::vector<std::unique_ptr<ReplayedQuery>> owned;
  std::vector<ReplayedWindow> windows;
  for (const ReplayQuery& rq : queries) {
    auto q = std::make_unique<ReplayedQuery>();
    SERAPH_ASSIGN_OR_RETURN(q->query, ParseSeraphQuery(rq.text));
    if (!owned.empty() && (q->query.starting_at != owned[0]->query.starting_at ||
                           q->query.every != owned[0]->query.every)) {
      return Status::InvalidArgument(
          "replay expects one evaluation grid across queries");
    }
    const auto* match = std::get_if<MatchClause>(&q->query.clauses.front());
    if (match == nullptr || !match->within.has_value()) {
      return Status::InvalidArgument("replay expects a leading windowed MATCH");
    }
    if (DeltaIndex::Eligible(q->query)) {
      q->delta = std::make_unique<DeltaIndex>(match);
    }
    ReplayedWindow* window = nullptr;
    for (ReplayedWindow& w : windows) {
      if (w.stream == rq.stream && w.config.width == *match->within) window = &w;
    }
    if (window == nullptr) {
      ReplayedWindow& w = windows.emplace_back();
      w.stream = rq.stream;
      w.config = WindowConfig{q->query.starting_at, *match->within,
                              q->query.every, WindowSemantics::kLookback};
      w.snapshotter = std::make_unique<IncrementalSnapshotter>(
          rq.stream, w.config.bounds());
      window = &w;
    }
    window->queries.push_back(q.get());
    owned.push_back(std::move(q));
  }
  if (owned.empty()) return Status::OK();

  const bool tracing = spans->enabled();
  double entities = 0;
  int64_t entity_samples = 0;
  for (Timestamp t = owned[0]->query.starting_at; t <= last;
       t = t + owned[0]->query.every) {
    const bool record = t > record_after;
    spans->set_enabled(tracing && record);
    const int64_t ms = t.millis();
    for (ReplayedWindow& w : windows) {
      std::optional<TimeInterval> window;
      {
        ScopedSpan span(spans, "WindowConfig::ActiveWindow", "stream", ms);
        window = w.config.ActiveWindow(t);
      }
      if (!window.has_value()) window = TimeInterval{t, t};
      {
        ScopedSpan span(spans, "IncrementalSnapshotter::Advance", "stream", ms);
        SERAPH_RETURN_IF_ERROR(w.snapshotter->Advance(*window));
      }
      const PropertyGraph& graph = w.snapshotter->graph();
      const bool changed = !w.has_range ||
                           w.last_lo != w.snapshotter->window_begin() ||
                           w.last_hi != w.snapshotter->window_end();
      w.last_lo = w.snapshotter->window_begin();
      w.last_hi = w.snapshotter->window_end();
      w.has_range = true;
      if (record) {
        entities += static_cast<double>(graph.num_nodes() +
                                        graph.num_relationships());
        ++entity_samples;
      }
      ExecutionOptions exec;
      exec.now = t;
      exec.window = window;
      for (ReplayedQuery* q : w.queries) {
        if (q->delta != nullptr) {
          if (q->delta->valid()) {
            ScopedSpan span(spans, "DeltaIndex::ObserveAdvance", "seraph", ms);
            q->delta->ObserveAdvance(*w.snapshotter);
          }
          if (!q->delta->valid()) {
            SERAPH_RETURN_IF_ERROR(q->delta->Build(
                graph, w.snapshotter->stats().advances, exec));
          }
        }
        Table current;
        if (changed || !q->has_previous) {
          SERAPH_ASSIGN_OR_RETURN(current, Execute(q, graph, exec, spans, ms));
        } else {
          current = q->previous;
        }
        if (q->query.policy != ReportPolicy::kSnapshot && q->has_previous) {
          ScopedSpan span(spans, "Table::BagDifference", "seraph", ms);
          Table reported =
              q->query.policy == ReportPolicy::kOnEntering
                  ? Table::BagDifference(current, q->previous)
                  : Table::BagDifference(q->previous, current);
          (void)reported;
        }
        q->previous = std::move(current);
        q->has_previous = true;
      }
    }
  }
  spans->set_enabled(tracing);
  stats->snapshot_entities =
      entity_samples > 0 ? entities / static_cast<double>(entity_samples) : 0;
  return Status::OK();
}

}  // namespace perfbench
