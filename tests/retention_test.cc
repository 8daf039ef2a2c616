// Stream retention (docs/INTERNALS.md, "Stream retention"): engine streams
// keep only what a live window can still read, checkpoints carry only
// that suffix, and none of it changes an answer. Randomized fleets over
// every window shape run for more than ten times their widest window and
// are checked against the BuildSnapshot + one-time Cypher oracle over an
// untrimmed mirror of the input, while the retained suffix is held to the
// widest live window plus what was ingested ahead of the clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cypher/executor.h"
#include "graph/graph_builder.h"
#include "persist/checkpoint.h"
#include "seraph/continuous_engine.h"
#include "seraph/seraph_parser.h"
#include "seraph/stream_driver.h"
#include "stream/event_queue.h"
#include "stream/snapshot.h"
#include "stream/window.h"

namespace seraph {
namespace {

namespace fs = std::filesystem;

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

// "1970-01-01Thh:mm" for a minute offset below one day.
std::string Iso(int64_t minutes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "1970-01-01T%02d:%02d",
                static_cast<int>(minutes / 60), static_cast<int>(minutes % 60));
  return buf;
}

std::shared_ptr<const PropertyGraph> Item(int64_t id) {
  return std::make_shared<const PropertyGraph>(
      GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build());
}

// The one-time answer at `t` of a single-MATCH query over the window it
// reads at t, computed from the untrimmed `mirror` (snapshot
// reducibility, Def. 5.8). `annotation`, when set, receives the window
// the engine annotates the emission with.
Result<Table> OneTime(RegisteredQuery* query, const PropertyGraphStream& mirror,
                      WindowSemantics semantics, Timestamp t,
                      TimeInterval* annotation) {
  const auto& match = std::get<MatchClause>(query->clauses.front());
  const Duration slide = query->mode == OutputMode::kEmitStream
                             ? query->every
                             : Duration::FromMillis(1);
  WindowConfig config{query->starting_at, *match.within, slide, semantics};
  std::optional<TimeInterval> window = config.ActiveWindow(t);
  if (!window.has_value()) window = TimeInterval{t, t};
  if (annotation != nullptr) *annotation = *window;
  TimeInterval effective = *window;
  if (t < effective.end) effective.end = Timestamp::FromMillis(t.millis() + 1);
  SERAPH_ASSIGN_OR_RETURN(PropertyGraph snapshot,
                          BuildSnapshot(mirror, effective, config.bounds()));
  ExecutionOptions exec;
  exec.now = t;
  exec.window = window;
  SingleQuery single;
  single.clauses = std::move(query->clauses);
  single.ret.body = std::move(query->projection);
  Result<Table> out = ExecuteSingleQuery(single, SingleGraphResolver(snapshot),
                                         Table::Unit(), exec);
  query->clauses = std::move(single.clauses);
  query->projection = std::move(single.ret.body);
  return out;
}

// The reported table at `t`: the one-time answer through the query's
// report policy, with the previous instant's answer as the subtrahend.
Result<Table> Expected(RegisteredQuery* query,
                       const PropertyGraphStream& mirror,
                       WindowSemantics semantics, Timestamp t,
                       TimeInterval* annotation) {
  SERAPH_ASSIGN_OR_RETURN(Table current,
                          OneTime(query, mirror, semantics, t, annotation));
  if (query->mode == OutputMode::kReturnOnce ||
      query->policy == ReportPolicy::kSnapshot) {
    return current;
  }
  const bool entering = query->policy == ReportPolicy::kOnEntering;
  const Timestamp previous_t = t - query->every;
  if (previous_t < query->starting_at) {
    return entering ? current : Table(current.fields());
  }
  SERAPH_ASSIGN_OR_RETURN(
      Table previous, OneTime(query, mirror, semantics, previous_t, nullptr));
  return entering ? Table::BagDifference(current, previous)
                  : Table::BagDifference(previous, current);
}

// The evaluation instants of `query` up to `clock`.
std::vector<Timestamp> Instants(const RegisteredQuery& query, Timestamp clock) {
  std::vector<Timestamp> out;
  if (query.mode == OutputMode::kReturnOnce) {
    if (query.starting_at <= clock) out.push_back(query.starting_at);
    return out;
  }
  for (Timestamp t = query.starting_at; t <= clock; t = t + query.every) {
    out.push_back(t);
  }
  return out;
}

// Every emission of `query` equals the oracle, and no instant is missing
// or extra.
void ExpectMatchesOracle(RegisteredQuery* query, const CollectingSink& sink,
                         const PropertyGraphStream& mirror,
                         WindowSemantics semantics, Timestamp clock) {
  SCOPED_TRACE("query " + query->name);
  const std::vector<Timestamp> instants = Instants(*query, clock);
  EXPECT_EQ(sink.ResultsFor(query->name).size(), instants.size());
  for (Timestamp t : instants) {
    TimeInterval annotation;
    Result<Table> want = Expected(query, mirror, semantics, t, &annotation);
    ASSERT_TRUE(want.ok()) << want.status();
    std::optional<TimeAnnotatedTable> got = sink.ResultAt(query->name, t);
    ASSERT_TRUE(got.has_value()) << "no emission at " << t.ToString();
    EXPECT_EQ(got->table, *want) << "diverges at " << t.ToString();
    EXPECT_EQ(got->window, annotation) << "annotation at " << t.ToString();
  }
}

// ---------------------------------------------------------------------------
// Randomized fleets
// ---------------------------------------------------------------------------

// The `catch_up` arm adds readers that trail their shared window: victims
// that a poison element disables and a revive brings back, a late copy of
// a query whose window already advanced, and the re-registration of a
// query whose window went with it as its last reader.
struct FleetCase {
  int seed;
  WindowSemantics semantics;
  bool catch_up;
};

struct Element {
  std::string stream;
  std::shared_ptr<const PropertyGraph> graph;
  Timestamp timestamp;
};

const char* const kStreams[] = {"", "side", "unread"};

// The poison node: victims divide by (13 - id) and fail while it is in
// their window.
constexpr int64_t kPoisonId = 13;

// One fleet member, rendered to Seraph text by Render.
struct Spec {
  std::string name;
  int64_t width = 0;  // WITHIN, minutes.
  int shape = 0;      // Pattern and projection; kVictimShape divides.
  bool side = false;  // FROM side.
  int64_t start = 0;  // STARTING AT, minutes.
  bool return_once = false;
  int policy = 0;
  int64_t every = 1;  // EVERY, minutes (EMIT only).
};

constexpr int kVictimShape = 3;

std::string Render(const Spec& s) {
  const char* policies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};
  const char* patterns[] = {
      "MATCH (a:P)-[r:R]->(b:P) WITHIN PT%lldM%s",
      "MATCH (a:P) WITHIN PT%lldM%s WHERE a.v >= 2",
      "MATCH (a:P)-[r:R]->(b:P) WITHIN PT%lldM%s",
      "MATCH (a:P) WITHIN PT%lldM%s",
  };
  const char* projections[] = {
      "a.id AS a, b.id AS b, r.w AS w",
      "a.id AS a, a.v AS v",
      "b.id AS b, count(*) AS n",
      "a.id AS a, 60 / (13 - a.id) AS d",
  };
  char match[160];
  std::snprintf(match, sizeof(match), patterns[s.shape],
                static_cast<long long>(s.width), s.side ? " FROM side" : "");
  std::string text = "REGISTER QUERY " + s.name + " STARTING AT '" +
                     Iso(s.start) + "' { " + match;
  if (s.return_once) return text + " RETURN " + projections[s.shape] + " }";
  return text + " EMIT " + projections[s.shape] + " " + policies[s.policy] +
         " EVERY PT" + std::to_string(s.every) + "M }";
}

// The shared-window key of a single-MATCH spec.
std::string KeyOf(const Spec& s) {
  return std::to_string(s.side) + "/" + std::to_string(s.width) + "/" +
         std::to_string(s.start) + "/" +
         (s.return_once ? std::string("once") : std::to_string(s.every));
}

// A fleet over the default and "side" streams ("unread" feeds no query):
// every WITHIN/EVERY pairing (including WITHIN < EVERY, the gap case of
// the paper-formal semantics), staggered STARTING AT, all three report
// policies, and RETURN-once queries. A third of the members derive from
// an earlier one: the same window under another body (a shared key), or
// a window differing only in STARTING AT or only in EVERY. The catch-up
// arm adds two RETURN readers of one window, a default-stream EMIT
// member, and one or two victims sharing a window with a default-stream
// EMIT member.
std::vector<Spec> MakeFleet(std::mt19937_64* rng, bool catch_up,
                            int64_t* widest) {
  const int64_t widths[] = {2, 3, 5, 8, 13, 20};
  const int64_t everies[] = {1, 2, 3, 5, 7};
  std::vector<Spec> fleet;
  const int queries = 5 + static_cast<int>((*rng)() % 3);
  for (int q = 0; q < queries; ++q) {
    Spec s;
    if (q > 0 && (*rng)() % 3 == 0) {
      s = fleet[(*rng)() % fleet.size()];
      const int variant = static_cast<int>((*rng)() % 3);
      if (variant == 1) {
        s.start = 1 + static_cast<int64_t>((*rng)() % 30);
      } else if (variant == 2 && !s.return_once) {
        s.every = everies[(*rng)() % 5];
      }
    } else {
      s.width = widths[(*rng)() % 6];
      s.side = (*rng)() % 3 == 0;
      s.start = 1 + static_cast<int64_t>((*rng)() % 30);
      s.return_once = (*rng)() % 6 == 0;
      s.every = everies[(*rng)() % 5];
    }
    s.shape = static_cast<int>((*rng)() % 3);
    s.policy = static_cast<int>((*rng)() % 3);
    s.name = "q" + std::to_string(q);
    fleet.push_back(s);
  }
  if (catch_up) {
    Spec once;
    once.width = widths[(*rng)() % 6];
    once.start = 1 + static_cast<int64_t>((*rng)() % 30);
    once.return_once = true;
    for (const char* name : {"once_a", "once_b"}) {
      once.name = name;
      once.shape = static_cast<int>((*rng)() % 3);
      fleet.push_back(once);
    }
    Spec host;
    host.name = "host";
    host.width = widths[(*rng)() % 6];
    host.start = 1 + static_cast<int64_t>((*rng)() % 30);
    host.every = everies[(*rng)() % 5];
    host.shape = static_cast<int>((*rng)() % 3);
    host.policy = static_cast<int>((*rng)() % 3);
    fleet.push_back(host);
    std::vector<Spec> hosts;
    for (const Spec& s : fleet) {
      if (!s.side && !s.return_once) hosts.push_back(s);
    }
    const int victims = 1 + static_cast<int>((*rng)() % 2);
    for (int v = 0; v < victims; ++v) {
      Spec victim = hosts[(*rng)() % hosts.size()];
      victim.name = "v" + std::to_string(v);
      victim.shape = kVictimShape;
      victim.policy = 0;
      fleet.push_back(victim);
    }
  }
  *widest = 0;
  for (const Spec& s : fleet) *widest = std::max(*widest, s.width);
  return fleet;
}

// Random element graphs over a small pool of recurring nodes (merges and
// property overwrites across elements), with fresh relationship ids, and
// now and then the poison node alone; the timeline runs past twelve times
// the widest window and is cut by silences longer than it.
std::vector<Element> MakeTimeline(std::mt19937_64* rng, int64_t widest) {
  std::vector<Element> out;
  int64_t now_ms = 0;
  int64_t rel = 1;
  const int64_t end_ms = 12 * widest * 60'000;
  while (now_ms < end_ms) {
    if ((*rng)() % 40 == 0) {
      now_ms += (widest + 1 + static_cast<int64_t>((*rng)() % 10)) * 60'000;
    } else {
      now_ms += static_cast<int64_t>((*rng)() % 4) * 30'000;
    }
    GraphBuilder b;
    if ((*rng)() % 30 == 0) {
      b.Node(kPoisonId, {"P"}, {{"id", Value::Int(kPoisonId)},
                                {"v", Value::Int(3)}});
      out.push_back(Element{"", std::make_shared<const PropertyGraph>(
                                    std::move(b).Build()),
                            Timestamp::FromMillis(now_ms)});
      continue;
    }
    std::vector<int64_t> nodes;
    const int count = 1 + static_cast<int>((*rng)() % 3);
    for (int i = 0; i < count; ++i) {
      const int64_t id = 1 + static_cast<int64_t>((*rng)() % 12);
      if (std::find(nodes.begin(), nodes.end(), id) != nodes.end()) continue;
      nodes.push_back(id);
      b.Node(id, {"P"},
             {{"id", Value::Int(id)},
              {"v", Value::Int(static_cast<int64_t>((*rng)() % 6))}});
    }
    const int rels = static_cast<int>((*rng)() % 3);
    for (int i = 0; i < rels && nodes.size() > 1; ++i) {
      b.Rel(rel++, nodes[(*rng)() % nodes.size()],
            nodes[(*rng)() % nodes.size()], "R",
            {{"w", Value::Int(static_cast<int64_t>((*rng)() % 10))}});
    }
    const uint64_t pick = (*rng)() % 10;
    out.push_back(Element{kStreams[pick < 6 ? 0 : pick < 9 ? 1 : 2],
                          std::make_shared<const PropertyGraph>(
                              std::move(b).Build()),
                          Timestamp::FromMillis(now_ms)});
  }
  return out;
}

// A fleet member as the oracle sees it.
struct Member {
  Spec spec;
  RegisteredQuery query;
  // Unregistered at this clock (nullopt while registered).
  std::optional<Timestamp> until;
};

// Retained elements per stream stay within what the live readers can
// still read plus what was ingested ahead of the clock. A reader in step
// with its window needs at most its width plus one slide of evaluation
// granularity behind the clock; a reader behind the clock (disabled, or
// catching up) needs the window of its previous instant, which its shared
// window may still cover. A stream no live query reads holds nothing.
void ExpectBoundedRetention(
    const ContinuousEngine& engine, const std::vector<Member>& fleet,
    const std::map<std::string, PropertyGraphStream>& mirror, Timestamp clock,
    WindowSemantics semantics) {
  std::map<std::string, const Member*> by_name;
  for (const Member& m : fleet) by_name[m.spec.name] = &m;
  const EngineCheckpoint image = engine.CaptureCheckpoint();
  for (const auto& [name, copy] : mirror) {
    const PropertyGraphStream& stream = engine.stream(name);
    ASSERT_EQ(stream.size(), copy.size()) << "stream '" << name << "'";
    std::optional<Timestamp> oldest;
    for (const QueryCheckpoint& q : image.queries) {
      if (q.done) continue;
      const RegisteredQuery& query = by_name.at(q.name)->query;
      const auto& match = std::get<MatchClause>(query.clauses.front());
      if (match.from_stream != name) continue;
      const Duration slide = query.mode == OutputMode::kEmitStream
                                 ? query.every
                                 : Duration::FromMillis(1);
      Timestamp need = clock - (*match.within + slide);
      WindowConfig config{query.starting_at, *match.within, slide, semantics};
      const Timestamp previous = q.next_eval - slide;
      std::optional<TimeInterval> window = config.ActiveWindow(previous);
      need = std::min(need, window.has_value() ? window->start : previous);
      if (!oldest.has_value() || need < *oldest) oldest = need;
    }
    const size_t allowed =
        oldest.has_value() ? copy.size() - copy.LowerBound(*oldest) : 0;
    EXPECT_LE(stream.retained(), allowed)
        << "stream '" << name << "' at " << clock.ToString();
  }
}

// Every emission of a member equals the oracle up to the clock (or until
// it was unregistered), and no instant is missing or extra. A victim's
// instants whose one-time answer fails have no emission.
void ExpectMemberMatchesOracle(Member* member, const CollectingSink& sink,
                               const PropertyGraphStream& mirror,
                               WindowSemantics semantics, Timestamp clock) {
  RegisteredQuery* query = &member->query;
  SCOPED_TRACE("query " + query->name);
  const Timestamp end = member->until.value_or(clock);
  size_t answered = 0;
  for (Timestamp t : Instants(*query, end)) {
    TimeInterval annotation;
    Result<Table> want = Expected(query, mirror, semantics, t, &annotation);
    std::optional<TimeAnnotatedTable> got = sink.ResultAt(query->name, t);
    if (!want.ok()) {
      ASSERT_EQ(member->spec.shape, kVictimShape) << want.status();
      EXPECT_FALSE(got.has_value()) << "emission at failing " << t.ToString();
      continue;
    }
    ++answered;
    ASSERT_TRUE(got.has_value()) << "no emission at " << t.ToString();
    EXPECT_EQ(got->table, *want) << "diverges at " << t.ToString();
    EXPECT_EQ(got->window, annotation) << "annotation at " << t.ToString();
  }
  EXPECT_EQ(sink.ResultsFor(query->name).size(), answered);
}

class RetentionFleetTest : public ::testing::TestWithParam<FleetCase> {};

TEST_P(RetentionFleetTest, MatchesOracleWithBoundedRetention) {
  const FleetCase c = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(c.seed) * 0x9e3779b97f4a7c15ULL +
                      7);
  int64_t widest = 0;
  const std::vector<Spec> specs = MakeFleet(&rng, c.catch_up, &widest);
  const std::vector<Element> timeline = MakeTimeline(&rng, widest);

  EngineOptions options;
  options.semantics = c.semantics;
  options.query_error_budget = 2;
  // Odd seeds evaluate in parallel (at SERAPH_EVAL_THREADS when set).
  options.eval_threads = c.seed % 2 == 0 ? 1 : EvalThreadsFromEnv(2);
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  // A second engine restored from a checkpoint taken mid-run must continue
  // exactly like the first: the capture carries only the retained suffix.
  std::unique_ptr<ContinuousEngine> restored;
  CollectingSink restored_sink;
  // Per query registered at the cut, the first instant the restored
  // engine owes (a disabled one's lies before the cut); nullopt once done.
  std::map<std::string, std::optional<Timestamp>> resume_at;
  const size_t cut_index = timeline.size() / 2;

  std::vector<Member> fleet;
  // Registers `spec` with both engines; false when the retention trim
  // already released its first window (the late-registration rule).
  auto register_member = [&](const Spec& spec) -> bool {
    SCOPED_TRACE(Render(spec));
    const Status status = engine.RegisterText(Render(spec));
    if (status.code() == StatusCode::kFailedPrecondition) {
      EXPECT_NE(status.message().find("trimmed through"), std::string::npos);
      return false;
    }
    EXPECT_TRUE(status.ok()) << status;
    if (restored != nullptr) {
      EXPECT_TRUE(restored->RegisterText(Render(spec)).ok());
    }
    auto parsed = ParseSeraphQuery(Render(spec));
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    fleet.push_back(Member{spec, std::move(parsed).value(), std::nullopt});
    return true;
  };
  for (const Spec& spec : specs) ASSERT_TRUE(register_member(spec));
  auto revive_disabled = [&] {
    bool any = false;
    for (const std::string& name : engine.QueryNames()) {
      if (!engine.QueryDisabled(name)) continue;
      any = true;
      EXPECT_TRUE(engine.ReviveQuery(name).ok());
      if (restored != nullptr) {
        EXPECT_TRUE(restored->QueryDisabled(name)) << name;
        EXPECT_TRUE(restored->ReviveQuery(name).ok());
      }
    }
    return any;
  };
  std::map<std::string, PropertyGraphStream> mirror;
  for (const char* name : kStreams) mirror[name];

  bool registered_late = false;
  bool reregistered = false;
  Timestamp clock;
  size_t i = 0;
  while (i < timeline.size()) {
    // Ingest a chunk, then advance to a point inside it or into the gap
    // after it, so some elements always sit ahead of the clock.
    const size_t chunk = 1 + rng() % 8;
    const size_t first = i;
    for (; i < timeline.size() && i < first + chunk; ++i) {
      const Element& e = timeline[i];
      ASSERT_TRUE(engine.IngestTo(e.stream, e.graph, e.timestamp).ok());
      if (restored != nullptr) {
        ASSERT_TRUE(restored->IngestTo(e.stream, e.graph, e.timestamp).ok());
      }
      ASSERT_TRUE(mirror[e.stream].Append(e.graph, e.timestamp).ok());
    }
    Timestamp target = timeline[first + rng() % (i - first)].timestamp;
    if (rng() % 3 == 0) {
      target = timeline[i - 1].timestamp +
               Duration::FromMillis(static_cast<int64_t>(rng() % 600'000));
    }
    // An instant is evaluated once the clock reaches it, so the clock
    // stays below every element not ingested yet.
    if (i < timeline.size() && target >= timeline[i].timestamp) {
      target = Timestamp::FromMillis(timeline[i].timestamp.millis() - 1);
    }
    if (target > clock) clock = target;
    ASSERT_TRUE(engine.AdvanceTo(clock).ok());
    if (restored != nullptr) {
      ASSERT_TRUE(restored->AdvanceTo(clock).ok());
    }
    ExpectBoundedRetention(engine, fleet, mirror, clock, c.semantics);
    if (c.catch_up) {
      if (rng() % 3 == 0) revive_disabled();
      // The member most recently started among those `eligible` admits:
      // its first window is the likeliest to be retained still.
      auto latest_started = [&](auto eligible) -> Member* {
        Member* best = nullptr;
        for (Member& m : fleet) {
          if (m.until.has_value() || m.spec.shape == kVictimShape ||
              T(m.spec.start) > clock || !eligible(m.spec)) {
            continue;
          }
          if (best == nullptr || m.spec.start > best->spec.start) best = &m;
        }
        return best;
      };
      // A copy of a query whose window already advanced: it trails the
      // window until it catches up.
      if (!registered_late) {
        if (Member* m = latest_started(
                [](const Spec& spec) { return !spec.return_once; })) {
          Spec late = m->spec;
          late.name = late.name + "_late";
          register_member(late);
          registered_late = true;
        }
      }
      // The last reader of a window leaves and the window goes with it;
      // registering the same window again starts it from empty.
      if (!reregistered) {
        std::map<std::string, int> readers;
        for (const Member& m : fleet) {
          if (!m.until.has_value()) ++readers[KeyOf(m.spec)];
        }
        if (Member* m = latest_started([&](const Spec& spec) {
              return !spec.return_once && readers[KeyOf(spec)] == 1;
            })) {
          const Spec spec = m->spec;
          ASSERT_TRUE(engine.Unregister(spec.name).ok());
          if (restored != nullptr) {
            ASSERT_TRUE(restored->Unregister(spec.name).ok());
          }
          m->until = clock;
          Spec again = spec;
          again.name = spec.name + "_again";
          register_member(again);
          reregistered = true;
        }
      }
    }
    if (restored == nullptr && i >= cut_index) {
      const EngineCheckpoint image = engine.CaptureCheckpoint();
      for (const QueryCheckpoint& q : image.queries) {
        resume_at[q.name] =
            q.done ? std::nullopt : std::optional<Timestamp>(q.next_eval);
      }
      restored = std::make_unique<ContinuousEngine>(options);
      restored->AddSink(&restored_sink);
      for (const Member& m : fleet) {
        if (m.until.has_value()) continue;
        ASSERT_TRUE(restored->RegisterText(Render(m.spec)).ok());
      }
      ASSERT_TRUE(restored->RestoreFrom(image).ok());
      for (const char* name : kStreams) {
        EXPECT_EQ(restored->stream(name).size(), engine.stream(name).size());
        EXPECT_EQ(restored->stream(name).base_offset(),
                  engine.stream(name).base_offset());
      }
    }
  }
  ASSERT_NE(restored, nullptr);
  // A final silence past every window; then every victim is revived until
  // it has caught up on all its instants, and each stream ends with an
  // empty retained suffix.
  clock = clock + Duration::FromMinutes(2 * widest + 10);
  ASSERT_TRUE(engine.AdvanceTo(clock).ok());
  ASSERT_TRUE(restored->AdvanceTo(clock).ok());
  ExpectBoundedRetention(engine, fleet, mirror, clock, c.semantics);
  for (int round = 0; round < 1000 && revive_disabled(); ++round) {
    ASSERT_TRUE(engine.AdvanceTo(clock).ok());
    ASSERT_TRUE(restored->AdvanceTo(clock).ok());
    ExpectBoundedRetention(engine, fleet, mirror, clock, c.semantics);
  }
  for (const char* name : kStreams) {
    EXPECT_EQ(engine.stream(name).retained(), 0u)
        << "stream '" << name << "'";
  }
  // Only a reader trailing its window builds a snapshot of its own.
  int64_t rebuilt = 0;
  for (const Member& m : fleet) {
    if (!m.until.has_value()) {
      rebuilt += engine.StatsFor(m.spec.name)->snapshots_rebuilt;
    }
  }
  if (c.catch_up) {
    EXPECT_GT(rebuilt, 0);
  } else {
    EXPECT_EQ(rebuilt, 0);
  }

  for (Member& member : fleet) {
    const RegisteredQuery& query = member.query;
    const std::string& stream =
        std::get<MatchClause>(query.clauses.front()).from_stream;
    ExpectMemberMatchesOracle(&member, sink, mirror[stream], c.semantics,
                              clock);
    // The restored engine emitted exactly the first engine's post-cut
    // suffix (members registered after the cut: everything).
    std::optional<Timestamp> resume = query.starting_at;
    if (auto it = resume_at.find(query.name); it != resume_at.end()) {
      resume = it->second;
    } else if (member.until.has_value()) {
      continue;  // Gone before the cut.
    }
    size_t after_cut = 0;
    for (Timestamp t : Instants(query, member.until.value_or(clock))) {
      if (!resume.has_value() || t < *resume) continue;
      auto a = sink.ResultAt(query.name, t);
      auto b = restored_sink.ResultAt(query.name, t);
      ASSERT_EQ(a.has_value(), b.has_value()) << t.ToString();
      if (!a.has_value()) continue;
      ++after_cut;
      EXPECT_EQ(a->table, b->table) << query.name << " at " << t.ToString();
    }
    EXPECT_EQ(restored_sink.ResultsFor(query.name).size(), after_cut)
        << query.name;
  }
}

std::vector<FleetCase> FleetCases() {
  std::vector<FleetCase> cases;
  for (int seed = 0; seed < 6; ++seed) {
    for (WindowSemantics semantics :
         {WindowSemantics::kLookback, WindowSemantics::kPaperFormal}) {
      for (bool catch_up : {false, true}) {
        cases.push_back(FleetCase{seed, semantics, catch_up});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsSemanticsAndReaders, RetentionFleetTest,
    ::testing::ValuesIn(FleetCases()), [](const auto& info) {
      return std::string("seed") + std::to_string(info.param.seed) +
             (info.param.semantics == WindowSemantics::kLookback ? "_lookback"
                                                                 : "_formal") +
             (info.param.catch_up ? "_catch_up" : "_in_step");
    });

// ---------------------------------------------------------------------------
// The horizon rules, one at a time
// ---------------------------------------------------------------------------

const Gauge* StreamGauge(const ContinuousEngine& engine, const char* name,
                         const std::string& stream) {
  return engine.metrics().FindGauge(
      name, {{"stream", stream.empty() ? "<default>" : stream}});
}

// A disabled query keeps pinning its window, so ReviveQuery's catch-up
// replays the missed instants over exactly the elements they cover; the
// pin shows up as retention lag.
TEST(RetentionTest, DisabledQueryPinsItsWindowAndReviveCatchesUpExactly) {
  EngineOptions options;
  options.query_error_budget = 2;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  // Fails while the id-0 element @8 is in its window (ET 10, 15), which
  // disables it.
  const char* victim_text =
      "REGISTER QUERY victim STARTING AT '1970-01-01T00:05' { MATCH (n:X) "
      "WITHIN PT10M EMIT 10 / n.id AS v SNAPSHOT EVERY PT5M }";
  ASSERT_TRUE(engine.RegisterText(victim_text).ok());
  ASSERT_TRUE(engine
                  .RegisterText("REGISTER QUERY steady STARTING AT "
                                "'1970-01-01T00:05' { MATCH (n:X) WITHIN PT5M "
                                "EMIT n.id AS id SNAPSHOT EVERY PT5M }")
                  .ok());
  PropertyGraphStream mirror;
  for (int64_t m = 1; m <= 120; ++m) {
    auto item = Item(m == 8 ? 0 : m);
    ASSERT_TRUE(engine.Ingest(item, T(m)).ok());
    ASSERT_TRUE(mirror.Append(item, T(m)).ok());
    if (m % 5 == 0) {
      ASSERT_TRUE(engine.AdvanceTo(T(m)).ok());
    }
  }
  ASSERT_TRUE(engine.QueryDisabled("victim"));
  // The victim's last advance (ET 15) covered (5, 15]: it still evicts
  // from @6 on, so nothing from there is released.
  EXPECT_EQ(engine.stream().base_offset(), 5u);
  EXPECT_EQ(engine.stream().at(5).timestamp, T(6));
  EXPECT_EQ(StreamGauge(engine, "seraph_stream_retained_elements", "")->value(),
            115);
  EXPECT_EQ(
      StreamGauge(engine, "seraph_stream_retention_lag_millis", "")->value(),
      (120 - 6) * 60'000);

  ASSERT_TRUE(engine.ReviveQuery("victim").ok());
  ASSERT_TRUE(engine.AdvanceTo(T(120)).ok());
  EXPECT_FALSE(engine.QueryDisabled("victim"));
  auto victim = ParseSeraphQuery(victim_text);
  ASSERT_TRUE(victim.ok());
  for (int64_t m = 20; m <= 120; m += 5) {
    Result<Table> want =
        Expected(&*victim, mirror, WindowSemantics::kLookback, T(m), nullptr);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = sink.ResultAt("victim", T(m));
    ASSERT_TRUE(got.has_value()) << "catch-up missed " << T(m).ToString();
    EXPECT_EQ(got->table, *want) << "at " << T(m).ToString();
  }
  // Caught up, the victim releases everything before its window (110, 120].
  EXPECT_EQ(engine.stream().retained(), 10u);
  EXPECT_EQ(
      StreamGauge(engine, "seraph_stream_retention_lag_millis", "")->value(),
      (120 - 111) * 60'000);
  EXPECT_EQ(StreamGauge(engine, "seraph_stream_trimmed_total", "")->value(),
            110);
}

// A disabled reader of a shared window falls behind it while the other
// reader keeps it moving: it pins the window of its next instant, catches
// up over snapshots of its own after the revive, and then reads the shared
// window again, whose advance stays charged to the first reader by name.
TEST(RetentionTest, DisabledReaderOfASharedWindowPinsAndCatchesUp) {
  EngineOptions options;
  options.query_error_budget = 2;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  // Fails while the id-0 element @8 is in the window (ET 10, 15).
  const char* victim_text =
      "REGISTER QUERY victim STARTING AT '1970-01-01T00:05' { MATCH (n:X) "
      "WITHIN PT10M EMIT 10 / n.id AS v SNAPSHOT EVERY PT5M }";
  ASSERT_TRUE(engine.RegisterText(victim_text).ok());
  ASSERT_TRUE(engine
                  .RegisterText("REGISTER QUERY steady STARTING AT "
                                "'1970-01-01T00:05' { MATCH (n:X) WITHIN "
                                "PT10M EMIT n.id AS id SNAPSHOT EVERY PT5M }")
                  .ok());
  const Gauge* readers = engine.metrics().FindGauge(
      "seraph_window_readers",
      {{"stream", "<default>"},
       {"window", "WITHIN PT10M EVERY PT5M STARTING AT 1970-01-01T00:05"}});
  ASSERT_NE(readers, nullptr);
  EXPECT_EQ(readers->value(), 2);
  PropertyGraphStream mirror;
  auto feed = [&](int64_t from, int64_t to) {
    for (int64_t m = from; m <= to; ++m) {
      auto item = Item(m == 8 ? 0 : m);
      ASSERT_TRUE(engine.Ingest(item, T(m)).ok());
      ASSERT_TRUE(mirror.Append(item, T(m)).ok());
      if (m % 5 == 0) {
        ASSERT_TRUE(engine.AdvanceTo(T(m)).ok());
      }
    }
  };
  feed(1, 60);
  ASSERT_TRUE(engine.QueryDisabled("victim"));
  // The shared window covers (50, 60]; the victim's next instant (20)
  // reads (10, 20], so the stream keeps everything from @10 on.
  EXPECT_EQ(engine.stream().base_offset(), 9u);
  EXPECT_EQ(engine.stream().at(9).timestamp, T(10));
  const QueryStats before = *engine.StatsFor("victim");

  ASSERT_TRUE(engine.ReviveQuery("victim").ok());
  ASSERT_TRUE(engine.AdvanceTo(T(60)).ok());
  const QueryStats caught_up = *engine.StatsFor("victim");
  // 20, 25, ..., 60 were built for the victim alone.
  EXPECT_EQ(caught_up.snapshots_rebuilt, 9);
  EXPECT_EQ(caught_up.snapshots_incremental, before.snapshots_incremental);
  // In step again, it pins nothing below the shared window.
  EXPECT_EQ(engine.stream().base_offset(), 50u);

  const int64_t steady_before =
      engine.StatsFor("steady")->snapshots_incremental;
  feed(61, 70);
  EXPECT_FALSE(engine.QueryDisabled("victim"));
  EXPECT_EQ(engine.StatsFor("victim")->snapshots_rebuilt, 9);
  EXPECT_EQ(engine.StatsFor("victim")->snapshots_incremental,
            before.snapshots_incremental);
  EXPECT_EQ(engine.StatsFor("steady")->snapshots_incremental,
            steady_before + 2);
  auto victim = ParseSeraphQuery(victim_text);
  ASSERT_TRUE(victim.ok());
  for (int64_t m = 20; m <= 70; m += 5) {
    Result<Table> want =
        Expected(&*victim, mirror, WindowSemantics::kLookback, T(m), nullptr);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = sink.ResultAt("victim", T(m));
    ASSERT_TRUE(got.has_value()) << "catch-up missed " << T(m).ToString();
    EXPECT_EQ(got->table, *want) << "at " << T(m).ToString();
  }
}

// A window goes with its last reader: unregistering it zeroes the window
// gauges, and registering the same window again starts a fresh one that
// advances from empty instead of catching up.
TEST(RetentionTest, LastReaderTakesTheWindowAlong) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  const std::string body =
      " STARTING AT '1970-01-01T00:05' { MATCH (n:X) WITHIN PT30M "
      "EMIT n.id AS id SNAPSHOT EVERY PT5M }";
  ASSERT_TRUE(engine.RegisterText("REGISTER QUERY first" + body).ok());
  const MetricLabels window{
      {"stream", "<default>"},
      {"window", "WITHIN PT30M EVERY PT5M STARTING AT 1970-01-01T00:05"}};
  const Gauge* readers =
      engine.metrics().FindGauge("seraph_window_readers", window);
  const Gauge* entities =
      engine.metrics().FindGauge("seraph_window_snapshot_entities", window);
  ASSERT_NE(readers, nullptr);
  ASSERT_NE(entities, nullptr);
  PropertyGraphStream mirror;
  for (int64_t m = 1; m <= 10; ++m) {
    ASSERT_TRUE(engine.Ingest(Item(m), T(m)).ok());
    ASSERT_TRUE(mirror.Append(Item(m), T(m)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  EXPECT_EQ(readers->value(), 1);
  EXPECT_EQ(entities->value(), 10);
  ASSERT_TRUE(engine.Unregister("first").ok());
  EXPECT_EQ(readers->value(), 0);
  EXPECT_EQ(entities->value(), 0);
  // Nothing was trimmed yet, so the first window is still there.
  const std::string again_text = "REGISTER QUERY again" + body;
  ASSERT_TRUE(engine.RegisterText(again_text).ok());
  EXPECT_EQ(readers->value(), 1);
  ASSERT_TRUE(engine.AdvanceTo(T(10)).ok());
  const QueryStats stats = *engine.StatsFor("again");
  EXPECT_EQ(stats.snapshots_rebuilt, 0);
  EXPECT_EQ(stats.snapshots_incremental, 2);
  EXPECT_EQ(stats.window_elements_added, 10);
  auto again = ParseSeraphQuery(again_text);
  ASSERT_TRUE(again.ok());
  ExpectMatchesOracle(&*again, sink, mirror, WindowSemantics::kLookback,
                      T(10));
}

// Two RETURN queries reading one window answer from one advance. Once
// both are done the window pins nothing: it is reset, so the trim may
// empty its stream, and a later reader (here, with a wider query keeping
// the stream) restarts it from empty rather than evicting released
// positions.
TEST(RetentionTest, DoneReturnReadersReleaseTheirSharedWindow) {
  const std::string body =
      " STARTING AT '1970-01-01T00:30' { MATCH (n:X) WITHIN PT10M FROM side "
      "RETURN n.id AS id }";
  const MetricLabels window{
      {"stream", "side"},
      {"window", "WITHIN PT10M EVERY PT0.001S STARTING AT 1970-01-01T00:30"}};
  for (bool keeper : {false, true}) {
    SCOPED_TRACE(keeper ? "with a keeper" : "alone");
    ContinuousEngine engine;
    CollectingSink sink;
    engine.AddSink(&sink);
    if (keeper) {
      ASSERT_TRUE(engine
                      .RegisterText("REGISTER QUERY keeper STARTING AT "
                                    "'1970-01-01T00:05' { MATCH (n:X) WITHIN "
                                    "PT2H FROM side EMIT n.id SNAPSHOT EVERY "
                                    "PT5M }")
                      .ok());
    }
    ASSERT_TRUE(engine.RegisterText("REGISTER QUERY once_a" + body).ok());
    ASSERT_TRUE(engine.RegisterText("REGISTER QUERY once_b" + body).ok());
    const Gauge* readers =
        engine.metrics().FindGauge("seraph_window_readers", window);
    const Gauge* entities =
        engine.metrics().FindGauge("seraph_window_snapshot_entities", window);
    ASSERT_NE(readers, nullptr);
    ASSERT_NE(entities, nullptr);
    for (int64_t m = 1; m <= 40; ++m) {
      ASSERT_TRUE(engine.IngestTo("side", Item(m), T(m)).ok());
    }
    ASSERT_TRUE(engine.AdvanceTo(T(40)).ok());
    EXPECT_EQ(engine.StatsFor("once_a")->snapshots_incremental, 1);
    EXPECT_EQ(engine.StatsFor("once_b")->snapshots_incremental, 0);
    const Table answer = sink.ResultAt("once_a", T(30))->table;
    EXPECT_EQ(answer.size(), 10u);
    EXPECT_EQ(sink.ResultAt("once_b", T(30))->table, answer);
    EXPECT_EQ(readers->value(), 2);
    EXPECT_EQ(entities->value(), 0);
    Status late = engine.RegisterText("REGISTER QUERY once_c" + body);
    if (!keeper) {
      EXPECT_EQ(engine.stream("side").retained(), 0u);
      EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition) << late;
      continue;
    }
    ASSERT_TRUE(late.ok()) << late;
    ASSERT_TRUE(engine.AdvanceTo(T(40)).ok());
    EXPECT_EQ(sink.ResultAt("once_c", T(30))->table, answer);
    EXPECT_EQ(engine.StatsFor("once_c")->snapshots_incremental, 1);
    EXPECT_EQ(engine.StatsFor("once_c")->snapshots_rebuilt, 0);
  }
}

// A query whose first window reaches back to released elements is
// rejected, naming the stream; one whose first window is still retained
// registers — even with STARTING AT behind the clock — and answers
// exactly.
TEST(RetentionTest, LateRegistrationBehindTheTrimFailsWithFailedPrecondition) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine
                  .RegisterText("REGISTER QUERY early STARTING AT "
                                "'1970-01-01T00:05' { MATCH (n:X) WITHIN PT10M "
                                "EMIT n.id AS id SNAPSHOT EVERY PT5M }")
                  .ok());
  PropertyGraphStream mirror;
  for (int64_t m = 1; m <= 60; ++m) {
    ASSERT_TRUE(engine.Ingest(Item(m), T(m)).ok());
    ASSERT_TRUE(mirror.Append(Item(m), T(m)).ok());
    ASSERT_TRUE(engine.IngestTo("side", Item(m), T(m)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(60)).ok());
  // "early" last covered (50, 60]; "side" has no reader at all.
  ASSERT_EQ(engine.stream().TrimmedThrough(), T(50));
  ASSERT_EQ(engine.stream("side").retained(), 0u);
  ASSERT_EQ(engine.stream("side").TrimmedThrough(), T(60));

  Status behind = engine.RegisterText(
      "REGISTER QUERY behind STARTING AT '1970-01-01T00:40' { MATCH (n:X) "
      "WITHIN PT10M EMIT n.id AS id SNAPSHOT EVERY PT5M }");
  EXPECT_EQ(behind.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(behind.message().find("'<default>'"), std::string::npos)
      << behind.message();
  EXPECT_NE(behind.message().find("trimmed through"), std::string::npos);
  Status side = engine.RegisterText(
      "REGISTER QUERY side_late STARTING AT '1970-01-01T01:05' { MATCH (n:X) "
      "WITHIN PT10M FROM side EMIT n.id AS id SNAPSHOT EVERY PT5M }");
  EXPECT_EQ(side.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(side.message().find("'side'"), std::string::npos)
      << side.message();
  EXPECT_EQ(engine.QueryNames().size(), 1u);

  // (55, 60] is still retained: this query starts behind the clock and
  // catches up at the next advance.
  const char* late_text =
      "REGISTER QUERY late STARTING AT '1970-01-01T01:00' { MATCH (n:X) "
      "WITHIN PT5M EMIT n.id AS id ON ENTERING EVERY PT5M }";
  ASSERT_TRUE(engine.RegisterText(late_text).ok());
  for (int64_t m = 61; m <= 90; ++m) {
    ASSERT_TRUE(engine.Ingest(Item(m), T(m)).ok());
    ASSERT_TRUE(mirror.Append(Item(m), T(m)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(90)).ok());
  auto late = ParseSeraphQuery(late_text);
  ASSERT_TRUE(late.ok());
  ExpectMatchesOracle(&*late, sink, mirror, WindowSemantics::kLookback, T(90));
}

// A RETURN query pins its single window until it has answered, then
// releases it; a stream only it read is trimmed to empty.
TEST(RetentionTest, ReturnOnceQueryReleasesItsWindowOnceAnswered) {
  ContinuousEngine engine;
  CollectingSink sink;
  engine.AddSink(&sink);
  const char* text =
      "REGISTER QUERY once STARTING AT '1970-01-01T00:30' { MATCH (n:X) "
      "WITHIN PT10M FROM side RETURN n.id AS id }";
  ASSERT_TRUE(engine.RegisterText(text).ok());
  PropertyGraphStream mirror;
  for (int64_t m = 1; m <= 29; ++m) {
    ASSERT_TRUE(engine.IngestTo("side", Item(m), T(m)).ok());
    ASSERT_TRUE(mirror.Append(Item(m), T(m)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(29)).ok());
  // Unanswered: its window (20, 30] is pinned from @20 on.
  EXPECT_EQ(engine.stream("side").base_offset(), 19u);
  for (int64_t m = 30; m <= 40; ++m) {
    ASSERT_TRUE(engine.IngestTo("side", Item(m), T(m)).ok());
    ASSERT_TRUE(mirror.Append(Item(m), T(m)).ok());
  }
  ASSERT_TRUE(engine.AdvanceTo(T(40)).ok());
  EXPECT_EQ(engine.stream("side").retained(), 0u);
  EXPECT_EQ(engine.stream("side").size(), 40u);
  auto once = ParseSeraphQuery(text);
  ASSERT_TRUE(once.ok());
  ExpectMatchesOracle(&*once, sink, mirror, WindowSemantics::kLookback, T(40));
}

// Checkpoints carry the retained suffix only: over ten windows of a
// steady stream, every generation after the first window is the same size
// (the prefix-sized ones grew by an element a minute).
TEST(RetentionTest, CheckpointBytesStayFlatAfterTheFirstWindow) {
  const std::string dir = ::testing::TempDir() + "seraph_retention_flat";
  fs::remove_all(dir);
  EngineOptions options;
  options.checkpoint_every = 1;
  ContinuousEngine engine(options);
  ASSERT_TRUE(engine
                  .RegisterText("REGISTER QUERY q STARTING AT "
                                "'1970-01-01T00:05' { MATCH (n:X) WITHIN PT30M "
                                "EMIT n.id AS id SNAPSHOT EVERY PT5M }")
                  .ok());
  persist::CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  persist::CheckpointManager manager(checkpoint_options);
  manager.AttachTo(&engine);
  const Histogram* bytes =
      engine.metrics().HistogramFor("seraph_checkpoint_bytes");
  int64_t first_window_bytes = 0;
  int64_t last_sum = 0;
  for (int64_t m = 1; m <= 300; ++m) {
    ASSERT_TRUE(engine.Ingest(Item(1000 + m), T(m)).ok());
    if (m % 5 != 0) continue;
    ASSERT_TRUE(engine.AdvanceTo(T(m)).ok());
    const int64_t generation = bytes->sum() - last_sum;
    last_sum = bytes->sum();
    ASSERT_GT(generation, 0);
    if (m == 35) first_window_bytes = generation;
    // Once the window is full every generation holds as many elements,
    // so its size stays within a few bytes of the first full window's.
    if (m > 35) {
      EXPECT_LE(std::abs(generation - first_window_bytes), 64)
          << "at " << T(m).ToString();
    }
    EXPECT_LE(engine.stream().retained(), 31u);
  }
  EXPECT_EQ(manager.checkpoint_failures(), 0);
  fs::remove_all(dir);
}

// A driver-fed queue no checkpoint governs is trimmed to its consumers'
// positions after every full pump; a managed one keeps everything at or
// above its checkpoint horizon, and a queue whose offsets a checkpoint
// records keeps everything until ManageRetention couples the two.
TEST(RetentionTest, DriverTrimsQueuesUpToTheCheckpointHorizon) {
  const char* query =
      "REGISTER QUERY q STARTING AT '1970-01-01T00:05' { MATCH (n:X) "
      "WITHIN PT30M EMIT n.id AS id SNAPSHOT EVERY PT5M }";
  {
    EventQueue queue;
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(query).ok());
    for (int64_t m = 1; m <= 10; ++m) {
      ASSERT_TRUE(queue.Produce(Item(m), T(m)).ok());
    }
    StreamDriver driver(&queue, &engine, {});
    auto pumped = driver.PumpAll();
    ASSERT_TRUE(pumped.ok()) << pumped.status();
    EXPECT_EQ(*pumped, 10);
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.size(), 10u);
    EXPECT_EQ(queue.trimmed_total(), 10);
  }
  const std::string dir = ::testing::TempDir() + "seraph_retention_queue";
  fs::remove_all(dir);
  persist::CheckpointOptions checkpoint_options;
  checkpoint_options.dir = dir;
  checkpoint_options.fsync = false;
  {
    EventQueue queue;
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(query).ok());
    persist::CheckpointManager manager(checkpoint_options);
    manager.BindQueue("seraph-engine", &queue);
    for (int64_t m = 1; m <= 10; ++m) {
      ASSERT_TRUE(queue.Produce(Item(m), T(m)).ok());
    }
    StreamDriver driver(&queue, &engine, {});
    ASSERT_TRUE(driver.PumpAll().ok());
    ASSERT_TRUE(manager.Checkpoint(&engine).ok());
    EXPECT_EQ(queue.depth(), 10u);  // Bound, not managed: nothing goes.
  }
  {
    EventQueue queue;
    ContinuousEngine engine;
    ASSERT_TRUE(engine.RegisterText(query).ok());
    persist::CheckpointManager manager(checkpoint_options);
    manager.BindQueue("seraph-engine", &queue);
    manager.ManageRetention(&queue);
    for (int64_t m = 1; m <= 10; ++m) {
      ASSERT_TRUE(queue.Produce(Item(m), T(m)).ok());
    }
    StreamDriver driver(&queue, &engine, {});
    ASSERT_TRUE(driver.PumpAll().ok());
    EXPECT_EQ(queue.depth(), 10u);  // No generation covers anything yet.
    ASSERT_TRUE(manager.Checkpoint(&engine).ok());
    EXPECT_EQ(queue.depth(), 0u);  // The generation covers offset 10.
    for (int64_t m = 11; m <= 15; ++m) {
      ASSERT_TRUE(queue.Produce(Item(m), T(m)).ok());
    }
    ASSERT_TRUE(driver.PumpAll().ok());
    EXPECT_EQ(queue.base_offset(), 10u);
    EXPECT_EQ(queue.depth(), 5u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace seraph
