// Sharded-vs-single equivalence (docs/INTERNALS.md, "Sharded tier"): the
// merged output of a ShardedEngine must be bit-identical — content *and*
// global order — to a single ContinuousEngine run over the same routed
// streams, for every shard count, with and without intra-shard
// parallelism, with queries joining broadcast and fixed-shard streams,
// and with shards whose streams go quiet. Randomized in the style of
// tests/delta_equivalence_test.cc: churned graph elements over bounded
// entity universes drive window updates, evictions, and rewires through
// a fleet of query shapes and report policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
#include "seraph/continuous_engine.h"
#include "seraph/stream_router.h"
#include "shard/partitioner.h"
#include "shard/sharded_engine.h"

namespace seraph {
namespace {

// Round multiplier for fuzz loops; CI sets SERAPH_FUZZ_ROUNDS to fuzz
// harder under sanitizers without slowing local runs.
int FuzzRounds(int base) {
  if (const char* env = std::getenv("SERAPH_FUZZ_ROUNDS")) {
    long factor = std::strtol(env, nullptr, 10);
    if (factor > 1) return base * static_cast<int>(factor);
  }
  return base;
}

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

struct Event {
  int64_t minute;
  PropertyGraph graph;
};

// The delta-equivalence churn generator (bounded universes, pinned
// relationship definitions), trimmed to what the sharding contract
// needs: updates, rewires, and evictions under non-decreasing time.
std::vector<Event> ChurnEvents(uint32_t seed, int count) {
  std::mt19937 rng(seed);
  std::vector<Event> events;
  int64_t minute = 0;
  const int64_t node_universe = 30;
  const int64_t rel_universe = 60;
  struct RelDef {
    int64_t src, trg;
    std::string type;
  };
  std::map<int64_t, RelDef> rel_defs;
  for (int e = 0; e < count; ++e) {
    minute += static_cast<int64_t>(rng() % 3);
    GraphBuilder builder;
    const int nodes = 2 + static_cast<int>(rng() % 4);
    const int rels = 2 + static_cast<int>(rng() % 5);
    std::vector<int64_t> ids;
    for (int i = 0; i < nodes; ++i) {
      int64_t id = 1 + static_cast<int64_t>(rng() % node_universe);
      ids.push_back(id);
      std::vector<std::string> labels;
      switch (rng() % 4) {
        case 0: labels = {"A"}; break;
        case 1: labels = {"B"}; break;
        case 2: labels = {"A", "B"}; break;
        default: break;  // Unlabelled.
      }
      builder.Node(id, labels,
                   {{"v", Value::Int(static_cast<int64_t>(rng() % 10))}});
    }
    std::set<int64_t> used_rel_ids;
    for (int i = 0; i < rels; ++i) {
      int64_t id = 1 + static_cast<int64_t>(rng() % rel_universe);
      if (!used_rel_ids.insert(id).second) continue;
      auto def = rel_defs.find(id);
      if (def == rel_defs.end()) {
        int64_t src = ids[rng() % ids.size()];
        int64_t trg = (rng() % 8 == 0) ? src : ids[rng() % ids.size()];
        def = rel_defs
                  .emplace(id, RelDef{src, trg, (rng() % 3 == 0) ? "S" : "R"})
                  .first;
      } else {
        builder.Node(def->second.src, std::vector<std::string>{});
        builder.Node(def->second.trg, std::vector<std::string>{});
      }
      builder.Rel(id, def->second.src, def->second.trg, def->second.type,
                  {{"w", Value::Int(static_cast<int64_t>(rng() % 5))}});
    }
    events.push_back({minute, builder.Build()});
  }
  return events;
}

// Query fleet: shapes × report policies, each windowing over `from`
// (empty = default stream). Names sort in registration order on both
// sides, so the single engine's within-instant emission order (its
// registration order) coincides with the merge's (t, query) order — the
// precondition for comparing the two byte streams 1:1.
struct Shape {
  const char* name;
  const char* body;
};

const Shape kShapes[] = {
    {"hop", "MATCH (a:A)-[r:R]->(b) WITHIN PT10M{FROM} EMIT a.v AS av, b.v AS bv"},
    {"chain",
     "MATCH (a)-[:R]->(b)-[:S]->(c) WITHIN PT15M{FROM} EMIT a.v AS x, c.v AS z"},
    {"undirected", "MATCH (a:B)-[r]-(b) WITHIN PT10M{FROM} EMIT b.v AS bv"},
    {"filtered",
     "MATCH (a:A)-[r:R]->(b) WITHIN PT10M{FROM} WHERE a.v < b.v "
     "EMIT a.v AS av, b.v AS bv"},
    {"agg", "MATCH (a:A)-[r:R]->(b) WITHIN PT10M{FROM} EMIT count(r) AS c"},
};

const char* const kPolicies[] = {"SNAPSHOT", "ON ENTERING", "ON EXITING"};

struct NamedQuery {
  std::string name;
  std::string text;
};

std::vector<NamedQuery> Fleet(const std::string& from_stream) {
  std::vector<NamedQuery> fleet;
  for (const Shape& shape : kShapes) {
    for (size_t p = 0; p < 3; ++p) {
      const std::string name =
          std::string(shape.name) + "_p" + std::to_string(p);
      std::string body = shape.body;
      const std::string from =
          from_stream.empty() ? "" : " FROM " + from_stream;
      body.replace(body.find("{FROM}"), 6, from);
      fleet.push_back({name, "REGISTER QUERY " + name +
                                 " STARTING AT '1970-01-01T00:05' { " + body +
                                 " " + kPolicies[p] + " EVERY PT5M }"});
    }
  }
  return fleet;
}

std::vector<NamedQuery> SortedByName(std::vector<NamedQuery> fleet) {
  std::sort(fleet.begin(), fleet.end(),
            [](const NamedQuery& a, const NamedQuery& b) {
              return a.name < b.name;
            });
  return fleet;
}

// One emission as the sink saw it — evaluation time, query, canonical
// row bytes. The equivalence assertions compare entire sequences of
// these, so global order is part of the contract, not just content.
struct Emission {
  int64_t t_millis;
  std::string query;
  std::string window;
  std::string json;

  bool operator==(const Emission& other) const {
    return t_millis == other.t_millis && query == other.query &&
           window == other.window && json == other.json;
  }
};

class SeqSink final : public EmitSink {
 public:
  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    emissions_.push_back(Emission{
        evaluation_time.millis(), query_name,
        table.window.ToString(), io::ToJson(table)});
    return Status::OK();
  }
  const std::vector<Emission>& emissions() const { return emissions_; }

 private:
  std::vector<Emission> emissions_;
};

// A logical route, instantiated as a StreamRouter route on the single
// engine and as a placed fleet route on the sharded one.
struct RouteSpec {
  std::string stream;
  StreamRouter::Predicate predicate;
  shard::StreamPlacement placement;
};

std::vector<RouteSpec> BroadcastOnly() {
  return {{"", AcceptAll(), shard::Broadcast()}};
}

// The oracle: one engine, one router, advance after every event — the
// same cadence the fleet pumps at.
std::vector<Emission> RunSingle(const std::vector<RouteSpec>& routes,
                                const std::vector<NamedQuery>& fleet,
                                const std::vector<Event>& events) {
  ContinuousEngine engine;
  SeqSink sink;
  engine.AddSink(&sink);
  StreamRouter router;
  for (const RouteSpec& route : routes) {
    router.AddRoute(route.stream, route.predicate);
  }
  for (const NamedQuery& query : fleet) {
    EXPECT_TRUE(engine.RegisterText(query.text).ok()) << query.text;
  }
  for (const Event& event : events) {
    EXPECT_TRUE(router
                    .Route(&engine,
                           std::make_shared<const PropertyGraph>(event.graph),
                           T(event.minute))
                    .ok());
    EXPECT_TRUE(engine.AdvanceTo(T(event.minute)).ok());
  }
  return sink.emissions();
}

std::vector<Emission> RunSharded(int shards, const EngineOptions& engine_opts,
                                 const std::vector<RouteSpec>& routes,
                                 const std::vector<NamedQuery>& fleet,
                                 const std::vector<Event>& events) {
  shard::ShardedEngineOptions options;
  options.shards = shards;
  options.engine = engine_opts;
  shard::ShardedEngine sharded(options);
  SeqSink sink;
  sharded.AddSink(&sink);
  for (const RouteSpec& route : routes) {
    EXPECT_TRUE(
        sharded.AddRoute(route.stream, route.predicate, route.placement).ok());
  }
  for (const NamedQuery& query : fleet) {
    auto placement = sharded.RegisterText(query.text);
    EXPECT_TRUE(placement.ok()) << placement.status();
  }
  for (const Event& event : events) {
    EXPECT_TRUE(sharded.Ingest(event.graph, T(event.minute)).ok());
    EXPECT_TRUE(sharded.PumpAll().ok());
  }
  EXPECT_TRUE(sharded.Finish().ok());
  return sink.emissions();
}

void ExpectSequencesIdentical(const std::vector<Emission>& expected,
                              const std::vector<Emission>& actual,
                              const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i])
        << context << ": emission " << i << " diverged\n  single: t="
        << expected[i].t_millis << " q=" << expected[i].query << " "
        << expected[i].json << "\n  sharded: t=" << actual[i].t_millis
        << " q=" << actual[i].query << " " << actual[i].json;
  }
}

// The tentpole property: for shard counts {1, 2, 4}, a broadcast fleet's
// merged output is byte-for-byte the single-engine run — same emissions,
// same global (t, query) order — across randomized churn streams.
TEST(ShardedEquivalenceTest, BroadcastFleetBitIdenticalAcrossShardCounts) {
  const int rounds = FuzzRounds(3);
  const std::vector<NamedQuery> fleet = SortedByName(Fleet(""));
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Event> events =
        ChurnEvents(/*seed=*/901 + 17 * static_cast<uint32_t>(round), 40);
    const std::vector<Emission> expected =
        RunSingle(BroadcastOnly(), fleet, events);
    ASSERT_FALSE(expected.empty());
    for (int shards : {1, 2, 4}) {
      ExpectSequencesIdentical(
          expected,
          RunSharded(shards, EngineOptions{}, BroadcastOnly(), fleet, events),
          "round " + std::to_string(round) + " shards " +
              std::to_string(shards));
    }
  }
}

// Parallelism inside each shard (parallel evaluation + morsel matching)
// must not perturb the merged order: the watermark hold-back decouples
// release order from pump interleaving.
TEST(ShardedEquivalenceTest, ParallelShardsPreserveMergedOrder) {
  const std::vector<NamedQuery> fleet = SortedByName(Fleet(""));
  const std::vector<Event> events = ChurnEvents(/*seed=*/77, 40);
  const std::vector<Emission> expected =
      RunSingle(BroadcastOnly(), fleet, events);
  ASSERT_FALSE(expected.empty());
  EngineOptions parallel;
  parallel.eval_threads = 4;
  parallel.match_threads = 2;
  for (int shards : {2, 4}) {
    ExpectSequencesIdentical(
        expected,
        RunSharded(shards, parallel, BroadcastOnly(), fleet, events),
        "parallel shards " + std::to_string(shards));
  }
}

// Label/property-predicate routes pinned to fixed shards: queries over
// the pinned sub-streams run on different shards, yet the merged output
// still matches a single engine routing the same predicates.
TEST(ShardedEquivalenceTest, FixedShardRoutesStayBitIdentical) {
  auto routes = [](int pinned_a, int pinned_b) {
    std::vector<RouteSpec> specs = BroadcastOnly();
    specs.push_back({"alpha", HasLabel("A"), shard::FixedShard(pinned_a)});
    specs.push_back({"beta", HasLabel("B"), shard::FixedShard(pinned_b)});
    return specs;
  };
  std::vector<NamedQuery> fleet = SortedByName(Fleet(""));
  for (NamedQuery& query : Fleet("alpha")) {
    query.name = "al_" + query.name;
    const size_t at = query.text.find("QUERY ") + 6;
    query.text.insert(at, "al_");
    fleet.push_back(query);
  }
  for (NamedQuery& query : Fleet("beta")) {
    query.name = "be_" + query.name;
    const size_t at = query.text.find("QUERY ") + 6;
    query.text.insert(at, "be_");
    fleet.push_back(query);
  }
  fleet = SortedByName(std::move(fleet));

  const int rounds = FuzzRounds(2);
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Event> events =
        ChurnEvents(/*seed=*/4040 + 13 * static_cast<uint32_t>(round), 35);
    const std::vector<Emission> expected =
        RunSingle(routes(0, 1), fleet, events);
    ASSERT_FALSE(expected.empty());
    for (int shards : {2, 4}) {
      ExpectSequencesIdentical(
          expected,
          RunSharded(shards, EngineOptions{}, routes(0, shards - 1), fleet,
                     events),
          "routed shards " + std::to_string(shards));
    }
  }
}

// Queries joining the broadcast default stream with a pinned sub-stream
// run on the pinned stream's shard, which holds both, and stay
// bit-identical to the single engine at every shard count.
TEST(ShardedEquivalenceTest, BroadcastAndFixedJoinRunsOnTheFixedShard) {
  const Shape kJoins[] = {
      {"join",
       "MATCH (a:A)-[r:R]->(b) WITHIN PT10M FROM alpha "
       "MATCH (c:B {v: b.v}) WITHIN PT15M EMIT a.v AS av, c.v AS cv"},
      {"joinagg",
       "MATCH (a:A) WITHIN PT10M FROM alpha "
       "MATCH (c {v: a.v})-[s:S]->(d) WITHIN PT10M EMIT count(s) AS n"},
  };
  std::vector<NamedQuery> fleet = Fleet("");
  for (const Shape& shape : kJoins) {
    for (size_t p = 0; p < 3; ++p) {
      const std::string name =
          std::string(shape.name) + "_p" + std::to_string(p);
      fleet.push_back({name, "REGISTER QUERY " + name +
                                 " STARTING AT '1970-01-01T00:05' { " +
                                 shape.body + " " + kPolicies[p] +
                                 " EVERY PT5M }"});
    }
  }
  fleet = SortedByName(std::move(fleet));
  auto routes = [](int pinned) {
    std::vector<RouteSpec> specs = BroadcastOnly();
    specs.push_back({"alpha", HasLabel("A"), shard::FixedShard(pinned)});
    return specs;
  };

  const int rounds = FuzzRounds(2);
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Event> events =
        ChurnEvents(/*seed=*/5150 + 11 * static_cast<uint32_t>(round), 35);
    const std::vector<Emission> expected = RunSingle(routes(0), fleet, events);
    ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](const Emission& e) {
                              return e.query.rfind("join_", 0) == 0 &&
                                     e.json.find("\"av\"") !=
                                         std::string::npos;
                            }))
        << "the join shapes never matched; the fuzz proves nothing";
    for (int shards : {1, 2, 4}) {
      SCOPED_TRACE("joined shards " + std::to_string(shards));
      shard::ShardedEngineOptions options;
      options.shards = shards;
      shard::ShardedEngine placed(options);
      for (const RouteSpec& route : routes(shards - 1)) {
        ASSERT_TRUE(
            placed.AddRoute(route.stream, route.predicate, route.placement)
                .ok());
      }
      for (const NamedQuery& query : fleet) {
        auto placement = placed.RegisterText(query.text);
        ASSERT_TRUE(placement.ok()) << placement.status();
        if (query.name.rfind("join", 0) == 0) {
          EXPECT_EQ(placement->shards, (std::vector<int>{shards - 1}))
              << query.name;
        }
      }
      ExpectSequencesIdentical(
          expected,
          RunSharded(shards, EngineOptions{}, routes(shards - 1), fleet,
                     events),
          "joined shards " + std::to_string(shards));
    }
  }
}

// A shard whose streams go quiet keeps evaluating: halfway through the
// run the default route stops carrying elements, so the home shards of
// the default-stream queries receive nothing more, while every element
// still reaches the pinned "alpha" stream. One engine's clock follows
// all of its streams, so those queries keep firing over their draining
// windows, and the fleet must match that at every shard count.
TEST(ShardedEquivalenceTest, QuietShardsFollowTheFleetClock) {
  std::vector<NamedQuery> fleet = Fleet("");
  for (NamedQuery& query : Fleet("alpha")) {
    query.name = "al_" + query.name;
    query.text.insert(query.text.find("QUERY ") + 6, "al_");
    fleet.push_back(query);
  }
  fleet = SortedByName(std::move(fleet));

  const int rounds = FuzzRounds(2);
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Event> events =
        ChurnEvents(/*seed=*/7321 + 19 * static_cast<uint32_t>(round), 35);
    const Timestamp quiet_from = T(events[events.size() / 2].minute);
    auto routes = [quiet_from](int pinned) {
      return std::vector<RouteSpec>{
          {"",
           [quiet_from](const PropertyGraph&, Timestamp t) {
             return t < quiet_from;
           },
           shard::Broadcast()},
          {"alpha", AcceptAll(), shard::FixedShard(pinned)}};
    };
    const std::vector<Emission> expected = RunSingle(routes(0), fleet, events);
    // A default-stream query fires at least one EVERY period after the
    // stream went quiet, or the fuzz proves nothing.
    const int64_t well_after = quiet_from.millis() + T(5).millis();
    ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [well_after](const Emission& e) {
                              return e.t_millis > well_after &&
                                     e.query.rfind("al_", 0) != 0;
                            }));
    for (int shards : {1, 2, 4}) {
      ExpectSequencesIdentical(
          expected,
          RunSharded(shards, EngineOptions{}, routes(shards - 1), fleet,
                     events),
          "quiet shards " + std::to_string(shards));
    }
  }
}

}  // namespace
}  // namespace seraph
