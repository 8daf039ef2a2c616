// Trail filters (docs/INTERNALS.md, "Trail filters"): a top-level
// ALL(e IN relationships(q) WHERE P) conjunct is pushed into the matcher,
// which drops a branch of q's trail as soon as P is false for the
// relationship it appends. The gate cases pin when the executor plans the
// filter. The randomized suites check each query against its
// `ALL(...) = true` spelling, which has the same value and the same error
// but is never planned: the same rows in the same order, or the same first
// error, serially, morsel-parallel and through a continuous engine.
// Listing 5 runs verbatim (*3..) at the scale of perfbench's
// fraud_durable within its evaluation deadline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cypher/executor.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"
#include "seraph/continuous_engine.h"
#include "seraph/seraph_parser.h"
#include "workloads/bike_sharing.h"

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

Timestamp T(int64_t minutes) {
  return Timestamp::FromMillis(minutes * 60'000);
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

// The clauses of `text`: a REGISTER QUERY's body, or a Cypher query's
// first part.
std::vector<Clause> ClausesOf(const std::string& text) {
  if (text.find("REGISTER") != std::string::npos) {
    auto query = ParseSeraphQuery(text);
    EXPECT_TRUE(query.ok()) << query.status() << " in " << text;
    return query.ok() ? std::move(query->clauses) : std::vector<Clause>{};
  }
  auto query = ParseCypherQuery(text);
  EXPECT_TRUE(query.ok()) << query.status() << " in " << text;
  return query.ok() ? std::move(query->parts[0].clauses)
                    : std::vector<Clause>{};
}

// The filter planned for the first MATCH of `text`, rendered as
// "<e> on <q> reads <v>,...: <P>", or "" when none is planned.
std::string Plan(const std::string& text) {
  const std::vector<Clause> clauses = ClausesOf(text);
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (!std::holds_alternative<MatchClause>(clauses[i])) continue;
    std::optional<TrailFilter> filter = PlanTrailFilter(clauses, i);
    if (!filter.has_value()) return "";
    std::string reads;
    for (const std::string& name : filter->reads) {
      reads += (reads.empty() ? "" : ",") + name;
    }
    return filter->variable + " on " + filter->path->path_variable +
           " reads " + reads + ": " + filter->predicate->ToString();
  }
  return "";
}

const char kMatch[] =
    "MATCH (b:Bike)-[r:rentedAt]->(s:Station), "
    "q = (b)-[:returnedAt|rentedAt*3..]-(o:Station) ";
const char kP[] =
    "e.user_id = r.user_id AND e.val_time > r.val_time AND "
    "(e.duration IS NULL OR e.duration < 20)";

// Listing 5's WITH form with `extra` WITH items and `where` as its WHERE.
std::string WithForm(const std::string& extra, const std::string& where) {
  return std::string(kMatch) +
         "WITH r, s, q, relationships(q) AS rels, "
         "[n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops" +
         extra + " WHERE " + where + " RETURN r.user_id, s.id, hops";
}

std::string All(const std::string& list) {
  return "ALL(e IN " + list + " WHERE " + kP + ")";
}

TEST(TrailFilterGateTest, FiresOnListing5AndItsCypherForms) {
  const std::string listing5 = Plan(workloads::RunningExampleSeraphQuery());
  EXPECT_EQ(listing5.substr(0, listing5.find(':')), "e on q reads r");
  // The polling form: its window-bound conjuncts left of the ALL are
  // comparisons, and P reads the bounds the WITH passes through.
  const std::string polling = Plan(workloads::RunningExampleCypherQuery());
  EXPECT_EQ(polling.substr(0, polling.find(':')),
            "e on q reads r,win_end,win_start");
  // Through the alias, straight over relationships(q), behind
  // infallible conjuncts and ahead of a fallible one.
  EXPECT_NE(Plan(WithForm("", All("rels"))), "");
  EXPECT_NE(Plan(WithForm("", All("relationships(q)"))), "");
  EXPECT_NE(Plan(WithForm("", "r.val_time IS NOT NULL AND s.id IN [1, 2] "
                              "AND NOT (r.user_id = 3) AND " +
                                  All("rels"))),
            "");
  EXPECT_NE(Plan(WithForm("", All("rels") + " AND r.duration + 1 > 0")), "");
  // The MATCH's own WHERE.
  EXPECT_NE(Plan(std::string(kMatch) + "WHERE r.user_id IS NOT NULL AND " +
                 All("relationships(q)") + " RETURN r"),
            "");
  // A WITH that renames the path keeps L's meaning.
  EXPECT_NE(Plan(std::string(kMatch) + "WITH r, q AS p WHERE " +
                 All("relationships(p)") + " RETURN r"),
            "");
}

TEST(TrailFilterGateTest, KeepsThePostFilterWhenPruningCouldNotBeExact) {
  // OPTIONAL MATCH: a dropped trail could turn a match into a null row.
  EXPECT_EQ(Plan("OPTIONAL " + std::string(kMatch) + "WHERE " +
                 All("relationships(q)") + " RETURN r"),
            "");
  // NONE reads on past a true element, so a later error still surfaces.
  EXPECT_EQ(Plan(WithForm("", "NONE(e IN rels WHERE e.user_id = r.user_id)")),
            "");
  // A fallible conjunct left of the ALL, or a non-boolean one.
  EXPECT_EQ(Plan(WithForm("", "r.duration + 1 > 0 AND " + All("rels"))), "");
  EXPECT_EQ(Plan(WithForm("", "r.user_id AND " + All("rels"))), "");
  EXPECT_EQ(Plan(WithForm("", "size(rels) > 3 AND " + All("rels"))), "");
  // A fallible WITH item, or a fallible MATCH WHERE before the WITH.
  EXPECT_EQ(Plan(WithForm(", r.duration + 1 AS d", All("rels"))), "");
  EXPECT_EQ(Plan(std::string(kMatch) + "WHERE r.duration + 1 > 0 "
                 "WITH r, q WHERE " + All("relationships(q)") + " RETURN r"),
            "");
  // A WITH that is not per row.
  EXPECT_EQ(Plan(std::string(kMatch) + "WITH DISTINCT r, q WHERE " +
                 All("relationships(q)") + " RETURN r"),
            "");
  EXPECT_EQ(Plan(std::string(kMatch) + "WITH r, q LIMIT 10 WHERE " +
                 All("relationships(q)") + " RETURN r"),
            "");
  // P reads a WITH-computed alias, or a renamed one.
  EXPECT_EQ(Plan(WithForm("", "ALL(e IN rels WHERE size(hops) > 1)")), "");
  EXPECT_EQ(Plan(std::string(kMatch) + "WITH r AS rental, q WHERE "
                 "ALL(e IN relationships(q) WHERE "
                 "e.user_id = rental.user_id) RETURN rental"),
            "");
  // A fallible inline property map.
  EXPECT_EQ(Plan("MATCH (b:Bike {id: $bike})-[r:rentedAt]->(s:Station), "
                 "q = (b)-[*3..]-(o:Station) WHERE " +
                 All("relationships(q)") + " RETURN r"),
            "");
  // Not a path's relationships.
  EXPECT_EQ(Plan(std::string(kMatch) +
                 "WHERE ALL(e IN [r] WHERE e.user_id = 1) RETURN r"),
            "");
}

// ---------------------------------------------------------------------------
// Randomized equivalence against the `ALL(...) = true` spelling
// ---------------------------------------------------------------------------

const char* Pick(std::mt19937& rng, std::initializer_list<const char*> from) {
  return from.begin()[rng() % from.size()];
}

// Adds `trips` rentals and returns among three bikes and three stations
// (ids reused across calls, so stream elements share entities) to
// `builder`. val_time falls on one of a few minutes, so timestamps tie;
// user_id, val_time and duration are each sometimes null. A few trips
// carry `flag` (a boolean, datetime or duration, so the first error's
// message tells which kind of trip raised it) or `tag` (an integer),
// which the predicates' faults trip over.
void AddTrips(std::mt19937& rng, int trips, int64_t* next_rel,
              GraphBuilder* builder) {
  for (int i = 0; i < trips; ++i) {
    const int64_t bike = 11 + static_cast<int64_t>(rng() % 3);
    const int64_t station = 1 + static_cast<int64_t>(rng() % 3);
    builder->Node(bike, {"Bike"}, {{"id", Value::Int(bike)}});
    builder->Node(station, {"Station"}, {{"id", Value::Int(station)}});
    Value::Map props;
    if (rng() % 5 != 0) {
      props["user_id"] = Value::Int(1 + static_cast<int64_t>(rng() % 3));
    }
    if (rng() % 8 != 0) {
      props["val_time"] =
          Value::DateTime(T(static_cast<int64_t>(rng() % 4)));
    }
    if (rng() % 3 != 0) {
      props["duration"] = Value::Int(static_cast<int64_t>(rng() % 30));
    }
    switch (rng() % 16) {
      case 0:
        props["flag"] = Value::Bool(true);
        break;
      case 1:
        props["flag"] = Value::DateTime(T(1));
        break;
      case 2:
        props["flag"] = Value::Dur(Duration::FromMinutes(1));
        break;
      default:
        break;
    }
    if (rng() % 8 == 0) {
      props["tag"] = Value::Int(static_cast<int64_t>(rng() % 3));
    }
    builder->Rel((*next_rel)++, bike, station,
                 rng() % 2 == 0 ? "rentedAt" : "returnedAt",
                 std::move(props));
  }
}

// A per-relationship predicate over e, r, s and o: comparisons, IN,
// IS NULL, AND, OR and NOT, often null, with faults: a type error or a
// non-boolean operand on the few relationships with `flag` or `tag` (or,
// rarely, on most of them), and o, which is unbound when q starts.
std::string RandomPredicate(std::mt19937& rng, int depth) {
  if (depth == 0 || rng() % 3 == 0) {
    if (rng() % 4 == 0) {
      return Pick(rng, {"e.flag + 1 > 0", "e.flag + 1 > 0", "(e.tag OR false)",
                        "(e.tag AND true)", "e.val_time + 1 > r.val_time",
                        "o.id > 1"});
    }
    return Pick(rng, {"e.user_id = r.user_id", "e.val_time > r.val_time",
                      "e.val_time >= r.val_time", "e.duration IS NULL",
                      "e.duration < 20", "e.duration > 5",
                      "e.user_id IS NOT NULL", "type(e) = 'returnedAt'",
                      "e.user_id IN [1, 2]", "e.user_id <> 3",
                      "s.id <> 2"});
  }
  switch (rng() % 4) {
    case 0:
      return "NOT (" + RandomPredicate(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomPredicate(rng, depth - 1) + " OR " +
             RandomPredicate(rng, depth - 1) + ")";
    default:
      return "(" + RandomPredicate(rng, depth - 1) + " AND " +
             RandomPredicate(rng, depth - 1) + ")";
  }
}

// q from the rental's bike: an optional fixed hop, a variable-length
// segment with random bounds (sometimes unbounded), type and direction,
// and an optional fixed hop.
std::string RandomTrail(std::mt19937& rng) {
  std::string trail = "q = (b)";
  if (rng() % 2 == 0) {
    trail += Pick(rng, {"-[:rentedAt]->(m:Station)",
                        "-[:returnedAt|rentedAt]-(m)"});
  }
  const int64_t lo = static_cast<int64_t>(rng() % 4);
  std::string bounds = "*" + std::to_string(lo) + "..";
  if (rng() % 3 != 0) {
    bounds += std::to_string(std::max<int64_t>(lo, 1) +
                             static_cast<int64_t>(rng() % 3));
  }
  const std::string rel =
      std::string("[") + Pick(rng, {":returnedAt|rentedAt", "", ":rentedAt"}) +
      bounds + "]";
  switch (rng() % 3) {
    case 0:
      trail += "-" + rel + "->";
      break;
    case 1:
      trail += "<-" + rel + "-";
      break;
    default:
      trail += "-" + rel + "-";
      break;
  }
  trail += rng() % 2 == 0 ? "(o:Station)" : "(o)";
  if (rng() % 4 == 0) {
    trail += Pick(rng, {"-[:returnedAt]-(z)", "<-[:rentedAt]-(z:Bike)"});
  }
  return trail;
}

// A query and the spelling of it that is never planned.
struct Spelling {
  std::string pruned;
  std::string oracle;
};

// A Listing 5 variant: the rental pattern and a random trail, then the
// ALL conjunct in the MATCH's WHERE or in the next WITH's, with random
// neighbours (fallible ones included). `within` makes it a Seraph body.
Spelling RandomQuery(std::mt19937& rng, const std::string& within) {
  const std::string rental = "(b:Bike)-[r:rentedAt]->(s:Station)";
  const std::string trail = RandomTrail(rng);
  std::string match = within.empty() && rng() % 10 == 0 ? "OPTIONAL " : "";
  match += "MATCH " + (rng() % 4 == 0 ? trail + ", " + rental
                                      : rental + ", " + trail) +
           within;
  const bool in_with = rng() % 3 != 0;
  const std::string list =
      in_with && rng() % 3 != 0 ? "rels" : "relationships(q)";
  const std::string quantifier = rng() % 12 == 0 ? "NONE" : "ALL";
  // A third of the predicates put a fault behind a comparison: null or
  // false on most relationships, an error on the few it trips over.
  std::string predicate = RandomPredicate(rng, 2);
  if (rng() % 3 == 0) {
    predicate = "(" + RandomPredicate(rng, 0) +
                (rng() % 2 == 0 ? " AND " : " OR ") +
                Pick(rng, {"e.flag + 1 > 0", "(e.tag OR false)"}) + ")";
  }
  const std::string all =
      quantifier + "(e IN " + list + " WHERE " + predicate + ")";
  const std::string left = Pick(
      rng, {"", "", "", "r.val_time IS NOT NULL AND ", "s.id > 1 AND ",
            "r.duration + 1 > 0 AND ", "r.user_id AND "});
  const std::string right =
      Pick(rng, {"", "", " AND r.user_id IS NOT NULL",
                 " AND r.duration + 1 > 0"});
  auto spell = [&](const std::string& conjunct) {
    std::string text = match;
    if (!in_with) return text + " WHERE " + left + conjunct + right;
    text += Pick(rng, {"", "", "", " WHERE r.user_id IS NOT NULL",
                       " WHERE r.duration + 1 > 0"});
    text += std::string(" WITH ") + (rng() % 15 == 0 ? "DISTINCT " : "") +
            "r, s, q, relationships(q) AS rels" +
            Pick(rng, {"", "", ", o",
                       ", [n IN nodes(q) WHERE 'Station' IN labels(n) | "
                       "n.id] AS hops",
                       ", r.val_time + 1 AS bad"});
    return text + " WHERE " + left + conjunct + right;
  };
  // Both spellings draw the same choices.
  std::mt19937 replay = rng;
  Spelling out;
  out.pruned = spell(all);
  rng = replay;
  out.oracle = spell(all + " = true");
  return out;
}

// The same first error (code and message), or the same rows in the same
// order.
void ExpectSameOutcome(const Result<Table>& pruned, const Result<Table>& oracle,
                       const std::string& context) {
  ASSERT_EQ(pruned.ok(), oracle.ok())
      << context << "\n  pruned: "
      << (pruned.ok() ? "ok" : pruned.status().ToString())
      << "\n  oracle: " << (oracle.ok() ? "ok" : oracle.status().ToString());
  if (!oracle.ok()) {
    EXPECT_EQ(pruned.status().code(), oracle.status().code()) << context;
    EXPECT_EQ(pruned.status().message(), oracle.status().message())
        << context;
    return;
  }
  ASSERT_EQ(pruned->rows().size(), oracle->rows().size()) << context;
  for (size_t i = 0; i < oracle->rows().size(); ++i) {
    ASSERT_EQ(pruned->rows()[i], oracle->rows()[i])
        << context << "\n  row " << i;
  }
}

// Whether the first MATCH of `text` gets a trail filter.
bool Planned(const std::string& text) { return !Plan(text).empty(); }

TEST(TrailFilterEquivalenceTest, OneTimeQueriesMatchTheUnplannedSpelling) {
  ThreadPool pool(EvalThreadsFromEnv(4));
  MatchParallelism parallel;
  parallel.pool = &pool;
  parallel.min_seeds = 1;  // Partition even the tiny seed domains.
  parallel.morsel_size = 1;
  const int rounds = FuzzRounds(1000);
  int planned = 0;
  int failed = 0;
  for (int round = 0; round < rounds; ++round) {
    std::mt19937 rng(static_cast<uint32_t>(round));
    GraphBuilder builder;
    int64_t next_rel = 1;
    AddTrips(rng, 5 + static_cast<int>(rng() % 6), &next_rel, &builder);
    const PropertyGraph graph = builder.Build();
    const Spelling text = RandomQuery(rng, "");
    const std::string context = "round " + std::to_string(round) + ": " +
                                text.pruned;
    auto pruned = ParseCypherQuery(text.pruned + " RETURN r, s, q");
    auto oracle = ParseCypherQuery(text.oracle + " RETURN r, s, q");
    ASSERT_TRUE(pruned.ok()) << pruned.status() << "\n" << context;
    ASSERT_TRUE(oracle.ok()) << oracle.status() << "\n" << context;
    if (Planned(text.pruned + " RETURN r")) ++planned;
    const Result<Table> expected =
        ExecuteQueryOnGraph(*oracle, graph, ExecutionOptions{});
    if (!expected.ok()) ++failed;
    for (const MatchParallelism* par : {static_cast<MatchParallelism*>(nullptr),
                                        &parallel}) {
      ExecutionOptions options;
      options.match_parallelism = par;
      ExpectSameOutcome(ExecuteQueryOnGraph(*pruned, graph, options), expected,
                        context + (par != nullptr ? " (morsels)" : ""));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Not vacuous: most queries are planned, and some fail.
  EXPECT_GT(planned, rounds / 4);
  EXPECT_GT(failed, rounds / 20);
}

// The three decisions that keep errors exact, each on one trail
// b -A- station 2 -B- bike 12 from rental r (user 1): P is null on a trip
// with no user_id, false on another user's trip, and fails on a trip with
// a boolean `flag`. The trail reaches the WHERE, which fails, whenever an
// element fails before any is false: after a null (pruning on null would
// drop it), before a false (so the error mark must stop pruning), and on
// the fixed hop in front of the variable-length segment (so fixed hops
// are tested too).
TEST(TrailFilterEquivalenceTest, ErrorsBeforeTheFirstFalseElementSurface) {
  const char kWhere[] =
      " WHERE ALL(e IN relationships(q) WHERE e.user_id = r.user_id AND "
      "(e.flag IS NULL OR e.flag + 1 > 0)) RETURN r, q";
  struct Case {
    const char* name;
    const char* trail;
    Value::Map a;
    Value::Map b;
  };
  const Value::Map null_user = {};
  const Value::Map failing = {{"user_id", Value::Int(1)},
                              {"flag", Value::Bool(true)}};
  const Value::Map other_user = {{"user_id", Value::Int(2)}};
  const Case cases[] = {
      {"null, then a failure", "q = (b)-[*2..2]-(o)", null_user, failing},
      {"a failure, then false", "q = (b)-[*2..2]-(o)", failing, other_user},
      {"a failing fixed hop, then false",
       "q = (b)-[:returnedAt]->(m)-[*1..1]-(o)", failing, other_user},
  };
  for (const Case& c : cases) {
    const PropertyGraph graph =
        GraphBuilder()
            .Node(1, {"Station"})
            .Node(2, {"Station"})
            .Node(11, {"Bike"})
            .Node(12, {"Bike"})
            .Rel(1, 11, 1, "rentedAt", {{"user_id", Value::Int(1)}})
            .Rel(2, 11, 2, "returnedAt", c.a)
            .Rel(3, 12, 2, "rentedAt", c.b)
            .Build();
    const std::string match =
        std::string("MATCH (b:Bike)-[r:rentedAt]->(s:Station), ") + c.trail;
    ASSERT_TRUE(Planned(match + kWhere)) << c.name;
    auto pruned = ParseCypherQuery(match + kWhere);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    const Result<Table> result =
        ExecuteQueryOnGraph(*pruned, graph, ExecutionOptions{});
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().message(),
              "type error: cannot apply arithmetic to BOOLEAN and INTEGER")
        << c.name;
  }
}

TEST(TrailFilterEquivalenceTest, ContinuousQueriesMatchTheUnplannedSpelling) {
  const int rounds = FuzzRounds(100);
  int planned = 0;
  for (int round = 0; round < rounds; ++round) {
    std::mt19937 rng(static_cast<uint32_t>(10'000 + round));
    // Elements a minute or two apart, some tied, over shared entities.
    std::vector<std::pair<Timestamp, PropertyGraph>> events;
    int64_t next_rel = 1;
    int64_t minute = 1;
    for (int i = 0; i < 6; ++i) {
      GraphBuilder builder;
      AddTrips(rng, 1 + static_cast<int>(rng() % 2), &next_rel, &builder);
      events.emplace_back(T(minute), builder.Build());
      minute += static_cast<int64_t>(rng() % 3);
    }
    const Spelling body = RandomQuery(rng, " WITHIN PT1H");
    const std::string context = "round " + std::to_string(round) + ": " +
                                body.pruned;
    auto text = [&body](const char* name, const std::string& clauses) {
      return std::string("REGISTER QUERY ") + name +
             " STARTING AT '1970-01-01T00:02' { " + clauses +
             " EMIT r, s, q SNAPSHOT EVERY PT2M }";
    };
    if (Planned(text("pruned", body.pruned))) ++planned;
    for (const int threads : {1, EvalThreadsFromEnv(4)}) {
      EngineOptions options;
      options.eval_threads = threads;
      options.match_min_seeds = 1;
      options.match_morsel_size = 1;
      ContinuousEngine engine(options);
      CollectingSink sink;
      engine.AddSink(&sink);
      ASSERT_TRUE(engine.RegisterText(text("pruned", body.pruned)).ok())
          << context;
      ASSERT_TRUE(engine.RegisterText(text("oracle", body.oracle)).ok())
          << context;
      for (const auto& [t, graph] : events) {
        ASSERT_TRUE(engine.Ingest(graph, t).ok()) << context;
      }
      ASSERT_TRUE(engine.AdvanceTo(T(minute + 10)).ok()) << context;
      const std::string where =
          context + " (eval_threads " + std::to_string(threads) + ")";
      const QueryStats pruned = engine.StatsFor("pruned").value();
      const QueryStats oracle = engine.StatsFor("oracle").value();
      EXPECT_EQ(pruned.evaluations, oracle.evaluations) << where;
      EXPECT_EQ(pruned.eval_failures, oracle.eval_failures) << where;
      EXPECT_EQ(pruned.last_error.ToString(), oracle.last_error.ToString())
          << where;
      const TimeVaryingTable& got = sink.ResultsFor("pruned");
      const TimeVaryingTable& want = sink.ResultsFor("oracle");
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t i = 0; i < want.entries().size(); ++i) {
        ASSERT_EQ(got.entries()[i].window, want.entries()[i].window) << where;
        const Table& a = got.entries()[i].table;
        const Table& b = want.entries()[i].table;
        ASSERT_EQ(a.rows().size(), b.rows().size()) << where << " entry " << i;
        for (size_t j = 0; j < b.rows().size(); ++j) {
          ASSERT_EQ(a.rows()[j], b.rows()[j])
              << where << " entry " << i << " row " << j;
        }
      }
    }
  }
  EXPECT_GT(planned, rounds / 4);
}

// ---------------------------------------------------------------------------
// Listing 5 verbatim
// ---------------------------------------------------------------------------

// Listing 5 with its unbounded *3.. chain over perfbench fraud_durable's
// fleet (40 users, 20 stations, 100 bikes, a fifth of the users
// fraudulent), 25 instants. Enumerating every trail and filtering
// afterwards overruns the 10 s evaluation deadline at the first instant;
// pruning while expanding finishes every evaluation.
TEST(TrailFilterTest, VerbatimListing5FinishesAtFraudDurableScale) {
  workloads::BikeSharingConfig config;
  config.num_users = 40;
  config.num_stations = 20;
  config.num_bikes = 100;
  config.fraud_fraction = 0.2;
  config.num_events = 12 + 24;
  const std::vector<workloads::Event> events =
      workloads::GenerateBikeSharingStream(config);
  std::string text = workloads::RunningExampleSeraphQuery();
  const std::string starting = "STARTING AT 2022-10-14T14:45h";
  ASSERT_NE(text.find(starting), std::string::npos);
  text.replace(text.find(starting), starting.size(),
               "STARTING AT '" + events[11].timestamp.ToString() + "'");
  ASSERT_NE(text.find("*3..]"), std::string::npos);

  EngineOptions options;
  options.eval_deadline_millis = 10'000;
  ContinuousEngine engine(options);
  CollectingSink sink;
  engine.AddSink(&sink);
  ASSERT_TRUE(engine.RegisterText(text).ok());
  for (const workloads::Event& event : events) {
    ASSERT_TRUE(engine.Ingest(event.graph, event.timestamp).ok());
  }
  ASSERT_TRUE(engine.Drain().ok());
  const QueryStats stats = engine.StatsFor("student_trick").value();
  EXPECT_EQ(stats.eval_failures, 0) << stats.last_error;
  EXPECT_GE(stats.evaluations, 24);
  size_t alerts = 0;
  for (const auto& entry : sink.ResultsFor("student_trick").entries()) {
    alerts += entry.table.size();
  }
  EXPECT_GT(alerts, 0u);
}

}  // namespace
}  // namespace seraph
