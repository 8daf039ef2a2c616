// Failure-injection / fuzz-style robustness: hostile query text must come
// back as Status, never crash; and the matcher is checked against a
// brute-force oracle over randomized graphs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <random>

#include "cypher/executor.h"
#include "cypher/lexer.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"
#include "seraph/seraph_parser.h"

namespace seraph {
namespace {

// ---------------------------------------------------------------------------
// Parser robustness
// ---------------------------------------------------------------------------

// Round multiplier for fuzz loops; CI sets SERAPH_FUZZ_ROUNDS to fuzz
// harder under sanitizers without slowing local runs.
int FuzzRounds(int base) {
  if (const char* env = std::getenv("SERAPH_FUZZ_ROUNDS")) {
    long factor = std::strtol(env, nullptr, 10);
    if (factor > 1) return base * static_cast<int>(factor);
  }
  return base;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> len_dist(0, 200);
  std::uniform_int_distribution<int> chr(32, 126);
  for (int round = 0; round < FuzzRounds(50); ++round) {
    std::string text;
    int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>(chr(rng));
    }
    // Outcomes are unspecified; not crashing (and not hanging) is the
    // contract.
    (void)ParseCypherQuery(text);
    (void)ParseSeraphQuery(text);
  }
}

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  std::mt19937_64 rng(GetParam() + 1000);
  static const char* kPieces[] = {
      "MATCH",  "RETURN", "WITH",   "WHERE", "UNWIND", "EMIT",    "WITHIN",
      "EVERY",  "(",      ")",      "[",     "]",      "{",       "}",
      "-",      "->",     "<-",     "*",     "..",     ":",       ",",
      "|",      "=",      "<>",     "<=",    "n",      "r",       "Label",
      "'str'",  "42",     "1.5",    "AND",   "OR",     "NOT",     "NULL",
      "count",  "PT5M",   "AS",     "IN",    "ALL",    "EXISTS",  "$p",
      "REGISTER", "QUERY", "STARTING", "AT", "ON", "ENTERING", "SNAPSHOT"};
  std::uniform_int_distribution<int> len_dist(1, 40);
  std::uniform_int_distribution<size_t> piece(0, std::size(kPieces) - 1);
  for (int round = 0; round < FuzzRounds(50); ++round) {
    std::string text;
    int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      text += kPieces[piece(rng)];
      text += ' ';
    }
    (void)ParseCypherQuery(text);
    (void)ParseSeraphQuery(text);
  }
}

TEST_P(ParserFuzzTest, ArbitraryBytesIncludingNonPrintableNeverCrash) {
  // Full byte range: NULs, control characters, high-bit bytes — the
  // lexer must treat them as data, never as something to trust.
  std::mt19937_64 rng(GetParam() + 2000);
  std::uniform_int_distribution<int> len_dist(0, 300);
  std::uniform_int_distribution<int> chr(0, 255);
  for (int round = 0; round < FuzzRounds(50); ++round) {
    std::string text;
    int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>(chr(rng));
    }
    (void)ParseCypherQuery(text);
    (void)ParseSeraphQuery(text);
  }
}

TEST_P(ParserFuzzTest, ValidQueriesWithInjectedByteNoiseNeverCrash) {
  // Start from a valid query and corrupt a few positions with arbitrary
  // bytes — exercises deeper parser states than pure byte soup reaches.
  std::mt19937_64 rng(GetParam() + 3000);
  const std::string base =
      "REGISTER QUERY q STARTING AT 2022-10-14T14:45h { MATCH "
      "(b:Bike)-[r:rentedAt]->(s:Station) WITHIN PT1H WHERE b.id > 3 "
      "EMIT b.id, count(*) ON ENTERING EVERY PT5M }";
  std::uniform_int_distribution<size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> chr(0, 255);
  std::uniform_int_distribution<int> edits(1, 6);
  for (int round = 0; round < FuzzRounds(50); ++round) {
    std::string text = base;
    int n = edits(rng);
    for (int i = 0; i < n; ++i) {
      text[pos(rng)] = static_cast<char>(chr(rng));
    }
    (void)ParseCypherQuery(text);
    (void)ParseSeraphQuery(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 10));

TEST(ParserRobustnessTest, EveryPrefixOfValidQueriesParsesOrErrs) {
  const std::string queries[] = {
      "MATCH (b:Bike)-[r:rentedAt]->(s:Station), "
      "q = (b)-[:returnedAt|rentedAt*3..]-(o:Station) "
      "WHERE ALL(e IN relationships(q) WHERE e.user_id = r.user_id) "
      "RETURN r.user_id, s.id ORDER BY s.id SKIP 1 LIMIT 2",
      "REGISTER QUERY q STARTING AT 2022-10-14T14:45h { MATCH (n) WITHIN "
      "PT1H EMIT n.id ON ENTERING EVERY PT5M }",
  };
  for (const std::string& full : queries) {
    for (size_t cut = 0; cut <= full.size(); ++cut) {
      std::string prefix = full.substr(0, cut);
      (void)ParseCypherQuery(prefix);
      (void)ParseSeraphQuery(prefix);
    }
  }
}

TEST(ParserRobustnessTest, DeepNestingDoesNotOverflow) {
  // 500 nested parentheses: must parse (or error) without stack issues.
  std::string text = "RETURN ";
  for (int i = 0; i < 500; ++i) text += '(';
  text += "1";
  for (int i = 0; i < 500; ++i) text += ')';
  auto q = ParseCypherQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  std::string unbalanced = "RETURN ";
  for (int i = 0; i < 500; ++i) unbalanced += '(';
  EXPECT_FALSE(ParseCypherQuery(unbalanced).ok());
}

TEST(ParserRobustnessTest, PathologicalNestingIsARejectedParseError) {
  // Way past Parser::kMaxExpressionDepth: the depth guard must turn the
  // would-be stack overflow into a clean kParseError (balanced or not,
  // parens or list brackets alike).
  constexpr int kDepth = 20'000;
  std::string parens = "RETURN ";
  for (int i = 0; i < kDepth; ++i) parens += '(';
  parens += "1";
  for (int i = 0; i < kDepth; ++i) parens += ')';
  auto deep = ParseCypherQuery(parens);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);

  std::string brackets = "RETURN ";
  for (int i = 0; i < kDepth; ++i) brackets += '[';
  auto deep_list = ParseCypherQuery(brackets);
  ASSERT_FALSE(deep_list.ok());
  EXPECT_EQ(deep_list.status().code(), StatusCode::kParseError);

  std::string mixed = "RETURN ";
  for (int i = 0; i < kDepth; ++i) mixed += (i % 2 == 0) ? '(' : '[';
  EXPECT_FALSE(ParseCypherQuery(mixed).ok());

  // The same guard protects the Seraph wrapper grammar.
  std::string seraph =
      "REGISTER QUERY q STARTING AT 2022-10-14T14:45h { MATCH (n) WITHIN "
      "PT1H WHERE ";
  for (int i = 0; i < kDepth; ++i) seraph += '(';
  EXPECT_FALSE(ParseSeraphQuery(seraph).ok());

  // NOT, sign and power chains recurse without nesting brackets; a long
  // enough chain used to overflow the stack outside any guard.
  for (const char* link : {"NOT ", "- ", "+ ", "2^"}) {
    for (int depth : {kDepth, 200'000}) {
      std::string chain = "RETURN ";
      for (int i = 0; i < depth; ++i) chain += link;
      chain += "1";
      auto parsed = ParseCypherQuery(chain);
      ASSERT_FALSE(parsed.ok()) << link << " x " << depth;
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    }
  }
}

// The deepest chain the guard accepts must also survive the recursive
// walks after parsing: evaluation and destruction of the expression tree.
TEST(ParserRobustnessTest, DeepestAcceptedChainEvaluatesAndIsDestroyed) {
  PropertyGraph empty;
  for (const char* link : {"NOT ", "- "}) {
    int accepted = 0;
    std::optional<Query> query;
    for (int depth = Parser::kMaxExpressionDepth; depth > 0; --depth) {
      std::string chain = "RETURN ";
      for (int i = 0; i < depth; ++i) chain += link;
      chain += std::string(link) == "NOT " ? "true AS v" : "1 AS v";
      auto parsed = ParseCypherQuery(chain);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
        continue;
      }
      accepted = depth;
      query = std::move(parsed).value();
      break;
    }
    ASSERT_GT(accepted, Parser::kMaxExpressionDepth - 4) << link;
    auto result = ExecuteQueryOnGraph(*query, empty, ExecutionOptions{});
    ASSERT_TRUE(result.ok()) << link << result.status();
    ASSERT_EQ(result->size(), 1u);
    const Value expected = std::string(link) == "NOT "
                               ? Value::Bool(accepted % 2 == 0)
                               : Value::Int(accepted % 2 == 0 ? 1 : -1);
    EXPECT_EQ(result->rows()[0].GetOrNull("v"), expected) << link;
    query.reset();  // Destroys the deepest tree.
  }
}

// ---------------------------------------------------------------------------
// Matcher vs. brute-force oracle
// ---------------------------------------------------------------------------

struct RandomGraph {
  PropertyGraph graph;
  std::vector<std::pair<NodeId, NodeId>> edges;  // Parallel to rel ids 1..m.
};

RandomGraph MakeRandomGraph(std::mt19937_64* rng, int nodes, int rels) {
  RandomGraph out;
  GraphBuilder b;
  for (int i = 1; i <= nodes; ++i) {
    b.Node(i, {i % 2 == 0 ? "Even" : "Odd"}, {{"id", Value::Int(i)}});
  }
  std::uniform_int_distribution<int64_t> pick(1, nodes);
  for (int i = 1; i <= rels; ++i) {
    int64_t src = pick(*rng);
    int64_t trg = pick(*rng);
    b.Rel(i, src, trg, i % 3 == 0 ? "B" : "A");
    out.edges.emplace_back(NodeId{src}, NodeId{trg});
  }
  out.graph = b.Build();
  return out;
}

int64_t CountRows(const PropertyGraph& g, const std::string& query) {
  auto q = ParseCypherQuery(query);
  EXPECT_TRUE(q.ok()) << q.status();
  ExecutionOptions options;
  auto result = ExecuteQueryOnGraph(*q, g, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? static_cast<int64_t>(result->size()) : -1;
}

class MatcherOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherOracleTest, HopCountsMatchBruteForce) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  RandomGraph rg = MakeRandomGraph(&rng, 8, 14);
  int64_t m = static_cast<int64_t>(rg.edges.size());

  // Directed single hop: one row per relationship.
  EXPECT_EQ(CountRows(rg.graph, "MATCH (a)-[r]->(b) RETURN r"), m);

  // Undirected single hop: two rows per non-loop, one per loop.
  int64_t loops = 0;
  for (const auto& [src, trg] : rg.edges) {
    if (src == trg) ++loops;
  }
  EXPECT_EQ(CountRows(rg.graph, "MATCH (a)-[r]-(b) RETURN r"),
            2 * (m - loops) + loops);

  // Two directed hops with relationship uniqueness: ordered pairs of
  // distinct relationships where the first's target is the second's
  // source.
  int64_t two_hops = 0;
  for (size_t i = 0; i < rg.edges.size(); ++i) {
    for (size_t j = 0; j < rg.edges.size(); ++j) {
      if (i == j) continue;
      if (rg.edges[i].second == rg.edges[j].first) ++two_hops;
    }
  }
  EXPECT_EQ(
      CountRows(rg.graph, "MATCH (a)-[r1]->(x)-[r2]->(b) RETURN r1, r2"),
      two_hops);

  // Label filter: rows where the source node is Even.
  int64_t even_src = 0;
  for (const auto& [src, trg] : rg.edges) {
    if (src.value % 2 == 0) ++even_src;
  }
  EXPECT_EQ(CountRows(rg.graph, "MATCH (a:Even)-[r]->(b) RETURN r"),
            even_src);

  // Type filter.
  int64_t type_b = 0;
  for (int64_t i = 1; i <= m; ++i) {
    if (i % 3 == 0) ++type_b;
  }
  EXPECT_EQ(CountRows(rg.graph, "MATCH ()-[r:B]->() RETURN r"), type_b);
}

TEST_P(MatcherOracleTest, VarLengthExactTwoMatchesComposedHops) {
  std::mt19937_64 rng(GetParam() * 17 + 3);
  RandomGraph rg = MakeRandomGraph(&rng, 7, 12);
  // (a)-[*2..2]->(b) must equal (a)-[r1]->()-[r2]->(b) row-for-row
  // (both apply relationship uniqueness).
  EXPECT_EQ(CountRows(rg.graph, "MATCH (a)-[*2..2]->(b) RETURN a, b"),
            CountRows(rg.graph,
                      "MATCH (a)-[r1]->(x)-[r2]->(b) RETURN a, r1, x, r2, b"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Evaluation failure injection
// ---------------------------------------------------------------------------

TEST(ExecutionRobustnessTest, RuntimeErrorsAreStatusesNotCrashes) {
  PropertyGraph g = GraphBuilder()
                        .Node(1, {"N"}, {{"x", Value::Int(0)}})
                        .Build();
  const char* bad_queries[] = {
      "MATCH (n:N) RETURN 1 / n.x",              // Division by zero.
      "MATCH (n:N) RETURN n.x + 'a' + [1]",      // Type error.
      "MATCH (n:N) RETURN missing_var",          // Unbound variable.
      "MATCH (n:N) RETURN size(n.x)",            // size() of INTEGER.
      "MATCH (n:N) RETURN $nope",                // Missing parameter.
  };
  for (const char* text : bad_queries) {
    auto q = ParseCypherQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    ExecutionOptions options;
    auto result = ExecuteQueryOnGraph(*q, g, options);
    EXPECT_FALSE(result.ok()) << text;
  }
}

}  // namespace
}  // namespace seraph
