// Parser tests for the Fig. 3 Cypher core (plus WITHIN, Fig. 6).
#include <gtest/gtest.h>

#include <limits>

#include "cypher/parser.h"

namespace seraph {
namespace {

Query MustParse(std::string_view text) {
  auto q = ParseCypherQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? std::move(q).value() : Query{};
}

const MatchClause& FirstMatch(const Query& q) {
  return std::get<MatchClause>(q.parts[0].clauses[0]);
}

TEST(ParserTest, MinimalQuery) {
  Query q = MustParse("MATCH (n) RETURN n");
  ASSERT_EQ(q.parts.size(), 1u);
  ASSERT_EQ(q.parts[0].clauses.size(), 1u);
  const MatchClause& m = FirstMatch(q);
  ASSERT_EQ(m.patterns.size(), 1u);
  EXPECT_EQ(m.patterns[0].nodes[0].variable, "n");
  EXPECT_EQ(q.parts[0].ret.body.items[0].alias, "n");
}

TEST(ParserTest, NodePatternLabelsAndProperties) {
  Query q = MustParse("MATCH (s:Station:Hub {id: 3, name: 'x'}) RETURN s");
  const NodePattern& n = FirstMatch(q).patterns[0].nodes[0];
  EXPECT_EQ(n.labels, (std::vector<std::string>{"Station", "Hub"}));
  ASSERT_EQ(n.properties.size(), 2u);
  EXPECT_EQ(n.properties[0].first, "id");
}

TEST(ParserTest, RelationshipDirections) {
  {
    Query q = MustParse("MATCH (a)-[r:R]->(b) RETURN r");
    EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].direction,
              RelDirection::kOutgoing);
  }
  {
    Query q = MustParse("MATCH (a)<-[r:R]-(b) RETURN r");
    EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].direction,
              RelDirection::kIncoming);
  }
  {
    Query q = MustParse("MATCH (a)-[r:R]-(b) RETURN r");
    EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].direction,
              RelDirection::kUndirected);
  }
  {
    Query q = MustParse("MATCH (a)-->(b) RETURN a");
    EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].direction,
              RelDirection::kOutgoing);
    EXPECT_TRUE(FirstMatch(q).patterns[0].rels[0].types.empty());
  }
  {
    Query q = MustParse("MATCH (a)--(b) RETURN a");
    EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].direction,
              RelDirection::kUndirected);
  }
}

TEST(ParserTest, TypeAlternation) {
  Query q = MustParse("MATCH (a)-[:returnedAt|rentedAt]->(b) RETURN a");
  EXPECT_EQ(FirstMatch(q).patterns[0].rels[0].types,
            (std::vector<std::string>{"returnedAt", "rentedAt"}));
}

TEST(ParserTest, VariableLengthBounds) {
  {
    Query q = MustParse("MATCH (a)-[*3..]->(b) RETURN a");
    const RelPattern& r = FirstMatch(q).patterns[0].rels[0];
    EXPECT_TRUE(r.variable_length);
    EXPECT_EQ(r.min_hops, 3);
    EXPECT_FALSE(r.max_hops.has_value());
  }
  {
    Query q = MustParse("MATCH (a)-[*..5]->(b) RETURN a");
    const RelPattern& r = FirstMatch(q).patterns[0].rels[0];
    EXPECT_FALSE(r.min_hops.has_value());
    EXPECT_EQ(r.max_hops, 5);
  }
  {
    Query q = MustParse("MATCH (a)-[*2..4]->(b) RETURN a");
    const RelPattern& r = FirstMatch(q).patterns[0].rels[0];
    EXPECT_EQ(r.min_hops, 2);
    EXPECT_EQ(r.max_hops, 4);
  }
  {
    Query q = MustParse("MATCH (a)-[*2]->(b) RETURN a");
    const RelPattern& r = FirstMatch(q).patterns[0].rels[0];
    EXPECT_EQ(r.min_hops, 2);
    EXPECT_EQ(r.max_hops, 2);
  }
  {
    Query q = MustParse("MATCH (a)-[*]->(b) RETURN a");
    const RelPattern& r = FirstMatch(q).patterns[0].rels[0];
    EXPECT_TRUE(r.variable_length);
    EXPECT_FALSE(r.min_hops.has_value());
    EXPECT_FALSE(r.max_hops.has_value());
  }
}

TEST(ParserTest, NamedPathAndShortestPath) {
  Query q = MustParse(
      "MATCH p = shortestPath((a:Rack)-[:CONNECTS*..15]-(b:Router)) "
      "RETURN p");
  const PathPattern& p = FirstMatch(q).patterns[0];
  EXPECT_EQ(p.path_variable, "p");
  EXPECT_EQ(p.mode, PathMode::kShortest);
  EXPECT_EQ(p.rels[0].max_hops, 15);
}

TEST(ParserTest, ShortestPathRequiresVarLength) {
  EXPECT_FALSE(
      ParseCypherQuery("MATCH p = shortestPath((a)-[:R]->(b)) RETURN p")
          .ok());
}

TEST(ParserTest, MultiplePatternsAndWhere) {
  Query q = MustParse(
      "MATCH (b:Bike)-[r:rentedAt]->(s:Station), q = (b)-[*3..]-(o) "
      "WHERE r.user_id = 5 RETURN q");
  const MatchClause& m = FirstMatch(q);
  EXPECT_EQ(m.patterns.size(), 2u);
  EXPECT_EQ(m.patterns[1].path_variable, "q");
  EXPECT_NE(m.where, nullptr);
}

TEST(ParserTest, WithinWindowOnMatch) {
  Query q = MustParse("MATCH (n) WITHIN PT1H WHERE n.x > 0 RETURN n");
  const MatchClause& m = FirstMatch(q);
  ASSERT_TRUE(m.within.has_value());
  EXPECT_EQ(m.within->millis(), 3'600'000);
  EXPECT_NE(m.where, nullptr);
}

TEST(ParserTest, OptionalMatchAndUnwindAndWith) {
  Query q = MustParse(
      "MATCH (a) OPTIONAL MATCH (a)-[r]->(b) "
      "WITH a, collect(b) AS bs WHERE size(bs) > 0 "
      "UNWIND bs AS b RETURN a, b");
  ASSERT_EQ(q.parts[0].clauses.size(), 4u);
  EXPECT_TRUE(std::get<MatchClause>(q.parts[0].clauses[1]).optional);
  const auto& with = std::get<WithClause>(q.parts[0].clauses[2]);
  EXPECT_EQ(with.body.items[1].alias, "bs");
  EXPECT_NE(with.where, nullptr);
  EXPECT_EQ(std::get<UnwindClause>(q.parts[0].clauses[3]).alias, "b");
}

TEST(ParserTest, ReturnModifiers) {
  Query q = MustParse(
      "MATCH (n) RETURN DISTINCT n.x AS x ORDER BY x DESC, n.y SKIP 2 "
      "LIMIT 10");
  const ProjectionBody& body = q.parts[0].ret.body;
  EXPECT_TRUE(body.distinct);
  ASSERT_EQ(body.order_by.size(), 2u);
  EXPECT_FALSE(body.order_by[0].ascending);
  EXPECT_TRUE(body.order_by[1].ascending);
  EXPECT_NE(body.skip, nullptr);
  EXPECT_NE(body.limit, nullptr);
}

TEST(ParserTest, ReturnStar) {
  Query q = MustParse("MATCH (n) RETURN *");
  EXPECT_TRUE(q.parts[0].ret.body.include_all);
}

TEST(ParserTest, Unions) {
  Query q = MustParse(
      "MATCH (a:X) RETURN a.id UNION MATCH (a:Y) RETURN a.id "
      "UNION ALL MATCH (a:Z) RETURN a.id");
  ASSERT_EQ(q.parts.size(), 3u);
  ASSERT_EQ(q.union_all.size(), 2u);
  EXPECT_FALSE(q.union_all[0]);
  EXPECT_TRUE(q.union_all[1]);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  EXPECT_TRUE(ParseCypherQuery("match (n) return n").ok());
  EXPECT_TRUE(ParseCypherQuery("Match (n) Where n.x = 1 Return n").ok());
}

TEST(ParserTest, DefaultAliasIsExpressionText) {
  Query q = MustParse("MATCH (n) RETURN n.user_id, size(n.xs)");
  EXPECT_EQ(q.parts[0].ret.body.items[0].alias, "n.user_id");
  EXPECT_EQ(q.parts[0].ret.body.items[1].alias, "size(n.xs)");
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseCypherQuery("").ok());
  EXPECT_FALSE(ParseCypherQuery("MATCH (n)").ok());        // No RETURN.
  EXPECT_FALSE(ParseCypherQuery("RETURN").ok());           // No items.
  EXPECT_FALSE(ParseCypherQuery("MATCH (n RETURN n").ok());
  EXPECT_FALSE(ParseCypherQuery("MATCH (n) RETURN n extra").ok());
  EXPECT_FALSE(ParseCypherQuery("MATCH (n) RETURN unknownFn(n)").ok());
  EXPECT_FALSE(
      ParseCypherQuery("MATCH (n) WITHIN PT0S RETURN n").ok());  // Zero width.
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseCypherExpression("1 + 2 * 3 ^ 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(1 + (2 * (3 ^ 2)))");
  auto cmp = ParseCypherExpression("a AND b OR NOT c");
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ((*cmp)->ToString(), "((a AND b) OR NOT (c))");
}

TEST(ParserTest, ComparisonChains) {
  auto e = ParseCypherExpression("win_start <= t <= win_end");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(win_start <= t <= win_end)");
}

TEST(ParserTest, ListComprehensionAndQuantifier) {
  auto e = ParseCypherExpression(
      "[n IN nodes(q) WHERE 'Station' IN labels(n) | n.id]");
  ASSERT_TRUE(e.ok()) << e.status();
  auto a = ParseCypherExpression(
      "ALL(e IN rels WHERE e.user_id = r.user_id)");
  ASSERT_TRUE(a.ok()) << a.status();
}

TEST(ParserTest, CaseExpression) {
  auto searched = ParseCypherExpression(
      "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END");
  ASSERT_TRUE(searched.ok()) << searched.status();
  auto simple =
      ParseCypherExpression("CASE x WHEN 1 THEN 'one' ELSE 'many' END");
  ASSERT_TRUE(simple.ok()) << simple.status();
}

TEST(ParserTest, CountStarAndDistinctAggregate) {
  auto star = ParseCypherExpression("count(*)");
  ASSERT_TRUE(star.ok());
  auto dist = ParseCypherExpression("count(DISTINCT n.x)");
  ASSERT_TRUE(dist.ok());
}

TEST(ParserTest, ListingOneParses) {
  // The running example's Cypher workaround (repaired Listing 1).
  Query q = MustParse(R"(
    WITH datetime() AS win_end, datetime() - duration('PT1H') AS win_start
    MATCH (b:Bike)-[r:rentedAt]->(s:Station),
          q = (b)-[:returnedAt|rentedAt*3..]-(o:Station)
    WITH r, s, q, relationships(q) AS rels,
         [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops,
         win_start, win_end
    WHERE win_start <= r.val_time AND r.val_time <= win_end
      AND ALL(e IN rels WHERE
            win_start <= e.val_time AND e.val_time <= win_end
            AND e.user_id = r.user_id
            AND e.val_time > r.val_time
            AND (e.duration IS NULL OR e.duration < 20))
    RETURN r.user_id, s.id, r.val_time, hops
  )");
  EXPECT_EQ(q.parts.size(), 1u);
  EXPECT_EQ(q.parts[0].clauses.size(), 3u);
  EXPECT_EQ(q.parts[0].ret.body.items.size(), 4u);
}

TEST(ParserTest, Int64LiteralBounds) {
  // Unary minus directly on 9223372036854775808 is INT64_MIN; the
  // magnitude anywhere else is an error at the literal.
  auto min = ParseCypherExpression("-9223372036854775808");
  ASSERT_TRUE(min.ok()) << min.status();
  const auto* literal = dynamic_cast<const LiteralExpr*>(min->get());
  ASSERT_NE(literal, nullptr);
  EXPECT_EQ(literal->value(), Value::Int(std::numeric_limits<int64_t>::min()));
  auto max = ParseCypherExpression("-9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status();
  for (const char* text :
       {"1 - 9223372036854775808", "-9223372036854775808.x",
        "- -9223372036854775808[0]", "[9223372036854775808]"}) {
    auto parsed = ParseCypherExpression(text);
    EXPECT_FALSE(parsed.ok()) << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
    }
  }
  auto query = ParseCypherQuery("RETURN\n  99999999999999999999 AS x");
  ASSERT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("line 2, column 3"),
            std::string::npos)
      << query.status();
}

}  // namespace
}  // namespace seraph
