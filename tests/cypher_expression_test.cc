// Expression evaluation under Cypher's ternary logic.
#include <gtest/gtest.h>

#include <limits>

#include "cypher/eval.h"
#include "cypher/executor.h"
#include "cypher/parser.h"
#include "graph/graph_builder.h"

namespace seraph {
namespace {

class ExpressionTest : public ::testing::Test {
 protected:
  ExpressionTest() {
    graph_ = GraphBuilder()
                 .Node(1, {"Station"}, {{"id", Value::Int(1)}})
                 .Node(5, {"Bike", "E-Bike"}, {{"id", Value::Int(5)}})
                 .Rel(1, 5, 1, "rentedAt",
                      {{"user_id", Value::Int(1234)},
                       {"val_time", Value::DateTime(Timestamp::FromMillis(
                                        1000))}})
                 .Build();
    record_.Set("n", Value::Node(NodeId{5}));
    record_.Set("s", Value::Node(NodeId{1}));
    record_.Set("r", Value::Relationship(RelId{1}));
    record_.Set("x", Value::Int(10));
    record_.Set("nul", Value::Null());
  }

  Value Eval(std::string_view text) {
    auto expr = ParseCypherExpression(text);
    EXPECT_TRUE(expr.ok()) << text << ": " << expr.status();
    EvalContext ctx(&graph_, &record_);
    ctx.set_now(Timestamp::FromMillis(5000));
    auto v = (*expr)->Eval(ctx);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status();
    return v.ok() ? v.value() : Value::Null();
  }

  Status EvalError(std::string_view text) {
    auto expr = ParseCypherExpression(text);
    EXPECT_TRUE(expr.ok()) << text << ": " << expr.status();
    EvalContext ctx(&graph_, &record_);
    auto v = (*expr)->Eval(ctx);
    EXPECT_FALSE(v.ok()) << text;
    return v.ok() ? Status::OK() : v.status();
  }

  PropertyGraph graph_;
  Record record_;
};

TEST_F(ExpressionTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3"), Value::Int(7));
  EXPECT_EQ(Eval("7 / 2"), Value::Int(3));       // Integer division.
  EXPECT_EQ(Eval("7.0 / 2"), Value::Float(3.5));
  EXPECT_EQ(Eval("7 % 3"), Value::Int(1));
  EXPECT_EQ(Eval("2 ^ 10"), Value::Float(1024.0));
  EXPECT_EQ(Eval("-x"), Value::Int(-10));
  EXPECT_EQ(Eval("x - 1"), Value::Int(9));
}

TEST_F(ExpressionTest, ArithmeticNullPropagation) {
  EXPECT_TRUE(Eval("1 + nul").is_null());
  EXPECT_TRUE(Eval("nul * 3").is_null());
  EXPECT_TRUE(Eval("-nul").is_null());
}

TEST_F(ExpressionTest, DivisionByZeroIsError) {
  EXPECT_EQ(EvalError("1 / 0").code(), StatusCode::kEvaluationError);
  EXPECT_EQ(EvalError("1 % 0").code(), StatusCode::kEvaluationError);
}

TEST_F(ExpressionTest, IntegerOverflowIsAnEvaluationError) {
  // Results outside int64 fail the evaluation instead of wrapping, or
  // trapping the process (INT64_MIN / -1 raised SIGFPE).
  for (const char* text :
       {"9223372036854775807 + 1", "-9223372036854775808 - 1",
        "-9223372036854775807 - 2", "4611686018427387904 * 2",
        "-9223372036854775808 * -1", "-9223372036854775808 / -1",
        "-(-9223372036854775808)", "(-9223372036854775807 - 1) / -1",
        "abs(-9223372036854775808)"}) {
    Status error = EvalError(text);
    EXPECT_EQ(error.code(), StatusCode::kEvaluationError) << text;
    EXPECT_EQ(error.message(), "integer overflow") << text;
  }
  // The edges themselves are fine.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Eval("9223372036854775806 + 1"), Value::Int(max));
  EXPECT_EQ(Eval("-9223372036854775807 - 1"), Value::Int(min));
  EXPECT_EQ(Eval("-9223372036854775808 % -1"), Value::Int(0));
  EXPECT_EQ(Eval("-9223372036854775807 / -1"), Value::Int(max));
  EXPECT_EQ(Eval("abs(-9223372036854775807)"), Value::Int(max));
  EXPECT_EQ(Eval("-(-9223372036854775807)"), Value::Int(max));
  // Float arithmetic does not overflow into an error.
  EXPECT_TRUE(Eval("9223372036854775807 + 1.0").is_float());
}

TEST_F(ExpressionTest, ComparisonsAtTheInt64Extremes) {
  EXPECT_EQ(Eval("9223372036854775807 > -1"), Value::Bool(true));
  EXPECT_EQ(Eval("9223372036854775807 < -1"), Value::Bool(false));
  EXPECT_EQ(Eval("-9223372036854775808 < 1"), Value::Bool(true));
  EXPECT_EQ(Eval("-9223372036854775807 < 9223372036854775807"),
            Value::Bool(true));
}

TEST(Int64ExtremesTest, OrderByMinMaxAndSumOverExtremeIds) {
  // Nodes with ids max, -5 and -max, read as a.id: ORDER BY, min and max
  // order them numerically, and a sum that leaves int64 fails.
  const int64_t max = std::numeric_limits<int64_t>::max();
  PropertyGraph graph = GraphBuilder()
                            .Node(max, {"A"}, {{"id", Value::Int(max)}})
                            .Node(-5, {"A"}, {{"id", Value::Int(-5)}})
                            .Node(-max, {"A"}, {{"id", Value::Int(-max)}})
                            .Build();
  auto run = [&](std::string_view text) {
    auto parsed = ParseCypherQuery(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return ExecuteQueryOnGraph(*parsed, graph, ExecutionOptions{});
  };
  auto ordered = run("MATCH (a:A) RETURN a.id AS id ORDER BY id");
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  ASSERT_EQ(ordered->size(), 3u);
  EXPECT_EQ(ordered->rows()[0].GetOrNull("id"), Value::Int(-max));
  EXPECT_EQ(ordered->rows()[1].GetOrNull("id"), Value::Int(-5));
  EXPECT_EQ(ordered->rows()[2].GetOrNull("id"), Value::Int(max));
  auto by_node = run("MATCH (a:A) RETURN a.id AS id ORDER BY a DESC");
  ASSERT_TRUE(by_node.ok()) << by_node.status();
  EXPECT_EQ(by_node->rows()[0].GetOrNull("id"), Value::Int(max));
  EXPECT_EQ(by_node->rows()[2].GetOrNull("id"), Value::Int(-max));
  auto filtered = run("MATCH (a:A) WHERE a.id > -1 RETURN a.id AS id");
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  ASSERT_EQ(filtered->size(), 1u);
  EXPECT_EQ(filtered->rows()[0].GetOrNull("id"), Value::Int(max));
  auto extremes =
      run("MATCH (a:A) RETURN min(a.id) AS lo, max(a.id) AS hi");
  ASSERT_TRUE(extremes.ok()) << extremes.status();
  EXPECT_EQ(extremes->rows()[0].GetOrNull("lo"), Value::Int(-max));
  EXPECT_EQ(extremes->rows()[0].GetOrNull("hi"), Value::Int(max));
  auto sum = run("MATCH (a:A) WHERE a.id > -10 RETURN sum(a.id) AS s");
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(sum->rows()[0].GetOrNull("s"), Value::Int(max - 5));
  auto overflow =
      run("UNWIND [9223372036854775807, 1] AS x RETURN sum(x) AS s");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().message(), "integer overflow");
}

TEST_F(ExpressionTest, StringConcatenation) {
  EXPECT_EQ(Eval("'a' + 'b'"), Value::String("ab"));
  EXPECT_EQ(Eval("'n=' + 5"), Value::String("n=5"));
}

TEST_F(ExpressionTest, ListConcatenation) {
  EXPECT_EQ(Eval("[1, 2] + [3]"),
            Value::MakeList({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval("[1] + 2"),
            Value::MakeList({Value::Int(1), Value::Int(2)}));
}

TEST_F(ExpressionTest, Comparisons) {
  EXPECT_EQ(Eval("1 < 2"), Value::Bool(true));
  EXPECT_EQ(Eval("2 <= 2"), Value::Bool(true));
  EXPECT_EQ(Eval("1 = 1.0"), Value::Bool(true));
  EXPECT_EQ(Eval("1 <> 2"), Value::Bool(true));
  EXPECT_EQ(Eval("'a' < 'b'"), Value::Bool(true));
  // Cross-type equality is false; cross-type ordering is null.
  EXPECT_EQ(Eval("1 = 'a'"), Value::Bool(false));
  EXPECT_TRUE(Eval("1 < 'a'").is_null());
  // Null propagates.
  EXPECT_TRUE(Eval("nul = 1").is_null());
  EXPECT_TRUE(Eval("nul = nul").is_null());
}

TEST_F(ExpressionTest, ComparisonChains) {
  EXPECT_EQ(Eval("1 <= 2 <= 3"), Value::Bool(true));
  EXPECT_EQ(Eval("1 <= 5 <= 3"), Value::Bool(false));
  EXPECT_EQ(Eval("1 < 2 < 3 < 4"), Value::Bool(true));
  // A definitive false short-circuits even with a null member.
  EXPECT_EQ(Eval("5 < 2 < nul"), Value::Bool(false));
  EXPECT_TRUE(Eval("1 < 2 < nul").is_null());
}

TEST_F(ExpressionTest, TernaryConnectives) {
  EXPECT_EQ(Eval("true AND false"), Value::Bool(false));
  EXPECT_TRUE(Eval("true AND nul").is_null());
  EXPECT_EQ(Eval("false AND nul"), Value::Bool(false));
  EXPECT_EQ(Eval("true OR nul"), Value::Bool(true));
  EXPECT_TRUE(Eval("false OR nul").is_null());
  EXPECT_TRUE(Eval("NOT nul").is_null());
  EXPECT_EQ(Eval("NOT false"), Value::Bool(true));
  EXPECT_TRUE(Eval("true XOR nul").is_null());
  EXPECT_EQ(Eval("true XOR false"), Value::Bool(true));
}

// An evaluated connective operand, or a quantifier's predicate value,
// that is neither boolean nor null is a type error, as for NOT; the
// short-circuits still never evaluate what they skip.
TEST_F(ExpressionTest, NonBooleanConnectiveOperandsAreEvaluationErrors) {
  for (const char* text :
       {"n.id AND true", "true AND n.id", "n.id OR false", "false OR n.id",
        "n.id XOR true", "true XOR n.id", "NOT n.id",
        "ALL(i IN [1] WHERE n.id)", "ANY(i IN [1] WHERE n.id)",
        "NONE(i IN [1] WHERE n.id)", "SINGLE(i IN [1] WHERE n.id)",
        "ALL(i IN [1, 2] WHERE i = 1 OR 'x')"}) {
    Status s = EvalError(text);
    EXPECT_EQ(s.code(), StatusCode::kEvaluationError) << text;
    EXPECT_NE(s.message().find("requires a boolean"), std::string::npos)
        << text << ": " << s;
  }
  EXPECT_EQ(Eval("false AND n.id"), Value::Bool(false));
  EXPECT_EQ(Eval("true OR n.id"), Value::Bool(true));
  EXPECT_TRUE(Eval("nul AND nul").is_null());
  // ALL stops at its first false element; NONE reads on past a true one.
  EXPECT_EQ(Eval("ALL(i IN [1, 2] WHERE CASE i WHEN 1 THEN false ELSE i END)"),
            Value::Bool(false));
  EXPECT_EQ(EvalError("NONE(i IN [1, 2] WHERE CASE i WHEN 1 THEN true "
                      "ELSE i END)")
                .code(),
            StatusCode::kEvaluationError);
}

TEST_F(ExpressionTest, InOperator) {
  EXPECT_EQ(Eval("2 IN [1, 2, 3]"), Value::Bool(true));
  EXPECT_EQ(Eval("4 IN [1, 2, 3]"), Value::Bool(false));
  EXPECT_TRUE(Eval("4 IN [1, nul]").is_null());
  EXPECT_EQ(Eval("1 IN [1, nul]"), Value::Bool(true));
  EXPECT_TRUE(Eval("nul IN [1]").is_null());
  EXPECT_EQ(Eval("'Station' IN labels(s)"), Value::Bool(true));
}

TEST_F(ExpressionTest, IsNull) {
  EXPECT_EQ(Eval("nul IS NULL"), Value::Bool(true));
  EXPECT_EQ(Eval("x IS NULL"), Value::Bool(false));
  EXPECT_EQ(Eval("x IS NOT NULL"), Value::Bool(true));
  EXPECT_EQ(Eval("n.missing IS NULL"), Value::Bool(true));
}

TEST_F(ExpressionTest, StringPredicates) {
  record_.Set("s2", Value::String("hello world"));
  EXPECT_EQ(Eval("s2 STARTS WITH 'hello'"), Value::Bool(true));
  EXPECT_EQ(Eval("s2 ENDS WITH 'world'"), Value::Bool(true));
  EXPECT_EQ(Eval("s2 CONTAINS 'lo wo'"), Value::Bool(true));
  EXPECT_EQ(Eval("s2 STARTS WITH 'world'"), Value::Bool(false));
  EXPECT_TRUE(Eval("nul CONTAINS 'x'").is_null());
}

TEST_F(ExpressionTest, PropertyAccess) {
  EXPECT_EQ(Eval("n.id"), Value::Int(5));
  EXPECT_EQ(Eval("r.user_id"), Value::Int(1234));
  EXPECT_TRUE(Eval("r.duration IS NULL").AsBool());
  EXPECT_EQ(Eval("{a: 1}.a"), Value::Int(1));
  EXPECT_TRUE(Eval("nul.x").is_null());
}

TEST_F(ExpressionTest, Indexing) {
  EXPECT_EQ(Eval("[10, 20, 30][1]"), Value::Int(20));
  EXPECT_EQ(Eval("[10, 20, 30][-1]"), Value::Int(30));
  EXPECT_TRUE(Eval("[10][5]").is_null());
  EXPECT_EQ(Eval("{a: 1}['a']"), Value::Int(1));
}

TEST_F(ExpressionTest, GraphFunctions) {
  EXPECT_EQ(Eval("labels(n)"),
            Value::MakeList({Value::String("Bike"), Value::String("E-Bike")}));
  EXPECT_EQ(Eval("type(r)"), Value::String("rentedAt"));
  EXPECT_EQ(Eval("id(n)"), Value::Int(5));
  EXPECT_EQ(Eval("startNode(r)"), Value::Node(NodeId{5}));
  EXPECT_EQ(Eval("endNode(r)"), Value::Node(NodeId{1}));
  EXPECT_EQ(Eval("properties(r).user_id"), Value::Int(1234));
  EXPECT_EQ(Eval("keys(n)"), Value::MakeList({Value::String("id")}));
}

TEST_F(ExpressionTest, ListFunctions) {
  EXPECT_EQ(Eval("size([1, 2, 3])"), Value::Int(3));
  EXPECT_EQ(Eval("head([1, 2])"), Value::Int(1));
  EXPECT_EQ(Eval("last([1, 2])"), Value::Int(2));
  EXPECT_EQ(Eval("tail([1, 2, 3])"),
            Value::MakeList({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval("reverse([1, 2])"),
            Value::MakeList({Value::Int(2), Value::Int(1)}));
  EXPECT_EQ(Eval("range(1, 3)"),
            Value::MakeList({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval("range(4, 0, -2)"),
            Value::MakeList({Value::Int(4), Value::Int(2), Value::Int(0)}));
  EXPECT_TRUE(Eval("head([])").is_null());
}

TEST_F(ExpressionTest, NumericFunctions) {
  EXPECT_EQ(Eval("abs(-5)"), Value::Int(5));
  EXPECT_EQ(Eval("sign(-2)"), Value::Int(-1));
  EXPECT_EQ(Eval("sqrt(9.0)"), Value::Float(3.0));
  EXPECT_EQ(Eval("floor(1.7)"), Value::Float(1.0));
  EXPECT_EQ(Eval("ceil(1.2)"), Value::Float(2.0));
  EXPECT_EQ(Eval("round(1.5)"), Value::Float(2.0));
}

TEST_F(ExpressionTest, ConversionFunctions) {
  EXPECT_EQ(Eval("toInteger('42')"), Value::Int(42));
  EXPECT_EQ(Eval("toInteger(3.9)"), Value::Int(3));
  EXPECT_EQ(Eval("toFloat('1.5')"), Value::Float(1.5));
  EXPECT_EQ(Eval("toString(42)"), Value::String("42"));
  EXPECT_TRUE(Eval("toInteger('nope')").is_null());
  EXPECT_EQ(Eval("coalesce(nul, nul, 7)"), Value::Int(7));
  EXPECT_TRUE(Eval("coalesce(nul, nul)").is_null());
}

TEST_F(ExpressionTest, StringFunctions) {
  EXPECT_EQ(Eval("toUpper('abc')"), Value::String("ABC"));
  EXPECT_EQ(Eval("toLower('ABC')"), Value::String("abc"));
  EXPECT_EQ(Eval("trim('  x  ')"), Value::String("x"));
  EXPECT_EQ(Eval("replace('aXbXc', 'X', '-')"), Value::String("a-b-c"));
  EXPECT_EQ(Eval("split('a,b', ',')"),
            Value::MakeList({Value::String("a"), Value::String("b")}));
  EXPECT_EQ(Eval("substring('hello', 1, 3)"), Value::String("ell"));
  EXPECT_EQ(Eval("left('hello', 2)"), Value::String("he"));
  EXPECT_EQ(Eval("right('hello', 2)"), Value::String("lo"));
}

TEST_F(ExpressionTest, TemporalFunctions) {
  EXPECT_EQ(Eval("datetime()"),
            Value::DateTime(Timestamp::FromMillis(5000)));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45')"),
            Value::DateTime(Timestamp::Parse("2022-10-14T14:45").value()));
  EXPECT_EQ(Eval("duration('PT5M')"),
            Value::Dur(Duration::FromMinutes(5)));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45') + duration('PT15M')"),
            Value::DateTime(Timestamp::Parse("2022-10-14T15:00").value()));
  EXPECT_EQ(
      Eval("datetime('2022-10-14T15:00') - datetime('2022-10-14T14:45')"),
      Value::Dur(Duration::FromMinutes(15)));
  EXPECT_EQ(Eval("r.val_time < datetime()"), Value::Bool(true));
}

TEST_F(ExpressionTest, TemporalComponentAccessors) {
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').year"), Value::Int(2022));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').month"), Value::Int(10));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').day"), Value::Int(14));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').hour"), Value::Int(14));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').minute"), Value::Int(45));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45:30').second"), Value::Int(30));
  EXPECT_EQ(Eval("datetime('2022-10-14T14:45').second"), Value::Int(0));
  EXPECT_EQ(Eval("duration('PT1H30M').minutes"), Value::Int(90));
  EXPECT_EQ(Eval("duration('PT90S').seconds"), Value::Int(90));
  EXPECT_EQ(Eval("duration('P2D').hours"), Value::Int(48));
  EXPECT_EQ(EvalError("datetime('2022-10-14T14:45').nope").code(),
            StatusCode::kEvaluationError);
  EXPECT_EQ(EvalError("duration('PT1M').nope").code(),
            StatusCode::kEvaluationError);
}

TEST_F(ExpressionTest, ListComprehension) {
  EXPECT_EQ(Eval("[i IN [1, 2, 3, 4] WHERE i % 2 = 0 | i * 10]"),
            Value::MakeList({Value::Int(20), Value::Int(40)}));
  EXPECT_EQ(Eval("[i IN [1, 2] | i + 1]"),
            Value::MakeList({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval("[i IN [1, 2, 3] WHERE i > 1]"),
            Value::MakeList({Value::Int(2), Value::Int(3)}));
  EXPECT_TRUE(Eval("[i IN nul | i]").is_null());
}

TEST_F(ExpressionTest, Quantifiers) {
  EXPECT_EQ(Eval("ALL(i IN [2, 4] WHERE i % 2 = 0)"), Value::Bool(true));
  EXPECT_EQ(Eval("ALL(i IN [2, 3] WHERE i % 2 = 0)"), Value::Bool(false));
  EXPECT_EQ(Eval("ALL(i IN [] WHERE false)"), Value::Bool(true));
  EXPECT_EQ(Eval("ANY(i IN [1, 2] WHERE i = 2)"), Value::Bool(true));
  EXPECT_EQ(Eval("NONE(i IN [1, 2] WHERE i = 3)"), Value::Bool(true));
  EXPECT_EQ(Eval("SINGLE(i IN [1, 2, 3] WHERE i = 2)"), Value::Bool(true));
  EXPECT_EQ(Eval("SINGLE(i IN [2, 2] WHERE i = 2)"), Value::Bool(false));
  // Ternary: unknown predicate outcomes poison definitive answers.
  EXPECT_TRUE(Eval("ALL(i IN [1, nul] WHERE i = 1)").is_null());
  EXPECT_EQ(Eval("ANY(i IN [1, nul] WHERE i = 1)"), Value::Bool(true));
}

TEST_F(ExpressionTest, CaseExpressions) {
  EXPECT_EQ(Eval("CASE WHEN x > 5 THEN 'big' ELSE 'small' END"),
            Value::String("big"));
  EXPECT_EQ(Eval("CASE x WHEN 10 THEN 'ten' ELSE '?' END"),
            Value::String("ten"));
  EXPECT_TRUE(Eval("CASE WHEN false THEN 1 END").is_null());
}

TEST_F(ExpressionTest, UnboundVariableIsError) {
  EXPECT_EQ(EvalError("no_such_var").code(), StatusCode::kEvaluationError);
}

TEST_F(ExpressionTest, AggregateOutsideProjectionIsError) {
  EXPECT_EQ(EvalError("count(x)").code(), StatusCode::kSemanticError);
}

TEST_F(ExpressionTest, Parameters) {
  auto expr = ParseCypherExpression("$threshold + 1");
  ASSERT_TRUE(expr.ok());
  EvalContext ctx(&graph_, &record_);
  std::map<std::string, Value> params{{"threshold", Value::Int(41)}};
  ctx.set_parameters(&params);
  auto v = (*expr)->Eval(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(42));
}

TEST_F(ExpressionTest, WindowReservedNames) {
  auto expr = ParseCypherExpression("win_start <= r.val_time");
  ASSERT_TRUE(expr.ok());
  EvalContext ctx(&graph_, &record_);
  ctx.set_window(TimeInterval{Timestamp::FromMillis(0),
                              Timestamp::FromMillis(10'000)});
  auto v = (*expr)->Eval(ctx);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, Value::Bool(true));
}

}  // namespace
}  // namespace seraph
