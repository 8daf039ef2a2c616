#include <gtest/gtest.h>

#include <limits>

#include "cypher/lexer.h"

namespace seraph {
namespace {

std::vector<Token> Lex(std::string_view text) {
  auto tokens = Tokenize(text);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return tokens.ok() ? tokens.value() : std::vector<Token>{};
}

TEST(LexerTest, Identifiers) {
  auto tokens = Lex("MATCH rentedAt _x a1");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MATCH");
  EXPECT_EQ(tokens[3].text, "a1");
  EXPECT_EQ(tokens[4].kind, TokenKind::kEnd);
}

TEST(LexerTest, BackquotedIdentifier) {
  auto tokens = Lex("(`E-Bike`)");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "E-Bike");
}

TEST(LexerTest, Numbers) {
  auto tokens = Lex("42 1.5 .25 2e3 1e-2");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 1.5);
  EXPECT_EQ(tokens[2].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 0.25);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 2000.0);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 0.01);
}

TEST(LexerTest, IntegerLiteralsOutOfInt64AreParseErrors) {
  auto tokens = Lex("9223372036854775807");
  EXPECT_EQ(tokens[0].int_value, std::numeric_limits<int64_t>::max());
  // The literal's position is in the error.
  for (const char* text : {"1 + 99999999999999999999", "1 + 9223372036854775808",
                           "1 + 18446744073709551616"}) {
    auto lexed = Tokenize(text);
    ASSERT_FALSE(lexed.ok()) << text;
    EXPECT_EQ(lexed.status().code(), StatusCode::kParseError);
    EXPECT_NE(lexed.status().message().find("out of range at line 1, column 5"),
              std::string::npos)
        << lexed.status();
  }
  // Only right after a minus may the magnitude of INT64_MIN stand.
  tokens = Lex("-9223372036854775808");
  ASSERT_EQ(tokens.size(), 3u);  // Minus, integer, end.
  EXPECT_EQ(tokens[1].int_value, std::numeric_limits<int64_t>::min());
}

TEST(LexerTest, IntegerFollowedByRange) {
  // "3.." must lex as integer 3 then '..' (variable-length bounds).
  auto tokens = Lex("*3..5");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStar);
  EXPECT_EQ(tokens[1].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[1].int_value, 3);
  EXPECT_EQ(tokens[2].kind, TokenKind::kDotDot);
  EXPECT_EQ(tokens[3].int_value, 5);
}

TEST(LexerTest, Strings) {
  auto tokens = Lex(R"('abc' "d\'e" 'x\\y')");
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "abc");
  EXPECT_EQ(tokens[1].text, "d'e");
  EXPECT_EQ(tokens[2].text, "x\\y");
}

TEST(LexerTest, Operators) {
  auto tokens = Lex("<= >= <> < > = .. . | + - * / % ^");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[0], TokenKind::kLe);
  EXPECT_EQ(kinds[1], TokenKind::kGe);
  EXPECT_EQ(kinds[2], TokenKind::kNeq);
  EXPECT_EQ(kinds[3], TokenKind::kLt);
  EXPECT_EQ(kinds[4], TokenKind::kGt);
  EXPECT_EQ(kinds[5], TokenKind::kEq);
  EXPECT_EQ(kinds[6], TokenKind::kDotDot);
  EXPECT_EQ(kinds[7], TokenKind::kDot);
  EXPECT_EQ(kinds[8], TokenKind::kPipe);
}

TEST(LexerTest, Comments) {
  auto tokens = Lex("a // line comment\n b /* block \n comment */ c");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(LexerTest, Parameters) {
  auto tokens = Lex("$user_id");
  EXPECT_EQ(tokens[0].kind, TokenKind::kParameter);
  EXPECT_EQ(tokens[0].text, "user_id");
}

TEST(LexerTest, PositionsTracked) {
  auto tokens = Lex("a\n  b");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("/* unterminated").ok());
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize("$1").ok());
}

TEST(LexerTest, FullQueryTokenizes) {
  auto tokens = Lex(
      "MATCH (b:Bike)-[r:rentedAt]->(s:Station), "
      "q = (b)-[:returnedAt|rentedAt*3..]-(o:Station) "
      "WHERE ALL(e IN relationships(q) WHERE e.user_id = r.user_id) "
      "RETURN r.user_id, s.id");
  EXPECT_GT(tokens.size(), 40u);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

}  // namespace
}  // namespace seraph
