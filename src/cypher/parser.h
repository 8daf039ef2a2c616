// Recursive-descent parser for the Cypher core grammar of Fig. 3, extended
// with the Seraph per-MATCH `WITHIN <duration>` clause of Fig. 6. The
// Seraph front-end (seraph/seraph_parser.h) composes the public building
// blocks exposed here to parse full `REGISTER QUERY` statements.
#ifndef SERAPH_CYPHER_PARSER_H_
#define SERAPH_CYPHER_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "cypher/ast.h"
#include "cypher/token.h"

namespace seraph {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // ---- Whole-input entry points ----

  // Parses a complete query (UNION of single queries) and requires the
  // input to be fully consumed.
  Result<Query> ParseQuery();

  // Parses a single standalone expression (tests, tools).
  Result<ExprPtr> ParseStandaloneExpression();

  // ---- Building blocks (used by the Seraph front-end) ----

  // Clause chain without the final RETURN: MATCH / OPTIONAL MATCH /
  // UNWIND / WITH, in order, stopping at RETURN / EMIT / UNION / '}' / end.
  Result<std::vector<Clause>> ParseClauseChain();

  // The projection body shared by WITH / RETURN / EMIT (after its keyword).
  // `stop_keywords` lists keywords that terminate the item list in addition
  // to the structural terminators (e.g. "ON", "EVERY" for EMIT).
  Result<ProjectionBody> ParseProjectionBody(
      const std::vector<std::string>& stop_keywords = {});

  // Guarded against stack exhaustion: expression nesting beyond
  // kMaxExpressionDepth is a clean kParseError, not a crash. Levels are
  // taken where the grammar recurses: every ParseExpression (which every
  // nested atom, call, CASE, quantifier and index crosses), every link of
  // a NOT, sign or power chain (which recurse into themselves), and once
  // more by list, map and identifier-led atoms, whose nesting costs up to
  // twice a parenthesised level's stack. Measured with gcc 12, the
  // costliest level (a parenthesis) takes about 3.5 KB of stack in a
  // RelWithDebInfo build and 10 KB under Debug ASan+UBSan, so the deepest
  // accepted input stays under 2 MB and 5.3 MB of an 8 MB thread stack,
  // which leaves room to evaluate and destroy it. Real queries nest a few
  // levels; 500 parentheses still parse.
  static constexpr int kMaxExpressionDepth = 520;
  Result<ExprPtr> ParseExpression();

  // An ISO-8601 duration, written either as an identifier-shaped literal
  // (PT5M, P1D) or a quoted string ('PT1H30M').
  Result<Duration> ParseDurationLiteral();

  // An ISO-8601 datetime, written either as a quoted string or unquoted as
  // in the paper (2022-10-14T14:45h); the unquoted form is re-assembled
  // from the token stream.
  Result<Timestamp> ParseDateTimeLiteral();

  // ---- Token-level helpers ----

  const Token& Peek(size_t ahead = 0) const;
  bool PeekIsKeyword(std::string_view keyword, size_t ahead = 0) const;
  // Consumes the next token if it is the given keyword.
  bool ConsumeKeyword(std::string_view keyword);
  // Requires and consumes `keyword`.
  Status ExpectKeyword(std::string_view keyword);
  bool Consume(TokenKind kind);
  Status Expect(TokenKind kind);
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  // Requires full consumption of the input.
  Status ExpectEnd();

  // Parse error pointing at the current token.
  Status ErrorHere(const std::string& message) const;

 private:
  // Clauses.
  Result<SingleQuery> ParseSingleQuery();
  Result<MatchClause> ParseMatchClause(bool optional);
  Result<UnwindClause> ParseUnwindClause();
  Result<WithClause> ParseWithClause();

  // Patterns.
  Result<std::vector<PathPattern>> ParsePatternList();
  Result<PathPattern> ParsePathPattern();
  Result<NodePattern> ParseNodePattern();
  Result<RelPattern> ParseRelPattern();
  Result<std::vector<std::pair<std::string, ExprPtr>>> ParsePropertyMap();

  // Expressions (precedence climbing, loosest first).
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseXor();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParsePredicate();
  Result<ExprPtr> ParseAddSub();
  Result<ExprPtr> ParseMulDiv();
  Result<ExprPtr> ParsePower();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePostfix();
  Result<ExprPtr> ParseAtom();
  // Identifier-led atoms, kept out of ParseAtom so the frame every
  // parenthesised level pays stays small.
  Result<ExprPtr> ParseNamedAtom();
  Result<ExprPtr> ParseCase();
  Result<ExprPtr> ParseListAtom();
  Result<ExprPtr> ParseFunctionCall(std::string name);

  // Names.
  Result<std::string> ParseIdentifier(const char* what);

  const Token& TokenAt(size_t index) const;
  void Advance() { ++pos_; }

  // Holds one level of expression nesting for its lifetime; status() is a
  // kParseError past kMaxExpressionDepth.
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { ++*depth_; }
    ~Nesting() { --*depth_; }
    Status status() const;

   private:
    int* depth_;
  };

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int expr_depth_ = 0;
};

// Convenience: tokenizes and parses a complete Cypher query.
Result<Query> ParseCypherQuery(std::string_view text);

// Convenience: tokenizes and parses a standalone expression.
Result<ExprPtr> ParseCypherExpression(std::string_view text);

}  // namespace seraph

#endif  // SERAPH_CYPHER_PARSER_H_
