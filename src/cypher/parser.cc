#include "cypher/parser.h"

#include <limits>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "cypher/functions.h"
#include "cypher/lexer.h"

namespace seraph {

namespace {

// Keywords that terminate a clause chain or projection item list.
bool IsStructuralKeyword(const Token& t) {
  if (t.kind != TokenKind::kIdentifier) return false;
  static const char* kStops[] = {"MATCH",  "OPTIONAL", "UNWIND", "WITH",
                                 "RETURN", "EMIT",     "UNION",  "WHERE",
                                 "ORDER",  "SKIP",     "LIMIT",  "ON",
                                 "EVERY",  "SNAPSHOT", "WITHIN"};
  for (const char* k : kStops) {
    if (EqualsIgnoreCase(t.text, k)) return true;
  }
  return false;
}

}  // namespace

const Token& Parser::TokenAt(size_t index) const {
  if (index >= tokens_.size()) return tokens_.back();  // kEnd sentinel.
  return tokens_[index];
}

const Token& Parser::Peek(size_t ahead) const { return TokenAt(pos_ + ahead); }

bool Parser::PeekIsKeyword(std::string_view keyword, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.kind == TokenKind::kIdentifier && EqualsIgnoreCase(t.text, keyword);
}

bool Parser::ConsumeKeyword(std::string_view keyword) {
  if (PeekIsKeyword(keyword)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(std::string_view keyword) {
  if (ConsumeKeyword(keyword)) return Status::OK();
  return ErrorHere("expected " + std::string(keyword));
}

bool Parser::Consume(TokenKind kind) {
  if (Peek().kind == kind) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind) {
  if (Consume(kind)) return Status::OK();
  return ErrorHere(std::string("expected ") + TokenKindToString(kind));
}

Status Parser::ExpectEnd() {
  if (AtEnd()) return Status::OK();
  return ErrorHere("unexpected trailing input");
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string got = t.kind == TokenKind::kIdentifier
                        ? "'" + t.text + "'"
                        : TokenKindToString(t.kind);
  return Status::ParseError(message + ", got " + got + " at line " +
                            std::to_string(t.line) + ", column " +
                            std::to_string(t.column));
}

Result<std::string> Parser::ParseIdentifier(const char* what) {
  if (Peek().kind != TokenKind::kIdentifier) {
    return ErrorHere(std::string("expected ") + what);
  }
  std::string name = Peek().text;
  Advance();
  return name;
}

// ---------------------------------------------------------------------------
// Queries and clauses
// ---------------------------------------------------------------------------

Result<Query> Parser::ParseQuery() {
  Query query;
  SERAPH_ASSIGN_OR_RETURN(SingleQuery first, ParseSingleQuery());
  query.parts.push_back(std::move(first));
  while (ConsumeKeyword("UNION")) {
    bool all = ConsumeKeyword("ALL");
    SERAPH_ASSIGN_OR_RETURN(SingleQuery next, ParseSingleQuery());
    query.parts.push_back(std::move(next));
    query.union_all.push_back(all);
  }
  Consume(TokenKind::kSemicolon);
  SERAPH_RETURN_IF_ERROR(ExpectEnd());
  return query;
}

Result<SingleQuery> Parser::ParseSingleQuery() {
  SingleQuery out;
  SERAPH_ASSIGN_OR_RETURN(out.clauses, ParseClauseChain());
  SERAPH_RETURN_IF_ERROR(ExpectKeyword("RETURN"));
  SERAPH_ASSIGN_OR_RETURN(out.ret.body, ParseProjectionBody());
  return out;
}

Result<std::vector<Clause>> Parser::ParseClauseChain() {
  std::vector<Clause> clauses;
  while (true) {
    if (PeekIsKeyword("OPTIONAL")) {
      Advance();
      SERAPH_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
      SERAPH_ASSIGN_OR_RETURN(MatchClause m, ParseMatchClause(true));
      clauses.emplace_back(std::move(m));
    } else if (ConsumeKeyword("MATCH")) {
      SERAPH_ASSIGN_OR_RETURN(MatchClause m, ParseMatchClause(false));
      clauses.emplace_back(std::move(m));
    } else if (ConsumeKeyword("UNWIND")) {
      SERAPH_ASSIGN_OR_RETURN(UnwindClause u, ParseUnwindClause());
      clauses.emplace_back(std::move(u));
    } else if (PeekIsKeyword("WITH")) {
      Advance();
      SERAPH_ASSIGN_OR_RETURN(WithClause w, ParseWithClause());
      clauses.emplace_back(std::move(w));
    } else {
      return clauses;
    }
  }
}

Result<MatchClause> Parser::ParseMatchClause(bool optional) {
  MatchClause clause;
  clause.optional = optional;
  SERAPH_ASSIGN_OR_RETURN(clause.patterns, ParsePatternList());
  if (ConsumeKeyword("WITHIN")) {
    SERAPH_ASSIGN_OR_RETURN(Duration width, ParseDurationLiteral());
    if (width <= Duration::FromMillis(0)) {
      return ErrorHere("WITHIN window width must be positive");
    }
    clause.within = width;
    if (ConsumeKeyword("FROM")) {
      SERAPH_ASSIGN_OR_RETURN(clause.from_stream,
                              ParseIdentifier("stream name"));
    }
  }
  if (ConsumeKeyword("WHERE")) {
    SERAPH_ASSIGN_OR_RETURN(clause.where, ParseExpression());
  }
  return clause;
}

Result<UnwindClause> Parser::ParseUnwindClause() {
  UnwindClause clause;
  SERAPH_ASSIGN_OR_RETURN(clause.list, ParseExpression());
  SERAPH_RETURN_IF_ERROR(ExpectKeyword("AS"));
  SERAPH_ASSIGN_OR_RETURN(clause.alias, ParseIdentifier("alias"));
  return clause;
}

Result<WithClause> Parser::ParseWithClause() {
  WithClause clause;
  SERAPH_ASSIGN_OR_RETURN(clause.body, ParseProjectionBody());
  if (ConsumeKeyword("WHERE")) {
    SERAPH_ASSIGN_OR_RETURN(clause.where, ParseExpression());
  }
  return clause;
}

Result<ProjectionBody> Parser::ParseProjectionBody(
    const std::vector<std::string>& stop_keywords) {
  ProjectionBody body;
  body.distinct = ConsumeKeyword("DISTINCT");
  auto at_stop = [this, &stop_keywords]() {
    if (AtEnd() || Peek().kind == TokenKind::kRBrace ||
        Peek().kind == TokenKind::kSemicolon) {
      return true;
    }
    for (const std::string& k : stop_keywords) {
      if (PeekIsKeyword(k)) return true;
    }
    return IsStructuralKeyword(Peek());
  };
  if (Peek().kind == TokenKind::kStar) {
    Advance();
    body.include_all = true;
    if (Consume(TokenKind::kComma)) {
      // '*, extra' is allowed.
    }
  }
  if (!body.include_all || Peek(0).kind != TokenKind::kEnd) {
    while (!at_stop()) {
      ProjectionItem item;
      SERAPH_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (ConsumeKeyword("AS")) {
        SERAPH_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
      } else {
        item.alias = item.expr->ToString();
      }
      body.items.push_back(std::move(item));
      if (!Consume(TokenKind::kComma)) break;
    }
  }
  if (!body.include_all && body.items.empty()) {
    return ErrorHere("expected projection items");
  }
  if (ConsumeKeyword("ORDER")) {
    SERAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      OrderByItem item;
      SERAPH_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (ConsumeKeyword("DESC") || ConsumeKeyword("DESCENDING")) {
        item.ascending = false;
      } else if (ConsumeKeyword("ASC") || ConsumeKeyword("ASCENDING")) {
        item.ascending = true;
      }
      body.order_by.push_back(std::move(item));
      if (!Consume(TokenKind::kComma)) break;
    }
  }
  if (ConsumeKeyword("SKIP")) {
    SERAPH_ASSIGN_OR_RETURN(body.skip, ParseExpression());
  }
  if (ConsumeKeyword("LIMIT")) {
    SERAPH_ASSIGN_OR_RETURN(body.limit, ParseExpression());
  }
  return body;
}

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

Result<std::vector<PathPattern>> Parser::ParsePatternList() {
  std::vector<PathPattern> patterns;
  while (true) {
    SERAPH_ASSIGN_OR_RETURN(PathPattern p, ParsePathPattern());
    patterns.push_back(std::move(p));
    if (!Consume(TokenKind::kComma)) break;
  }
  return patterns;
}

Result<PathPattern> Parser::ParsePathPattern() {
  PathPattern path;
  // Optional `q = ` path naming.
  if (Peek().kind == TokenKind::kIdentifier &&
      Peek(1).kind == TokenKind::kEq &&
      !PeekIsKeyword("shortestPath") && !PeekIsKeyword("allShortestPaths")) {
    path.path_variable = Peek().text;
    Advance();
    Advance();
  }
  bool wrapped = false;
  if (PeekIsKeyword("shortestPath")) {
    Advance();
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    path.mode = PathMode::kShortest;
    wrapped = true;
  } else if (PeekIsKeyword("allShortestPaths")) {
    Advance();
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    path.mode = PathMode::kAllShortest;
    wrapped = true;
  }
  SERAPH_ASSIGN_OR_RETURN(NodePattern first, ParseNodePattern());
  path.nodes.push_back(std::move(first));
  while (Peek().kind == TokenKind::kMinus || Peek().kind == TokenKind::kLt) {
    SERAPH_ASSIGN_OR_RETURN(RelPattern rel, ParseRelPattern());
    SERAPH_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
    path.rels.push_back(std::move(rel));
    path.nodes.push_back(std::move(node));
  }
  if (wrapped) SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  if (path.mode != PathMode::kNormal &&
      (path.rels.size() != 1 || !path.rels[0].variable_length)) {
    return ErrorHere(
        "shortestPath() requires exactly one variable-length relationship");
  }
  return path;
}

Result<NodePattern> Parser::ParseNodePattern() {
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  NodePattern node;
  if (Peek().kind == TokenKind::kIdentifier &&
      Peek(1).kind != TokenKind::kLParen) {
    node.variable = Peek().text;
    Advance();
  }
  while (Consume(TokenKind::kColon)) {
    SERAPH_ASSIGN_OR_RETURN(std::string label, ParseIdentifier("label"));
    node.labels.push_back(std::move(label));
  }
  if (Peek().kind == TokenKind::kLBrace) {
    SERAPH_ASSIGN_OR_RETURN(node.properties, ParsePropertyMap());
  }
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  return node;
}

Result<RelPattern> Parser::ParseRelPattern() {
  RelPattern rel;
  bool left_arrow = false;
  if (Consume(TokenKind::kLt)) {
    left_arrow = true;
  }
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
  if (Consume(TokenKind::kLBracket)) {
    if (Peek().kind == TokenKind::kIdentifier) {
      rel.variable = Peek().text;
      Advance();
    }
    if (Consume(TokenKind::kColon)) {
      while (true) {
        SERAPH_ASSIGN_OR_RETURN(std::string type, ParseIdentifier("type"));
        rel.types.push_back(std::move(type));
        if (Consume(TokenKind::kPipe)) {
          Consume(TokenKind::kColon);  // Tolerate `|:TYPE`.
          continue;
        }
        break;
      }
    }
    if (Consume(TokenKind::kStar)) {
      rel.variable_length = true;
      if (Peek().kind == TokenKind::kInteger) {
        rel.min_hops = Peek().int_value;
        Advance();
        if (Consume(TokenKind::kDotDot)) {
          if (Peek().kind == TokenKind::kInteger) {
            rel.max_hops = Peek().int_value;
            Advance();
          }
        } else {
          rel.max_hops = rel.min_hops;  // *n means exactly n.
        }
      } else if (Consume(TokenKind::kDotDot)) {
        if (Peek().kind == TokenKind::kInteger) {
          rel.max_hops = Peek().int_value;
          Advance();
        }
      }
    }
    if (Peek().kind == TokenKind::kLBrace) {
      SERAPH_ASSIGN_OR_RETURN(rel.properties, ParsePropertyMap());
    }
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
  } else {
    // Bracket-less form: the second dash of '--' / '-->' / '<--'.
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
  }
  bool right_arrow = false;
  if (!left_arrow && Consume(TokenKind::kGt)) {
    right_arrow = true;
  }
  if (left_arrow) {
    rel.direction = RelDirection::kIncoming;
  } else if (right_arrow) {
    rel.direction = RelDirection::kOutgoing;
  } else {
    rel.direction = RelDirection::kUndirected;
  }
  return rel;
}

Result<std::vector<std::pair<std::string, ExprPtr>>>
Parser::ParsePropertyMap() {
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
  std::vector<std::pair<std::string, ExprPtr>> entries;
  if (!Consume(TokenKind::kRBrace)) {
    while (true) {
      std::string key;
      if (Peek().kind == TokenKind::kString) {
        key = Peek().text;
        Advance();
      } else {
        SERAPH_ASSIGN_OR_RETURN(key, ParseIdentifier("property key"));
      }
      SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
      SERAPH_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
      entries.emplace_back(std::move(key), std::move(value));
      if (!Consume(TokenKind::kComma)) break;
    }
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Literals used by the Seraph front-end
// ---------------------------------------------------------------------------

Result<Duration> Parser::ParseDurationLiteral() {
  if (Peek().kind == TokenKind::kString ||
      Peek().kind == TokenKind::kIdentifier) {
    std::string text = Peek().text;
    auto parsed = Duration::Parse(text);
    if (!parsed.ok()) return ErrorHere(parsed.status().message());
    Advance();
    return parsed.value();
  }
  return ErrorHere("expected ISO-8601 duration (e.g. PT5M)");
}

Result<Timestamp> Parser::ParseDateTimeLiteral() {
  if (Peek().kind == TokenKind::kString) {
    auto parsed = Timestamp::Parse(Peek().text);
    if (!parsed.ok()) return ErrorHere(parsed.status().message());
    Advance();
    return parsed.value();
  }
  // Unquoted form: reassemble "YYYY-MM-DD[Thh:mm[:ss]]" from tokens.
  if (Peek().kind != TokenKind::kInteger) {
    return ErrorHere("expected ISO-8601 datetime");
  }
  std::string text = Peek().text;
  Advance();
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
  if (Peek().kind != TokenKind::kInteger) return ErrorHere("expected month");
  text += "-" + Peek().text;
  Advance();
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
  if (Peek().kind != TokenKind::kInteger) return ErrorHere("expected day");
  text += "-" + Peek().text;
  Advance();
  // Optional time part: an identifier like "T14" then ":mm[:ss]".
  if (Peek().kind == TokenKind::kIdentifier && !Peek().text.empty() &&
      (Peek().text[0] == 'T' || Peek().text[0] == 't')) {
    text += Peek().text;
    Advance();
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    if (Peek().kind != TokenKind::kInteger) return ErrorHere("expected minute");
    text += ":" + Peek().text;
    Advance();
    if (Peek().kind == TokenKind::kColon &&
        Peek(1).kind == TokenKind::kInteger) {
      Advance();
      text += ":" + Peek().text;
      Advance();
    }
    // The paper's informal trailing "h" lexes as a separate identifier.
    if (PeekIsKeyword("h")) Advance();
  }
  auto parsed = Timestamp::Parse(text);
  if (!parsed.ok()) return ErrorHere(parsed.status().message());
  return parsed.value();
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Status Parser::Nesting::status() const {
  if (*depth_ <= kMaxExpressionDepth) return Status::OK();
  return Status::ParseError("expression nesting exceeds the maximum depth of " +
                            std::to_string(kMaxExpressionDepth));
}

Result<ExprPtr> Parser::ParseExpression() {
  Nesting level(&expr_depth_);
  SERAPH_RETURN_IF_ERROR(level.status());
  return ParseOr();
}

Result<ExprPtr> Parser::ParseStandaloneExpression() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
  SERAPH_RETURN_IF_ERROR(ExpectEnd());
  return e;
}

Result<ExprPtr> Parser::ParseOr() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseXor());
  while (ConsumeKeyword("OR")) {
    SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseXor());
    lhs = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(lhs),
                                       std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseXor() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (ConsumeKeyword("XOR")) {
    SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = std::make_unique<BinaryExpr>(BinaryOp::kXor, std::move(lhs),
                                       std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (ConsumeKeyword("AND")) {
    SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(lhs),
                                       std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (!ConsumeKeyword("NOT")) return ParseComparison();
  Nesting level(&expr_depth_);
  SERAPH_RETURN_IF_ERROR(level.status());
  SERAPH_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
  return std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand));
}

namespace {
bool TokenToCmpOp(TokenKind kind, CmpOp* op) {
  switch (kind) {
    case TokenKind::kEq:
      *op = CmpOp::kEq;
      return true;
    case TokenKind::kNeq:
      *op = CmpOp::kNeq;
      return true;
    case TokenKind::kLt:
      *op = CmpOp::kLt;
      return true;
    case TokenKind::kLe:
      *op = CmpOp::kLe;
      return true;
    case TokenKind::kGt:
      *op = CmpOp::kGt;
      return true;
    case TokenKind::kGe:
      *op = CmpOp::kGe;
      return true;
    default:
      return false;
  }
}
}  // namespace

Result<ExprPtr> Parser::ParseComparison() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr first, ParsePredicate());
  CmpOp op;
  if (!TokenToCmpOp(Peek().kind, &op)) return first;
  std::vector<ExprPtr> operands;
  std::vector<CmpOp> ops;
  operands.push_back(std::move(first));
  while (TokenToCmpOp(Peek().kind, &op)) {
    Advance();
    SERAPH_ASSIGN_OR_RETURN(ExprPtr next, ParsePredicate());
    operands.push_back(std::move(next));
    ops.push_back(op);
  }
  return std::make_unique<ComparisonExpr>(std::move(operands), std::move(ops));
}

Result<ExprPtr> Parser::ParsePredicate() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAddSub());
  while (true) {
    // One right-hand side parse serves every binary predicate, which keeps
    // this frame (paid at every nesting level) small.
    std::optional<BinaryOp> op;
    if (ConsumeKeyword("IN")) {
      op = BinaryOp::kIn;
    } else if (PeekIsKeyword("STARTS") && PeekIsKeyword("WITH", 1)) {
      Advance();
      Advance();
      op = BinaryOp::kStartsWith;
    } else if (PeekIsKeyword("ENDS") && PeekIsKeyword("WITH", 1)) {
      Advance();
      Advance();
      op = BinaryOp::kEndsWith;
    } else if (PeekIsKeyword("CONTAINS")) {
      Advance();
      op = BinaryOp::kContains;
    }
    if (op.has_value()) {
      SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAddSub());
      lhs = std::make_unique<BinaryExpr>(*op, std::move(lhs), std::move(rhs));
      continue;
    }
    if (PeekIsKeyword("IS")) {
      if (PeekIsKeyword("NULL", 1)) {
        Advance();
        Advance();
        lhs = std::make_unique<IsNullExpr>(std::move(lhs), false);
        continue;
      }
      if (PeekIsKeyword("NOT", 1) && PeekIsKeyword("NULL", 2)) {
        Advance();
        Advance();
        Advance();
        lhs = std::make_unique<IsNullExpr>(std::move(lhs), true);
        continue;
      }
    }
    return lhs;
  }
}

Result<ExprPtr> Parser::ParseAddSub() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMulDiv());
  while (true) {
    BinaryOp op;
    if (Consume(TokenKind::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Consume(TokenKind::kMinus)) {
      op = BinaryOp::kSubtract;
    } else {
      return lhs;
    }
    SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMulDiv());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParseMulDiv() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePower());
  while (true) {
    BinaryOp op;
    if (Consume(TokenKind::kStar)) {
      op = BinaryOp::kMultiply;
    } else if (Consume(TokenKind::kSlash)) {
      op = BinaryOp::kDivide;
    } else if (Consume(TokenKind::kPercent)) {
      op = BinaryOp::kModulo;
    } else {
      return lhs;
    }
    SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePower());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParsePower() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  if (!Consume(TokenKind::kCaret)) return lhs;
  // Right-associative.
  Nesting level(&expr_depth_);
  SERAPH_RETURN_IF_ERROR(level.status());
  SERAPH_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePower());
  return std::make_unique<BinaryExpr>(BinaryOp::kPower, std::move(lhs),
                                      std::move(rhs));
}

Result<ExprPtr> Parser::ParseUnary() {
  UnaryOp op;
  if (Consume(TokenKind::kMinus)) {
    op = UnaryOp::kNegate;
    // -9223372036854775808 is INT64_MIN; its magnitude alone is not an
    // int64 (ParseAtom rejects it).
    if (Peek().kind == TokenKind::kInteger &&
        Peek().int_value == std::numeric_limits<int64_t>::min() &&
        Peek(1).kind != TokenKind::kDot &&
        Peek(1).kind != TokenKind::kLBracket) {
      Advance();
      return std::make_unique<LiteralExpr>(
          Value::Int(std::numeric_limits<int64_t>::min()));
    }
  } else if (Consume(TokenKind::kPlus)) {
    op = UnaryOp::kPlus;
  } else {
    return ParsePostfix();
  }
  Nesting level(&expr_depth_);
  SERAPH_RETURN_IF_ERROR(level.status());
  SERAPH_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
  return std::make_unique<UnaryExpr>(op, std::move(operand));
}

Result<ExprPtr> Parser::ParsePostfix() {
  SERAPH_ASSIGN_OR_RETURN(ExprPtr expr, ParseAtom());
  while (true) {
    if (Peek().kind == TokenKind::kDot) {
      Advance();
      SERAPH_ASSIGN_OR_RETURN(std::string key,
                              ParseIdentifier("property name"));
      expr = std::make_unique<PropertyExpr>(std::move(expr), std::move(key));
      continue;
    }
    if (Peek().kind == TokenKind::kLBracket) {
      Advance();
      SERAPH_ASSIGN_OR_RETURN(ExprPtr index, ParseExpression());
      SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      expr = std::make_unique<IndexExpr>(std::move(expr), std::move(index));
      continue;
    }
    return expr;
  }
}

Result<ExprPtr> Parser::ParseAtom() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInteger: {
      int64_t v = t.int_value;
      if (v < 0) {
        return ErrorHere("integer literal " + t.text + " is out of range");
      }
      Advance();
      return std::make_unique<LiteralExpr>(Value::Int(v));
    }
    case TokenKind::kFloat: {
      double v = t.float_value;
      Advance();
      return std::make_unique<LiteralExpr>(Value::Float(v));
    }
    case TokenKind::kString: {
      std::string v = t.text;
      Advance();
      return std::make_unique<LiteralExpr>(Value::String(std::move(v)));
    }
    case TokenKind::kParameter: {
      std::string name = t.text;
      Advance();
      return std::make_unique<ParameterExpr>(std::move(name));
    }
    case TokenKind::kLParen: {
      Advance();
      SERAPH_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
      SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    case TokenKind::kLBracket:
    case TokenKind::kLBrace: {
      // A list or map level costs up to twice a parenthesised level's
      // stack, so it takes a second nesting level.
      Nesting level(&expr_depth_);
      SERAPH_RETURN_IF_ERROR(level.status());
      if (t.kind == TokenKind::kLBracket) return ParseListAtom();
      SERAPH_ASSIGN_OR_RETURN(auto entries, ParsePropertyMap());
      return std::make_unique<MapExpr>(std::move(entries));
    }
    case TokenKind::kIdentifier:
      return ParseNamedAtom();
    default:
      return ErrorHere("expected expression");
  }
}

Result<ExprPtr> Parser::ParseNamedAtom() {
  // Calls, CASE, quantifiers, reduce and exists() cost up to twice a
  // parenthesised level's stack, so a named atom takes a second level.
  Nesting level(&expr_depth_);
  SERAPH_RETURN_IF_ERROR(level.status());
  const Token& t = Peek();
  if (PeekIsKeyword("true")) {
    Advance();
    return std::make_unique<LiteralExpr>(Value::Bool(true));
  }
  if (PeekIsKeyword("false")) {
    Advance();
    return std::make_unique<LiteralExpr>(Value::Bool(false));
  }
  if (PeekIsKeyword("null")) {
    Advance();
    return std::make_unique<LiteralExpr>(Value::Null());
  }
  if (PeekIsKeyword("CASE")) {
    Advance();
    return ParseCase();
  }
  // Quantified predicates: ALL/ANY/NONE/SINGLE '(' var IN list WHERE pred ')'.
  for (const auto& [kw, quant] :
       {std::pair<const char*, Quantifier>{"ALL", Quantifier::kAll},
        {"ANY", Quantifier::kAny},
        {"NONE", Quantifier::kNone},
        {"SINGLE", Quantifier::kSingle}}) {
    if (PeekIsKeyword(kw) && Peek(1).kind == TokenKind::kLParen) {
      Advance();
      Advance();
      SERAPH_ASSIGN_OR_RETURN(std::string var, ParseIdentifier("variable"));
      SERAPH_RETURN_IF_ERROR(ExpectKeyword("IN"));
      SERAPH_ASSIGN_OR_RETURN(ExprPtr list, ParseExpression());
      SERAPH_RETURN_IF_ERROR(ExpectKeyword("WHERE"));
      SERAPH_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpression());
      SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return std::make_unique<QuantifierExpr>(quant, std::move(var),
                                              std::move(list),
                                              std::move(pred));
    }
  }
  // exists((a)-[:R]->(b)) — a '(' right after exists( signals a pattern
  // predicate rather than a value argument.
  if (PeekIsKeyword("exists") && Peek(1).kind == TokenKind::kLParen &&
      Peek(2).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    SERAPH_ASSIGN_OR_RETURN(PathPattern pattern, ParsePathPattern());
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    if (!pattern.path_variable.empty()) {
      return ErrorHere("exists() patterns cannot bind a path variable");
    }
    return std::make_unique<ExistsPatternExpr>(std::move(pattern));
  }
  // reduce(acc = init, x IN list | body).
  if (PeekIsKeyword("reduce") && Peek(1).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    SERAPH_ASSIGN_OR_RETURN(std::string acc, ParseIdentifier("accumulator"));
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kEq));
    SERAPH_ASSIGN_OR_RETURN(ExprPtr init, ParseExpression());
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    SERAPH_ASSIGN_OR_RETURN(std::string var, ParseIdentifier("variable"));
    SERAPH_RETURN_IF_ERROR(ExpectKeyword("IN"));
    SERAPH_ASSIGN_OR_RETURN(ExprPtr list, ParseExpression());
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kPipe));
    SERAPH_ASSIGN_OR_RETURN(ExprPtr body, ParseExpression());
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return std::make_unique<ReduceExpr>(std::move(acc), std::move(init),
                                        std::move(var), std::move(list),
                                        std::move(body));
  }
  // Function call or plain variable.
  std::string name = t.text;
  if (Peek(1).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    return ParseFunctionCall(std::move(name));
  }
  Advance();
  return std::make_unique<VariableExpr>(std::move(name));
}

Result<ExprPtr> Parser::ParseFunctionCall(std::string name) {
  // '(' already consumed.
  bool count_star = false;
  bool distinct = false;
  std::vector<ExprPtr> args;
  if (Peek().kind == TokenKind::kStar &&
      EqualsIgnoreCase(name, "count")) {
    Advance();
    count_star = true;
  } else {
    distinct = ConsumeKeyword("DISTINCT");
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        SERAPH_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
        args.push_back(std::move(arg));
        if (!Consume(TokenKind::kComma)) break;
      }
    }
  }
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  std::string lower;
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (!IsAggregateFunction(lower) && !IsScalarFunction(lower)) {
    return Status::ParseError("unknown function '" + name + "'");
  }
  return std::make_unique<FunctionCallExpr>(std::move(name), std::move(args),
                                            distinct, count_star);
}

Result<ExprPtr> Parser::ParseCase() {
  ExprPtr subject;
  if (!PeekIsKeyword("WHEN")) {
    SERAPH_ASSIGN_OR_RETURN(subject, ParseExpression());
  }
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  while (ConsumeKeyword("WHEN")) {
    SERAPH_ASSIGN_OR_RETURN(ExprPtr when, ParseExpression());
    SERAPH_RETURN_IF_ERROR(ExpectKeyword("THEN"));
    SERAPH_ASSIGN_OR_RETURN(ExprPtr then, ParseExpression());
    branches.emplace_back(std::move(when), std::move(then));
  }
  if (branches.empty()) {
    return ErrorHere("CASE requires at least one WHEN branch");
  }
  ExprPtr else_value;
  if (ConsumeKeyword("ELSE")) {
    SERAPH_ASSIGN_OR_RETURN(else_value, ParseExpression());
  }
  SERAPH_RETURN_IF_ERROR(ExpectKeyword("END"));
  return std::make_unique<CaseExpr>(std::move(subject), std::move(branches),
                                    std::move(else_value));
}

Result<ExprPtr> Parser::ParseListAtom() {
  // '[' — either a list literal or a list comprehension
  // [x IN list WHERE p | proj].
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
  if (Peek().kind == TokenKind::kIdentifier && PeekIsKeyword("IN", 1)) {
    std::string var = Peek().text;
    Advance();
    Advance();
    SERAPH_ASSIGN_OR_RETURN(ExprPtr list, ParseExpression());
    ExprPtr where;
    if (ConsumeKeyword("WHERE")) {
      SERAPH_ASSIGN_OR_RETURN(where, ParseExpression());
    }
    ExprPtr projection;
    if (Consume(TokenKind::kPipe)) {
      SERAPH_ASSIGN_OR_RETURN(projection, ParseExpression());
    }
    SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    return std::make_unique<ListComprehensionExpr>(
        std::move(var), std::move(list), std::move(where),
        std::move(projection));
  }
  std::vector<ExprPtr> items;
  if (Peek().kind != TokenKind::kRBracket) {
    while (true) {
      SERAPH_ASSIGN_OR_RETURN(ExprPtr item, ParseExpression());
      items.push_back(std::move(item));
      if (!Consume(TokenKind::kComma)) break;
    }
  }
  SERAPH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
  return std::make_unique<ListExpr>(std::move(items));
}

// ---------------------------------------------------------------------------
// Convenience wrappers
// ---------------------------------------------------------------------------

Result<Query> ParseCypherQuery(std::string_view text) {
  SERAPH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<ExprPtr> ParseCypherExpression(std::string_view text) {
  SERAPH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace seraph
