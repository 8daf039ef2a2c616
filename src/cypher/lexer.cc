#include "cypher/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace seraph {

namespace {

// Cursor over the input with line/column tracking.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

Status LexError(const Cursor& cur, const std::string& what) {
  return Status::ParseError(what + " at line " + std::to_string(cur.line()) +
                            ", column " + std::to_string(cur.column()));
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  Cursor cur(text);
  auto push = [&tokens, &cur](TokenKind kind, std::string tok_text = "") {
    Token t;
    t.kind = kind;
    t.text = std::move(tok_text);
    t.line = cur.line();
    t.column = cur.column();
    tokens.push_back(std::move(t));
  };

  while (!cur.AtEnd()) {
    char c = cur.Peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.Advance();
      continue;
    }
    // Comments.
    if (c == '/' && cur.Peek(1) == '/') {
      while (!cur.AtEnd() && cur.Peek() != '\n') cur.Advance();
      continue;
    }
    if (c == '/' && cur.Peek(1) == '*') {
      cur.Advance();
      cur.Advance();
      while (!cur.AtEnd() && !(cur.Peek() == '*' && cur.Peek(1) == '/')) {
        cur.Advance();
      }
      if (cur.AtEnd()) return LexError(cur, "unterminated block comment");
      cur.Advance();
      cur.Advance();
      continue;
    }
    // Identifiers / keywords.
    if (IsIdentStart(c)) {
      int line = cur.line(), col = cur.column();
      std::string ident;
      while (!cur.AtEnd() && IsIdentChar(cur.Peek())) ident += cur.Advance();
      Token t;
      t.kind = TokenKind::kIdentifier;
      t.text = std::move(ident);
      t.line = line;
      t.column = col;
      tokens.push_back(std::move(t));
      continue;
    }
    // Backquoted identifiers (`E-Bike`).
    if (c == '`') {
      int line = cur.line(), col = cur.column();
      cur.Advance();
      std::string ident;
      while (!cur.AtEnd() && cur.Peek() != '`') ident += cur.Advance();
      if (cur.AtEnd()) return LexError(cur, "unterminated backquoted name");
      cur.Advance();
      Token t;
      t.kind = TokenKind::kIdentifier;
      t.text = std::move(ident);
      t.line = line;
      t.column = col;
      tokens.push_back(std::move(t));
      continue;
    }
    // Numbers: 123, 1.5, .5, 1e3. A lone '.' not followed by a digit is
    // punctuation; ".." is a range.
    if (IsDigit(c) || (c == '.' && IsDigit(cur.Peek(1)))) {
      int line = cur.line(), col = cur.column();
      std::string num;
      bool is_float = false;
      while (!cur.AtEnd() && IsDigit(cur.Peek())) num += cur.Advance();
      if (cur.Peek() == '.' && IsDigit(cur.Peek(1))) {
        is_float = true;
        num += cur.Advance();
        while (!cur.AtEnd() && IsDigit(cur.Peek())) num += cur.Advance();
      }
      if (cur.Peek() == 'e' || cur.Peek() == 'E') {
        char sign = cur.Peek(1);
        if (IsDigit(sign) ||
            ((sign == '+' || sign == '-') && IsDigit(cur.Peek(2)))) {
          is_float = true;
          num += cur.Advance();
          if (cur.Peek() == '+' || cur.Peek() == '-') num += cur.Advance();
          while (!cur.AtEnd() && IsDigit(cur.Peek())) num += cur.Advance();
        }
      }
      Token t;
      t.line = line;
      t.column = col;
      t.text = num;
      if (is_float) {
        t.kind = TokenKind::kFloat;
        t.float_value = std::strtod(num.c_str(), nullptr);
      } else {
        t.kind = TokenKind::kInteger;
        // An int64 literal, or 9223372036854775808 right after a minus:
        // the parser negates that one to INT64_MIN, the only integer token
        // with a negative value.
        uint64_t magnitude = 0;
        const char* end = num.data() + num.size();
        const auto parsed = std::from_chars(num.data(), end, magnitude);
        const uint64_t min_magnitude = uint64_t{1} << 63;
        const bool after_minus =
            !tokens.empty() && tokens.back().kind == TokenKind::kMinus;
        if (parsed.ec != std::errc() || magnitude > min_magnitude ||
            (magnitude == min_magnitude && !after_minus)) {
          return Status::ParseError("integer literal " + num +
                                    " is out of range at line " +
                                    std::to_string(line) + ", column " +
                                    std::to_string(col));
        }
        t.int_value = magnitude == min_magnitude
                          ? std::numeric_limits<int64_t>::min()
                          : static_cast<int64_t>(magnitude);
      }
      tokens.push_back(std::move(t));
      continue;
    }
    // Strings.
    if (c == '\'' || c == '"') {
      int line = cur.line(), col = cur.column();
      char quote = cur.Advance();
      std::string value;
      while (!cur.AtEnd() && cur.Peek() != quote) {
        char ch = cur.Advance();
        if (ch == '\\' && !cur.AtEnd()) {
          char esc = cur.Advance();
          switch (esc) {
            case 'n':
              value += '\n';
              break;
            case 't':
              value += '\t';
              break;
            case 'r':
              value += '\r';
              break;
            case '\\':
            case '\'':
            case '"':
              value += esc;
              break;
            default:
              value += esc;
          }
        } else {
          value += ch;
        }
      }
      if (cur.AtEnd()) return LexError(cur, "unterminated string literal");
      cur.Advance();
      Token t;
      t.kind = TokenKind::kString;
      t.text = std::move(value);
      t.line = line;
      t.column = col;
      tokens.push_back(std::move(t));
      continue;
    }
    // Parameters.
    if (c == '$') {
      int line = cur.line(), col = cur.column();
      cur.Advance();
      if (!IsIdentStart(cur.Peek())) {
        return LexError(cur, "expected parameter name after '$'");
      }
      std::string name;
      while (!cur.AtEnd() && IsIdentChar(cur.Peek())) name += cur.Advance();
      Token t;
      t.kind = TokenKind::kParameter;
      t.text = std::move(name);
      t.line = line;
      t.column = col;
      tokens.push_back(std::move(t));
      continue;
    }
    // Punctuation and operators (longest match first).
    switch (c) {
      case '(':
        cur.Advance();
        push(TokenKind::kLParen, "(");
        continue;
      case ')':
        cur.Advance();
        push(TokenKind::kRParen, ")");
        continue;
      case '[':
        cur.Advance();
        push(TokenKind::kLBracket, "[");
        continue;
      case ']':
        cur.Advance();
        push(TokenKind::kRBracket, "]");
        continue;
      case '{':
        cur.Advance();
        push(TokenKind::kLBrace, "{");
        continue;
      case '}':
        cur.Advance();
        push(TokenKind::kRBrace, "}");
        continue;
      case ',':
        cur.Advance();
        push(TokenKind::kComma, ",");
        continue;
      case ':':
        cur.Advance();
        push(TokenKind::kColon, ":");
        continue;
      case ';':
        cur.Advance();
        push(TokenKind::kSemicolon, ";");
        continue;
      case '.':
        cur.Advance();
        if (cur.Peek() == '.') {
          cur.Advance();
          push(TokenKind::kDotDot, "..");
        } else {
          push(TokenKind::kDot, ".");
        }
        continue;
      case '+':
        cur.Advance();
        push(TokenKind::kPlus, "+");
        continue;
      case '-':
        cur.Advance();
        push(TokenKind::kMinus, "-");
        continue;
      case '*':
        cur.Advance();
        push(TokenKind::kStar, "*");
        continue;
      case '/':
        cur.Advance();
        push(TokenKind::kSlash, "/");
        continue;
      case '%':
        cur.Advance();
        push(TokenKind::kPercent, "%");
        continue;
      case '^':
        cur.Advance();
        push(TokenKind::kCaret, "^");
        continue;
      case '=':
        cur.Advance();
        push(TokenKind::kEq, "=");
        continue;
      case '<':
        cur.Advance();
        if (cur.Peek() == '=') {
          cur.Advance();
          push(TokenKind::kLe, "<=");
        } else if (cur.Peek() == '>') {
          cur.Advance();
          push(TokenKind::kNeq, "<>");
        } else {
          push(TokenKind::kLt, "<");
        }
        continue;
      case '>':
        cur.Advance();
        if (cur.Peek() == '=') {
          cur.Advance();
          push(TokenKind::kGe, ">=");
        } else {
          push(TokenKind::kGt, ">");
        }
        continue;
      case '|':
        cur.Advance();
        push(TokenKind::kPipe, "|");
        continue;
      default:
        return LexError(cur, std::string("unexpected character '") + c + "'");
    }
  }
  push(TokenKind::kEnd);
  return tokens;
}

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kInteger:
      return "integer literal";
    case TokenKind::kFloat:
      return "float literal";
    case TokenKind::kString:
      return "string literal";
    case TokenKind::kParameter:
      return "parameter";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kDotDot:
      return "'..'";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kPercent:
      return "'%'";
    case TokenKind::kCaret:
      return "'^'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNeq:
      return "'<>'";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPipe:
      return "'|'";
  }
  return "unknown";
}

}  // namespace seraph
