#include "io/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace seraph {
namespace io {

void AppendJsonValue(const Value& value, std::string* out) {
  switch (value.kind()) {
    case ValueKind::kNull:
      *out += "null";
      return;
    case ValueKind::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case ValueKind::kInt:
      *out += std::to_string(value.AsInt());
      return;
    case ValueKind::kFloat: {
      double d = value.AsFloat();
      if (!std::isfinite(d)) {
        *out += "null";
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      *out += buf;
      return;
    }
    case ValueKind::kString:
      AppendJsonString(value.AsString(), out);
      return;
    case ValueKind::kList: {
      out->push_back('[');
      bool first = true;
      for (const Value& item : value.AsList()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonValue(item, out);
      }
      out->push_back(']');
      return;
    }
    case ValueKind::kMap: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.AsMap()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(key, out);
        out->push_back(':');
        AppendJsonValue(item, out);
      }
      out->push_back('}');
      return;
    }
    case ValueKind::kDateTime:
      AppendJsonString(value.AsDateTime().ToString(), out);
      return;
    case ValueKind::kDuration:
      AppendJsonString(value.AsDuration().ToString(), out);
      return;
    case ValueKind::kNode:
      *out += "{\"$node\":" + std::to_string(value.AsNode().value) + "}";
      return;
    case ValueKind::kRelationship:
      *out += "{\"$rel\":" + std::to_string(value.AsRelationship().value) +
              "}";
      return;
    case ValueKind::kPath: {
      const PathValue& path = value.AsPath();
      *out += "{\"$path\":{\"nodes\":[";
      for (size_t i = 0; i < path.nodes.size(); ++i) {
        if (i > 0) out->push_back(',');
        *out += std::to_string(path.nodes[i].value);
      }
      *out += "],\"rels\":[";
      for (size_t i = 0; i < path.rels.size(); ++i) {
        if (i > 0) out->push_back(',');
        *out += std::to_string(path.rels[i].value);
      }
      *out += "]}}";
      return;
    }
  }
}

std::string ToJson(const Value& value) {
  std::string out;
  AppendJsonValue(value, &out);
  return out;
}

std::string ToJson(const Record& record) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : record) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    AppendJsonValue(value, &out);
  }
  out.push_back('}');
  return out;
}

std::string ToJson(const Table& table) {
  std::string out = "[";
  bool first = true;
  for (const Record& row : table.rows()) {
    if (!first) out.push_back(',');
    first = false;
    out += ToJson(row);
  }
  out.push_back(']');
  return out;
}

std::string ToJson(const TimeAnnotatedTable& table) {
  std::string out = "{\"win_start\":";
  AppendJsonString(table.window.start.ToString(), &out);
  out += ",\"win_end\":";
  AppendJsonString(table.window.end.ToString(), &out);
  out += ",\"rows\":" + ToJson(table.table) + "}";
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

// Recursive-descent parser over the RFC 8259 grammar, producing Values.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SERAPH_ASSIGN_OR_RETURN(Value value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("json: " + what + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<Value> ParseValue() {
    SkipWhitespace();
    if (pos_ == text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        return Value::Null();
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        return Value::Bool(true);
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        return Value::Bool(false);
      case '"': {
        SERAPH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value::String(std::move(s));
      }
      case '[':
        return ParseArray();
      case '{':
        return ParseObject();
      default:
        return ParseNumber();
    }
  }

  Result<std::string> ParseString() {
    if (text_[pos_] != '"') return Error("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        switch (text_[pos_]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            SERAPH_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            // Combine a surrogate pair when one follows.
            if (cp >= 0xD800 && cp <= 0xDBFF &&
                text_.substr(pos_ + 1, 2) == "\\u") {
              size_t saved = pos_;
              pos_ += 2;
              SERAPH_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                pos_ = saved;  // Lone surrogate: encode as-is.
              }
            }
            AppendUtf8(cp, &out);
            break;
          }
          default:
            return Error("bad escape character");
        }
        ++pos_;
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
  }

  // Parses the 4 hex digits after "\u"; leaves pos_ on the last digit.
  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 >= text_.size()) return Error("truncated \\u escape");
    uint32_t cp = 0;
    for (int i = 1; i <= 4; ++i) {
      char h = text_[pos_ + i];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
      else return Error("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return cp;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_float = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_float = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected value");
    std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (!is_float) {
      long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value::Int(static_cast<int64_t>(i));
      }
      // Out-of-range integers degrade to float below.
    }
    errno = 0;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Error("malformed number");
    }
    return Value::Float(d);
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Value::List items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Value::MakeList(std::move(items));
    }
    while (true) {
      SERAPH_ASSIGN_OR_RETURN(Value item, ParseValue());
      items.push_back(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Value::MakeList(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    Value::Map entries;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return DecodeObject(std::move(entries));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      SERAPH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SERAPH_ASSIGN_OR_RETURN(Value value, ParseValue());
      entries.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return DecodeObject(std::move(entries));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  // Inverts the entity-reference encodings; any other object stays a map.
  static Result<Value> DecodeObject(Value::Map entries) {
    if (entries.size() == 1) {
      const auto& [key, value] = *entries.begin();
      if (key == "$node" && value.is_int()) {
        return Value::Node(NodeId{value.AsInt()});
      }
      if (key == "$rel" && value.is_int()) {
        return Value::Relationship(RelId{value.AsInt()});
      }
      if (key == "$path" && value.is_map()) {
        const Value::Map& body = value.AsMap();
        auto nodes_it = body.find("nodes");
        auto rels_it = body.find("rels");
        if (nodes_it != body.end() && rels_it != body.end() &&
            nodes_it->second.is_list() && rels_it->second.is_list()) {
          PathValue path;
          for (const Value& node : nodes_it->second.AsList()) {
            if (!node.is_int()) {
              return Status::ParseError("json: $path node id is not an int");
            }
            path.nodes.push_back(NodeId{node.AsInt()});
          }
          for (const Value& rel : rels_it->second.AsList()) {
            if (!rel.is_int()) {
              return Status::ParseError("json: $path rel id is not an int");
            }
            path.rels.push_back(RelId{rel.AsInt()});
          }
          return Value::Path(std::move(path));
        }
      }
    }
    return Value::MakeMap(std::move(entries));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

}  // namespace io
}  // namespace seraph
