#include "value/value.h"

#include <sstream>

#include "common/hash.h"
#include "common/logging.h"

namespace seraph {

namespace {

// Rank used by Value::Compare to order values of different kinds.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kList:
      return 0;
    case ValueKind::kMap:
      return 1;
    case ValueKind::kNode:
      return 2;
    case ValueKind::kRelationship:
      return 3;
    case ValueKind::kPath:
      return 4;
    case ValueKind::kString:
      return 5;
    case ValueKind::kBool:
      return 6;
    case ValueKind::kInt:
    case ValueKind::kFloat:
      return 7;
    case ValueKind::kDateTime:
      return 8;
    case ValueKind::kDuration:
      return 9;
    case ValueKind::kNull:
      return 10;  // null sorts last.
  }
  return 11;
}

// Three-way comparison without subtracting (a - b overflows at the int64
// extremes).
int Compare3(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

int CompareDouble(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

void AppendQuoted(const std::string& s, std::string* out) {
  out->push_back('\'');
  for (char c : s) {
    if (c == '\'' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('\'');
}

// Renders `v`; `nested` selects the quoted-string form used inside
// containers.
void ToStringImpl(const Value& v, bool nested, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      *out += "null";
      return;
    case ValueKind::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case ValueKind::kInt:
      *out += std::to_string(v.AsInt());
      return;
    case ValueKind::kFloat: {
      std::ostringstream os;
      os << v.AsFloat();
      std::string s = os.str();
      // Keep floats visually distinct from ints.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      *out += s;
      return;
    }
    case ValueKind::kString:
      if (nested) {
        AppendQuoted(v.AsString(), out);
      } else {
        *out += v.AsString();
      }
      return;
    case ValueKind::kList: {
      *out += '[';
      const auto& items = v.AsList();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) *out += ", ";
        ToStringImpl(items[i], /*nested=*/true, out);
      }
      *out += ']';
      return;
    }
    case ValueKind::kMap: {
      *out += '{';
      bool first = true;
      for (const auto& [key, val] : v.AsMap()) {
        if (!first) *out += ", ";
        first = false;
        *out += key;
        *out += ": ";
        ToStringImpl(val, /*nested=*/true, out);
      }
      *out += '}';
      return;
    }
    case ValueKind::kDateTime:
      *out += v.AsDateTime().ToString();
      return;
    case ValueKind::kDuration:
      *out += v.AsDuration().ToString();
      return;
    case ValueKind::kNode:
      *out += "(#" + std::to_string(v.AsNode().value) + ")";
      return;
    case ValueKind::kRelationship:
      *out += "[#" + std::to_string(v.AsRelationship().value) + "]";
      return;
    case ValueKind::kPath: {
      const PathValue& p = v.AsPath();
      *out += "<path";
      for (size_t i = 0; i < p.nodes.size(); ++i) {
        *out += (i == 0 ? " (" : "-(");
        *out += std::to_string(p.nodes[i].value);
        *out += ')';
      }
      *out += '>';
      return;
    }
  }
}

}  // namespace

const char* ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return "BOOLEAN";
    case ValueKind::kInt:
      return "INTEGER";
    case ValueKind::kFloat:
      return "FLOAT";
    case ValueKind::kString:
      return "STRING";
    case ValueKind::kList:
      return "LIST";
    case ValueKind::kMap:
      return "MAP";
    case ValueKind::kDateTime:
      return "DATETIME";
    case ValueKind::kDuration:
      return "DURATION";
    case ValueKind::kNode:
      return "NODE";
    case ValueKind::kRelationship:
      return "RELATIONSHIP";
    case ValueKind::kPath:
      return "PATH";
  }
  return "UNKNOWN";
}

ValueKind Value::kind() const {
  switch (rep_.index()) {
    case 0:
      return ValueKind::kNull;
    case 1:
      return ValueKind::kBool;
    case 2:
      return ValueKind::kInt;
    case 3:
      return ValueKind::kFloat;
    case 4:
      return ValueKind::kString;
    case 5:
      return ValueKind::kList;
    case 6:
      return ValueKind::kMap;
    case 7:
      return ValueKind::kDateTime;
    case 8:
      return ValueKind::kDuration;
    case 9:
      return ValueKind::kNode;
    case 10:
      return ValueKind::kRelationship;
    case 11:
      return ValueKind::kPath;
  }
  SERAPH_CHECK(false) << "corrupt Value representation";
  return ValueKind::kNull;
}

bool Value::AsBool() const {
  SERAPH_CHECK(is_bool()) << "Value is " << ValueKindToString(kind());
  return std::get<bool>(rep_);
}

int64_t Value::AsInt() const {
  SERAPH_CHECK(is_int()) << "Value is " << ValueKindToString(kind());
  return std::get<int64_t>(rep_);
}

double Value::AsFloat() const {
  SERAPH_CHECK(is_float()) << "Value is " << ValueKindToString(kind());
  return std::get<double>(rep_);
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(rep_));
  SERAPH_CHECK(is_float()) << "Value is " << ValueKindToString(kind());
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  SERAPH_CHECK(is_string()) << "Value is " << ValueKindToString(kind());
  return std::get<std::string>(rep_);
}

const Value::List& Value::AsList() const {
  SERAPH_CHECK(is_list()) << "Value is " << ValueKindToString(kind());
  return std::get<List>(rep_);
}

const Value::Map& Value::AsMap() const {
  SERAPH_CHECK(is_map()) << "Value is " << ValueKindToString(kind());
  return std::get<Map>(rep_);
}

Timestamp Value::AsDateTime() const {
  SERAPH_CHECK(is_datetime()) << "Value is " << ValueKindToString(kind());
  return std::get<Timestamp>(rep_);
}

Duration Value::AsDuration() const {
  SERAPH_CHECK(is_duration()) << "Value is " << ValueKindToString(kind());
  return std::get<Duration>(rep_);
}

NodeId Value::AsNode() const {
  SERAPH_CHECK(is_node()) << "Value is " << ValueKindToString(kind());
  return std::get<NodeId>(rep_);
}

RelId Value::AsRelationship() const {
  SERAPH_CHECK(is_relationship()) << "Value is " << ValueKindToString(kind());
  return std::get<RelId>(rep_);
}

const PathValue& Value::AsPath() const {
  SERAPH_CHECK(is_path()) << "Value is " << ValueKindToString(kind());
  return *std::get<std::shared_ptr<const PathValue>>(rep_);
}

bool operator==(const Value& a, const Value& b) {
  // Numbers compare numerically across int/float.
  if (a.is_number() && b.is_number()) {
    if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
    return a.AsNumber() == b.AsNumber();
  }
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return a.AsBool() == b.AsBool();
    case ValueKind::kInt:
    case ValueKind::kFloat:
      return false;  // Handled above.
    case ValueKind::kString:
      return a.AsString() == b.AsString();
    case ValueKind::kList:
      return a.AsList() == b.AsList();
    case ValueKind::kMap:
      return a.AsMap() == b.AsMap();
    case ValueKind::kDateTime:
      return a.AsDateTime() == b.AsDateTime();
    case ValueKind::kDuration:
      return a.AsDuration() == b.AsDuration();
    case ValueKind::kNode:
      return a.AsNode() == b.AsNode();
    case ValueKind::kRelationship:
      return a.AsRelationship() == b.AsRelationship();
    case ValueKind::kPath:
      return a.AsPath() == b.AsPath();
  }
  return false;
}

int Value::Compare(const Value& a, const Value& b) {
  ValueKind ak = a.kind();
  ValueKind bk = b.kind();
  bool both_numbers = a.is_number() && b.is_number();
  if (!both_numbers) {
    int ra = KindRank(ak);
    int rb = KindRank(bk);
    if (ra != rb) return ra < rb ? -1 : 1;
  }
  switch (ak) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      // false < true.
      int av = a.AsBool() ? 1 : 0;
      int bv = b.AsBool() ? 1 : 0;
      return av - bv;
    }
    case ValueKind::kInt:
    case ValueKind::kFloat: {
      if (a.is_int() && b.is_int()) return Compare3(a.AsInt(), b.AsInt());
      return CompareDouble(a.AsNumber(), b.AsNumber());
    }
    case ValueKind::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
    case ValueKind::kList: {
      const auto& la = a.AsList();
      const auto& lb = b.AsList();
      size_t n = std::min(la.size(), lb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(la[i], lb[i]);
        if (c != 0) return c;
      }
      return Compare3(static_cast<int64_t>(la.size()),
                      static_cast<int64_t>(lb.size()));
    }
    case ValueKind::kMap: {
      const auto& ma = a.AsMap();
      const auto& mb = b.AsMap();
      auto ia = ma.begin();
      auto ib = mb.begin();
      for (; ia != ma.end() && ib != mb.end(); ++ia, ++ib) {
        int kc = ia->first.compare(ib->first);
        if (kc != 0) return kc < 0 ? -1 : 1;
        int vc = Compare(ia->second, ib->second);
        if (vc != 0) return vc;
      }
      return Compare3(static_cast<int64_t>(ma.size()),
                      static_cast<int64_t>(mb.size()));
    }
    case ValueKind::kDateTime:
      return Compare3(a.AsDateTime().millis(), b.AsDateTime().millis());
    case ValueKind::kDuration:
      return Compare3(a.AsDuration().millis(), b.AsDuration().millis());
    case ValueKind::kNode:
      return Compare3(a.AsNode().value, b.AsNode().value);
    case ValueKind::kRelationship:
      return Compare3(a.AsRelationship().value, b.AsRelationship().value);
    case ValueKind::kPath: {
      const PathValue& pa = a.AsPath();
      const PathValue& pb = b.AsPath();
      if (pa.nodes != pb.nodes) return pa.nodes < pb.nodes ? -1 : 1;
      if (pa.rels != pb.rels) return pa.rels < pb.rels ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(kind());
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      HashCombine(&seed, AsBool());
      break;
    case ValueKind::kInt:
      // Ints and numerically-equal floats must hash alike (they compare
      // equal); hash the double representation.
      seed = static_cast<size_t>(ValueKind::kFloat);
      HashCombine(&seed, static_cast<double>(AsInt()));
      break;
    case ValueKind::kFloat:
      HashCombine(&seed, AsFloat());
      break;
    case ValueKind::kString:
      HashCombine(&seed, AsString());
      break;
    case ValueKind::kList:
      for (const Value& v : AsList()) HashCombine(&seed, v.Hash());
      break;
    case ValueKind::kMap:
      for (const auto& [key, val] : AsMap()) {
        HashCombine(&seed, key);
        HashCombine(&seed, val.Hash());
      }
      break;
    case ValueKind::kDateTime:
      HashCombine(&seed, AsDateTime().millis());
      break;
    case ValueKind::kDuration:
      HashCombine(&seed, AsDuration().millis());
      break;
    case ValueKind::kNode:
      HashCombine(&seed, AsNode().value);
      break;
    case ValueKind::kRelationship:
      HashCombine(&seed, AsRelationship().value);
      break;
    case ValueKind::kPath: {
      const PathValue& p = AsPath();
      for (NodeId n : p.nodes) HashCombine(&seed, n.value);
      for (RelId r : p.rels) HashCombine(&seed, r.value);
      break;
    }
  }
  return seed;
}

std::string Value::ToString() const {
  std::string out;
  ToStringImpl(*this, /*nested=*/false, &out);
  return out;
}

}  // namespace seraph
