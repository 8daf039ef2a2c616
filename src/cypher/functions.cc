#include "cypher/functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "cypher/eval.h"
#include "graph/property_graph.h"

namespace seraph {

namespace {

Status Arity(const std::string& name, const std::vector<Value>& args,
             size_t expected) {
  if (args.size() != expected) {
    return Status::EvaluationError(
        name + "() expects " + std::to_string(expected) + " argument(s), got " +
        std::to_string(args.size()));
  }
  return Status::OK();
}

Status TypeError(const std::string& name, const Value& got,
                 const char* expected) {
  return Status::EvaluationError(name + "(): expected " + expected + ", got " +
                                 ValueKindToString(got.kind()));
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  static const std::unordered_set<std::string>* kAggregates =
      new std::unordered_set<std::string>{
          "count",          "sum",   "avg",    "min",
          "max",            "collect", "stdev", "stdevp",
          "percentilecont", "percentiledisc"};
  return kAggregates->contains(name);
}

bool IsScalarFunction(const std::string& name) {
  static const std::unordered_set<std::string>* kScalars =
      new std::unordered_set<std::string>{
          "labels",     "type",       "id",        "properties", "keys",
          "nodes",      "relationships", "length", "size",       "head",
          "last",       "tail",       "reverse",   "range",      "abs",
          "ceil",       "floor",      "round",     "sign",       "sqrt",
          "exp",        "log",        "log10",     "tointeger",  "tofloat",
          "tostring",   "toboolean",  "coalesce",  "startnode",  "endnode",
          "datetime",   "duration",   "timestamp", "tolower",    "toupper",
          "trim",       "ltrim",      "rtrim",     "replace",    "split",
          "substring",  "left",       "right",     "exists"};
  return kScalars->contains(name);
}

Result<Value> CallScalarFunction(const std::string& name,
                                 const std::vector<Value>& args,
                                 EvalContext& ctx) {
  // --- Graph-entity functions ---
  if (name == "labels") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_node()) return TypeError(name, args[0], "NODE");
    const NodeData* node = ctx.graph()->node(args[0].AsNode());
    if (node == nullptr) return Value::Null();
    Value::List labels;
    for (const std::string& label : node->labels) {
      labels.push_back(Value::String(label));
    }
    return Value::MakeList(std::move(labels));
  }
  if (name == "type") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_relationship()) {
      return TypeError(name, args[0], "RELATIONSHIP");
    }
    const RelData* rel = ctx.graph()->relationship(args[0].AsRelationship());
    return rel == nullptr ? Value::Null() : Value::String(rel->type);
  }
  if (name == "id") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_node()) return Value::Int(args[0].AsNode().value);
    if (args[0].is_relationship()) {
      return Value::Int(args[0].AsRelationship().value);
    }
    return TypeError(name, args[0], "NODE or RELATIONSHIP");
  }
  if (name == "properties") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_map()) return args[0];
    if (args[0].is_node()) {
      const NodeData* node = ctx.graph()->node(args[0].AsNode());
      if (node == nullptr) return Value::Null();
      return Value::MakeMap(node->properties);
    }
    if (args[0].is_relationship()) {
      const RelData* rel = ctx.graph()->relationship(args[0].AsRelationship());
      if (rel == nullptr) return Value::Null();
      return Value::MakeMap(rel->properties);
    }
    return TypeError(name, args[0], "NODE, RELATIONSHIP or MAP");
  }
  if (name == "keys") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    Value::Map props;
    if (args[0].is_map()) {
      props = args[0].AsMap();
    } else if (args[0].is_node()) {
      const NodeData* node = ctx.graph()->node(args[0].AsNode());
      if (node == nullptr) return Value::Null();
      props = node->properties;
    } else if (args[0].is_relationship()) {
      const RelData* rel = ctx.graph()->relationship(args[0].AsRelationship());
      if (rel == nullptr) return Value::Null();
      props = rel->properties;
    } else {
      return TypeError(name, args[0], "NODE, RELATIONSHIP or MAP");
    }
    Value::List keys;
    for (const auto& [key, value] : props) keys.push_back(Value::String(key));
    return Value::MakeList(std::move(keys));
  }
  if (name == "nodes") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_path()) return TypeError(name, args[0], "PATH");
    Value::List nodes;
    for (NodeId id : args[0].AsPath().nodes) nodes.push_back(Value::Node(id));
    return Value::MakeList(std::move(nodes));
  }
  if (name == "relationships") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_path()) return TypeError(name, args[0], "PATH");
    Value::List rels;
    for (RelId id : args[0].AsPath().rels) {
      rels.push_back(Value::Relationship(id));
    }
    return Value::MakeList(std::move(rels));
  }
  if (name == "startnode" || name == "endnode") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_relationship()) {
      return TypeError(name, args[0], "RELATIONSHIP");
    }
    const RelData* rel = ctx.graph()->relationship(args[0].AsRelationship());
    if (rel == nullptr) return Value::Null();
    return Value::Node(name == "startnode" ? rel->src : rel->trg);
  }
  if (name == "length") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_path()) return Value::Int(args[0].AsPath().length());
    if (args[0].is_list()) {
      return Value::Int(static_cast<int64_t>(args[0].AsList().size()));
    }
    if (args[0].is_string()) {
      return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
    }
    return TypeError(name, args[0], "PATH, LIST or STRING");
  }
  if (name == "size") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_list()) {
      return Value::Int(static_cast<int64_t>(args[0].AsList().size()));
    }
    if (args[0].is_string()) {
      return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
    }
    if (args[0].is_map()) {
      return Value::Int(static_cast<int64_t>(args[0].AsMap().size()));
    }
    return TypeError(name, args[0], "LIST, STRING or MAP");
  }
  // --- List functions ---
  if (name == "head" || name == "last") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) return TypeError(name, args[0], "LIST");
    const auto& list = args[0].AsList();
    if (list.empty()) return Value::Null();
    return name == "head" ? list.front() : list.back();
  }
  if (name == "tail") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) return TypeError(name, args[0], "LIST");
    const auto& list = args[0].AsList();
    if (list.empty()) return Value::MakeList({});
    return Value::MakeList(Value::List(list.begin() + 1, list.end()));
  }
  if (name == "reverse") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_list()) {
      Value::List list = args[0].AsList();
      std::reverse(list.begin(), list.end());
      return Value::MakeList(std::move(list));
    }
    if (args[0].is_string()) {
      std::string s = args[0].AsString();
      std::reverse(s.begin(), s.end());
      return Value::String(std::move(s));
    }
    return TypeError(name, args[0], "LIST or STRING");
  }
  if (name == "range") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::EvaluationError("range() expects 2 or 3 arguments");
    }
    for (const Value& a : args) {
      if (!a.is_int()) return TypeError(name, a, "INTEGER");
    }
    int64_t lo = args[0].AsInt();
    int64_t hi = args[1].AsInt();
    int64_t step = args.size() == 3 ? args[2].AsInt() : 1;
    if (step == 0) return Status::EvaluationError("range() step must be != 0");
    Value::List out;
    if (step > 0) {
      for (int64_t v = lo; v <= hi; v += step) out.push_back(Value::Int(v));
    } else {
      for (int64_t v = lo; v >= hi; v += step) out.push_back(Value::Int(v));
    }
    return Value::MakeList(std::move(out));
  }
  // --- Numeric functions ---
  if (name == "abs" || name == "ceil" || name == "floor" || name == "round" ||
      name == "sign" || name == "sqrt" || name == "exp" || name == "log" ||
      name == "log10") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_number()) return TypeError(name, args[0], "NUMBER");
    double x = args[0].AsNumber();
    if (name == "abs") {
      if (args[0].is_int()) {
        if (args[0].AsInt() == std::numeric_limits<int64_t>::min()) {
          return IntegerOverflow();
        }
        return Value::Int(std::llabs(args[0].AsInt()));
      }
      return Value::Float(std::fabs(x));
    }
    if (name == "ceil") return Value::Float(std::ceil(x));
    if (name == "floor") return Value::Float(std::floor(x));
    if (name == "round") return Value::Float(std::round(x));
    if (name == "sign") return Value::Int(x > 0 ? 1 : (x < 0 ? -1 : 0));
    if (name == "sqrt") return Value::Float(std::sqrt(x));
    if (name == "exp") return Value::Float(std::exp(x));
    if (name == "log") return Value::Float(std::log(x));
    return Value::Float(std::log10(x));
  }
  // --- Conversions ---
  if (name == "tointeger") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_int()) return args[0];
    if (args[0].is_float()) {
      return Value::Int(static_cast<int64_t>(args[0].AsFloat()));
    }
    if (args[0].is_string()) {
      errno = 0;
      char* end = nullptr;
      const std::string& s = args[0].AsString();
      long long v = std::strtoll(s.c_str(), &end, 10);
      if (end == s.c_str()) return Value::Null();
      return Value::Int(v);
    }
    return Value::Null();
  }
  if (name == "tofloat") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_number()) return Value::Float(args[0].AsNumber());
    if (args[0].is_string()) {
      char* end = nullptr;
      const std::string& s = args[0].AsString();
      double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str()) return Value::Null();
      return Value::Float(v);
    }
    return Value::Null();
  }
  if (name == "tostring") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    return Value::String(args[0].ToString());
  }
  if (name == "toboolean") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_bool()) return args[0];
    if (args[0].is_string()) {
      if (args[0].AsString() == "true") return Value::Bool(true);
      if (args[0].AsString() == "false") return Value::Bool(false);
      return Value::Null();
    }
    return Value::Null();
  }
  if (name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  // --- Temporal functions ---
  if (name == "datetime") {
    if (args.empty()) return Value::DateTime(ctx.now());
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_datetime()) return args[0];
    if (!args[0].is_string()) return TypeError(name, args[0], "STRING");
    SERAPH_ASSIGN_OR_RETURN(Timestamp t, Timestamp::Parse(args[0].AsString()));
    return Value::DateTime(t);
  }
  if (name == "duration") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_duration()) return args[0];
    if (!args[0].is_string()) return TypeError(name, args[0], "STRING");
    SERAPH_ASSIGN_OR_RETURN(Duration d, Duration::Parse(args[0].AsString()));
    return Value::Dur(d);
  }
  if (name == "timestamp") {
    if (!args.empty()) return Status::EvaluationError("timestamp() takes 0 args");
    return Value::Int(ctx.now().millis());
  }
  // --- String functions ---
  if (name == "tolower" || name == "toupper" || name == "trim" ||
      name == "ltrim" || name == "rtrim") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string()) return TypeError(name, args[0], "STRING");
    std::string s = args[0].AsString();
    if (name == "tolower") {
      for (char& c : s) c = std::tolower(static_cast<unsigned char>(c));
    } else if (name == "toupper") {
      for (char& c : s) c = std::toupper(static_cast<unsigned char>(c));
    } else {
      size_t begin = 0, end = s.size();
      if (name != "rtrim") {
        while (begin < end &&
               std::isspace(static_cast<unsigned char>(s[begin]))) {
          ++begin;
        }
      }
      if (name != "ltrim") {
        while (end > begin &&
               std::isspace(static_cast<unsigned char>(s[end - 1]))) {
          --end;
        }
      }
      s = s.substr(begin, end - begin);
    }
    return Value::String(std::move(s));
  }
  if (name == "replace") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 3));
    for (const Value& a : args) {
      if (a.is_null()) return Value::Null();
      if (!a.is_string()) return TypeError(name, a, "STRING");
    }
    std::string s = args[0].AsString();
    const std::string& from = args[1].AsString();
    const std::string& to = args[2].AsString();
    if (from.empty()) return Value::String(std::move(s));
    std::string out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(from, pos);
      if (hit == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      out += s.substr(pos, hit - pos);
      out += to;
      pos = hit + from.size();
    }
    return Value::String(std::move(out));
  }
  if (name == "split") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_string()) {
      return TypeError(name, args[0], "STRING");
    }
    const std::string& s = args[0].AsString();
    const std::string& sep = args[1].AsString();
    Value::List out;
    if (sep.empty()) {
      out.push_back(Value::String(s));
      return Value::MakeList(std::move(out));
    }
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(sep, pos);
      if (hit == std::string::npos) {
        out.push_back(Value::String(s.substr(pos)));
        break;
      }
      out.push_back(Value::String(s.substr(pos, hit - pos)));
      pos = hit + sep.size();
    }
    return Value::MakeList(std::move(out));
  }
  if (name == "substring") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::EvaluationError("substring() expects 2 or 3 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string()) return TypeError(name, args[0], "STRING");
    if (!args[1].is_int()) return TypeError(name, args[1], "INTEGER");
    const std::string& s = args[0].AsString();
    int64_t start = std::max<int64_t>(0, args[1].AsInt());
    if (start >= static_cast<int64_t>(s.size())) return Value::String("");
    size_t len = std::string::npos;
    if (args.size() == 3) {
      if (!args[2].is_int()) return TypeError(name, args[2], "INTEGER");
      len = static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()));
    }
    return Value::String(s.substr(static_cast<size_t>(start), len));
  }
  if (name == "left" || name == "right") {
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 2));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string()) return TypeError(name, args[0], "STRING");
    if (!args[1].is_int()) return TypeError(name, args[1], "INTEGER");
    const std::string& s = args[0].AsString();
    size_t n = static_cast<size_t>(std::max<int64_t>(0, args[1].AsInt()));
    n = std::min(n, s.size());
    return Value::String(name == "left" ? s.substr(0, n)
                                        : s.substr(s.size() - n));
  }
  if (name == "exists") {
    // exists(n.prop) — property existence.
    SERAPH_RETURN_IF_ERROR(Arity(name, args, 1));
    return Value::Bool(!args[0].is_null());
  }
  return Status::EvaluationError("unknown function '" + name + "'");
}

Result<Value> ComputeAggregate(const std::string& name, bool distinct,
                               const std::vector<Value>& inputs,
                               const std::optional<Value>& param) {
  // Drop nulls (Cypher aggregates ignore null inputs).
  std::vector<Value> values;
  values.reserve(inputs.size());
  for (const Value& v : inputs) {
    if (!v.is_null()) values.push_back(v);
  }
  if (distinct) {
    std::vector<Value> unique;
    for (const Value& v : values) {
      bool seen = false;
      for (const Value& u : unique) {
        if (u == v) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(v);
    }
    values = std::move(unique);
  }
  if (name == "count") {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  if (name == "collect") {
    return Value::MakeList(std::move(values));
  }
  if (name == "min" || name == "max") {
    if (values.empty()) return Value::Null();
    Value best = values[0];
    for (const Value& v : values) {
      int c = Value::Compare(v, best);
      if ((name == "min" && c < 0) || (name == "max" && c > 0)) best = v;
    }
    return best;
  }
  if (name == "sum") {
    if (values.empty()) return Value::Int(0);
    bool all_int = true;
    double total = 0;
    int64_t itotal = 0;
    bool overflow = false;
    for (const Value& v : values) {
      if (!v.is_number()) {
        return Status::EvaluationError("sum() over non-numeric values");
      }
      if (!v.is_int()) all_int = false;
      total += v.AsNumber();
      if (v.is_int() && !overflow) {
        overflow = __builtin_add_overflow(itotal, v.AsInt(), &itotal);
      }
    }
    if (!all_int) return Value::Float(total);
    if (overflow) return IntegerOverflow();
    return Value::Int(itotal);
  }
  if (name == "avg" || name == "stdev" || name == "stdevp" ||
      name == "percentilecont" || name == "percentiledisc") {
    if (values.empty()) return Value::Null();
    std::vector<double> xs;
    xs.reserve(values.size());
    for (const Value& v : values) {
      if (!v.is_number()) {
        return Status::EvaluationError(name + "() over non-numeric values");
      }
      xs.push_back(v.AsNumber());
    }
    if (name == "avg") {
      double sum = 0;
      for (double x : xs) sum += x;
      return Value::Float(sum / xs.size());
    }
    if (name == "stdev" || name == "stdevp") {
      if (xs.size() == 1) return Value::Float(0.0);
      double mean = 0;
      for (double x : xs) mean += x;
      mean /= xs.size();
      double ss = 0;
      for (double x : xs) ss += (x - mean) * (x - mean);
      double denom = name == "stdev" ? xs.size() - 1 : xs.size();
      return Value::Float(std::sqrt(ss / denom));
    }
    // percentileCont / percentileDisc.
    if (!param.has_value() || !param->is_number()) {
      return Status::EvaluationError(
          name + "() requires a numeric percentile argument");
    }
    double p = param->AsNumber();
    if (p < 0.0 || p > 1.0) {
      return Status::EvaluationError("percentile must be in [0, 1]");
    }
    std::sort(xs.begin(), xs.end());
    if (name == "percentiledisc") {
      size_t idx = static_cast<size_t>(std::ceil(p * xs.size()));
      if (idx > 0) --idx;
      return Value::Float(xs[idx]);
    }
    double rank = p * (xs.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = static_cast<size_t>(std::ceil(rank));
    double frac = rank - lo;
    return Value::Float(xs[lo] + (xs[hi] - xs[lo]) * frac);
  }
  return Status::EvaluationError("unknown aggregate '" + name + "'");
}

}  // namespace seraph
