#include "cypher/eval.h"

#include <cmath>
#include <limits>

#include "cypher/functions.h"
#include "cypher/matcher.h"
#include "table/time_table.h"

namespace seraph {

Result<Value> EvalContext::Lookup(const std::string& name) const {
  for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
    if (it->first == name) return it->second;
  }
  if (record_ != nullptr) {
    const Value* v = record_->Find(name);
    if (v != nullptr) return *v;
  }
  if (window_.has_value()) {
    if (name == kWinStartField) return Value::DateTime(window_->start);
    if (name == kWinEndField) return Value::DateTime(window_->end);
  }
  return Status::EvaluationError("unbound variable '" + name + "'");
}

// ---------------------------------------------------------------------------
// Ternary-logic helpers
// ---------------------------------------------------------------------------

Value CypherEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_number() && b.is_number()) {
    return Value::Bool(a.AsNumber() == b.AsNumber());
  }
  if (a.kind() != b.kind()) return Value::Bool(false);
  if (a.is_list()) {
    const auto& la = a.AsList();
    const auto& lb = b.AsList();
    if (la.size() != lb.size()) return Value::Bool(false);
    bool saw_null = false;
    for (size_t i = 0; i < la.size(); ++i) {
      Value e = CypherEquals(la[i], lb[i]);
      if (e.is_null()) {
        saw_null = true;
      } else if (!e.AsBool()) {
        return Value::Bool(false);
      }
    }
    return saw_null ? Value::Null() : Value::Bool(true);
  }
  return Value::Bool(a == b);
}

namespace {

// Comparable pairs for ordering operators; incomparable → null.
bool Orderable(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kString:
    case ValueKind::kBool:
    case ValueKind::kDateTime:
    case ValueKind::kDuration:
      return true;
    default:
      return false;
  }
}

}  // namespace

Value CypherCompare(CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == CmpOp::kEq) return CypherEquals(a, b);
  if (op == CmpOp::kNeq) return TernaryNot(CypherEquals(a, b));
  if (!Orderable(a, b)) return Value::Null();
  int c = Value::Compare(a, b);
  switch (op) {
    case CmpOp::kLt:
      return Value::Bool(c < 0);
    case CmpOp::kLe:
      return Value::Bool(c <= 0);
    case CmpOp::kGt:
      return Value::Bool(c > 0);
    case CmpOp::kGe:
      return Value::Bool(c >= 0);
    case CmpOp::kEq:
    case CmpOp::kNeq:
      break;
  }
  return Value::Null();
}

Value TernaryAnd(const Value& a, const Value& b) {
  bool a_false = a.is_bool() && !a.AsBool();
  bool b_false = b.is_bool() && !b.AsBool();
  if (a_false || b_false) return Value::Bool(false);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(a.AsBool() && b.AsBool());
}

Value TernaryOr(const Value& a, const Value& b) {
  bool a_true = a.is_bool() && a.AsBool();
  bool b_true = b.is_bool() && b.AsBool();
  if (a_true || b_true) return Value::Bool(true);
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(a.AsBool() || b.AsBool());
}

Value TernaryXor(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Bool(a.AsBool() != b.AsBool());
}

Value TernaryNot(const Value& a) {
  if (a.is_null()) return Value::Null();
  return Value::Bool(!a.AsBool());
}

bool IsTruthy(const Value& v) { return v.is_bool() && v.AsBool(); }

Status IntegerOverflow() {
  return Status::EvaluationError("integer overflow");
}

namespace {

// Connective operands and quantifier predicates are boolean or null; any
// other value is a type error, reported as such rather than aborting.
Status RequireBooleanOrNull(const Value& v, const char* what) {
  if (v.is_bool() || v.is_null()) return Status::OK();
  return Status::EvaluationError(std::string(what) + " requires a boolean");
}

}  // namespace

Value CypherIn(const Value& element, const Value& list) {
  if (list.is_null()) return Value::Null();
  if (!list.is_list()) return Value::Null();
  bool saw_null = false;
  for (const Value& item : list.AsList()) {
    Value eq = CypherEquals(element, item);
    if (eq.is_null()) {
      saw_null = true;
    } else if (eq.AsBool()) {
      return Value::Bool(true);
    }
  }
  if (element.is_null() && !list.AsList().empty()) return Value::Null();
  return saw_null ? Value::Null() : Value::Bool(false);
}

Result<Value> CypherArithmetic(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // String concatenation (string + anything printable, as in Cypher).
  if (op == BinaryOp::kAdd && (a.is_string() || b.is_string())) {
    if (a.is_list() || b.is_list()) {
      return Status::EvaluationError("cannot add STRING and LIST");
    }
    return Value::String(a.ToString() + b.ToString());
  }
  // List concatenation / append.
  if (op == BinaryOp::kAdd && (a.is_list() || b.is_list())) {
    Value::List out;
    if (a.is_list()) {
      out = a.AsList();
    } else {
      out.push_back(a);
    }
    if (b.is_list()) {
      const auto& lb = b.AsList();
      out.insert(out.end(), lb.begin(), lb.end());
    } else {
      out.push_back(b);
    }
    return Value::MakeList(std::move(out));
  }
  // Temporal arithmetic.
  if (a.is_datetime() && b.is_duration()) {
    if (op == BinaryOp::kAdd) {
      return Value::DateTime(a.AsDateTime() + b.AsDuration());
    }
    if (op == BinaryOp::kSubtract) {
      return Value::DateTime(a.AsDateTime() - b.AsDuration());
    }
  }
  if (a.is_duration() && b.is_datetime() && op == BinaryOp::kAdd) {
    return Value::DateTime(b.AsDateTime() + a.AsDuration());
  }
  if (a.is_datetime() && b.is_datetime() && op == BinaryOp::kSubtract) {
    return Value::Dur(a.AsDateTime() - b.AsDateTime());
  }
  if (a.is_duration() && b.is_duration()) {
    if (op == BinaryOp::kAdd) return Value::Dur(a.AsDuration() + b.AsDuration());
    if (op == BinaryOp::kSubtract) {
      return Value::Dur(a.AsDuration() - b.AsDuration());
    }
  }
  if (a.is_duration() && b.is_int() && op == BinaryOp::kMultiply) {
    return Value::Dur(a.AsDuration() * b.AsInt());
  }
  if (a.is_int() && b.is_duration() && op == BinaryOp::kMultiply) {
    return Value::Dur(b.AsDuration() * a.AsInt());
  }
  if (!a.is_number() || !b.is_number()) {
    return Status::EvaluationError(
        std::string("type error: cannot apply arithmetic to ") +
        ValueKindToString(a.kind()) + " and " + ValueKindToString(b.kind()));
  }
  bool both_int = a.is_int() && b.is_int();
  // Integer results that do not fit int64 fail the evaluation (and only
  // the query that computed them) instead of wrapping or trapping.
  int64_t result = 0;
  switch (op) {
    case BinaryOp::kAdd:
      if (both_int) {
        if (__builtin_add_overflow(a.AsInt(), b.AsInt(), &result)) {
          return IntegerOverflow();
        }
        return Value::Int(result);
      }
      return Value::Float(a.AsNumber() + b.AsNumber());
    case BinaryOp::kSubtract:
      if (both_int) {
        if (__builtin_sub_overflow(a.AsInt(), b.AsInt(), &result)) {
          return IntegerOverflow();
        }
        return Value::Int(result);
      }
      return Value::Float(a.AsNumber() - b.AsNumber());
    case BinaryOp::kMultiply:
      if (both_int) {
        if (__builtin_mul_overflow(a.AsInt(), b.AsInt(), &result)) {
          return IntegerOverflow();
        }
        return Value::Int(result);
      }
      return Value::Float(a.AsNumber() * b.AsNumber());
    case BinaryOp::kDivide:
      if (both_int) {
        if (b.AsInt() == 0) {
          return Status::EvaluationError("integer division by zero");
        }
        if (a.AsInt() == std::numeric_limits<int64_t>::min() &&
            b.AsInt() == -1) {
          return IntegerOverflow();
        }
        return Value::Int(a.AsInt() / b.AsInt());
      }
      return Value::Float(a.AsNumber() / b.AsNumber());
    case BinaryOp::kModulo:
      if (both_int) {
        if (b.AsInt() == 0) {
          return Status::EvaluationError("integer modulo by zero");
        }
        // INT64_MIN % -1 traps on some hardware; it is 0.
        if (b.AsInt() == -1) return Value::Int(0);
        return Value::Int(a.AsInt() % b.AsInt());
      }
      return Value::Float(std::fmod(a.AsNumber(), b.AsNumber()));
    case BinaryOp::kPower:
      return Value::Float(std::pow(a.AsNumber(), b.AsNumber()));
    default:
      return Status::Internal("non-arithmetic op in CypherArithmetic");
  }
}

// ---------------------------------------------------------------------------
// Expr::Eval implementations
// ---------------------------------------------------------------------------

void Expr::CollectAggregates(std::vector<const Expr*>* out) const {
  if (IsAggregateCall()) {
    out->push_back(this);
    return;  // Nested aggregates are rejected at parse time.
  }
  VisitChildren([out](const Expr& child) { child.CollectAggregates(out); });
}

bool Expr::ContainsAggregate() const {
  std::vector<const Expr*> aggs;
  CollectAggregates(&aggs);
  return !aggs.empty();
}

bool Expr::ContainsVolatile() const {
  if (IsVolatile()) return true;
  bool found = false;
  VisitChildren([&found](const Expr& child) {
    if (!found && child.ContainsVolatile()) found = true;
  });
  return found;
}

Result<Value> LiteralExpr::Eval(EvalContext& ctx) const {
  (void)ctx;
  return value_;
}

Result<Value> ParameterExpr::Eval(EvalContext& ctx) const {
  if (ctx.parameters() != nullptr) {
    auto it = ctx.parameters()->find(name_);
    if (it != ctx.parameters()->end()) return it->second;
  }
  return Status::EvaluationError("missing parameter '$" + name_ + "'");
}

Result<Value> VariableExpr::Eval(EvalContext& ctx) const {
  return ctx.Lookup(name_);
}

namespace {

// Component accessors on temporal values (datetime.year, duration.minutes,
// ...), mirroring Cypher's temporal instant/duration fields.
Result<Value> TemporalComponent(const Value& object, const std::string& key) {
  if (object.is_datetime()) {
    Timestamp t = object.AsDateTime();
    // Re-derive civil fields from the canonical rendering (authoritative
    // with the same civil conversion used everywhere else).
    std::string iso = t.ToString();  // YYYY-MM-DDTHH:MM[:SS[.mmm]]
    auto piece = [&iso](size_t pos, size_t len) {
      return std::stoll(iso.substr(pos, len));
    };
    if (key == "year") return Value::Int(piece(0, 4));
    if (key == "month") return Value::Int(piece(5, 2));
    if (key == "day") return Value::Int(piece(8, 2));
    if (key == "hour") return Value::Int(piece(11, 2));
    if (key == "minute") return Value::Int(piece(14, 2));
    if (key == "second") {
      return Value::Int(iso.size() >= 19 ? piece(17, 2) : 0);
    }
    if (key == "epochMillis") return Value::Int(t.millis());
    return Status::EvaluationError("unknown DATETIME component '" + key +
                                   "'");
  }
  Duration d = object.AsDuration();
  if (key == "milliseconds") return Value::Int(d.millis());
  if (key == "seconds") return Value::Int(d.millis() / 1000);
  if (key == "minutes") return Value::Int(d.millis() / 60'000);
  if (key == "hours") return Value::Int(d.millis() / 3'600'000);
  if (key == "days") return Value::Int(d.millis() / 86'400'000);
  return Status::EvaluationError("unknown DURATION component '" + key + "'");
}

}  // namespace

Result<Value> PropertyExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value object, object_->Eval(ctx));
  if (object.is_null()) return Value::Null();
  if (object.is_map()) {
    const auto& map = object.AsMap();
    auto it = map.find(key_);
    return it == map.end() ? Value::Null() : it->second;
  }
  if (object.is_node()) {
    return ctx.graph()->NodeProperty(object.AsNode(), key_);
  }
  if (object.is_relationship()) {
    return ctx.graph()->RelationshipProperty(object.AsRelationship(), key_);
  }
  if (object.is_datetime() || object.is_duration()) {
    return TemporalComponent(object, key_);
  }
  return Status::EvaluationError(
      std::string("property access on ") + ValueKindToString(object.kind()));
}

Result<Value> IndexExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value object, object_->Eval(ctx));
  SERAPH_ASSIGN_OR_RETURN(Value index, index_->Eval(ctx));
  if (object.is_null() || index.is_null()) return Value::Null();
  if (object.is_list()) {
    if (!index.is_int()) {
      return Status::EvaluationError("list index must be an integer");
    }
    const auto& list = object.AsList();
    int64_t i = index.AsInt();
    if (i < 0) i += static_cast<int64_t>(list.size());
    if (i < 0 || i >= static_cast<int64_t>(list.size())) return Value::Null();
    return list[static_cast<size_t>(i)];
  }
  if (object.is_map()) {
    if (!index.is_string()) {
      return Status::EvaluationError("map key must be a string");
    }
    const auto& map = object.AsMap();
    auto it = map.find(index.AsString());
    return it == map.end() ? Value::Null() : it->second;
  }
  return Status::EvaluationError(std::string("cannot index ") +
                                 ValueKindToString(object.kind()));
}

Result<Value> ListExpr::Eval(EvalContext& ctx) const {
  Value::List out;
  out.reserve(items_.size());
  for (const ExprPtr& item : items_) {
    SERAPH_ASSIGN_OR_RETURN(Value v, item->Eval(ctx));
    out.push_back(std::move(v));
  }
  return Value::MakeList(std::move(out));
}

Result<Value> MapExpr::Eval(EvalContext& ctx) const {
  Value::Map out;
  for (const auto& [key, expr] : entries_) {
    SERAPH_ASSIGN_OR_RETURN(Value v, expr->Eval(ctx));
    out[key] = std::move(v);
  }
  return Value::MakeMap(std::move(out));
}

Result<Value> UnaryExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx));
  switch (op_) {
    case UnaryOp::kNot:
      SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(v, "NOT"));
      return TernaryNot(v);
    case UnaryOp::kNegate:
      if (v.is_null()) return Value::Null();
      if (v.is_int()) {
        if (v.AsInt() == std::numeric_limits<int64_t>::min()) {
          return IntegerOverflow();
        }
        return Value::Int(-v.AsInt());
      }
      if (v.is_float()) return Value::Float(-v.AsFloat());
      if (v.is_duration()) return Value::Dur(-v.AsDuration());
      return Status::EvaluationError("unary minus requires a number");
    case UnaryOp::kPlus:
      if (v.is_null() || v.is_number()) return v;
      return Status::EvaluationError("unary plus requires a number");
  }
  return Status::Internal("bad unary op");
}

Result<Value> BinaryExpr::Eval(EvalContext& ctx) const {
  // Short-circuiting ternary connectives.
  if (op_ == BinaryOp::kAnd) {
    SERAPH_ASSIGN_OR_RETURN(Value a, lhs_->Eval(ctx));
    SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(a, "AND"));
    if (a.is_bool() && !a.AsBool()) return Value::Bool(false);
    SERAPH_ASSIGN_OR_RETURN(Value b, rhs_->Eval(ctx));
    SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(b, "AND"));
    return TernaryAnd(a, b);
  }
  if (op_ == BinaryOp::kOr) {
    SERAPH_ASSIGN_OR_RETURN(Value a, lhs_->Eval(ctx));
    SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(a, "OR"));
    if (a.is_bool() && a.AsBool()) return Value::Bool(true);
    SERAPH_ASSIGN_OR_RETURN(Value b, rhs_->Eval(ctx));
    SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(b, "OR"));
    return TernaryOr(a, b);
  }
  SERAPH_ASSIGN_OR_RETURN(Value a, lhs_->Eval(ctx));
  SERAPH_ASSIGN_OR_RETURN(Value b, rhs_->Eval(ctx));
  switch (op_) {
    case BinaryOp::kXor:
      SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(a, "XOR"));
      SERAPH_RETURN_IF_ERROR(RequireBooleanOrNull(b, "XOR"));
      return TernaryXor(a, b);
    case BinaryOp::kIn:
      return CypherIn(a, b);
    case BinaryOp::kStartsWith:
    case BinaryOp::kEndsWith:
    case BinaryOp::kContains: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_string() || !b.is_string()) {
        return Status::EvaluationError(
            "string predicate requires string operands");
      }
      const std::string& s = a.AsString();
      const std::string& t = b.AsString();
      if (op_ == BinaryOp::kStartsWith) {
        return Value::Bool(s.size() >= t.size() &&
                           s.compare(0, t.size(), t) == 0);
      }
      if (op_ == BinaryOp::kEndsWith) {
        return Value::Bool(s.size() >= t.size() &&
                           s.compare(s.size() - t.size(), t.size(), t) == 0);
      }
      return Value::Bool(s.find(t) != std::string::npos);
    }
    default:
      return CypherArithmetic(op_, a, b);
  }
}

Result<Value> ComparisonExpr::Eval(EvalContext& ctx) const {
  // e1 op1 e2 op2 e3 ≡ (e1 op1 e2) AND (e2 op2 e3), each ternary.
  Value acc = Value::Bool(true);
  SERAPH_ASSIGN_OR_RETURN(Value prev, operands_[0]->Eval(ctx));
  for (size_t i = 0; i < ops_.size(); ++i) {
    SERAPH_ASSIGN_OR_RETURN(Value next, operands_[i + 1]->Eval(ctx));
    Value cmp = CypherCompare(ops_[i], prev, next);
    acc = TernaryAnd(acc, cmp);
    if (acc.is_bool() && !acc.AsBool()) return acc;  // Definitively false.
    prev = std::move(next);
  }
  return acc;
}

Result<Value> IsNullExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value v, operand_->Eval(ctx));
  return Value::Bool(negated_ ? !v.is_null() : v.is_null());
}

FunctionCallExpr::FunctionCallExpr(std::string name, std::vector<ExprPtr> args,
                                   bool distinct, bool count_star)
    : args_(std::move(args)), distinct_(distinct), count_star_(count_star) {
  name_.reserve(name.size());
  for (char c : name) {
    name_ += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  is_aggregate_ = IsAggregateFunction(name_);
}

Result<Value> FunctionCallExpr::Eval(EvalContext& ctx) const {
  if (is_aggregate_) {
    const auto* results = ctx.aggregate_results();
    if (results == nullptr) {
      return Status::SemanticError("aggregate function '" + name_ +
                                   "' used outside a projection");
    }
    auto it = results->find(this);
    if (it == results->end()) {
      return Status::Internal("aggregate result not computed for '" + name_ +
                              "'");
    }
    return it->second;
  }
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const ExprPtr& arg : args_) {
    SERAPH_ASSIGN_OR_RETURN(Value v, arg->Eval(ctx));
    args.push_back(std::move(v));
  }
  return CallScalarFunction(name_, args, ctx);
}

Result<Value> ListComprehensionExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value list, list_->Eval(ctx));
  if (list.is_null()) return Value::Null();
  if (!list.is_list()) {
    return Status::EvaluationError("list comprehension requires a list");
  }
  Value::List out;
  for (const Value& item : list.AsList()) {
    ctx.PushLocal(var_, item);
    bool keep = true;
    if (where_ != nullptr) {
      auto cond = where_->Eval(ctx);
      if (!cond.ok()) {
        ctx.PopLocal();
        return cond.status();
      }
      keep = IsTruthy(cond.value());
    }
    if (keep) {
      if (projection_ != nullptr) {
        auto projected = projection_->Eval(ctx);
        if (!projected.ok()) {
          ctx.PopLocal();
          return projected.status();
        }
        out.push_back(std::move(projected).value());
      } else {
        out.push_back(item);
      }
    }
    ctx.PopLocal();
  }
  return Value::MakeList(std::move(out));
}

Result<Value> ReduceExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value acc, init_->Eval(ctx));
  SERAPH_ASSIGN_OR_RETURN(Value list, list_->Eval(ctx));
  if (list.is_null()) return Value::Null();
  if (!list.is_list()) {
    return Status::EvaluationError("reduce() requires a list");
  }
  for (const Value& item : list.AsList()) {
    ctx.PushLocal(acc_var_, std::move(acc));
    ctx.PushLocal(var_, item);
    auto next = body_->Eval(ctx);
    ctx.PopLocal();
    ctx.PopLocal();
    if (!next.ok()) return next.status();
    acc = std::move(next).value();
  }
  return acc;
}

Result<Value> QuantifierExpr::Eval(EvalContext& ctx) const {
  SERAPH_ASSIGN_OR_RETURN(Value list, list_->Eval(ctx));
  if (list.is_null()) return Value::Null();
  if (!list.is_list()) {
    return Status::EvaluationError("quantified predicate requires a list");
  }
  int64_t true_count = 0;
  bool saw_null = false;
  for (const Value& item : list.AsList()) {
    ctx.PushLocal(var_, item);
    auto pred = predicate_->Eval(ctx);
    ctx.PopLocal();
    if (!pred.ok()) return pred.status();
    const Value& p = pred.value();
    SERAPH_RETURN_IF_ERROR(
        RequireBooleanOrNull(p, "quantified predicate"));
    if (p.is_null()) {
      saw_null = true;
    } else if (p.AsBool()) {
      ++true_count;
    } else {
      // Definitive false: ALL fails immediately.
      if (quantifier_ == Quantifier::kAll) return Value::Bool(false);
    }
  }
  int64_t n = static_cast<int64_t>(list.AsList().size());
  switch (quantifier_) {
    case Quantifier::kAll:
      if (true_count == n) return Value::Bool(true);
      return saw_null ? Value::Null() : Value::Bool(true_count == n);
    case Quantifier::kAny:
      if (true_count > 0) return Value::Bool(true);
      return saw_null ? Value::Null() : Value::Bool(false);
    case Quantifier::kNone:
      if (true_count > 0) return Value::Bool(false);
      return saw_null ? Value::Null() : Value::Bool(true);
    case Quantifier::kSingle:
      if (saw_null) return Value::Null();
      return Value::Bool(true_count == 1);
  }
  return Status::Internal("bad quantifier");
}

Result<Value> ExistsPatternExpr::Eval(EvalContext& ctx) const {
  if (ctx.graph() == nullptr) {
    return Status::EvaluationError("exists() pattern requires a graph");
  }
  Record empty;
  const Record* input = ctx.record() != nullptr ? ctx.record() : &empty;
  std::vector<Record> out;
  SERAPH_RETURN_IF_ERROR(
      MatchSinglePattern(pattern_, *ctx.graph(), *input, ctx, &out));
  return Value::Bool(!out.empty());
}

Result<Value> CaseExpr::Eval(EvalContext& ctx) const {
  if (subject_ != nullptr) {
    SERAPH_ASSIGN_OR_RETURN(Value subject, subject_->Eval(ctx));
    for (const auto& [when, then] : branches_) {
      SERAPH_ASSIGN_OR_RETURN(Value candidate, when->Eval(ctx));
      Value eq = CypherEquals(subject, candidate);
      if (IsTruthy(eq)) return then->Eval(ctx);
    }
  } else {
    for (const auto& [when, then] : branches_) {
      SERAPH_ASSIGN_OR_RETURN(Value cond, when->Eval(ctx));
      if (IsTruthy(cond)) return then->Eval(ctx);
    }
  }
  if (else_ != nullptr) return else_->Eval(ctx);
  return Value::Null();
}

}  // namespace seraph
