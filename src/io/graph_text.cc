#include "io/graph_text.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace seraph {
namespace io {

namespace {

const char kEscapable[] = "%|=,\n\r";

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (std::string_view(kEscapable).find(c) != std::string_view::npos) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> Unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::InvalidArgument("truncated escape in '" + text + "'");
    }
    int hi = std::isdigit(static_cast<unsigned char>(text[i + 1]))
                 ? text[i + 1] - '0'
                 : std::toupper(static_cast<unsigned char>(text[i + 1])) -
                       'A' + 10;
    int lo = std::isdigit(static_cast<unsigned char>(text[i + 2]))
                 ? text[i + 2] - '0'
                 : std::toupper(static_cast<unsigned char>(text[i + 2])) -
                       'A' + 10;
    if (hi < 0 || hi > 15 || lo < 0 || lo > 15) {
      return Status::InvalidArgument("bad escape in '" + text + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

// Splits a line on unescaped '|'.
std::vector<std::string> SplitFields(const std::string& line) {
  return StrSplit(line, '|');
}

Result<std::pair<std::string, Value>> DecodeProperty(
    const std::string& field) {
  size_t eq = field.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("malformed property field '" + field +
                                   "'");
  }
  SERAPH_ASSIGN_OR_RETURN(std::string key, Unescape(field.substr(0, eq)));
  SERAPH_ASSIGN_OR_RETURN(Value value, DecodeValue(field.substr(eq + 1)));
  return std::make_pair(std::move(key), std::move(value));
}

}  // namespace

std::string EncodeValue(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return value.AsBool() ? "b:true" : "b:false";
    case ValueKind::kInt:
      return "i:" + std::to_string(value.AsInt());
    case ValueKind::kFloat: {
      std::ostringstream os;
      os.precision(17);
      os << value.AsFloat();
      return "f:" + os.str();
    }
    case ValueKind::kString:
      return "s:" + Escape(value.AsString());
    case ValueKind::kDateTime:
      return "d:" + value.AsDateTime().ToString();
    case ValueKind::kDuration:
      return "p:" + value.AsDuration().ToString();
    default:
      // Container / entity values do not occur as stored properties.
      return "s:" + Escape(value.ToString());
  }
}

Result<Value> DecodeValue(const std::string& text) {
  if (text == "null") return Value::Null();
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("malformed value '" + text + "'");
  }
  std::string body = text.substr(2);
  switch (text[0]) {
    case 'i': {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(body.c_str(), &end, 10);
      if (end != body.c_str() + body.size() || body.empty()) {
        return Status::InvalidArgument("bad integer '" + body + "'");
      }
      return Value::Int(v);
    }
    case 'f': {
      char* end = nullptr;
      double v = std::strtod(body.c_str(), &end);
      if (end != body.c_str() + body.size() || body.empty()) {
        return Status::InvalidArgument("bad float '" + body + "'");
      }
      return Value::Float(v);
    }
    case 's': {
      SERAPH_ASSIGN_OR_RETURN(std::string s, Unescape(body));
      return Value::String(std::move(s));
    }
    case 'b':
      if (body == "true") return Value::Bool(true);
      if (body == "false") return Value::Bool(false);
      return Status::InvalidArgument("bad boolean '" + body + "'");
    case 'd': {
      SERAPH_ASSIGN_OR_RETURN(Timestamp t, Timestamp::Parse(body));
      return Value::DateTime(t);
    }
    case 'p': {
      SERAPH_ASSIGN_OR_RETURN(Duration d, Duration::Parse(body));
      return Value::Dur(d);
    }
    default:
      return Status::InvalidArgument("unknown value tag in '" + text + "'");
  }
}

std::string EncodeGraph(const PropertyGraph& graph) {
  std::string out;
  for (NodeId id : graph.NodeIds()) {
    const NodeData* node = graph.node(id);
    out += "node|" + std::to_string(id.value) + "|";
    bool first = true;
    for (const std::string& label : node->labels) {
      if (!first) out += ',';
      first = false;
      out += Escape(label);
    }
    for (const auto& [key, value] : node->properties) {
      out += "|" + Escape(key) + "=" + EncodeValue(value);
    }
    out += "\n";
  }
  for (RelId id : graph.RelationshipIds()) {
    const RelData* rel = graph.relationship(id);
    out += "rel|" + std::to_string(id.value) + "|" + Escape(rel->type) + "|" +
           std::to_string(rel->src.value) + "|" +
           std::to_string(rel->trg.value);
    for (const auto& [key, value] : rel->properties) {
      out += "|" + Escape(key) + "=" + EncodeValue(value);
    }
    out += "\n";
  }
  return out;
}

namespace {

// The id in `field`: the whole field, a base-10 int64.
Result<int64_t> ParseId(const std::string& field, const char* name,
                        const std::string& line) {
  int64_t id = 0;
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, id);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::string(name) + " '" + field +
                                   "' is not a 64-bit integer: '" + line +
                                   "'");
  }
  return id;
}

Status ApplyGraphLine(const std::string& line, PropertyGraph* graph) {
  std::vector<std::string> fields = SplitFields(line);
  if (fields.empty()) return Status::InvalidArgument("empty line");
  if (fields[0] == "node") {
    if (fields.size() < 3) {
      return Status::InvalidArgument("node line needs id and labels: '" +
                                     line + "'");
    }
    SERAPH_ASSIGN_OR_RETURN(int64_t id, ParseId(fields[1], "node id", line));
    NodeData data;
    for (const std::string& label : StrSplit(fields[2], ',')) {
      if (label.empty()) continue;
      SERAPH_ASSIGN_OR_RETURN(std::string unescaped, Unescape(label));
      data.labels.insert(std::move(unescaped));
    }
    for (size_t i = 3; i < fields.size(); ++i) {
      SERAPH_ASSIGN_OR_RETURN(auto kv, DecodeProperty(fields[i]));
      data.properties[kv.first] = std::move(kv.second);
    }
    graph->MergeNode(NodeId{id}, data);
    return Status::OK();
  }
  if (fields[0] == "rel") {
    if (fields.size() < 5) {
      return Status::InvalidArgument(
          "rel line needs id, type, src, trg: '" + line + "'");
    }
    SERAPH_ASSIGN_OR_RETURN(int64_t id,
                            ParseId(fields[1], "relationship id", line));
    SERAPH_ASSIGN_OR_RETURN(int64_t src, ParseId(fields[3], "source id", line));
    SERAPH_ASSIGN_OR_RETURN(int64_t trg, ParseId(fields[4], "target id", line));
    RelData data;
    SERAPH_ASSIGN_OR_RETURN(data.type, Unescape(fields[2]));
    data.src = NodeId{src};
    data.trg = NodeId{trg};
    for (size_t i = 5; i < fields.size(); ++i) {
      SERAPH_ASSIGN_OR_RETURN(auto kv, DecodeProperty(fields[i]));
      data.properties[kv.first] = std::move(kv.second);
    }
    return graph->MergeRelationship(RelId{id}, data);
  }
  return Status::InvalidArgument("unknown line kind '" + fields[0] + "'");
}

}  // namespace

Result<PropertyGraph> DecodeGraph(const std::string& text) {
  PropertyGraph graph;
  for (const std::string& line : StrSplit(text, '\n')) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    SERAPH_RETURN_IF_ERROR(ApplyGraphLine(std::string(trimmed), &graph));
  }
  return graph;
}

void WriteEventLog(const std::vector<StreamElement>& events,
                   std::ostream* os) {
  for (const StreamElement& event : events) {
    *os << "@ " << event.timestamp.ToString() << "\n"
        << EncodeGraph(*event.graph) << "\n";
  }
}

Result<std::vector<StreamElement>> ReadEventLog(std::istream* is) {
  std::vector<StreamElement> events;
  PropertyGraph current;
  bool in_event = false;
  Timestamp current_ts;
  auto flush = [&]() {
    if (in_event) {
      events.push_back(StreamElement{
          std::make_shared<const PropertyGraph>(std::move(current)),
          current_ts});
      current = PropertyGraph();
    }
  };
  std::string line;
  while (std::getline(*is, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed[0] == '@') {
      flush();
      std::string_view ts_text = StripWhitespace(trimmed.substr(1));
      SERAPH_ASSIGN_OR_RETURN(current_ts, Timestamp::Parse(ts_text));
      in_event = true;
      continue;
    }
    if (!in_event) {
      return Status::InvalidArgument(
          "graph line before any '@ <timestamp>' header");
    }
    SERAPH_RETURN_IF_ERROR(ApplyGraphLine(std::string(trimmed), &current));
  }
  flush();
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].timestamp < events[i - 1].timestamp) {
      return Status::OutOfRange("event log timestamps must be ordered");
    }
  }
  return events;
}

}  // namespace io
}  // namespace seraph
