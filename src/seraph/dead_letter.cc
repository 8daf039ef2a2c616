#include "seraph/dead_letter.h"

#include "io/json.h"

namespace seraph {

void DeadLetterQueue::AddSinkResult(const std::string& sink,
                                    const std::string& query,
                                    Timestamp evaluation_time,
                                    const TimeAnnotatedTable& result,
                                    Status error, int64_t attempts) {
  DeadLetterEntry entry;
  entry.kind = DeadLetterEntry::Kind::kSinkResult;
  entry.source = sink;
  entry.query = query;
  entry.timestamp = evaluation_time;
  entry.error = std::move(error);
  entry.attempts = attempts;
  entry.result = result;
  entries_.push_back(std::move(entry));
  ++sink_results_;
  UpdateDepth();
}

void DeadLetterQueue::AddElement(const std::string& consumer,
                                 const StreamElement& element, Status error,
                                 int64_t attempts) {
  DeadLetterEntry entry;
  entry.kind = DeadLetterEntry::Kind::kStreamElement;
  entry.source = consumer;
  entry.timestamp = element.timestamp;
  entry.error = std::move(error);
  entry.attempts = attempts;
  entry.element = element.graph;
  entries_.push_back(std::move(entry));
  ++elements_;
  UpdateDepth();
}

void DeadLetterQueue::AddEvaluationFailure(const std::string& query,
                                           Timestamp evaluation_time,
                                           Status error) {
  DeadLetterEntry entry;
  entry.kind = DeadLetterEntry::Kind::kEvaluation;
  entry.source = "engine";
  entry.query = query;
  entry.timestamp = evaluation_time;
  entry.error = std::move(error);
  entry.attempts = 1;
  entries_.push_back(std::move(entry));
  ++evaluation_failures_;
  UpdateDepth();
}

void DeadLetterQueue::Add(DeadLetterEntry entry) {
  switch (entry.kind) {
    case DeadLetterEntry::Kind::kSinkResult:
      ++sink_results_;
      break;
    case DeadLetterEntry::Kind::kStreamElement:
      ++elements_;
      break;
    case DeadLetterEntry::Kind::kEvaluation:
      ++evaluation_failures_;
      break;
  }
  entries_.push_back(std::move(entry));
  UpdateDepth();
}

void DeadLetterQueue::Clear() {
  entries_.clear();
  sink_results_ = 0;
  elements_ = 0;
  evaluation_failures_ = 0;
  UpdateDepth();
}

Status DeadLetterQueue::WriteJsonLines(std::ostream* os) const {
  for (const DeadLetterEntry& entry : entries_) {
    std::string line = "{\"kind\":";
    switch (entry.kind) {
      case DeadLetterEntry::Kind::kSinkResult:
        line += "\"sink_result\"";
        break;
      case DeadLetterEntry::Kind::kStreamElement:
        line += "\"stream_element\"";
        break;
      case DeadLetterEntry::Kind::kEvaluation:
        line += "\"evaluation\"";
        break;
    }
    line += ",\"source\":";
    io::AppendJsonValue(Value::String(entry.source), &line);
    if (entry.kind != DeadLetterEntry::Kind::kStreamElement) {
      line += ",\"query\":";
      io::AppendJsonValue(Value::String(entry.query), &line);
    }
    line += ",\"at\":";
    io::AppendJsonValue(Value::String(entry.timestamp.ToString()), &line);
    line += ",\"error\":";
    io::AppendJsonValue(Value::String(entry.error.ToString()), &line);
    line += ",\"attempts\":" + std::to_string(entry.attempts);
    if (entry.result.has_value()) {
      line += ",\"win_start\":";
      io::AppendJsonValue(
          Value::String(entry.result->window.start.ToString()), &line);
      line += ",\"win_end\":";
      io::AppendJsonValue(Value::String(entry.result->window.end.ToString()),
                          &line);
      line += ",\"rows\":" + io::ToJson(entry.result->table.Canonicalized());
    }
    if (entry.element != nullptr) {
      line += ",\"element\":{\"nodes\":" +
              std::to_string(entry.element->num_nodes()) +
              ",\"relationships\":" +
              std::to_string(entry.element->num_relationships()) + "}";
    }
    line += "}";
    *os << line << "\n";
    if (!os->good()) {
      return Status::Unavailable("dead-letter output stream failed");
    }
  }
  return Status::OK();
}

namespace {

// Inverts Status::ToString(): "OK", or "<code_name>: <message>". Uses an
// out-param because Result<Status> cannot represent a Status payload.
Status StatusFromString(const std::string& text, Status* out) {
  if (text == "OK") {
    *out = Status::OK();
    return Status::OK();
  }
  const size_t sep = text.find(": ");
  if (sep == std::string::npos) {
    return Status::InvalidArgument("dead-letter import: malformed status '" +
                                   text + "'");
  }
  const std::string name = text.substr(0, sep);
  std::string message = text.substr(sep + 2);
  for (int code = static_cast<int>(StatusCode::kInvalidArgument);
       code <= static_cast<int>(kLastStatusCode); ++code) {
    if (name == StatusCodeToString(static_cast<StatusCode>(code))) {
      *out = Status(static_cast<StatusCode>(code), std::move(message));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("dead-letter import: unknown status code '" +
                                 name + "'");
}

Result<std::string> RequireString(const Value::Map& object,
                                  const std::string& key) {
  auto it = object.find(key);
  if (it == object.end() || !it->second.is_string()) {
    return Status::InvalidArgument("dead-letter import: missing string '" +
                                   key + "'");
  }
  return it->second.AsString();
}

Result<Timestamp> RequireTimestamp(const Value::Map& object,
                                   const std::string& key) {
  SERAPH_ASSIGN_OR_RETURN(std::string text, RequireString(object, key));
  return Timestamp::Parse(text);
}

// Rebuilds a table from the exported rows array (fields = union of the
// row domains; entity references were already decoded by ParseJson).
Result<Table> TableFromRows(const Value::List& rows) {
  std::set<std::string> fields;
  std::vector<Record> records;
  records.reserve(rows.size());
  for (const Value& row : rows) {
    if (!row.is_map()) {
      return Status::InvalidArgument(
          "dead-letter import: row is not an object");
    }
    Record record;
    for (const auto& [name, value] : row.AsMap()) {
      fields.insert(name);
      record.Set(name, value);
    }
    records.push_back(std::move(record));
  }
  Table table(std::move(fields));
  for (Record& record : records) table.AppendUnchecked(std::move(record));
  return table;
}

Result<DeadLetterEntry> EntryFromJsonLine(const std::string& line) {
  SERAPH_ASSIGN_OR_RETURN(Value doc, io::ParseJson(line));
  if (!doc.is_map()) {
    return Status::InvalidArgument(
        "dead-letter import: line is not a JSON object");
  }
  const Value::Map& object = doc.AsMap();
  DeadLetterEntry entry;

  SERAPH_ASSIGN_OR_RETURN(std::string kind, RequireString(object, "kind"));
  if (kind == "sink_result") {
    entry.kind = DeadLetterEntry::Kind::kSinkResult;
  } else if (kind == "stream_element") {
    entry.kind = DeadLetterEntry::Kind::kStreamElement;
  } else if (kind == "evaluation") {
    entry.kind = DeadLetterEntry::Kind::kEvaluation;
  } else {
    return Status::InvalidArgument("dead-letter import: unknown kind '" +
                                   kind + "'");
  }

  SERAPH_ASSIGN_OR_RETURN(entry.source, RequireString(object, "source"));
  if (entry.kind != DeadLetterEntry::Kind::kStreamElement) {
    SERAPH_ASSIGN_OR_RETURN(entry.query, RequireString(object, "query"));
  }
  SERAPH_ASSIGN_OR_RETURN(entry.timestamp, RequireTimestamp(object, "at"));
  SERAPH_ASSIGN_OR_RETURN(std::string error, RequireString(object, "error"));
  SERAPH_RETURN_IF_ERROR(StatusFromString(error, &entry.error));
  auto attempts_it = object.find("attempts");
  if (attempts_it == object.end() || !attempts_it->second.is_int()) {
    return Status::InvalidArgument(
        "dead-letter import: missing integer 'attempts'");
  }
  entry.attempts = attempts_it->second.AsInt();

  if (auto rows_it = object.find("rows"); rows_it != object.end()) {
    if (!rows_it->second.is_list()) {
      return Status::InvalidArgument(
          "dead-letter import: 'rows' is not an array");
    }
    TimeAnnotatedTable result;
    SERAPH_ASSIGN_OR_RETURN(result.window.start,
                            RequireTimestamp(object, "win_start"));
    SERAPH_ASSIGN_OR_RETURN(result.window.end,
                            RequireTimestamp(object, "win_end"));
    SERAPH_ASSIGN_OR_RETURN(result.table,
                            TableFromRows(rows_it->second.AsList()));
    entry.result = std::move(result);
  }

  if (auto element_it = object.find("element"); element_it != object.end()) {
    // The export keeps only the counts, so the import materializes a
    // placeholder graph of the same shape: nodes 1..N, relationships
    // 1..M all looping on node 1 (re-export prints the counts, which is
    // the byte-identical part of the contract).
    if (!element_it->second.is_map()) {
      return Status::InvalidArgument(
          "dead-letter import: 'element' is not an object");
    }
    const Value::Map& element = element_it->second.AsMap();
    auto nodes_it = element.find("nodes");
    auto rels_it = element.find("relationships");
    if (nodes_it == element.end() || !nodes_it->second.is_int() ||
        rels_it == element.end() || !rels_it->second.is_int()) {
      return Status::InvalidArgument(
          "dead-letter import: malformed 'element' counts");
    }
    const int64_t nodes = nodes_it->second.AsInt();
    const int64_t rels = rels_it->second.AsInt();
    if (nodes < 0 || rels < 0 || (rels > 0 && nodes == 0)) {
      return Status::InvalidArgument(
          "dead-letter import: inconsistent 'element' counts");
    }
    PropertyGraph graph;
    for (int64_t i = 1; i <= nodes; ++i) {
      SERAPH_RETURN_IF_ERROR(graph.AddNode(NodeId{i}, NodeData{}));
    }
    for (int64_t i = 1; i <= rels; ++i) {
      SERAPH_RETURN_IF_ERROR(graph.AddRelationship(
          RelId{i}, RelData{"", NodeId{1}, NodeId{1}, {}}));
    }
    entry.element = std::make_shared<const PropertyGraph>(std::move(graph));
  }
  return entry;
}

}  // namespace

Status DeadLetterQueue::ImportJsonLines(std::istream* is) {
  std::string line;
  size_t line_number = 0;
  while (std::getline(*is, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto entry = EntryFromJsonLine(line);
    if (!entry.ok()) {
      return Status(entry.status().code(),
                    "line " + std::to_string(line_number) + ": " +
                        entry.status().message());
    }
    Add(std::move(*entry));
  }
  if (is->bad()) {
    return Status::Unavailable("dead-letter input stream failed");
  }
  return Status::OK();
}

}  // namespace seraph
