#include "seraph/sinks.h"

#include "common/fault.h"
#include "io/json.h"

namespace seraph {

namespace {

// The stream-writing sinks share one failure contract: a stream that is
// already bad is reported (not silently swallowed), and a write that
// fails is reported after the attempt. Both are kUnavailable — a blocked
// pipe or full disk may clear up, and the engine's retry/quarantine
// logic decides how long to keep trying.
Status CheckStream(const std::ostream& os, const char* sink,
                   const char* when) {
  if (os.good()) return Status::OK();
  return Status::Unavailable(std::string(sink) + ": output stream " + when +
                             " in failed state");
}

}  // namespace

Status PrintingSink::OnResult(const std::string& query_name,
                              Timestamp evaluation_time,
                              const TimeAnnotatedTable& table) {
  SERAPH_FAULT_POINT("sink.emit");
  if (table.table.empty() && !include_empty_) return Status::OK();
  SERAPH_RETURN_IF_ERROR(CheckStream(*os_, "printing sink", "already"));
  *os_ << "[" << query_name << "] evaluation at "
       << evaluation_time.ToString() << " (window " << table.window.ToString()
       << "): " << table.table.size() << " row(s)\n";
  if (!table.table.empty()) {
    std::vector<std::string> columns = columns_;
    columns.push_back(kWinStartField);
    columns.push_back(kWinEndField);
    *os_ << table.WithAnnotations().Canonicalized().ToAsciiTable(columns);
  }
  return CheckStream(*os_, "printing sink", "left");
}

Status JsonLinesSink::OnResult(const std::string& query_name,
                               Timestamp evaluation_time,
                               const TimeAnnotatedTable& table) {
  SERAPH_FAULT_POINT("sink.emit");
  if (table.table.empty() && !include_empty_) return Status::OK();
  SERAPH_RETURN_IF_ERROR(CheckStream(*os_, "json sink", "already"));
  std::string line = "{\"query\":";
  io::AppendJsonValue(Value::String(query_name), &line);
  line += ",\"at\":";
  io::AppendJsonValue(Value::String(evaluation_time.ToString()), &line);
  line += ",\"win_start\":";
  io::AppendJsonValue(Value::String(table.window.start.ToString()), &line);
  line += ",\"win_end\":";
  io::AppendJsonValue(Value::String(table.window.end.ToString()), &line);
  Table canonical = table.table.Canonicalized();
  line += ",\"rows\":" + io::ToJson(canonical) + "}";
  *os_ << line << "\n";
  return CheckStream(*os_, "json sink", "left");
}

namespace {

// RFC 4180 field escaping.
void AppendCsvField(const std::string& field, std::string* out) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

Status CsvSink::OnResult(const std::string& query_name,
                         Timestamp evaluation_time,
                         const TimeAnnotatedTable& table) {
  SERAPH_FAULT_POINT("sink.emit");
  SERAPH_RETURN_IF_ERROR(CheckStream(*os_, "csv sink", "already"));
  if (!header_written_) {
    std::string header = "query,evaluation_time,win_start,win_end";
    for (const std::string& column : columns_) {
      header += ',';
      AppendCsvField(column, &header);
    }
    *os_ << header << "\n";
    // Latch only after a successful write so a retried first delivery
    // still gets its header.
    SERAPH_RETURN_IF_ERROR(CheckStream(*os_, "csv sink", "left"));
    header_written_ = true;
  }
  Table canonical = table.table.Canonicalized();
  for (const Record& row : canonical.rows()) {
    std::string line;
    AppendCsvField(query_name, &line);
    line += ',' + evaluation_time.ToString();
    line += ',' + table.window.start.ToString();
    line += ',' + table.window.end.ToString();
    for (const std::string& column : columns_) {
      line += ',';
      AppendCsvField(row.GetOrNull(column).ToString(), &line);
    }
    *os_ << line << "\n";
  }
  return CheckStream(*os_, "csv sink", "left");
}

}  // namespace seraph
