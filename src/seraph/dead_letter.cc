#include "seraph/dead_letter.h"

#include <algorithm>
#include <iterator>

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
  Push(std::move(entry));
  ++totals_.sink_results;
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
  entry.element = DeadLetterEntry::ElementSummary{
      static_cast<int64_t>(element.graph->num_nodes()),
      static_cast<int64_t>(element.graph->num_relationships())};
  Push(std::move(entry));
  ++totals_.elements;
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
  Push(std::move(entry));
  ++totals_.evaluation_failures;
}

void DeadLetterQueue::Restore(std::vector<DeadLetterEntry> entries,
                              DeadLetterTotals totals) {
  const size_t kept = std::min(entries.size(), kDeadLetterCapacity);
  entries_.assign(std::make_move_iterator(entries.end() - kept),
                  std::make_move_iterator(entries.end()));
  totals_ = totals;
  UpdateDepth();
}

void DeadLetterQueue::Push(DeadLetterEntry entry) {
  if (entries_.size() == kDeadLetterCapacity) entries_.pop_front();
  entries_.push_back(std::move(entry));
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
    if (entry.element.has_value()) {
      line += ",\"element\":{\"nodes\":" +
              std::to_string(entry.element->nodes) + ",\"relationships\":" +
              std::to_string(entry.element->relationships) + "}";
    }
    line += "}";
    *os << line << "\n";
    if (!os->good()) {
      return Status::Unavailable("dead-letter output stream failed");
    }
  }
  return Status::OK();
}

}  // namespace seraph
