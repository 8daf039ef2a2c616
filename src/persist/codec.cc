#include "persist/codec.h"

#include <array>
#include <cstring>
#include <utility>
#include <vector>

namespace seraph {
namespace persist {
namespace {

Status DecodeError(std::string what) {
  return Status::InvalidArgument("checkpoint decode: " + std::move(what));
}

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------------

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s.data(), s.size());
}

Status Decoder::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return DecodeError("truncated input (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(data_.size() - pos_) +
                       ")");
  }
  return Status::OK();
}

Result<uint8_t> Decoder::U8() {
  SERAPH_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> Decoder::Bool() {
  SERAPH_ASSIGN_OR_RETURN(uint8_t v, U8());
  if (v > 1) return DecodeError("bool byte out of range");
  return v == 1;
}

Result<uint32_t> Decoder::U32() {
  SERAPH_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::U64() {
  SERAPH_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Decoder::I64() {
  SERAPH_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::Double() {
  SERAPH_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Decoder::String() {
  SERAPH_ASSIGN_OR_RETURN(uint32_t len, U32());
  SERAPH_RETURN_IF_ERROR(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

void AppendFrame(std::string_view payload, std::string* out) {
  Encoder header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  out->append(header.buffer());
  out->append(payload.data(), payload.size());
}

void AppendFileHeader(std::string* out) {
  Encoder header;
  header.PutU32(kMagic);
  header.PutU32(kFormatVersion);
  out->append(header.buffer());
}

Status FrameReader::ReadHeader() {
  Decoder dec(data_.substr(pos_));
  SERAPH_ASSIGN_OR_RETURN(uint32_t magic, dec.U32());
  if (magic != kMagic) return DecodeError("bad magic (not a checkpoint file)");
  SERAPH_ASSIGN_OR_RETURN(uint32_t version, dec.U32());
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        "checkpoint decode: unsupported format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  pos_ += 8;
  return Status::OK();
}

Result<std::string_view> FrameReader::Next() {
  if (pos_ == data_.size()) {
    return DecodeError("file ends where a frame should start");
  }
  Decoder dec(data_.substr(pos_));
  SERAPH_ASSIGN_OR_RETURN(uint32_t len, dec.U32());
  SERAPH_ASSIGN_OR_RETURN(uint32_t crc, dec.U32());
  if (data_.size() - pos_ - 8 < len) {
    return DecodeError("torn frame (payload extends past end of file)");
  }
  std::string_view payload = data_.substr(pos_ + 8, len);
  if (Crc32(payload) != crc) {
    return DecodeError("frame checksum mismatch (corrupted payload)");
  }
  pos_ += 8 + len;
  return payload;
}

// ---------------------------------------------------------------------------
// Values / records / tables
// ---------------------------------------------------------------------------

void WriteValue(const Value& value, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(value.kind()));
  switch (value.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      enc->PutBool(value.AsBool());
      break;
    case ValueKind::kInt:
      enc->PutI64(value.AsInt());
      break;
    case ValueKind::kFloat:
      enc->PutDouble(value.AsFloat());
      break;
    case ValueKind::kString:
      enc->PutString(value.AsString());
      break;
    case ValueKind::kList: {
      const Value::List& items = value.AsList();
      enc->PutU32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) WriteValue(item, enc);
      break;
    }
    case ValueKind::kMap: {
      const Value::Map& entries = value.AsMap();
      enc->PutU32(static_cast<uint32_t>(entries.size()));
      for (const auto& [key, entry] : entries) {
        enc->PutString(key);
        WriteValue(entry, enc);
      }
      break;
    }
    case ValueKind::kDateTime:
      enc->PutI64(value.AsDateTime().millis());
      break;
    case ValueKind::kDuration:
      enc->PutI64(value.AsDuration().millis());
      break;
    case ValueKind::kNode:
      enc->PutI64(value.AsNode().value);
      break;
    case ValueKind::kRelationship:
      enc->PutI64(value.AsRelationship().value);
      break;
    case ValueKind::kPath: {
      const PathValue& path = value.AsPath();
      enc->PutU32(static_cast<uint32_t>(path.nodes.size()));
      for (NodeId id : path.nodes) enc->PutI64(id.value);
      enc->PutU32(static_cast<uint32_t>(path.rels.size()));
      for (RelId id : path.rels) enc->PutI64(id.value);
      break;
    }
  }
}

Result<Value> ReadValue(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(uint8_t tag, dec->U8());
  if (tag > static_cast<uint8_t>(ValueKind::kPath)) {
    return DecodeError("unknown value kind tag " + std::to_string(tag));
  }
  switch (static_cast<ValueKind>(tag)) {
    case ValueKind::kNull:
      return Value::Null();
    case ValueKind::kBool: {
      SERAPH_ASSIGN_OR_RETURN(bool b, dec->Bool());
      return Value::Bool(b);
    }
    case ValueKind::kInt: {
      SERAPH_ASSIGN_OR_RETURN(int64_t i, dec->I64());
      return Value::Int(i);
    }
    case ValueKind::kFloat: {
      SERAPH_ASSIGN_OR_RETURN(double d, dec->Double());
      return Value::Float(d);
    }
    case ValueKind::kString: {
      SERAPH_ASSIGN_OR_RETURN(std::string s, dec->String());
      return Value::String(std::move(s));
    }
    case ValueKind::kList: {
      SERAPH_ASSIGN_OR_RETURN(uint32_t count, dec->U32());
      Value::List items;
      items.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        SERAPH_ASSIGN_OR_RETURN(Value item, ReadValue(dec));
        items.push_back(std::move(item));
      }
      return Value::MakeList(std::move(items));
    }
    case ValueKind::kMap: {
      SERAPH_ASSIGN_OR_RETURN(uint32_t count, dec->U32());
      Value::Map entries;
      for (uint32_t i = 0; i < count; ++i) {
        SERAPH_ASSIGN_OR_RETURN(std::string key, dec->String());
        SERAPH_ASSIGN_OR_RETURN(Value entry, ReadValue(dec));
        entries.emplace(std::move(key), std::move(entry));
      }
      return Value::MakeMap(std::move(entries));
    }
    case ValueKind::kDateTime: {
      SERAPH_ASSIGN_OR_RETURN(int64_t millis, dec->I64());
      return Value::DateTime(Timestamp::FromMillis(millis));
    }
    case ValueKind::kDuration: {
      SERAPH_ASSIGN_OR_RETURN(int64_t millis, dec->I64());
      return Value::Dur(Duration::FromMillis(millis));
    }
    case ValueKind::kNode: {
      SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
      return Value::Node(NodeId{id});
    }
    case ValueKind::kRelationship: {
      SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
      return Value::Relationship(RelId{id});
    }
    case ValueKind::kPath: {
      PathValue path;
      SERAPH_ASSIGN_OR_RETURN(uint32_t nodes, dec->U32());
      path.nodes.reserve(nodes);
      for (uint32_t i = 0; i < nodes; ++i) {
        SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
        path.nodes.push_back(NodeId{id});
      }
      SERAPH_ASSIGN_OR_RETURN(uint32_t rels, dec->U32());
      path.rels.reserve(rels);
      for (uint32_t i = 0; i < rels; ++i) {
        SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
        path.rels.push_back(RelId{id});
      }
      return Value::Path(std::move(path));
    }
  }
  return DecodeError("unreachable value kind");
}

void WriteRecord(const Record& record, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(record.size()));
  for (const auto& [name, value] : record) {
    enc->PutString(name);
    WriteValue(value, enc);
  }
}

Result<Record> ReadRecord(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, dec->U32());
  Record record;
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string name, dec->String());
    SERAPH_ASSIGN_OR_RETURN(Value value, ReadValue(dec));
    record.Set(std::move(name), std::move(value));
  }
  return record;
}

void WriteTable(const Table& table, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(table.fields().size()));
  for (const std::string& field : table.fields()) enc->PutString(field);
  enc->PutU32(static_cast<uint32_t>(table.rows().size()));
  for (const Record& row : table.rows()) WriteRecord(row, enc);
}

Result<Table> ReadTable(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(uint32_t field_count, dec->U32());
  std::set<std::string> fields;
  for (uint32_t i = 0; i < field_count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string field, dec->String());
    fields.insert(std::move(field));
  }
  Table table(std::move(fields));
  SERAPH_ASSIGN_OR_RETURN(uint32_t row_count, dec->U32());
  for (uint32_t i = 0; i < row_count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(Record row, ReadRecord(dec));
    // Unchecked: the writer serialized a well-formed table; rows keep
    // their original (possibly partial) domains.
    table.AppendUnchecked(std::move(row));
  }
  return table;
}

void WriteInterval(const TimeInterval& interval, Encoder* enc) {
  enc->PutI64(interval.start.millis());
  enc->PutI64(interval.end.millis());
}

Result<TimeInterval> ReadInterval(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(int64_t start, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(int64_t end, dec->I64());
  return TimeInterval{Timestamp::FromMillis(start), Timestamp::FromMillis(end)};
}

void WriteAnnotatedTable(const TimeAnnotatedTable& table, Encoder* enc) {
  WriteInterval(table.window, enc);
  WriteTable(table.table, enc);
}

Result<TimeAnnotatedTable> ReadAnnotatedTable(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(TimeInterval window, ReadInterval(dec));
  SERAPH_ASSIGN_OR_RETURN(Table table, ReadTable(dec));
  return TimeAnnotatedTable{std::move(table), window};
}

void WriteStatus(const Status& status, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(status.code()));
  enc->PutString(status.message());
}

Status ReadStatus(Decoder* dec, Status* out) {
  SERAPH_ASSIGN_OR_RETURN(uint8_t code, dec->U8());
  if (code > static_cast<uint8_t>(kLastStatusCode)) {
    return DecodeError("unknown status code " + std::to_string(code));
  }
  SERAPH_ASSIGN_OR_RETURN(std::string message, dec->String());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Graphs / stream elements
// ---------------------------------------------------------------------------

namespace {

void WriteProperties(const Value::Map& properties, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(properties.size()));
  for (const auto& [key, value] : properties) {
    enc->PutString(key);
    WriteValue(value, enc);
  }
}

Result<Value::Map> ReadProperties(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, dec->U32());
  Value::Map properties;
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string key, dec->String());
    SERAPH_ASSIGN_OR_RETURN(Value value, ReadValue(dec));
    properties.emplace(std::move(key), std::move(value));
  }
  return properties;
}

}  // namespace

void WriteGraph(const PropertyGraph& graph, Encoder* enc) {
  const std::vector<NodeId> node_ids = graph.NodeIds();
  enc->PutU32(static_cast<uint32_t>(node_ids.size()));
  for (NodeId id : node_ids) {
    const NodeData* data = graph.node(id);
    enc->PutI64(id.value);
    enc->PutU32(static_cast<uint32_t>(data->labels.size()));
    for (const std::string& label : data->labels) enc->PutString(label);
    WriteProperties(data->properties, enc);
  }
  const std::vector<RelId> rel_ids = graph.RelationshipIds();
  enc->PutU32(static_cast<uint32_t>(rel_ids.size()));
  for (RelId id : rel_ids) {
    const RelData* data = graph.relationship(id);
    enc->PutI64(id.value);
    enc->PutString(data->type);
    enc->PutI64(data->src.value);
    enc->PutI64(data->trg.value);
    WriteProperties(data->properties, enc);
  }
}

Result<PropertyGraph> ReadGraph(Decoder* dec) {
  PropertyGraph graph;
  SERAPH_ASSIGN_OR_RETURN(uint32_t node_count, dec->U32());
  for (uint32_t i = 0; i < node_count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
    NodeData data;
    SERAPH_ASSIGN_OR_RETURN(uint32_t label_count, dec->U32());
    for (uint32_t j = 0; j < label_count; ++j) {
      SERAPH_ASSIGN_OR_RETURN(std::string label, dec->String());
      data.labels.insert(std::move(label));
    }
    SERAPH_ASSIGN_OR_RETURN(data.properties, ReadProperties(dec));
    SERAPH_RETURN_IF_ERROR(graph.AddNode(NodeId{id}, std::move(data)));
  }
  SERAPH_ASSIGN_OR_RETURN(uint32_t rel_count, dec->U32());
  for (uint32_t i = 0; i < rel_count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(int64_t id, dec->I64());
    RelData data;
    SERAPH_ASSIGN_OR_RETURN(data.type, dec->String());
    SERAPH_ASSIGN_OR_RETURN(int64_t src, dec->I64());
    SERAPH_ASSIGN_OR_RETURN(int64_t trg, dec->I64());
    data.src = NodeId{src};
    data.trg = NodeId{trg};
    SERAPH_ASSIGN_OR_RETURN(data.properties, ReadProperties(dec));
    SERAPH_RETURN_IF_ERROR(graph.AddRelationship(RelId{id}, std::move(data)));
  }
  return graph;
}

void WriteStreamElement(const StreamElement& element, Encoder* enc) {
  enc->PutI64(element.timestamp.millis());
  WriteGraph(*element.graph, enc);
}

Result<StreamElement> ReadStreamElement(Decoder* dec) {
  SERAPH_ASSIGN_OR_RETURN(int64_t millis, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(PropertyGraph graph, ReadGraph(dec));
  return StreamElement{
      std::make_shared<const PropertyGraph>(std::move(graph)),
      Timestamp::FromMillis(millis)};
}

// ---------------------------------------------------------------------------
// Query execution state
// ---------------------------------------------------------------------------

void WriteQueryStats(const QueryStats& stats, Encoder* enc) {
  enc->PutI64(stats.evaluations);
  enc->PutI64(stats.reused_results);
  enc->PutI64(stats.fresh_executions);
  enc->PutI64(stats.match_rows);
  enc->PutI64(stats.rows_emitted);
  enc->PutI64(stats.snapshots_incremental);
  enc->PutI64(stats.snapshots_rebuilt);
  enc->PutI64(stats.window_elements_added);
  enc->PutI64(stats.window_elements_evicted);
  enc->PutI64(stats.eval_failures);
  WriteStatus(stats.last_error, enc);
}

Result<QueryStats> ReadQueryStats(Decoder* dec) {
  QueryStats stats;
  SERAPH_ASSIGN_OR_RETURN(stats.evaluations, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.reused_results, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.fresh_executions, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.match_rows, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.rows_emitted, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.snapshots_incremental, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.snapshots_rebuilt, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.window_elements_added, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.window_elements_evicted, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(stats.eval_failures, dec->I64());
  SERAPH_RETURN_IF_ERROR(ReadStatus(dec, &stats.last_error));
  return stats;
}

void WriteQueryCheckpoint(const QueryCheckpoint& query, Encoder* enc) {
  enc->PutString(query.name);
  enc->PutI64(query.next_eval.millis());
  enc->PutBool(query.done);
  enc->PutBool(query.disabled);
  enc->PutI64(query.consecutive_failures);
  enc->PutBool(query.has_previous);
  WriteTable(query.previous_result, enc);
  WriteQueryStats(query.stats, enc);
}

Result<QueryCheckpoint> ReadQueryCheckpoint(Decoder* dec) {
  QueryCheckpoint query;
  SERAPH_ASSIGN_OR_RETURN(query.name, dec->String());
  SERAPH_ASSIGN_OR_RETURN(int64_t next_eval, dec->I64());
  query.next_eval = Timestamp::FromMillis(next_eval);
  SERAPH_ASSIGN_OR_RETURN(query.done, dec->Bool());
  SERAPH_ASSIGN_OR_RETURN(query.disabled, dec->Bool());
  SERAPH_ASSIGN_OR_RETURN(int64_t failures, dec->I64());
  query.consecutive_failures = static_cast<int>(failures);
  SERAPH_ASSIGN_OR_RETURN(query.has_previous, dec->Bool());
  SERAPH_ASSIGN_OR_RETURN(query.previous_result, ReadTable(dec));
  SERAPH_ASSIGN_OR_RETURN(query.stats, ReadQueryStats(dec));
  return query;
}

// ---------------------------------------------------------------------------
// Dead letters
// ---------------------------------------------------------------------------

void WriteDeadLetterEntry(const DeadLetterEntry& entry, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(entry.kind));
  enc->PutString(entry.source);
  enc->PutString(entry.query);
  enc->PutI64(entry.timestamp.millis());
  WriteStatus(entry.error, enc);
  enc->PutI64(entry.attempts);
  enc->PutBool(entry.result.has_value());
  if (entry.result.has_value()) WriteAnnotatedTable(*entry.result, enc);
  enc->PutBool(entry.element.has_value());
  if (entry.element.has_value()) {
    enc->PutI64(entry.element->nodes);
    enc->PutI64(entry.element->relationships);
  }
}

Result<DeadLetterEntry> ReadDeadLetterEntry(Decoder* dec) {
  DeadLetterEntry entry;
  SERAPH_ASSIGN_OR_RETURN(uint8_t kind, dec->U8());
  if (kind > static_cast<uint8_t>(DeadLetterEntry::Kind::kEvaluation)) {
    return DecodeError("unknown dead-letter kind " + std::to_string(kind));
  }
  entry.kind = static_cast<DeadLetterEntry::Kind>(kind);
  SERAPH_ASSIGN_OR_RETURN(entry.source, dec->String());
  SERAPH_ASSIGN_OR_RETURN(entry.query, dec->String());
  SERAPH_ASSIGN_OR_RETURN(int64_t millis, dec->I64());
  entry.timestamp = Timestamp::FromMillis(millis);
  SERAPH_RETURN_IF_ERROR(ReadStatus(dec, &entry.error));
  SERAPH_ASSIGN_OR_RETURN(entry.attempts, dec->I64());
  SERAPH_ASSIGN_OR_RETURN(bool has_result, dec->Bool());
  if (has_result) {
    SERAPH_ASSIGN_OR_RETURN(TimeAnnotatedTable result,
                            ReadAnnotatedTable(dec));
    entry.result = std::move(result);
  }
  SERAPH_ASSIGN_OR_RETURN(bool has_element, dec->Bool());
  if (has_element) {
    DeadLetterEntry::ElementSummary element;
    SERAPH_ASSIGN_OR_RETURN(element.nodes, dec->I64());
    SERAPH_ASSIGN_OR_RETURN(element.relationships, dec->I64());
    entry.element = element;
  }
  return entry;
}

}  // namespace persist
}  // namespace seraph
