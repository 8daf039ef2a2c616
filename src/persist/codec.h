// Binary snapshot codec for the durability subsystem (docs/INTERNALS.md,
// "Durability & recovery").
//
// The paper's planned substrate (§6: Neo4j + Kafka) gets durability for
// free from Kafka's replayable log; our in-memory substitution
// (DESIGN.md §5) has to persist engine state itself. This header defines
// the on-disk encoding used by persist/checkpoint: a versioned,
// little-endian, length-prefixed format in which every frame carries a
// CRC-32 of its payload, so torn writes (truncation) and bit rot both
// surface as explicit decode errors instead of silently corrupt state.
//
// Layout of a checkpoint file:
//
//   [u32 magic "SRPH"][u32 format version]
//   frame*            where frame = [u32 payload len][u32 crc32][payload]
//
// Values, records, tables, property graphs, stream elements, query
// execution state, and dead-letter entries all encode into frame
// payloads via the Write*/Read* pairs below. Encoding is deterministic
// (map iteration orders, sorted entity ids), so equal states produce
// byte-identical checkpoints — the property the crash-recovery
// equivalence test leans on.
#ifndef SERAPH_PERSIST_CODEC_H_
#define SERAPH_PERSIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "graph/property_graph.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "stream/graph_stream.h"
#include "table/table.h"
#include "table/time_table.h"
#include "value/value.h"

namespace seraph {
namespace persist {

// "SRPH" in little-endian byte order, followed by the format version.
// Version 5 writes each generation as one file whose first frame counts
// the frames after it (persist/checkpoint.h); versions 1-4 split a
// generation into segment files listed by a manifest. A file of any other
// version is rejected with kFailedPrecondition.
inline constexpr uint32_t kMagic = 0x48505253;
inline constexpr uint32_t kFormatVersion = 5;

// CRC-32 (IEEE 802.3 polynomial, the Kafka/zlib convention) of `data`.
uint32_t Crc32(std::string_view data);

// Appends little-endian primitives to a growing byte buffer.
class Encoder {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  // Exact bit pattern — floats round-trip without text formatting loss.
  void PutDouble(double v);
  // u32 length + raw bytes.
  void PutString(std::string_view s);

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Reads the Encoder's encoding back; every accessor fails with
// kInvalidArgument ("checkpoint decode: ...") on truncated input instead
// of reading past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<bool> Bool();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> Double();
  Result<std::string> String();

  bool done() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Frames ----

// Appends [u32 len][u32 crc32(payload)][payload] to `*out`.
void AppendFrame(std::string_view payload, std::string* out);

// Appends the file header (magic + version) to `*out`.
void AppendFileHeader(std::string* out);

// Iterates the frames of a persisted file, verifying the header once and
// each frame's length and CRC as it goes. Any mismatch (truncation, bit
// flip, bad magic) is a decode error.
class FrameReader {
 public:
  explicit FrameReader(std::string_view file) : data_(file) {}

  // Validates magic + version; must be called (and succeed) before Next.
  // A well-formed file of another format version is not damage but a
  // file this build cannot read: kFailedPrecondition, so recovery stops
  // instead of falling back past it or cold-starting over it.
  Status ReadHeader();

  // The next frame's payload (valid while the backing file buffer lives).
  // A file that ends where a frame should start is a decode error too:
  // readers know how many frames to expect, so the file was cut short.
  Result<std::string_view> Next();

  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Domain writers/readers ----
// Each Write* produces bytes only Read* consumes; all composites are
// length-prefixed so decoders never scan.

void WriteValue(const Value& value, Encoder* enc);
Result<Value> ReadValue(Decoder* dec);

void WriteRecord(const Record& record, Encoder* enc);
Result<Record> ReadRecord(Decoder* dec);

void WriteTable(const Table& table, Encoder* enc);
Result<Table> ReadTable(Decoder* dec);

void WriteInterval(const TimeInterval& interval, Encoder* enc);
Result<TimeInterval> ReadInterval(Decoder* dec);

void WriteAnnotatedTable(const TimeAnnotatedTable& table, Encoder* enc);
Result<TimeAnnotatedTable> ReadAnnotatedTable(Decoder* dec);

void WriteStatus(const Status& status, Encoder* enc);
// Out-param rather than Result<Status>: Result cannot hold a Status value
// (an OK payload would be indistinguishable from an OK wrapper).
Status ReadStatus(Decoder* dec, Status* out);

// Nodes then relationships, ascending id order (deterministic bytes).
void WriteGraph(const PropertyGraph& graph, Encoder* enc);
Result<PropertyGraph> ReadGraph(Decoder* dec);

void WriteStreamElement(const StreamElement& element, Encoder* enc);
Result<StreamElement> ReadStreamElement(Decoder* dec);

void WriteQueryStats(const QueryStats& stats, Encoder* enc);
Result<QueryStats> ReadQueryStats(Decoder* dec);

void WriteQueryCheckpoint(const QueryCheckpoint& query, Encoder* enc);
Result<QueryCheckpoint> ReadQueryCheckpoint(Decoder* dec);

void WriteDeadLetterEntry(const DeadLetterEntry& entry, Encoder* enc);
Result<DeadLetterEntry> ReadDeadLetterEntry(Decoder* dec);

}  // namespace persist
}  // namespace seraph

#endif  // SERAPH_PERSIST_CODEC_H_
