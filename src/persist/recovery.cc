#include "persist/recovery.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "persist/codec.h"

namespace seraph {
namespace persist {
namespace {

namespace fs = std::filesystem;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Unavailable("recovery io: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("open", path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return IoError("read", path);
  return contents;
}

// One manifest entry, as promised by the commit point.
struct ManifestEntry {
  SegmentRole role;
  std::string file;
  uint64_t size = 0;
  uint32_t crc = 0;
};

struct Manifest {
  uint64_t seq = 0;
  std::vector<ManifestEntry> entries;
};

Result<Manifest> DecodeManifest(std::string_view contents) {
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
  Decoder dec(payload);
  Manifest manifest;
  SERAPH_ASSIGN_OR_RETURN(manifest.seq, dec.U64());
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, dec.U32());
  manifest.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    SERAPH_ASSIGN_OR_RETURN(uint8_t role, dec.U8());
    if (role > static_cast<uint8_t>(SegmentRole::kStream)) {
      return Status::InvalidArgument("checkpoint decode: bad segment role " +
                                     std::to_string(role));
    }
    entry.role = static_cast<SegmentRole>(role);
    SERAPH_ASSIGN_OR_RETURN(entry.file, dec.String());
    SERAPH_ASSIGN_OR_RETURN(entry.size, dec.U64());
    SERAPH_ASSIGN_OR_RETURN(entry.crc, dec.U32());
    manifest.entries.push_back(std::move(entry));
  }
  if (!dec.done()) {
    return Status::InvalidArgument(
        "checkpoint decode: trailing bytes in manifest");
  }
  return manifest;
}

// Decodes queries-<seq>.seg into the engine image (clock meta + queries).
Status DecodeQueriesSegment(std::string_view contents,
                            EngineCheckpoint* engine) {
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view meta_payload, reader.Next());
  Decoder meta(meta_payload);
  SERAPH_ASSIGN_OR_RETURN(int64_t clock_millis, meta.I64());
  engine->clock = Timestamp::FromMillis(clock_millis);
  SERAPH_ASSIGN_OR_RETURN(engine->clock_started, meta.Bool());
  SERAPH_ASSIGN_OR_RETURN(engine->evaluations_run, meta.I64());
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, meta.U32());
  engine->queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
    Decoder dec(payload);
    SERAPH_ASSIGN_OR_RETURN(QueryCheckpoint query, ReadQueryCheckpoint(&dec));
    engine->queries.push_back(std::move(query));
  }
  return Status::OK();
}

Status DecodeStreamSegment(std::string_view contents,
                           EngineCheckpoint* engine) {
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view meta_payload, reader.Next());
  Decoder meta(meta_payload);
  SERAPH_ASSIGN_OR_RETURN(std::string name, meta.String());
  StreamCheckpoint stream;
  SERAPH_ASSIGN_OR_RETURN(uint64_t base_offset, meta.U64());
  stream.base_offset = static_cast<size_t>(base_offset);
  SERAPH_ASSIGN_OR_RETURN(int64_t max_millis, meta.I64());
  stream.max_timestamp = Timestamp::FromMillis(max_millis);
  SERAPH_ASSIGN_OR_RETURN(int64_t trimmed_millis, meta.I64());
  stream.trimmed_through = Timestamp::FromMillis(trimmed_millis);
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, meta.U32());
  stream.elements.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
    Decoder dec(payload);
    SERAPH_ASSIGN_OR_RETURN(StreamElement element, ReadStreamElement(&dec));
    stream.elements.push_back(std::move(element));
  }
  if (engine->streams.contains(name)) {
    return Status::InvalidArgument("checkpoint decode: duplicate stream '" +
                                   name + "'");
  }
  engine->streams.emplace(std::move(name), std::move(stream));
  return Status::OK();
}

Status DecodeOffsetsSegment(std::string_view contents,
                            std::map<std::string, uint64_t>* offsets) {
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view meta_payload, reader.Next());
  Decoder meta(meta_payload);
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, meta.U32());
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
    Decoder dec(payload);
    SERAPH_ASSIGN_OR_RETURN(std::string consumer, dec.String());
    SERAPH_ASSIGN_OR_RETURN(bool has_offset, dec.Bool());
    SERAPH_ASSIGN_OR_RETURN(uint64_t offset, dec.U64());
    if (has_offset) offsets->insert_or_assign(std::move(consumer), offset);
  }
  return Status::OK();
}

Status DecodeDeadLetterSegment(std::string_view contents,
                               std::vector<DeadLetterEntry>* entries) {
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view meta_payload, reader.Next());
  Decoder meta(meta_payload);
  SERAPH_ASSIGN_OR_RETURN(uint32_t count, meta.U32());
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
    Decoder dec(payload);
    SERAPH_ASSIGN_OR_RETURN(DeadLetterEntry entry, ReadDeadLetterEntry(&dec));
    entries->push_back(std::move(entry));
  }
  return Status::OK();
}

// All manifest sequence numbers present in `dir`, descending.
Result<std::vector<uint64_t>> ListManifestSeqs(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("no checkpoint directory '" + dir + "'");
  }
  std::vector<uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (ParseManifestFileName(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  if (ec) return IoError("scan", dir);
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

// Validates a segment against its manifest entry and decodes it into the
// image. `summary` (optional) records per-segment status for inspection.
Status LoadSegment(const std::string& dir, const ManifestEntry& entry,
                   CheckpointImage* image, SegmentSummary* summary) {
  const std::string path = dir + "/" + entry.file;
  if (summary != nullptr) {
    summary->role = entry.role;
    summary->file = entry.file;
    summary->manifest_size = entry.size;
  }
  auto contents = ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  if (summary != nullptr) {
    summary->present = true;
    summary->actual_size = contents->size();
  }
  if (contents->size() != entry.size) {
    return Status::InvalidArgument(
        "checkpoint decode: '" + entry.file + "' is " +
        std::to_string(contents->size()) + " bytes, manifest promised " +
        std::to_string(entry.size));
  }
  if (Crc32(*contents) != entry.crc) {
    return Status::InvalidArgument("checkpoint decode: '" + entry.file +
                                   "' fails its manifest CRC");
  }
  if (summary != nullptr) summary->crc_ok = true;
  switch (entry.role) {
    case SegmentRole::kQueries:
      return DecodeQueriesSegment(*contents, &image->engine);
    case SegmentRole::kStream:
      return DecodeStreamSegment(*contents, &image->engine);
    case SegmentRole::kOffsets:
      return DecodeOffsetsSegment(*contents, &image->offsets);
    case SegmentRole::kDeadLetters:
      return DecodeDeadLetterSegment(*contents, &image->dead_letters);
  }
  return Status::InvalidArgument("checkpoint decode: unknown segment role");
}

// Loads one generation; fills `summary` segments when requested.
Result<CheckpointImage> LoadGeneration(const std::string& dir, uint64_t seq,
                                       std::vector<SegmentSummary>* segments) {
  SERAPH_ASSIGN_OR_RETURN(
      std::string manifest_bytes,
      ReadWholeFile(dir + "/" + ManifestFileName(seq)));
  SERAPH_ASSIGN_OR_RETURN(Manifest manifest, DecodeManifest(manifest_bytes));
  if (manifest.seq != seq) {
    return Status::InvalidArgument(
        "checkpoint decode: manifest claims seq " +
        std::to_string(manifest.seq) + ", filename says " +
        std::to_string(seq));
  }
  CheckpointImage image;
  image.seq = seq;
  bool saw_queries = false;
  for (const ManifestEntry& entry : manifest.entries) {
    SegmentSummary* summary = nullptr;
    if (segments != nullptr) {
      segments->emplace_back();
      summary = &segments->back();
    }
    SERAPH_RETURN_IF_ERROR(LoadSegment(dir, entry, &image, summary));
    if (entry.role == SegmentRole::kQueries) saw_queries = true;
  }
  if (!saw_queries) {
    return Status::InvalidArgument(
        "checkpoint decode: manifest lists no queries segment");
  }
  return image;
}

}  // namespace

Result<CheckpointImage> LoadCheckpoint(const std::string& dir, uint64_t seq) {
  return LoadGeneration(dir, seq, nullptr);
}

Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir) {
  SERAPH_FAULT_POINT("recovery.read");
  SERAPH_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListManifestSeqs(dir));
  Status last_error = Status::OK();
  for (uint64_t seq : seqs) {
    auto image = LoadGeneration(dir, seq, nullptr);
    if (image.ok()) return image;
    // A generation of another format version is intact but unreadable
    // here. Falling back past it would restore older state, and reporting
    // kNotFound would let callers cold-start and re-emit everything.
    if (image.status().code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(
          "checkpoint generation " + std::to_string(seq) + " in '" + dir +
          "': " + image.status().message());
    }
    // Corruption can only touch the newest generation after a crash
    // mid-commit (or bit rot anywhere): log it and fall back.
    SERAPH_LOG(WARNING) << "checkpoint generation " << seq
                        << " unusable: " << image.status().ToString();
    last_error = image.status();
  }
  if (last_error.ok()) {
    return Status::NotFound("no checkpoint in '" + dir + "'");
  }
  return Status::NotFound("no valid checkpoint in '" + dir +
                          "' (newest failure: " + last_error.ToString() + ")");
}

Status RestoreEngine(const CheckpointImage& image, ContinuousEngine* engine) {
  return engine->RestoreFrom(image.engine);
}

Status RestoreConsumer(const CheckpointImage& image,
                       const std::string& consumer, EventQueue* queue) {
  queue->Subscribe(consumer);
  auto it = image.offsets.find(consumer);
  if (it == image.offsets.end()) return Status::OK();
  // RestoreOffset, not Seek: a bounded tool restores before re-producing
  // the log, so the checkpointed offset may lead the still-empty queue.
  return queue->RestoreOffset(consumer, static_cast<size_t>(it->second));
}

Status RestoreDeadLetters(const CheckpointImage& image,
                          DeadLetterQueue* dead_letter) {
  for (const DeadLetterEntry& entry : image.dead_letters) {
    dead_letter->Add(entry);
  }
  return Status::OK();
}

Result<RecoveryReport> RecoverAll(const std::string& dir,
                                  ContinuousEngine* engine,
                                  EventQueue* queue,
                                  const std::vector<std::string>& consumers,
                                  DeadLetterQueue* dead_letter) {
  SERAPH_ASSIGN_OR_RETURN(CheckpointImage image, LoadLatestCheckpoint(dir));
  SERAPH_RETURN_IF_ERROR(RestoreEngine(image, engine));
  // Complete the batch the crash interrupted. The checkpoint barrier
  // fires per evaluation batch *inside* AdvanceTo(now), so a mid-batch
  // generation records clock = t while instants in (t, now] were still
  // pending — and `now` (the delivered horizon) is exactly the max
  // timestamp of the restored streams, which is what Drain advances to.
  // Running the catch-up here, BEFORE consumers replay the queue suffix,
  // reproduces the original evaluation schedule: those instants fire on
  // the restored window contents, not contents polluted by later
  // replayed elements. When the cut was a final barrier, no instant is
  // pending and Drain fires nothing.
  SERAPH_RETURN_IF_ERROR(engine->Drain());
  RecoveryReport report;
  report.seq = image.seq;
  report.queries = image.engine.queries.size();
  report.streams = image.engine.streams.size();
  for (const auto& [name, stream] : image.engine.streams) {
    report.stream_elements += stream.elements.size();
  }
  int64_t replayed = 0;
  for (const std::string& consumer : consumers) {
    SERAPH_RETURN_IF_ERROR(RestoreConsumer(image, consumer, queue));
    const size_t offset = queue->OffsetOf(consumer).value_or(0);
    const size_t backlog = queue->size() > offset ? queue->size() - offset : 0;
    report.replay_backlog[consumer] = backlog;
    replayed += static_cast<int64_t>(backlog);
  }
  if (dead_letter != nullptr) {
    SERAPH_RETURN_IF_ERROR(RestoreDeadLetters(image, dead_letter));
    report.dead_letters = image.dead_letters.size();
  }
  engine->metrics()
      .CounterFor("seraph_recovery_replayed_elements")
      ->Increment(replayed);
  return report;
}

Result<std::vector<ManifestSummary>> InspectCheckpoints(
    const std::string& dir) {
  SERAPH_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListManifestSeqs(dir));
  std::vector<ManifestSummary> summaries;
  summaries.reserve(seqs.size());
  for (uint64_t seq : seqs) {
    ManifestSummary summary;
    summary.seq = seq;
    auto image = LoadGeneration(dir, seq, &summary.segments);
    if (image.ok()) {
      summary.valid = true;
      summary.image = std::move(*image);
    } else {
      summary.error = image.status().ToString();
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

}  // namespace persist
}  // namespace seraph
