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

Status DecodeError(const std::string& what) {
  return Status::InvalidArgument("checkpoint decode: " + what);
}

// Decodes the next frame of `reader` with `read`.
template <typename T>
Result<T> ReadFrame(FrameReader* reader, Result<T> (*read)(Decoder*)) {
  SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader->Next());
  Decoder dec(payload);
  return read(&dec);
}

// All generation sequence numbers present in `dir`, descending.
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

}  // namespace

// Reads the meta frame, then exactly the frames it counts, then the end
// of the file.
Result<CheckpointImage> LoadCheckpoint(const std::string& dir, uint64_t seq) {
  SERAPH_ASSIGN_OR_RETURN(std::string contents,
                          ReadWholeFile(dir + "/" + ManifestFileName(seq)));
  FrameReader reader(contents);
  SERAPH_RETURN_IF_ERROR(reader.ReadHeader());
  SERAPH_ASSIGN_OR_RETURN(std::string_view meta_payload, reader.Next());
  Decoder meta(meta_payload);
  CheckpointImage image;
  SERAPH_ASSIGN_OR_RETURN(image.seq, meta.U64());
  if (image.seq != seq) {
    return DecodeError("generation claims seq " + std::to_string(image.seq) +
                       ", filename says " + std::to_string(seq));
  }
  EngineCheckpoint& engine = image.engine;
  SERAPH_ASSIGN_OR_RETURN(int64_t clock_millis, meta.I64());
  engine.clock = Timestamp::FromMillis(clock_millis);
  SERAPH_ASSIGN_OR_RETURN(engine.clock_started, meta.Bool());
  SERAPH_ASSIGN_OR_RETURN(engine.evaluations_run, meta.I64());
  SERAPH_ASSIGN_OR_RETURN(uint32_t queries, meta.U32());
  SERAPH_ASSIGN_OR_RETURN(uint32_t streams, meta.U32());
  SERAPH_ASSIGN_OR_RETURN(uint32_t offsets, meta.U32());
  SERAPH_ASSIGN_OR_RETURN(uint32_t dead_letters, meta.U32());
  DeadLetterTotals& totals = image.dead_letter_totals;
  SERAPH_ASSIGN_OR_RETURN(totals.sink_results, meta.I64());
  SERAPH_ASSIGN_OR_RETURN(totals.elements, meta.I64());
  SERAPH_ASSIGN_OR_RETURN(totals.evaluation_failures, meta.I64());

  for (uint32_t i = 0; i < queries; ++i) {
    SERAPH_ASSIGN_OR_RETURN(QueryCheckpoint query,
                            ReadFrame(&reader, &ReadQueryCheckpoint));
    engine.queries.push_back(std::move(query));
  }
  for (uint32_t i = 0; i < streams; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view header_payload, reader.Next());
    Decoder header(header_payload);
    SERAPH_ASSIGN_OR_RETURN(std::string name, header.String());
    StreamCheckpoint stream;
    SERAPH_ASSIGN_OR_RETURN(uint64_t base_offset, header.U64());
    stream.base_offset = static_cast<size_t>(base_offset);
    SERAPH_ASSIGN_OR_RETURN(int64_t max_millis, header.I64());
    stream.max_timestamp = Timestamp::FromMillis(max_millis);
    SERAPH_ASSIGN_OR_RETURN(int64_t trimmed_millis, header.I64());
    stream.trimmed_through = Timestamp::FromMillis(trimmed_millis);
    SERAPH_ASSIGN_OR_RETURN(uint32_t elements, header.U32());
    for (uint32_t j = 0; j < elements; ++j) {
      SERAPH_ASSIGN_OR_RETURN(StreamElement element,
                              ReadFrame(&reader, &ReadStreamElement));
      stream.elements.push_back(std::move(element));
    }
    if (!engine.streams.emplace(name, std::move(stream)).second) {
      return DecodeError("duplicate stream '" + name + "'");
    }
  }
  for (uint32_t i = 0; i < offsets; ++i) {
    SERAPH_ASSIGN_OR_RETURN(std::string_view payload, reader.Next());
    Decoder dec(payload);
    SERAPH_ASSIGN_OR_RETURN(std::string consumer, dec.String());
    SERAPH_ASSIGN_OR_RETURN(bool has_offset, dec.Bool());
    SERAPH_ASSIGN_OR_RETURN(uint64_t offset, dec.U64());
    if (has_offset) image.offsets.insert_or_assign(std::move(consumer), offset);
  }
  for (uint32_t i = 0; i < dead_letters; ++i) {
    SERAPH_ASSIGN_OR_RETURN(DeadLetterEntry entry,
                            ReadFrame(&reader, &ReadDeadLetterEntry));
    image.dead_letters.push_back(std::move(entry));
  }
  if (!reader.done()) return DecodeError("bytes after the last counted frame");
  return image;
}

Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir) {
  SERAPH_FAULT_POINT("recovery.read");
  SERAPH_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListManifestSeqs(dir));
  Status last_error = Status::OK();
  for (uint64_t seq : seqs) {
    auto image = LoadCheckpoint(dir, seq);
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

Status RestoreConsumer(const CheckpointImage& image,
                       const std::string& consumer, EventQueue* queue) {
  auto it = image.offsets.find(consumer);
  if (it == image.offsets.end()) {
    queue->Subscribe(consumer);
    return Status::OK();
  }
  // The queue had appended everything the restored streams hold, so a
  // re-produced element older than the newest of them is late.
  Timestamp floor = image.engine.clock;
  for (const auto& [name, stream] : image.engine.streams) {
    floor = std::max(floor, stream.max_timestamp);
  }
  return queue->RestoreOffset(consumer, static_cast<size_t>(it->second),
                              floor);
}

Result<RecoveryReport> RecoverAll(const std::string& dir,
                                  ContinuousEngine* engine,
                                  EventQueue* queue,
                                  const std::string& consumer,
                                  DeadLetterQueue* dead_letter) {
  SERAPH_ASSIGN_OR_RETURN(CheckpointImage image, LoadLatestCheckpoint(dir));
  SERAPH_RETURN_IF_ERROR(engine->RestoreFrom(image.engine));
  SERAPH_RETURN_IF_ERROR(RestoreConsumer(image, consumer, queue));
  RecoveryReport report;
  report.seq = image.seq;
  report.queries = image.engine.queries.size();
  report.streams = image.engine.streams.size();
  for (const auto& [name, stream] : image.engine.streams) {
    report.stream_elements += stream.elements.size();
  }
  if (dead_letter != nullptr) {
    report.dead_letters = image.dead_letters.size();
    dead_letter->Restore(std::move(image.dead_letters),
                         image.dead_letter_totals);
  }
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
    std::error_code ec;
    const uintmax_t bytes =
        fs::file_size(dir + "/" + ManifestFileName(seq), ec);
    summary.bytes = ec ? 0 : bytes;
    auto image = LoadCheckpoint(dir, seq);
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
