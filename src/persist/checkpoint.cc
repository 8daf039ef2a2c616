#include "persist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "persist/codec.h"

namespace seraph {
namespace persist {
namespace {

namespace fs = std::filesystem;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Unavailable("checkpoint io: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

// fsync a path (file or directory). Directory fsync makes the rename
// itself durable, not just the file contents.
Status SyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open for fsync", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("fsync", path);
  return Status::OK();
}

}  // namespace

std::string ManifestFileName(uint64_t seq) {
  return "MANIFEST-" + std::to_string(seq);
}

bool ParseManifestFileName(const std::string& name, uint64_t* seq) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.size() <= kPrefix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {}

void CheckpointManager::BindQueue(std::string consumer,
                                  const EventQueue* queue) {
  queues_.emplace_back(std::move(consumer), queue);
}

void CheckpointManager::BindDeadLetter(const DeadLetterQueue* dead_letter) {
  dead_letter_ = dead_letter;
}

Result<uint64_t> CheckpointManager::CommitImage(const EngineCheckpoint& image,
                                                uint64_t seq) {
  static const DeadLetterQueue kNoDeadLetters;
  const DeadLetterQueue& dead_letters =
      dead_letter_ != nullptr ? *dead_letter_ : kNoDeadLetters;
  std::string out;
  AppendFileHeader(&out);
  // The meta frame counts every frame after it, so recovery reads exactly
  // those and catches a file cut at a frame boundary.
  Encoder meta;
  meta.PutU64(seq);
  meta.PutI64(image.clock.millis());
  meta.PutBool(image.clock_started);
  meta.PutI64(image.evaluations_run);
  meta.PutU32(static_cast<uint32_t>(image.queries.size()));
  meta.PutU32(static_cast<uint32_t>(image.streams.size()));
  meta.PutU32(static_cast<uint32_t>(queues_.size()));
  meta.PutU32(static_cast<uint32_t>(dead_letters.size()));
  meta.PutI64(dead_letters.sink_results());
  meta.PutI64(dead_letters.elements());
  meta.PutI64(dead_letters.evaluation_failures());
  AppendFrame(meta.buffer(), &out);
  for (const QueryCheckpoint& query : image.queries) {
    Encoder enc;
    WriteQueryCheckpoint(query, &enc);
    AppendFrame(enc.buffer(), &out);
  }
  for (const auto& [name, stream] : image.streams) {
    // The retained suffix sits at absolute positions from base_offset on;
    // max and trimmed-through timestamps outlive the trimmed prefix
    // (docs/INTERNALS.md, "Stream retention").
    Encoder header;
    header.PutString(name);
    header.PutU64(static_cast<uint64_t>(stream.base_offset));
    header.PutI64(stream.max_timestamp.millis());
    header.PutI64(stream.trimmed_through.millis());
    header.PutU32(static_cast<uint32_t>(stream.elements.size()));
    AppendFrame(header.buffer(), &out);
    for (const StreamElement& element : stream.elements) {
      Encoder enc;
      WriteStreamElement(element, &enc);
      AppendFrame(enc.buffer(), &out);
    }
  }
  for (const auto& [consumer, queue] : queues_) {
    Encoder enc;
    enc.PutString(consumer);
    // An unbound consumer (never polled) has no committed position;
    // recovery re-subscribes it at 0, which is what a fresh consumer
    // would do anyway. The has-offset bit preserves the distinction.
    std::optional<size_t> offset = queue->OffsetOf(consumer);
    enc.PutBool(offset.has_value());
    enc.PutU64(static_cast<uint64_t>(offset.value_or(0)));
    AppendFrame(enc.buffer(), &out);
  }
  for (const DeadLetterEntry& entry : dead_letters.entries()) {
    Encoder enc;
    WriteDeadLetterEntry(entry, &enc);
    AppendFrame(enc.buffer(), &out);
  }

  SERAPH_FAULT_POINT("checkpoint.write");
  const std::string final_path = options_.dir + "/" + ManifestFileName(seq);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file) return IoError("open", tmp_path);
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    file.flush();
    if (!file) return IoError("write", tmp_path);
  }
  if (options_.fsync) SERAPH_RETURN_IF_ERROR(SyncPath(tmp_path));
  SERAPH_FAULT_POINT("checkpoint.rename");
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return IoError("rename", final_path);
  }
  if (options_.fsync) SERAPH_RETURN_IF_ERROR(SyncPath(options_.dir));
  return static_cast<uint64_t>(out.size());
}

void CheckpointManager::GarbageCollect(uint64_t newest_seq) {
  // Keep the newest kKeptGenerations generations. A *.tmp is never part
  // of a committed generation: a crashed writer left it. Everything else,
  // such as the files an older build wrote, stays.
  std::error_code ec;
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if ((ParseManifestFileName(name, &seq) &&
         seq + kKeptGenerations <= newest_seq) ||
        name.ends_with(".tmp")) {
      doomed.push_back(entry.path());
    }
  }
  for (const fs::path& path : doomed) fs::remove(path, ec);
}

Status CheckpointManager::Checkpoint(ContinuousEngine* engine) {
  MetricsRegistry& registry = engine->metrics();
  Histogram* duration =
      registry.HistogramFor("seraph_checkpoint_duration_micros");
  Histogram* bytes = registry.HistogramFor("seraph_checkpoint_bytes");
  Counter* total = registry.CounterFor("seraph_checkpoint_total");
  Counter* failures = registry.CounterFor("seraph_checkpoint_failures_total");
  // Checkpoint-age health surface: the generation on disk and when it was
  // committed, so a scraper can alert on a stalling checkpoint cadence
  // (age = now − last_write).
  Gauge* last_seq_gauge = registry.GaugeFor("seraph_checkpoint_last_seq");
  Gauge* last_write_gauge =
      registry.GaugeFor("seraph_checkpoint_last_write_micros");

  const int64_t start = TraceRecorder::NowMicros();
  Status written = [&]() -> Status {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (ec) {
      return Status::Unavailable("checkpoint io: create dir '" +
                                 options_.dir + "': " + ec.message());
    }
    if (!seq_initialized_) {
      // Resume the sequence past any generations already in the dir (a
      // restarted process must not overwrite its predecessor's files).
      uint64_t max_seq = 0;
      for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
        uint64_t seq = 0;
        if (ParseManifestFileName(entry.path().filename().string(), &seq)) {
          max_seq = std::max(max_seq, seq);
        }
      }
      next_seq_ = max_seq + 1;
      seq_initialized_ = true;
    }
    const uint64_t seq = next_seq_;
    SERAPH_ASSIGN_OR_RETURN(uint64_t bytes_written,
                            CommitImage(engine->CaptureCheckpoint(), seq));
    ++next_seq_;
    last_seq_ = seq;
    bytes->Record(static_cast<int64_t>(bytes_written));
    GarbageCollect(seq);
    return Status::OK();
  }();
  duration->Record(TraceRecorder::NowMicros() - start);
  if (written.ok()) {
    ++checkpoints_written_;
    total->Increment();
    last_seq_gauge->Set(static_cast<int64_t>(last_seq_));
    last_write_gauge->Set(TraceRecorder::NowMicros());
  } else {
    ++checkpoint_failures_;
    failures->Increment();
  }
  return written;
}

}  // namespace persist
}  // namespace seraph
