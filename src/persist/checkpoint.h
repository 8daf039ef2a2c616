// Checkpoint writing for the durability subsystem (docs/INTERNALS.md,
// "Durability & recovery").
//
// A checkpoint generation, numbered by a monotonically increasing
// sequence, is one file, <dir>/MANIFEST-<seq> (persist/codec.h framing):
//
//   meta frame       seq, clock, clock_started, evaluations_run, the
//                    number of query, stream, offset and dead-letter
//                    frames below, and the three dead-letter totals
//   query frame      one per query state
//   stream frames    per stream: name, base offset, max/trimmed-through
//                    timestamps and element count, then one frame per
//                    retained element
//   offset frame     one per bound consumer and its committed offset
//   dead letter      one per letter the dead-letter ring holds
//
// The file is written to MANIFEST-<seq>.tmp, fsync'ed, renamed into
// place, and the directory fsync'ed; the rename is the commit point. A
// crash before it leaves the previous generation as the newest valid one,
// so recovery (persist/recovery.h) never observes a half-written
// checkpoint. After a commit, generations older than the newest
// kKeptGenerations are deleted, as is any stray *.tmp.
//
// Fault points (common/fault.h): "checkpoint.write" fires before the tmp
// write, "checkpoint.rename" after the tmp write and its fsync, before
// the rename — the chaos test kills the writer at both and proves
// recovery equivalence.
#ifndef SERAPH_PERSIST_CHECKPOINT_H_
#define SERAPH_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "stream/event_queue.h"

namespace seraph {
namespace persist {

// Generations kept after a commit: the newest plus one fallback for
// corruption recovery.
inline constexpr uint64_t kKeptGenerations = 2;

struct CheckpointOptions {
  // Checkpoint directory; created on first write if absent.
  std::string dir;
  // fsync the file and the directory around the rename. Disable only in
  // tests where the extra syscalls dominate runtime.
  bool fsync = true;
};

// Writes checkpoints of a ContinuousEngine (plus bound consumer offsets
// and dead letters) when its owner asks: between pumps, where the engine
// clock is the pump's target and no instant at or below it is pending.
// Not thread-safe, like the engine it serves.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);

  // Registers a consumer whose committed offset on `queue` is captured in
  // every checkpoint (the StreamDriver's position). Not owned.
  void BindQueue(std::string consumer, const EventQueue* queue);

  // Registers the dead-letter queue to persist. Not owned.
  void BindDeadLetter(const DeadLetterQueue* dead_letter);

  // Captures and atomically commits one checkpoint generation. Call it
  // between AdvanceTo calls. On failure nothing of the new generation is
  // visible to recovery; the previous generation stays the newest valid
  // one.
  Status Checkpoint(ContinuousEngine* engine);

  int64_t checkpoints_written() const { return checkpoints_written_; }
  int64_t checkpoint_failures() const { return checkpoint_failures_; }
  // Sequence number of the last committed generation (0 before any).
  uint64_t last_seq() const { return last_seq_; }

 private:
  // Encodes and commits generation `seq`; returns the bytes written.
  Result<uint64_t> CommitImage(const EngineCheckpoint& image, uint64_t seq);
  void GarbageCollect(uint64_t newest_seq);

  CheckpointOptions options_;
  std::vector<std::pair<std::string, const EventQueue*>> queues_;
  const DeadLetterQueue* dead_letter_ = nullptr;
  bool seq_initialized_ = false;
  uint64_t next_seq_ = 1;
  uint64_t last_seq_ = 0;
  int64_t checkpoints_written_ = 0;
  int64_t checkpoint_failures_ = 0;
};

// Filename helpers shared with recovery/inspection: generation `seq`
// lives in "MANIFEST-<seq>".
std::string ManifestFileName(uint64_t seq);
// Parses "MANIFEST-<seq>"; returns false for other names.
bool ParseManifestFileName(const std::string& name, uint64_t* seq);

}  // namespace persist
}  // namespace seraph

#endif  // SERAPH_PERSIST_CHECKPOINT_H_
