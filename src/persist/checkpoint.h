// Checkpoint writing for the durability subsystem (docs/INTERNALS.md,
// "Durability & recovery").
//
// A checkpoint is a directory generation numbered by a monotonically
// increasing sequence:
//
//   <dir>/queries-<seq>.seg    engine meta + one frame per query state
//   <dir>/stream-<i>-<seq>.seg one file per stream (name, base offset,
//                              max/trimmed-through timestamps, and the
//                              retained suffix of elements)
//   <dir>/offsets-<seq>.seg    committed consumer offsets
//   <dir>/dlq-<seq>.seg        dead-letter entries
//   <dir>/MANIFEST-<seq>       list of the above with sizes + CRCs
//
// Every segment is written to a temp file, fsync'ed, and renamed into
// place; the MANIFEST — written last, with the same protocol — is the
// commit point. A crash anywhere before the manifest rename leaves the
// previous generation's manifest as the newest valid one, so recovery
// (persist/recovery.h) never observes a half-written checkpoint. Old
// generations are garbage-collected after a successful commit, keeping
// `CheckpointOptions::keep` manifests as corruption fallback.
//
// Fault points (common/fault.h): "checkpoint.write" fires before each
// file write, "checkpoint.rename" before the manifest rename — the chaos
// test kills the writer at both and proves recovery equivalence.
#ifndef SERAPH_PERSIST_CHECKPOINT_H_
#define SERAPH_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "stream/event_queue.h"

namespace seraph {
namespace persist {

// Segment roles recorded in the manifest (stable on-disk values).
enum class SegmentRole : uint8_t {
  kQueries = 0,
  kOffsets = 1,
  kDeadLetters = 2,
  kStream = 3,
};

struct CheckpointOptions {
  // Checkpoint directory; created on first write if absent.
  std::string dir;
  // Manifests (generations) retained after a successful commit. At least
  // 1; 2 (default) keeps one fallback generation for corruption recovery.
  int keep = 2;
  // fsync files and the directory around renames. Disable only in tests
  // where the extra syscalls dominate runtime.
  bool fsync = true;
};

// Writes checkpoints of a ContinuousEngine (plus bound consumer offsets
// and dead letters) on demand or on the engine's batch-barrier cadence.
// Not thread-safe, like the engine it serves.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);

  // Registers a consumer whose committed offset on `queue` is captured in
  // every checkpoint (the StreamDriver's position). A queue without a
  // retention horizon gets horizon 0, so driver trims keep every entry a
  // restore could re-seek to until ManageRetention couples retention to
  // committed generations. Not owned.
  void BindQueue(std::string consumer, EventQueue* queue);

  // Couples `queue`'s retention trim to the checkpoint horizon
  // (docs/INTERNALS.md, "Overload & backpressure" / "Durability &
  // recovery"): entries not yet covered by a committed checkpoint are
  // never trimmed — recovery re-seeks consumers to the last checkpointed
  // offsets, so the replay suffix must stay retained. The horizon starts
  // at 0 (nothing durable yet) and, after each successful commit,
  // advances to the minimum offset the new generation recorded for this
  // queue's bound consumers (BindQueue the consumers first), followed by
  // a proactive trim. Not owned.
  void ManageRetention(EventQueue* queue);

  // Registers the dead-letter queue to persist. Not owned.
  void BindDeadLetter(const DeadLetterQueue* dead_letter);

  // Installs `Checkpoint(engine)` as the engine's batch-barrier callback
  // (the engine fires it every EngineOptions::checkpoint_every batches).
  // The manager must outlive the engine's use of the callback.
  void AttachTo(ContinuousEngine* engine);

  // Captures and atomically commits one checkpoint generation. On failure
  // nothing of the new generation is visible to recovery; the previous
  // manifest stays the newest valid one.
  Status Checkpoint(ContinuousEngine* engine);

  int64_t checkpoints_written() const { return checkpoints_written_; }
  int64_t checkpoint_failures() const { return checkpoint_failures_; }
  // Sequence number of the last committed generation (0 before any).
  uint64_t last_seq() const { return last_seq_; }

 private:
  Status WriteFileAtomic(const std::string& final_path,
                         const std::string& contents);
  Status CommitImage(const EngineCheckpoint& image, uint64_t seq,
                     uint64_t* bytes_written);
  void GarbageCollect(uint64_t newest_seq);

  // Advances the checkpoint horizon of every retention-managed queue to
  // the offsets the just-committed generation captured, then trims.
  void AdvanceRetention();

  CheckpointOptions options_;
  std::vector<std::pair<std::string, const EventQueue*>> queues_;
  std::vector<EventQueue*> retention_queues_;
  const DeadLetterQueue* dead_letter_ = nullptr;
  bool seq_initialized_ = false;
  uint64_t next_seq_ = 1;
  uint64_t last_seq_ = 0;
  int64_t checkpoints_written_ = 0;
  int64_t checkpoint_failures_ = 0;
};

// Filename helpers shared with recovery/inspection.
std::string ManifestFileName(uint64_t seq);
// Parses "MANIFEST-<seq>"; returns false for other names.
bool ParseManifestFileName(const std::string& name, uint64_t* seq);

}  // namespace persist
}  // namespace seraph

#endif  // SERAPH_PERSIST_CHECKPOINT_H_
