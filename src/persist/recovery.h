// Crash recovery for the durability subsystem (docs/INTERNALS.md,
// "Durability & recovery").
//
// Recovery scans the checkpoint directory for MANIFEST-<seq> files in
// descending sequence order and loads the newest generation that
// validates: header, every frame's CRC, a clean decode, exactly the
// frames its meta frame counts and nothing after them. A torn, truncated
// (even at a frame boundary) or bit-flipped file fails validation and
// recovery falls back to the previous generation — the rename commit
// (persist/checkpoint.h) guarantees at most the newest generation can be
// damaged by a crash mid-write, and a *.tmp is never read.
//
// The replay-exactness contract: every generation is cut between pumps
// (persist/checkpoint.h), so after ContinuousEngine::RestoreFrom +
// RestoreConsumer nothing is half done. A source that re-produces its
// input from the restored offset into the re-based queue, pumped by a
// fresh StreamDriver, yields sink output bit-identical (content and
// order) to an uninterrupted run from the restored evaluation count on —
// the crash-recovery equivalence test proves it for crashes at every
// fault point.
#ifndef SERAPH_PERSIST_RECOVERY_H_
#define SERAPH_PERSIST_RECOVERY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "persist/checkpoint.h"
#include "seraph/continuous_engine.h"
#include "seraph/dead_letter.h"
#include "stream/event_queue.h"

namespace seraph {
namespace persist {

// One fully decoded checkpoint generation.
struct CheckpointImage {
  uint64_t seq = 0;
  EngineCheckpoint engine;
  // Consumer → committed offset (consumers without a committed position
  // at checkpoint time are absent).
  std::map<std::string, uint64_t> offsets;
  // The dead-letter ring, oldest first, and the exact totals behind it
  // (DeadLetterQueue::Restore takes both).
  std::vector<DeadLetterEntry> dead_letters;
  DeadLetterTotals dead_letter_totals;
};

// Loads and validates generation `seq` (the file MANIFEST-<seq>).
Result<CheckpointImage> LoadCheckpoint(const std::string& dir, uint64_t seq);

// Loads the newest valid generation, falling back across corrupted ones;
// kNotFound when the directory holds no loadable checkpoint, and
// kFailedPrecondition (no fallback) on reaching a generation written in
// another format version (persist/codec.h). Carries the "recovery.read"
// fault point (fired once per call, before any file is read) so chaos
// tests can kill a process mid-recovery and assert the retry succeeds.
Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir);

// Re-bases the empty `queue` at `consumer`'s committed offset
// (EventQueue::RestoreOffset), so the source resumes there. A consumer
// absent from the image is subscribed at 0, the position a fresh consumer
// would start from.
Status RestoreConsumer(const CheckpointImage& image,
                       const std::string& consumer, EventQueue* queue);

// What RecoverAll did, for logs and the seraph_run --restore banner.
struct RecoveryReport {
  uint64_t seq = 0;
  size_t queries = 0;
  size_t streams = 0;
  size_t stream_elements = 0;  // Retained (checkpointed) elements.
  size_t dead_letters = 0;
};

// Convenience composition: load latest → ContinuousEngine::RestoreFrom
// (the engine must be fresh, with every checkpointed query re-registered)
// → re-base the empty `queue` at `consumer`'s offset → restore dead
// letters (skipped when `dead_letter` is null). An instant the restored
// clock has not reached fires at the next pump, with whatever the
// resumed source re-produces at its timestamp.
Result<RecoveryReport> RecoverAll(const std::string& dir,
                                  ContinuousEngine* engine,
                                  EventQueue* queue,
                                  const std::string& consumer,
                                  DeadLetterQueue* dead_letter);

// ---- Inspection (seraph_run --inspect-checkpoint) ----

struct ManifestSummary {
  uint64_t seq = 0;
  uint64_t bytes = 0;     // File size on disk.
  bool valid = false;     // The whole generation loads cleanly.
  std::string error;      // Why not, when !valid.
  // Filled when valid:
  std::optional<CheckpointImage> image;
};

// Summarizes every generation in the directory, newest first. Unlike
// LoadLatestCheckpoint this never gives up on corruption — damaged
// generations are reported with the error that rejected them.
Result<std::vector<ManifestSummary>> InspectCheckpoints(
    const std::string& dir);

}  // namespace persist
}  // namespace seraph

#endif  // SERAPH_PERSIST_RECOVERY_H_
