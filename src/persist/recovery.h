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
// The replay-exactness contract: after ContinuousEngine::RestoreFrom +
// Drain + RestoreConsumer, a fresh StreamDriver pumping the queue suffix
// past the committed offset produces sink output bit-identical (content
// and order) to an uninterrupted run — the crash-recovery equivalence
// test proves it for crashes at every fault point.
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

// Re-seeks `consumer` on `queue` to its committed offset (subscribing it
// first). A consumer absent from the image is subscribed at 0 — the
// position a fresh consumer would start from anyway.
Status RestoreConsumer(const CheckpointImage& image,
                       const std::string& consumer, EventQueue* queue);

// What RecoverAll did, for logs and the seraph_run --restore banner.
struct RecoveryReport {
  uint64_t seq = 0;
  size_t queries = 0;
  size_t streams = 0;
  size_t stream_elements = 0;  // Retained (checkpointed) elements.
  size_t dead_letters = 0;
  // Consumer → elements past its restored offset (the replay backlog).
  std::map<std::string, size_t> replay_backlog;
};

// Convenience composition: load latest → ContinuousEngine::RestoreFrom
// (the engine must be fresh, with every checkpointed query re-registered)
// → complete the interrupted evaluation batch → re-seek every consumer →
// restore dead letters (skipped when `dead_letter` is null). Callers
// composing recovery by hand must Drain() right after RestoreFrom, BEFORE
// replaying any queue backlog: the checkpoint barrier fires per batch
// inside AdvanceTo, so a mid-batch cut leaves instants up to the
// delivered horizon (the max restored stream timestamp, where Drain
// advances to) still pending.
// Records `seraph_recovery_replayed_elements` on the engine's registry —
// the total queue backlog past the restored offsets that drivers will
// re-deliver on the next pump.
Result<RecoveryReport> RecoverAll(const std::string& dir,
                                  ContinuousEngine* engine,
                                  EventQueue* queue,
                                  const std::vector<std::string>& consumers,
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
