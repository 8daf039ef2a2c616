// Crash recovery for the durability subsystem (docs/INTERNALS.md,
// "Durability & recovery").
//
// Recovery scans the checkpoint directory for MANIFEST-<seq> files in
// descending sequence order and loads the newest generation whose
// manifest AND every listed segment validate (size, whole-file CRC,
// frame CRCs, clean decode). A torn, truncated, or bit-flipped file
// fails validation and recovery falls back to the previous generation —
// the manifest-last write protocol (persist/checkpoint.h) guarantees at
// most the newest generation can be damaged by a crash mid-write.
//
// The replay-exactness contract: after RestoreEngine + RestoreConsumer,
// a fresh StreamDriver pumping the queue suffix past the committed
// offset produces sink output bit-identical (content and order) to an
// uninterrupted run — the crash-recovery equivalence test proves it for
// crashes at every fault point.
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
  std::vector<DeadLetterEntry> dead_letters;
};

// Loads and validates the generation committed by MANIFEST-<seq>.
Result<CheckpointImage> LoadCheckpoint(const std::string& dir, uint64_t seq);

// Loads the newest valid generation, falling back across corrupted ones;
// kNotFound when the directory holds no loadable checkpoint, and
// kFailedPrecondition (no fallback) on reaching a generation written in
// another format version (persist/codec.h). Carries the "recovery.read"
// fault point (fired once per call, before any file is read) so chaos
// tests can kill a process mid-recovery and assert the retry succeeds.
Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir);

// Applies the image's engine state via ContinuousEngine::RestoreFrom.
// The engine must be fresh, with all checkpointed queries already
// re-registered. Callers composing recovery manually must follow this
// with ContinuousEngine::Drain() BEFORE replaying any queue backlog:
// the checkpoint barrier fires per batch inside AdvanceTo, so a
// mid-batch cut leaves instants up to the delivered horizon (= the max
// restored stream timestamp, what Drain advances to) still pending.
// RecoverAll does this automatically.
Status RestoreEngine(const CheckpointImage& image, ContinuousEngine* engine);

// Re-seeks `consumer` on `queue` to its committed offset (subscribing it
// first). A consumer absent from the image is subscribed at 0 — the
// position a fresh consumer would start from anyway.
Status RestoreConsumer(const CheckpointImage& image,
                       const std::string& consumer, EventQueue* queue);

// Re-adds the image's dead letters to `dead_letter`.
Status RestoreDeadLetters(const CheckpointImage& image,
                          DeadLetterQueue* dead_letter);

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

// Convenience composition: load latest → restore engine → complete the
// interrupted evaluation batch (Drain to the restored horizon) →
// re-seek every consumer → restore dead letters (skipped when
// `dead_letter` is null).
// Records `seraph_recovery_replayed_elements` on the engine's registry —
// the total queue backlog past the restored offsets that drivers will
// re-deliver on the next pump.
Result<RecoveryReport> RecoverAll(const std::string& dir,
                                  ContinuousEngine* engine,
                                  EventQueue* queue,
                                  const std::vector<std::string>& consumers,
                                  DeadLetterQueue* dead_letter);

// ---- Inspection (seraph_run --inspect-checkpoint) ----

struct SegmentSummary {
  SegmentRole role;
  std::string file;
  uint64_t manifest_size = 0;  // Size the manifest promises.
  uint64_t actual_size = 0;    // Size on disk (0 if missing).
  bool present = false;
  bool crc_ok = false;
};

struct ManifestSummary {
  uint64_t seq = 0;
  bool valid = false;     // The whole generation loads cleanly.
  std::string error;      // Why not, when !valid.
  std::vector<SegmentSummary> segments;
  // Filled when valid:
  std::optional<CheckpointImage> image;
};

// Summarizes every manifest in the directory, newest first. Unlike
// LoadLatestCheckpoint this never gives up on corruption — damaged
// generations are reported with their per-segment CRC status.
Result<std::vector<ManifestSummary>> InspectCheckpoints(
    const std::string& dir);

}  // namespace persist
}  // namespace seraph

#endif  // SERAPH_PERSIST_RECOVERY_H_
