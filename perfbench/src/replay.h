// Replays the engine's hidden per-instant stages through their public
// entry points, one span each, so a regression can name its layer:
//
//   WindowConfig::ActiveWindow        (stream)   per distinct window
//   IncrementalSnapshotter::Advance   (stream)   per distinct window
//   DeltaIndex::ObserveAdvance        (seraph)   per delta-eligible query
//   DeltaIndex::Emit / ExecuteSingleQuery (cypher) per fresh execution
//   Table::BagDifference              (seraph)   per ON ENTERING/EXITING
//
// The replay measures what one call into a layer costs; how many calls the
// engine makes comes from its own counters. Each distinct (stream, width)
// window is advanced once per instant and shared by its queries, and a
// query whose window range did not change reuses its previous result, as
// the engine's reuse path does.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "harness.h"
#include "stream/graph_stream.h"

namespace perfbench {

struct ReplayQuery {
  std::string text;
  // The engine-side stream the query windows over (outlives the replay).
  const seraph::PropertyGraphStream* stream = nullptr;
};

struct ReplayStats {
  // Mean entities (nodes + relationships) of the replayed snapshots over
  // the recorded instants.
  double snapshot_entities = 0;
};

// Replays every instant from the queries' common STARTING AT through
// `last`. Spans are recorded only for instants after `record_after`.
Status Replay(const std::vector<ReplayQuery>& queries,
              seraph::Timestamp record_after, seraph::Timestamp last,
              SpanLog* spans, ReplayStats* stats);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
