// The three seeded, fixed-size workloads and the two ingest paths they
// drive (README.md explains why each exists):
//   * hub_slide     — one delta-eligible query over a hub-heavy window,
//                     EventQueue → StreamDriver → ContinuousEngine;
//   * fleet_shared  — 64 delta-eligible queries over one hub-free stream
//                     with bursts and silences, 2 evaluation threads;
//   * fraud_durable — the bike-sharing fraud detector plus two monitors on
//                     a 2-shard ShardedEngine checkpointing every batch.
//
// Input is a fixed list of closed-loop steps: each step hands its elements
// in and then pumps once, which makes exactly one evaluation instant due.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"
#include "seraph/continuous_engine.h"
#include "stream/graph_stream.h"
#include "temporal/timestamp.h"

namespace perfbench {

struct Element {
  std::shared_ptr<const seraph::PropertyGraph> graph;
  seraph::Timestamp timestamp;
};

struct Step {
  seraph::Timestamp instant;  // The evaluation instant this step's pump serves.
  bool tick = false;          // Heartbeat lane (no data; advances the clock).
};

// One ingest path into the engine(s). The runner wraps every call in a
// span named after the public entry point it reaches.
class System {
 public:
  virtual ~System() = default;
  virtual const char* hand_span() const = 0;  // e.g. "EventQueue::Produce".
  virtual const char* pump_span() const = 0;
  virtual const char* hand_layer() const = 0;
  virtual const char* pump_layer() const = 0;
  virtual int workers() const = 0;            // Evaluation threads per pump.
  virtual seraph::Status Register(const std::string& text) = 0;
  virtual seraph::Status Hand(const Element& element, bool tick) = 0;
  virtual seraph::Status Pump(bool tick) = 0;
  virtual std::vector<const seraph::ContinuousEngine*> engines() const = 0;
  // The engine-side stream a registered query windows over.
  virtual seraph::Result<const seraph::PropertyGraphStream*> StreamOf(
      const std::string& query, const std::string& stream) const = 0;
  // (shard, stream) deliveries reported by ShardedEngine::Ingest.
  virtual int64_t deliveries() const { return 0; }
  // Elements retained across the engine's streams.
  int64_t RetainedElements() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  const std::vector<std::string>& queries() const { return queries_; }
  const std::vector<Step>& steps() const { return steps_; }
  // Steps [0, fill) are handed in before the first pump (the window fill);
  // [fill, fill + warm) are warm-up instants; the rest is the timed region.
  size_t fill_steps() const { return fill_; }
  size_t timed_begin() const { return fill_ + warm_; }

  // The elements of step `i`, generated from the seed on demand (the
  // generator keeps nothing alive once they are handed in).
  virtual std::vector<Element> MakeStep(size_t i) = 0;
  // Forgets any cached input so the next MakeStep regenerates it.
  virtual void ResetInput() {}
  // A fresh system with the queries' routing in place; `rep` keeps
  // per-set-up resources (checkpoint directories) apart.
  virtual seraph::Result<std::unique_ptr<System>> NewSystem(
      seraph::EmitSink* sink, int rep) = 0;
  // Logical streams an input element is routed into (the oracle rebuilds
  // each stream independently of the engine).
  virtual std::vector<std::string> StreamsOf(
      const seraph::PropertyGraph& graph) const;

 protected:
  std::vector<std::string> queries_;
  std::vector<Step> steps_;
  size_t fill_ = 0;
  size_t warm_ = 0;
};

// `scale` multiplies the timed region (1.0 = sized for about 10 s on a
// 4-vCPU host); `toy` shrinks windows and rates for the self-check.
// `work_dir` holds checkpoint directories. Returns null for unknown names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale, bool toy,
                                       const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
