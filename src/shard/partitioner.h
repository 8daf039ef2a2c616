// Stream placements for the sharded tier (docs/INTERNALS.md, "Sharded
// tier").
//
// A logical stream of a sharded fleet lives either on every shard
// (Broadcast) or on exactly one (FixedShard). Query placement follows
// from it: a query windowing only over broadcast streams runs on its home
// shard, and a query reading a fixed-shard stream runs on that shard.
// Either way every query runs whole on one shard, so its output is the
// single-engine output.
//
// The label/type-predicate partitioning named in the roadmap composes a
// StreamRouter predicate (HasLabel / HasRelationshipType) selecting the
// logical stream with FixedShard pinning that stream to one engine.
#ifndef SERAPH_SHARD_PARTITIONER_H_
#define SERAPH_SHARD_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace seraph {
namespace shard {

// Where a logical stream's elements live.
struct StreamPlacement {
  bool broadcast = true;  // On every shard.
  int shard = 0;          // Otherwise only on this one.
};

// Every shard receives every element (queries that must see the whole
// stream).
inline StreamPlacement Broadcast() { return {}; }

// Every element lands on `shard_index`, which must name a shard of the
// fleet (ShardedEngine::AddRoute checks it). Combined with a route
// predicate (HasLabel / HasRelationshipType / NodePropertyEquals) this is
// the label/type-partitioned placement.
inline StreamPlacement FixedShard(int shard_index) {
  return {false, shard_index};
}

// Stable 64-bit FNV-1a. std::hash is not pinned across standard
// libraries, but query homing must survive restarts and match across
// builds.
uint64_t StableHash64(const void* data, size_t size);
uint64_t StableHash64(const std::string& text);

}  // namespace shard
}  // namespace seraph

#endif  // SERAPH_SHARD_PARTITIONER_H_
