// The sharded tier (src/shard/): broadcast and fixed-shard routes,
// one-shard query placement and the deterministic (t, query)-ordered
// merge. The randomized sharded-vs-single oracle lives in
// tests/sharded_equivalence_test.cc; this file pins the unit behaviors
// the oracle builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
#include "persist/recovery.h"
#include "seraph/continuous_engine.h"
#include "seraph/sinks.h"
#include "shard/partitioner.h"
#include "shard/sharded_engine.h"

namespace seraph {
namespace shard {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Item(int64_t id) {
  return GraphBuilder().Node(id, {"X"}, {{"id", Value::Int(id)}}).Build();
}

PropertyGraph Labeled(const std::string& label, int64_t id) {
  return GraphBuilder().Node(id, {label}, {{"id", Value::Int(id)}}).Build();
}

// Records the merged fleet output exactly as delivered: one entry per
// emission, in arrival order, capturing the (t, query) key the merge
// contract sorts by.
class OrderSink final : public EmitSink {
 public:
  struct Entry {
    int64_t t_millis;
    std::string query;
    std::string json;
  };

  Status OnResult(const std::string& query_name, Timestamp evaluation_time,
                  const TimeAnnotatedTable& table) override {
    entries_.push_back(
        Entry{evaluation_time.millis(), query_name, io::ToJson(table)});
    return Status::OK();
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Stable hash and routes
// ---------------------------------------------------------------------------

TEST(PartitionerTest, StableHashIsStableAcrossCallsAndOverloads) {
  // FNV-1a 64-bit offset basis: the hash of the empty string. Pinning
  // the constant pins the whole function — shard assignment must
  // survive restarts and match across builds.
  EXPECT_EQ(StableHash64(std::string()), 14695981039346656037ull);
  const std::string text = "seraph-query-name";
  EXPECT_EQ(StableHash64(text), StableHash64(text));
  EXPECT_EQ(StableHash64(text), StableHash64(text.data(), text.size()));
  EXPECT_NE(StableHash64(text), StableHash64(std::string("other")));
}

TEST(ShardedEngineTest, RoutesReachTheShardsTheirPlacementNames) {
  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("pinned", AcceptAll(), FixedShard(3)).ok());
  // A shard outside the fleet is an error, not a clamp.
  EXPECT_EQ(fleet.AddRoute("high", AcceptAll(), FixedShard(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.AddRoute("low", AcceptAll(), FixedShard(-1)).code(),
            StatusCode::kInvalidArgument);
  auto delivered = fleet.Ingest(Item(1), T(1));
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(*delivered, 5);  // The broadcast default on 4 shards + "pinned".
  ASSERT_TRUE(fleet.PumpAll().ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(fleet.shard_engine(s)->stream().size(), 1u) << s;
    EXPECT_EQ(fleet.shard_engine(s)->stream("pinned").size(),
              s == 3 ? 1u : 0u)
        << s;
    EXPECT_EQ(fleet.shard_engine(s)->stream("high").size(), 0u) << s;
  }
}

// Placement reads the routes, so a route declared after a query was
// placed would strand it on the wrong shard. Both orders are checked:
// routes first places the query on the route's shard and it sees the
// stream; query first freezes the routes.
TEST(ShardedEngineTest, RoutesFreezeOnceAQueryIsPlaced) {
  const std::string query =
      "REGISTER QUERY q STARTING AT '1970-01-01T00:01' "
      "{ MATCH (n:X) WITHIN PT30M FROM x EMIT n.id SNAPSHOT EVERY PT1M }";
  ShardedEngineOptions options;
  options.shards = 2;

  ShardedEngine routed_first(options);
  CountingSink routed_sink;
  routed_first.AddSink(&routed_sink);
  ASSERT_TRUE(routed_first.AddRoute("x", AcceptAll(), FixedShard(1)).ok());
  auto placement = routed_first.RegisterText(query);
  ASSERT_TRUE(placement.ok()) << placement.status();
  EXPECT_EQ(placement->shards, (std::vector<int>{1}));
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(routed_first.Ingest(Item(i), T(i)).ok());
  }
  ASSERT_TRUE(routed_first.PumpAll().ok());
  EXPECT_EQ(routed_sink.rows(), 6);  // 1 + 2 + 3 rows at 00:01..00:03.

  ShardedEngine placed_first(options);
  ASSERT_TRUE(placed_first.RegisterText(query).ok());
  EXPECT_EQ(placed_first.AddRoute("x", AcceptAll(), FixedShard(1)).code(),
            StatusCode::kFailedPrecondition);

  // Ingest freezes them too, even with no query registered.
  ShardedEngine ingested_first(options);
  ASSERT_TRUE(ingested_first.Ingest(Item(1), T(1)).ok());
  EXPECT_EQ(ingested_first.AddRoute("x", AcceptAll(), Broadcast()).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Query placement
// ---------------------------------------------------------------------------

std::string CountQuery(const std::string& name, const std::string& from) {
  return "REGISTER QUERY " + name +
         " STARTING AT '1970-01-01T00:05' { MATCH (n:X) WITHIN PT30M" +
         (from.empty() ? "" : " FROM " + from) +
         " EMIT n.id SNAPSHOT EVERY PT5M }";
}

TEST(ShardedEngineTest, BroadcastQueriesGetOneStableHomeShard) {
  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine fleet(options);
  for (const std::string name : {"qa", "qb", "qc", "qd", "qe"}) {
    auto placement = fleet.RegisterText(CountQuery(name, ""));
    ASSERT_TRUE(placement.ok()) << placement.status();
    ASSERT_EQ(placement->shards.size(), 1u) << name;
    // Home = stable hash of the name — independent of registration order
    // and process, so a restart re-derives the same placement.
    EXPECT_EQ(placement->shards[0],
              static_cast<int>(StableHash64(name) % 4u));
    auto back = fleet.PlacementFor(name);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->shards, placement->shards);
  }
  EXPECT_EQ(fleet.RegisterText(CountQuery("qa", "")).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fleet.PlacementFor("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedEngineTest, PlacementFollowsRoutesAndRejectsConflicts) {
  ShardedEngineOptions options;
  options.shards = 3;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("left", HasLabel("L"), FixedShard(0)).ok());
  ASSERT_TRUE(fleet.AddRoute("right", HasLabel("R"), FixedShard(2)).ok());

  auto left = fleet.RegisterText(
      "REGISTER QUERY q_left STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:L) WITHIN PT30M FROM left EMIT n.id EVERY PT5M }");
  ASSERT_TRUE(left.ok()) << left.status();
  EXPECT_EQ(left->shards, (std::vector<int>{0}));

  // The broadcast default stream is on every shard, so a query joining
  // it with a pinned stream runs on the pinned stream's shard.
  auto joined = fleet.RegisterText(
      "REGISTER QUERY q_joined STARTING AT '1970-01-01T00:05' {"
      " MATCH (a:X) WITHIN PT30M"
      " MATCH (b:R) WITHIN PT30M FROM right"
      " EMIT a.id EVERY PT5M }");
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->shards, (std::vector<int>{2}));

  // Two streams pinned to different shards: no shard sees both.
  auto conflict = fleet.RegisterText(
      "REGISTER QUERY q_conflict STARTING AT '1970-01-01T00:05' {"
      " MATCH (a:L) WITHIN PT30M FROM left"
      " MATCH (b:R) WITHIN PT30M FROM right"
      " EMIT a.id EVERY PT5M }");
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  // The failed registration left nothing behind.
  EXPECT_EQ(fleet.PlacementFor("q_conflict").status().code(),
            StatusCode::kNotFound);
  for (int s = 0; s < 3; ++s) {
    EXPECT_FALSE(fleet.shard_engine(s)->StatsFor("q_conflict").ok()) << s;
  }

  // A stream nothing routes into is empty everywhere; the query still
  // gets a broadcast-style home instead of failing.
  auto ghost = fleet.RegisterText(
      "REGISTER QUERY q_ghost STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT30M FROM nowhere EMIT n.id EVERY PT5M }");
  ASSERT_TRUE(ghost.ok()) << ghost.status();
  EXPECT_EQ(ghost->shards.size(), 1u);
}

// ---------------------------------------------------------------------------
// Ingest routing and merge order
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, MergedOutputIsOrderedByTimeThenQuery) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  // Pinned sub-streams on different shards, plus the default broadcast
  // route, which keeps both shard clocks advancing on every element.
  ASSERT_TRUE(fleet.AddRoute("left", HasLabel("L"), FixedShard(0)).ok());
  ASSERT_TRUE(fleet.AddRoute("right", HasLabel("R"), FixedShard(1)).ok());
  ASSERT_TRUE(fleet
                  .RegisterText(
                      "REGISTER QUERY a_left STARTING AT '1970-01-01T00:05' "
                      "{ MATCH (n:L) WITHIN PT30M FROM left EMIT n.id "
                      "SNAPSHOT EVERY PT5M }")
                  .ok());
  ASSERT_TRUE(fleet
                  .RegisterText(
                      "REGISTER QUERY b_right STARTING AT '1970-01-01T00:05' "
                      "{ MATCH (n:R) WITHIN PT30M FROM right EMIT n.id "
                      "SNAPSHOT EVERY PT5M }")
                  .ok());
  OrderSink sink;
  fleet.AddSink(&sink);

  for (int i = 0; i < 12; ++i) {
    // Alternate partitions; timestamps strictly increasing.
    const PropertyGraph graph =
        (i % 2 == 0) ? Labeled("L", 100 + i) : Labeled("R", 200 + i);
    auto delivered = fleet.Ingest(graph, T(1 + i));
    ASSERT_TRUE(delivered.ok()) << delivered.status();
    // Default broadcast (2 shards) + the matching pinned stream.
    EXPECT_EQ(*delivered, 3);
    ASSERT_TRUE(fleet.PumpAll().ok());
  }

  ASSERT_FALSE(sink.entries().empty());
  for (size_t i = 1; i < sink.entries().size(); ++i) {
    const OrderSink::Entry& prev = sink.entries()[i - 1];
    const OrderSink::Entry& curr = sink.entries()[i];
    // Non-decreasing time; ties broken by query name ("a_left" before
    // "b_right") — the deterministic merge contract.
    EXPECT_TRUE(prev.t_millis < curr.t_millis ||
                (prev.t_millis == curr.t_millis && prev.query <= curr.query))
        << "entry " << i << ": (" << prev.t_millis << "," << prev.query
        << ") then (" << curr.t_millis << "," << curr.query << ")";
  }
  // Both queries actually emitted.
  EXPECT_TRUE(std::any_of(sink.entries().begin(), sink.entries().end(),
                          [](const auto& e) { return e.query == "a_left"; }));
  EXPECT_TRUE(std::any_of(sink.entries().begin(), sink.entries().end(),
                          [](const auto& e) { return e.query == "b_right"; }));

  // Every shard's clock has followed the last ingested instant.
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fleet.shard_engine(s)->clock(), T(12)) << s;
  }
}

// The durable fleet perfbench's fraud_durable runs: every shard commits
// one generation at the end of every pump (checkpoint_every = 1). Elements
// go straight into the engine streams their routes name, so a generation
// holds those streams and no consumer offsets.
TEST(ShardedEngineTest, DurableShardsCommitOnceAPumpAndRecordNoOffsets) {
  const std::string dir = ::testing::TempDir() + "seraph_sharded_durable";
  std::filesystem::remove_all(dir);
  ShardedEngineOptions options;
  options.shards = 2;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  options.checkpoint_fsync = false;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("left", HasLabel("L"), FixedShard(0)).ok());
  ASSERT_TRUE(fleet.AddRoute("right", HasLabel("L"), FixedShard(1)).ok());
  for (const char* stream : {"left", "right"}) {
    ASSERT_TRUE(fleet
                    .RegisterText(std::string("REGISTER QUERY ") + stream +
                                  " STARTING AT '1970-01-01T00:01' { MATCH "
                                  "(n:L) WITHIN PT10M FROM " + stream +
                                  " EMIT n.id SNAPSHOT EVERY PT1M }")
                    .ok());
  }
  OrderSink sink;
  fleet.AddSink(&sink);
  constexpr int kPumps = 6;
  for (int m = 1; m <= kPumps; ++m) {
    ASSERT_TRUE(fleet.Ingest(Labeled("L", m), T(m)).ok());
    ASSERT_TRUE(fleet.PumpAll().ok());
    // Each pump fires one instant on each shard.
    EXPECT_EQ(sink.entries().size(), static_cast<size_t>(2 * m));
  }
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    auto image = persist::LoadLatestCheckpoint(dir + "/shard-" +
                                               std::to_string(s));
    ASSERT_TRUE(image.ok()) << image.status();
    EXPECT_EQ(image->engine.clock, T(kPumps));
    EXPECT_TRUE(image->offsets.empty());
    EXPECT_EQ(fleet.shard_engine(s)
                  ->metrics()
                  .FindCounter("seraph_checkpoint_total")
                  ->value(),
              kPumps);
  }
  const std::vector<std::string> shard1 = fleet.shard_engine(1)->StreamNames();
  EXPECT_EQ(std::count(shard1.begin(), shard1.end(), "left"), 0);
  EXPECT_EQ(fleet.shard_engine(1)->stream("right").size(),
            static_cast<size_t>(kPumps));
  std::filesystem::remove_all(dir);
}

// Elements ever appended to `stream`, per shard.
std::vector<size_t> Sizes(const ShardedEngine& fleet,
                          const std::string& stream) {
  std::vector<size_t> sizes;
  for (int s = 0; s < fleet.num_shards(); ++s) {
    sizes.push_back(fleet.shard_engine(s)->stream(stream).size());
  }
  return sizes;
}

// Timestamps are non-decreasing across Ingest calls, whichever streams
// the elements take: an element older than the newest accepted one is
// refused before routing. Here it would land on a shard whose clock has
// already passed it.
TEST(ShardedEngineTest, IngestRefusesAnElementBehindTheFleetWatermark) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("", HasLabel("A"), FixedShard(0)).ok());
  ASSERT_TRUE(fleet.AddRoute("b", HasLabel("B"), FixedShard(1)).ok());
  ASSERT_TRUE(fleet
                  .RegisterText("REGISTER QUERY qb STARTING AT "
                                "'1970-01-01T00:01' { MATCH (n:B) WITHIN "
                                "PT30M FROM b EMIT n.id EVERY PT1M }")
                  .ok());
  ASSERT_TRUE(fleet.Ingest(Labeled("A", 1), T(10)).ok());
  ASSERT_TRUE(fleet.PumpAll().ok());

  auto late = fleet.Ingest(Labeled("B", 2), T(5));
  EXPECT_EQ(late.status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(fleet.PumpAll().ok());
  EXPECT_EQ(Sizes(fleet, ""), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(Sizes(fleet, "b"), (std::vector<size_t>{0, 0}));
}

// A refused element reaches no shard, not even through the routes that
// come before the one it is late for.
TEST(ShardedEngineTest, ARefusedElementReachesNoShard) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("", HasLabel("A"), Broadcast()).ok());
  ASSERT_TRUE(fleet.AddRoute("b", HasLabel("B"), FixedShard(1)).ok());
  ASSERT_TRUE(fleet.Ingest(Labeled("B", 1), T(12)).ok());

  const PropertyGraph both =
      GraphBuilder().Node(2, {"A", "B"}, {{"id", Value::Int(2)}}).Build();
  auto late = fleet.Ingest(both, T(11));
  EXPECT_EQ(late.status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(fleet.PumpAll().ok());
  EXPECT_EQ(Sizes(fleet, ""), (std::vector<size_t>{0, 0}));
  EXPECT_EQ(Sizes(fleet, "b"), (std::vector<size_t>{0, 1}));
}

TEST(ShardedEngineTest, UnroutedElementsAreCountedAsDropped) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine fleet(options);
  // Replace the default catch-all: only L-labeled elements route.
  ASSERT_TRUE(fleet.AddRoute("", HasLabel("L"), Broadcast()).ok());
  auto routed = fleet.Ingest(Labeled("L", 1), T(1));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, 2);  // Broadcast to both shards.
  auto dropped = fleet.Ingest(Labeled("M", 2), T(2));
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0);
  const Counter* counter =
      fleet.metrics().FindCounter("seraph_router_dropped_total", {});
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 1);
  const Counter* routed_counter = fleet.metrics().FindCounter(
      "seraph_router_routed_total", {{"stream", "<default>"}});
  ASSERT_NE(routed_counter, nullptr);
  EXPECT_EQ(routed_counter->value(), 2);  // One element, two shards.
  // A dropped element still moves the fleet watermark, as it moves the
  // clock of one engine that advances on every element.
  ASSERT_TRUE(fleet.PumpAll().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fleet.shard_engine(s)->clock(), T(2)) << s;
  }
}

}  // namespace
}  // namespace shard
}  // namespace seraph
