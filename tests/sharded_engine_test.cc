// The sharded serving tier (src/shard/): broadcast and fixed-shard
// routes, one-shard query placement, deterministic (t, query)-ordered
// merge, fleet health gauges, and checkpoint/restore. The randomized
// sharded-vs-single oracle lives in tests/sharded_equivalence_test.cc;
// this file pins the unit behaviors the oracle builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "io/json.h"
#include "runtime/runtime.h"
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
  ASSERT_TRUE(fleet.Finish().ok());
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
  ASSERT_TRUE(routed_first.Finish().ok());
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
  EXPECT_EQ(fleet.QueryNames().size(), 5u);
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
// Ingest routing, merge order, gauges
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
    // Default broadcast (2 shards) + the matching pinned lane.
    EXPECT_EQ(*delivered, 3);
    ASSERT_TRUE(fleet.PumpAll().ok());
  }
  ASSERT_TRUE(fleet.Finish().ok());

  ASSERT_FALSE(sink.entries().empty());
  EXPECT_EQ(fleet.released_total(),
            static_cast<int64_t>(sink.entries().size()));
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

  // The health surface: the fleet watermark is the last ingested
  // instant, and every shard's clock has followed it.
  EXPECT_EQ(fleet.FleetWatermarkMillis(), T(12).millis());
  const Gauge* fleet_gauge =
      fleet.metrics().FindGauge("seraph_fleet_watermark_millis", {});
  ASSERT_NE(fleet_gauge, nullptr);
  EXPECT_EQ(fleet_gauge->value(), T(12).millis());
  for (const std::string shard : {"0", "1"}) {
    const Gauge* gauge = fleet.metrics().FindGauge(
        "seraph_shard_watermark_millis", {{"shard", shard}});
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), T(12).millis());
  }
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
}

// The overload ledger sums every lane: a bounded shed_oldest lane per
// shard evicts (and dead-letters) what does not fit, and a pump trims
// what it delivered.
TEST(ShardedEngineTest, OverloadLedgerSumsEveryLane) {
  ShardedEngineOptions options;
  options.shards = 2;
  options.queue.capacity = 2;
  options.queue.overflow_policy = OverflowPolicy::kShedOldest;
  ShardedEngine fleet(options);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(fleet.Ingest(Item(i), T(i)).ok());
  OverloadLedger ledger = fleet.Overload();
  EXPECT_EQ(ledger.queue_shed, 6);  // 3 per broadcast lane.
  EXPECT_EQ(ledger.dead_letters, 6);
  EXPECT_EQ(ledger.dead_letter_depth, 6);  // Well inside each ring.
  EXPECT_EQ(ledger.rejected, 0);
  EXPECT_EQ(ledger.trimmed, 0);
  ASSERT_TRUE(fleet.PumpAll().ok());
  ledger = fleet.Overload();
  EXPECT_EQ(ledger.trimmed, 4);  // The 2 survivors of each lane.
}

// ---------------------------------------------------------------------------
// Stats, disable/revive, checkpoint/restore
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, QueryStatsAndReviveForwardToItsShard) {
  ShardedEngineOptions options;
  options.shards = 2;
  options.engine.query_error_budget = 2;
  ShardedEngine fleet(options);
  ASSERT_TRUE(fleet.AddRoute("pinned", AcceptAll(), FixedShard(1)).ok());
  // Division by zero fails every evaluation with an element in window;
  // the budget disables the query on its shard.
  auto placement = fleet.RegisterText(
      "REGISTER QUERY flaky STARTING AT '1970-01-01T00:05' "
      "{ MATCH (n:X) WITHIN PT30M FROM pinned EMIT n.id / 0 EVERY PT5M }");
  ASSERT_TRUE(placement.ok()) << placement.status();
  ASSERT_EQ(placement->shards, (std::vector<int>{1}));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Ingest(Item(i + 1), T(1 + 5 * i)).ok());
    ASSERT_TRUE(fleet.PumpAll().ok());
  }
  EXPECT_TRUE(fleet.QueryDisabled("flaky"));
  auto stats = fleet.StatsFor("flaky");
  ASSERT_TRUE(stats.ok());
  // The fleet's stats are the shard's own, and the budget stopped the
  // query after its second failure.
  EXPECT_TRUE(*stats == *fleet.shard_engine(1)->StatsFor("flaky"));
  EXPECT_EQ(stats->eval_failures, 2);
  EXPECT_FALSE(stats->last_error.ok());
  auto latency = fleet.LatencyFor("flaky");
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->count, fleet.shard_engine(1)->LatencyFor("flaky")->count);
  EXPECT_EQ(fleet.StatsFor("ghost").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(fleet.ReviveQuery("flaky").ok());
  EXPECT_FALSE(fleet.QueryDisabled("flaky"));
  EXPECT_FALSE(fleet.shard_engine(1)->QueryDisabled("flaky"));
  EXPECT_FALSE(fleet.ReviveQuery("ghost").ok());

  const std::string json = runtime::QueriesStatusJson(fleet);
  EXPECT_NE(json.find("\"name\":\"flaky\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\":[1]"), std::string::npos) << json;
}

TEST(ShardedEngineTest, CheckpointRestoreSplitRunConcatenatesExactly) {
  const std::string dir =
      ::testing::TempDir() + "seraph_sharded_engine_split";
  std::filesystem::remove_all(dir);
  auto make_fleet = [&dir](OrderSink* sink) {
    ShardedEngineOptions options;
    options.shards = 2;
    options.checkpoint_dir = dir;
    options.checkpoint_fsync = false;
    auto fleet = std::make_unique<ShardedEngine>(options);
    fleet->AddSink(sink);
    EXPECT_TRUE(fleet->RegisterText(CountQuery("q", "")).ok());
    return fleet;
  };

  // The uninterrupted run.
  OrderSink oracle;
  {
    ShardedEngineOptions options;
    options.shards = 2;
    ShardedEngine full(options);
    full.AddSink(&oracle);
    ASSERT_TRUE(full.RegisterText(CountQuery("q", "")).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(full.Ingest(Item(i + 1), T(1 + 2 * i)).ok());
      ASSERT_TRUE(full.PumpAll().ok());
    }
    ASSERT_TRUE(full.Finish().ok());
  }
  ASSERT_FALSE(oracle.entries().empty());

  // The split run: checkpoint after the prefix, restore into a fresh
  // fleet over the same directory, continue with the suffix.
  OrderSink prefix_sink;
  {
    auto first = make_fleet(&prefix_sink);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(first->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
      ASSERT_TRUE(first->PumpAll().ok());
    }
    ASSERT_TRUE(first->Checkpoint().ok());
  }

  OrderSink suffix_sink;
  auto second = make_fleet(&suffix_sink);
  ASSERT_TRUE(second->Restore().ok());
  // Restoring twice (fleet no longer fresh) is rejected.
  EXPECT_FALSE(second->Restore().ok());
  for (int i = 6; i < 12; ++i) {
    ASSERT_TRUE(second->Ingest(Item(i + 1), T(1 + 2 * i)).ok());
    ASSERT_TRUE(second->PumpAll().ok());
  }
  ASSERT_TRUE(second->Finish().ok());
  std::filesystem::remove_all(dir);

  // prefix + suffix == oracle, entry for entry.
  ASSERT_EQ(prefix_sink.entries().size() + suffix_sink.entries().size(),
            oracle.entries().size());
  for (size_t i = 0; i < oracle.entries().size(); ++i) {
    const OrderSink::Entry& got =
        i < prefix_sink.entries().size()
            ? prefix_sink.entries()[i]
            : suffix_sink.entries()[i - prefix_sink.entries().size()];
    EXPECT_EQ(got.t_millis, oracle.entries()[i].t_millis) << "entry " << i;
    EXPECT_EQ(got.query, oracle.entries()[i].query) << "entry " << i;
    EXPECT_EQ(got.json, oracle.entries()[i].json) << "entry " << i;
  }
}

}  // namespace
}  // namespace shard
}  // namespace seraph
