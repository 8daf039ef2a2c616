// Property graph streams (Defs. 5.2–5.3), the simulated event queue
// (Listing 4 transport), and substream selection.
#include <gtest/gtest.h>

#include <atomic>

#include "graph/graph_builder.h"
#include "stream/event_queue.h"
#include "stream/graph_stream.h"

namespace seraph {
namespace {

Timestamp T(int64_t minutes) { return Timestamp::FromMillis(minutes * 60'000); }

PropertyGraph Tiny(int64_t id) {
  return GraphBuilder().Node(id, {"N"}, {{"id", Value::Int(id)}}).Build();
}

TEST(GraphStreamTest, AppendsInOrder) {
  PropertyGraphStream s;
  EXPECT_TRUE(s.Append(Tiny(1), T(10)).ok());
  EXPECT_TRUE(s.Append(Tiny(2), T(10)).ok());  // Equal timestamps allowed.
  EXPECT_TRUE(s.Append(Tiny(3), T(20)).ok());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.MaxTimestamp(), T(20));
}

TEST(GraphStreamTest, RejectsDecreasingTimestamps) {
  PropertyGraphStream s;
  ASSERT_TRUE(s.Append(Tiny(1), T(10)).ok());
  Status bad = s.Append(Tiny(2), T(5));
  EXPECT_EQ(bad.code(), StatusCode::kOutOfRange);
}

TEST(GraphStreamTest, SubstreamSelection) {
  PropertyGraphStream s;
  for (int64_t m : {10, 20, 30, 40}) {
    ASSERT_TRUE(s.Append(Tiny(m), T(m)).ok());
  }
  TimeInterval tau{T(10), T(30)};
  // [10, 30): elements at 10 and 20.
  auto closed_open =
      s.Substream(tau, IntervalBounds::kLeftClosedRightOpen);
  ASSERT_EQ(closed_open.size(), 2u);
  EXPECT_EQ(closed_open[0].timestamp, T(10));
  // (10, 30]: elements at 20 and 30.
  auto open_closed =
      s.Substream(tau, IntervalBounds::kLeftOpenRightClosed);
  ASSERT_EQ(open_closed.size(), 2u);
  EXPECT_EQ(open_closed[1].timestamp, T(30));
}

TEST(GraphStreamTest, LowerBound) {
  PropertyGraphStream s;
  for (int64_t m : {10, 20, 20, 30}) {
    ASSERT_TRUE(s.Append(Tiny(m), T(m)).ok());
  }
  EXPECT_EQ(s.LowerBound(T(5)), 0u);
  EXPECT_EQ(s.LowerBound(T(20)), 1u);
  EXPECT_EQ(s.LowerBound(T(21)), 3u);
  EXPECT_EQ(s.LowerBound(T(99)), 4u);
}

TEST(GraphStreamTest, SharedGraphsNotCopiedPerAppend) {
  auto g = std::make_shared<const PropertyGraph>(Tiny(1));
  PropertyGraphStream s;
  ASSERT_TRUE(s.Append(g, T(1)).ok());
  ASSERT_TRUE(s.Append(g, T(2)).ok());
  EXPECT_EQ(s.at(0).graph.get(), s.at(1).graph.get());
}

TEST(EventQueueTest, ProduceAndPoll) {
  EventQueue q;
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  ASSERT_TRUE(q.Produce(Tiny(3), T(3)).ok());
  q.Subscribe("engine");
  auto batch1 = q.Poll("engine", 2);
  ASSERT_TRUE(batch1.ok());
  ASSERT_EQ(batch1->size(), 2u);
  EXPECT_EQ((*batch1)[0].timestamp, T(1));
  auto batch2 = q.Poll("engine", 10);
  ASSERT_TRUE(batch2.ok());
  ASSERT_EQ(batch2->size(), 1u);
  EXPECT_EQ((*batch2)[0].timestamp, T(3));
  EXPECT_TRUE(q.Poll("engine", 10)->empty());
  ASSERT_TRUE(q.OffsetOf("engine").has_value());
  EXPECT_EQ(*q.OffsetOf("engine"), 3u);
}

TEST(EventQueueTest, IndependentConsumers) {
  EventQueue q;
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  q.Subscribe("a");
  q.Subscribe("b");
  EXPECT_EQ(q.Poll("a", 10)->size(), 1u);
  EXPECT_EQ(q.Poll("b", 10)->size(), 1u);
}

TEST(EventQueueTest, SeekReplays) {
  EventQueue q;
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  q.Subscribe("c");
  EXPECT_EQ(q.Poll("c", 10)->size(), 2u);
  ASSERT_TRUE(q.Seek("c", 0).ok());
  ASSERT_TRUE(q.OffsetOf("c").has_value());
  EXPECT_EQ(*q.OffsetOf("c"), 0u);
  EXPECT_EQ(q.Poll("c", 10)->size(), 2u);
  EXPECT_FALSE(q.Seek("c", 5).ok());
}

TEST(EventQueueTest, UnknownConsumerMustSubscribeBeforePolling) {
  EventQueue q;
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  // An unknown consumer has no committed offset — distinguishable from a
  // subscribed consumer sitting at 0 (the recovery path depends on it) —
  // and polling under it fails instead of implicitly registering it.
  EXPECT_FALSE(q.OffsetOf("fresh").has_value());
  EXPECT_FALSE(q.HasConsumer("fresh"));
  EXPECT_EQ(q.Poll("fresh", 10).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(q.HasConsumer("fresh"));  // The failed poll left no trace.
  q.Subscribe("fresh");
  EXPECT_EQ(q.Poll("fresh", 10)->size(), 1u);
  ASSERT_TRUE(q.OffsetOf("fresh").has_value());
  EXPECT_EQ(*q.OffsetOf("fresh"), 1u);
  EXPECT_TRUE(q.HasConsumer("fresh"));
}

TEST(EventQueueTest, StrayPollCannotPinRetention) {
  // Regression: Poll used to default-insert an offset entry for any
  // never-seen name, and that phantom consumer joined the TrimCommitted
  // floor forever — one misspelled name froze retention and wedged a
  // bounded queue.
  EventQueue::Options options;
  options.capacity = 2;
  options.overflow_policy = OverflowPolicy::kReject;
  EventQueue q(options);
  q.Subscribe("engine");
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  EXPECT_FALSE(q.Poll("enigne", 10).ok());  // Typo'd consumer: rejected.
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  EXPECT_EQ(q.Poll("engine", 10)->size(), 2u);
  // With only the real consumer on the floor, the next produces trim the
  // committed prefix instead of wedging against a phantom at offset 0.
  ASSERT_TRUE(q.Produce(Tiny(3), T(3)).ok());
  ASSERT_TRUE(q.Produce(Tiny(4), T(4)).ok());
  EXPECT_EQ(q.base_offset(), 2u);
  EXPECT_EQ(q.rejected_total(), 0);
  // A *subscribed* idle consumer legitimately pins retention...
  q.Subscribe("inspector");
  EXPECT_EQ(q.Poll("engine", 10)->size(), 2u);
  EXPECT_EQ(q.Produce(Tiny(5), T(5)).code(), StatusCode::kUnavailable);
  // ...until it is detached explicitly, which releases its hold.
  EXPECT_TRUE(q.RemoveConsumer("inspector"));
  ASSERT_TRUE(q.Produce(Tiny(5), T(5)).ok());
  EXPECT_EQ(q.base_offset(), 4u);
  EXPECT_FALSE(q.RemoveConsumer("inspector"));  // Already gone.
}

// ---------------------------------------------------------------------------
// Bounded queue: overflow policies, retention trim, absolute offsets
// (docs/INTERNALS.md, "Overload & backpressure")
// ---------------------------------------------------------------------------

EventQueue::Options Bounded(size_t capacity, OverflowPolicy policy) {
  EventQueue::Options options;
  options.capacity = capacity;
  options.overflow_policy = policy;
  return options;
}

TEST(BoundedEventQueueTest, RejectPolicyRefusesWhenFull) {
  EventQueue q(Bounded(2, OverflowPolicy::kReject));
  q.Subscribe("c");
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  Status full = q.Produce(Tiny(3), T(3));
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_EQ(q.rejected_total(), 1);
  EXPECT_EQ(q.size(), 2u);  // A failed produce admits nothing.
  // Once the consumer commits past the retained entries, the next
  // produce trims them and succeeds: memory tracks lag, not history.
  EXPECT_EQ(q.Poll("c", 10)->size(), 2u);
  ASSERT_TRUE(q.Produce(Tiny(3), T(3)).ok());
  EXPECT_EQ(q.trimmed_total(), 2);
  EXPECT_EQ(q.base_offset(), 2u);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.size(), 3u);  // Absolute: offsets are never renumbered.
  auto replay = q.Poll("c", 10);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->size(), 1u);
  EXPECT_EQ((*replay)[0].timestamp, T(3));
}

TEST(BoundedEventQueueTest, ShedOldestEvictsAndAccountsExactly) {
  EventQueue q(Bounded(2, OverflowPolicy::kShedOldest));
  std::vector<Timestamp> shed;
  q.SetShedCallback(
      [&](const StreamElement& e) { shed.push_back(e.timestamp); });
  q.Subscribe("c");
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  ASSERT_TRUE(q.Produce(Tiny(3), T(3)).ok());  // Evicts T(1).
  EXPECT_EQ(q.shed_total(), 1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], T(1));
  // Delivered ∪ shed partitions the input exactly: the consumer sees
  // precisely the two survivors, from the bumped base offset.
  auto delivered = q.Poll("c", 10);
  ASSERT_TRUE(delivered.ok());
  ASSERT_EQ(delivered->size(), 2u);
  EXPECT_EQ((*delivered)[0].timestamp, T(2));
  EXPECT_EQ((*delivered)[1].timestamp, T(3));
  EXPECT_EQ(delivered->size() + shed.size(), 3u);
}

TEST(BoundedEventQueueTest, LateProduceOnFullQueueChangesNothing) {
  // The order check precedes admission: under either policy a late
  // element on a full queue fails with kOutOfRange before it can shed the
  // oldest element or count as a refusal.
  for (OverflowPolicy policy :
       {OverflowPolicy::kShedOldest, OverflowPolicy::kReject}) {
    SCOPED_TRACE(OverflowPolicyName(policy));
    EventQueue q(Bounded(2, policy));
    int shed_calls = 0;
    q.SetShedCallback([&](const StreamElement&) { ++shed_calls; });
    q.Subscribe("c");
    ASSERT_TRUE(q.Produce(Tiny(1), Timestamp::FromMillis(1'000)).ok());
    ASSERT_TRUE(q.Produce(Tiny(2), Timestamp::FromMillis(2'000)).ok());
    EXPECT_EQ(q.Produce(Tiny(3), Timestamp::FromMillis(1'500)).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.shed_total(), 0);
    EXPECT_EQ(q.rejected_total(), 0);
    EXPECT_EQ(shed_calls, 0);
  }
}

// A clock pinned at one instant that counts its reads.
class CountingClock final : public Clock {
 public:
  int64_t NowMicros() const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  int64_t reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int64_t> reads_{0};
};

TEST(BoundedEventQueueTest, DefaultPolicyRefusesWithoutWaiting) {
  // The queue is single-threaded, so nothing can free space while a
  // produce waits: under the default options a full queue refuses at
  // once, and the refused produce never reads the clock.
  CountingClock clock;
  EventQueue::Options options;
  options.capacity = 1;
  EventQueue q(options);
  q.SetClock(&clock);
  q.Subscribe("c");
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  const int64_t reads = clock.reads();
  EXPECT_EQ(q.Produce(Tiny(2), T(2)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(clock.reads() - reads, 0);
  EXPECT_EQ(q.rejected_total(), 1);
}

TEST(BoundedEventQueueTest, HorizonAlonePermitsTrimBeforeConsumerAttach) {
  // Regression: TrimCommitted returned early when no consumer had ever
  // attached, even with a valid checkpoint horizon — a bounded durable
  // run that produces before the driver subscribes could never admit.
  EventQueue q(Bounded(2, OverflowPolicy::kReject));
  ASSERT_TRUE(q.Produce(Tiny(1), T(1)).ok());
  ASSERT_TRUE(q.Produce(Tiny(2), T(2)).ok());
  // No consumers, no horizon: nothing is provably consumed, so the full
  // queue rejects.
  EXPECT_EQ(q.Produce(Tiny(3), T(3)).code(), StatusCode::kUnavailable);
  // A durable checkpoint covering the first entry permits trimming it
  // even though no consumer has attached yet.
  q.SetCheckpointHorizon(1);
  ASSERT_TRUE(q.Produce(Tiny(3), T(3)).ok());
  EXPECT_EQ(q.base_offset(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  // A consumer attaching later starts at the oldest retained element and
  // joins the floor from there.
  q.Subscribe("c");
  EXPECT_EQ(*q.OffsetOf("c"), 1u);
  EXPECT_EQ(q.Poll("c", 10)->size(), 2u);
}

TEST(BoundedEventQueueTest, CheckpointHorizonHoldsUncommittedSuffix) {
  EventQueue q;
  q.Subscribe("c");
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(q.Produce(Tiny(i), T(i)).ok());
  }
  EXPECT_EQ(q.Poll("c", 10)->size(), 3u);
  // The consumer is at 3, but only offsets < 1 are durably checkpointed:
  // the replay suffix [1, 3) must stay retained.
  q.SetCheckpointHorizon(1);
  EXPECT_EQ(q.TrimCommitted(), 1u);
  EXPECT_EQ(q.base_offset(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  // A later commit advances the horizon and releases the rest.
  q.SetCheckpointHorizon(3);
  EXPECT_EQ(q.TrimCommitted(), 2u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.size(), 3u);
  // MaxTimestamp survives a trim-to-empty, and append order is still
  // enforced against the last appended element, not the retained ones.
  EXPECT_EQ(q.MaxTimestamp(), T(3));
  EXPECT_EQ(q.Produce(Tiny(9), T(2)).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(q.Produce(Tiny(4), T(4)).ok());
}

TEST(BoundedEventQueueTest, SeekBelowRetentionBaseFails) {
  EventQueue q(Bounded(2, OverflowPolicy::kShedOldest));
  q.Subscribe("c");
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(q.Produce(Tiny(i), T(i)).ok());
  }
  Status below = q.Seek("c", 0);  // T(1) was shed; its offset is gone.
  EXPECT_EQ(below.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(q.Seek("c", q.base_offset()).ok());
  EXPECT_EQ(q.Poll("c", 10)->size(), 2u);
}

TEST(BoundedEventQueueTest, RestoreOffsetMayLeadTheRefillingLog) {
  // The recovery path of a bounded tool: the checkpointed offset is
  // restored into an empty queue, then the event log is re-produced
  // behind it — the prefix is trimmed on admission, never delivered.
  EventQueue q(Bounded(2, OverflowPolicy::kReject));
  ASSERT_TRUE(q.RestoreOffset("c", 5).ok());
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(q.Produce(Tiny(i), T(i)).ok());
  }
  auto suffix = q.Poll("c", 10);
  ASSERT_TRUE(suffix.ok());
  ASSERT_EQ(suffix->size(), 1u);
  EXPECT_EQ((*suffix)[0].timestamp, T(6));
  EXPECT_EQ(q.rejected_total(), 0);  // Trim always made room.
}

TEST(GraphStreamTest, DropFrontKeepsOrderAndMaxTimestamp) {
  PropertyGraphStream s;
  for (int64_t m : {10, 20, 30}) {
    ASSERT_TRUE(s.Append(Tiny(m), T(m)).ok());
  }
  EXPECT_EQ(s.DropFront(2), 2u);
  // Positions are absolute: the survivor keeps position 2, and size()
  // still counts every element ever appended.
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.base_offset(), 2u);
  EXPECT_EQ(s.retained(), 1u);
  EXPECT_EQ(s.at(2).timestamp, T(30));
  EXPECT_EQ(s.TrimmedThrough(), T(20));
  EXPECT_EQ(s.MaxTimestamp(), T(30));
  EXPECT_EQ(s.DropFront(5), 1u);  // Over-trim clamps to what is retained.
  EXPECT_EQ(s.retained(), 0u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.TrimmedThrough(), T(30));
  EXPECT_EQ(s.MaxTimestamp(), T(30));
  EXPECT_EQ(s.Append(Tiny(1), T(20)).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(s.Append(Tiny(4), T(40)).ok());
  EXPECT_EQ(s.at(3).timestamp, T(40));
}

TEST(GraphStreamTest, LowerBoundAndSubstreamUseAbsolutePositions) {
  PropertyGraphStream s;
  for (int64_t m : {10, 20, 30, 40}) {
    ASSERT_TRUE(s.Append(Tiny(m), T(m)).ok());
  }
  s.DropFront(2);
  // Below the retained suffix everything resolves to its first element.
  EXPECT_EQ(s.LowerBound(T(5)), 2u);
  EXPECT_EQ(s.LowerBound(T(30)), 2u);
  EXPECT_EQ(s.LowerBound(T(31)), 3u);
  EXPECT_EQ(s.LowerBound(T(99)), 4u);
  auto sub = s.Substream(TimeInterval{T(0), T(99)},
                         IntervalBounds::kLeftClosedRightOpen);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].timestamp, T(30));
}

TEST(GraphStreamTest, InterleavedTrimsAndAppendsKeepPositions) {
  // Every position read back must be the element appended there,
  // whatever was dropped before it.
  PropertyGraphStream s;
  int64_t next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i, ++next) {
      ASSERT_TRUE(s.Append(Tiny(next), T(next)).ok());
    }
    s.DropFront(static_cast<size_t>(round % 9));
    ASSERT_EQ(s.size(), static_cast<size_t>(next));
    for (size_t p = s.base_offset(); p < s.size(); ++p) {
      ASSERT_EQ(s.at(p).timestamp, T(static_cast<int64_t>(p)));
    }
  }
}

TEST(GraphStreamTest, RestoreReinstatesSuffixAtItsOffsets) {
  PropertyGraphStream s;
  std::vector<StreamElement> suffix;
  suffix.push_back(StreamElement{std::make_shared<const PropertyGraph>(Tiny(8)),
                                 T(30)});
  ASSERT_TRUE(s.Restore(7, T(20), T(30), suffix).ok());
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.base_offset(), 7u);
  EXPECT_EQ(s.at(7).timestamp, T(30));
  EXPECT_EQ(s.TrimmedThrough(), T(20));
  EXPECT_EQ(s.Append(Tiny(9), T(25)).code(), StatusCode::kOutOfRange);
  // Only a never-appended stream can be restored.
  EXPECT_EQ(s.Restore(0, T(0), T(0), {}).code(),
            StatusCode::kInvalidArgument);

  // An empty suffix (a silence longer than every window) still carries
  // the max timestamp.
  PropertyGraphStream silent;
  ASSERT_TRUE(silent.Restore(3, T(30), T(30), {}).ok());
  EXPECT_EQ(silent.size(), 3u);
  EXPECT_EQ(silent.retained(), 0u);
  EXPECT_EQ(silent.MaxTimestamp(), T(30));

  // A suffix that starts before its trimmed-through timestamp or does not
  // end at its max timestamp is inconsistent.
  PropertyGraphStream bad;
  EXPECT_EQ(bad.Restore(1, T(40), T(30), suffix).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.Restore(1, T(20), T(35), suffix).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace seraph
