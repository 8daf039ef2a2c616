#include <gtest/gtest.h>

#include <limits>

#include "value/value.h"

namespace seraph {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Float(1.5).AsFloat(), 1.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Node(NodeId{7}).AsNode().value, 7);
  EXPECT_EQ(Value::Relationship(RelId{9}).AsRelationship().value, 9);
}

TEST(ValueTest, CompareAtTheInt64Extremes) {
  // Compare must not subtract: max - (-1) and min - 1 overflow.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Value::Compare(Value::Int(max), Value::Int(-1)), 1);
  EXPECT_EQ(Value::Compare(Value::Int(-1), Value::Int(max)), -1);
  EXPECT_EQ(Value::Compare(Value::Int(min), Value::Int(1)), -1);
  EXPECT_EQ(Value::Compare(Value::Int(max), Value::Int(min)), 1);
  EXPECT_EQ(Value::Compare(Value::Int(min), Value::Int(min)), 0);
  EXPECT_EQ(Value::Compare(Value::Node(NodeId{max}), Value::Node(NodeId{-5})),
            1);
  EXPECT_EQ(Value::Compare(Value::Node(NodeId{min + 1}),
                           Value::Node(NodeId{max})),
            -1);
  EXPECT_EQ(Value::Compare(Value::Relationship(RelId{max}),
                           Value::Relationship(RelId{-1})),
            1);
  EXPECT_EQ(Value::Compare(Value::DateTime(Timestamp::FromMillis(max)),
                           Value::DateTime(Timestamp::FromMillis(-1))),
            1);
  EXPECT_EQ(Value::Compare(Value::Dur(Duration::FromMillis(min)),
                           Value::Dur(Duration::FromMillis(1))),
            -1);
  EXPECT_EQ(Value::Compare(Value::MakeList({Value::Int(max)}),
                           Value::MakeList({Value::Int(-1)})),
            1);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(1), Value::Float(1.0));
  EXPECT_NE(Value::Int(1), Value::Float(1.5));
  EXPECT_EQ(Value::Int(1).Hash(), Value::Float(1.0).Hash());
}

TEST(ValueTest, NullEqualsNullStructurally) {
  // Structural (bag) equality, not ternary logic.
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, ListAndMapEquality) {
  Value l1 = Value::MakeList({Value::Int(1), Value::String("a")});
  Value l2 = Value::MakeList({Value::Int(1), Value::String("a")});
  Value l3 = Value::MakeList({Value::String("a"), Value::Int(1)});
  EXPECT_EQ(l1, l2);
  EXPECT_NE(l1, l3);
  Value m1 = Value::MakeMap({{"x", Value::Int(1)}});
  Value m2 = Value::MakeMap({{"x", Value::Int(1)}});
  Value m3 = Value::MakeMap({{"x", Value::Int(2)}});
  EXPECT_EQ(m1, m2);
  EXPECT_NE(m1, m3);
}

TEST(ValueTest, PathValue) {
  PathValue p;
  p.nodes = {NodeId{1}, NodeId{2}, NodeId{3}};
  p.rels = {RelId{10}, RelId{11}};
  Value v = Value::Path(p);
  EXPECT_TRUE(v.is_path());
  EXPECT_EQ(v.AsPath().length(), 2);
  EXPECT_EQ(v, Value::Path(p));
}

TEST(ValueTest, CompareOrdersNullLast) {
  EXPECT_LT(Value::Compare(Value::Int(5), Value::Null()), 0);
  EXPECT_LT(Value::Compare(Value::String("z"), Value::Null()), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, CompareNumbersAcrossTypes) {
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Float(1.5)), 0);
  EXPECT_GT(Value::Compare(Value::Float(2.5), Value::Int(2)), 0);
  EXPECT_EQ(Value::Compare(Value::Int(3), Value::Float(3.0)), 0);
}

TEST(ValueTest, CompareListsLexicographically) {
  Value a = Value::MakeList({Value::Int(1), Value::Int(2)});
  Value b = Value::MakeList({Value::Int(1), Value::Int(3)});
  Value c = Value::MakeList({Value::Int(1)});
  EXPECT_LT(Value::Compare(a, b), 0);
  EXPECT_LT(Value::Compare(c, a), 0);
}

TEST(ValueTest, ToStringShapes) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Float(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(
      Value::MakeList({Value::Int(2), Value::Int(3)}).ToString(), "[2, 3]");
  EXPECT_EQ(Value::MakeList({Value::String("a")}).ToString(), "['a']");
  EXPECT_EQ(Value::MakeMap({{"k", Value::Int(1)}}).ToString(), "{k: 1}");
}

TEST(ValueTest, TemporalValues) {
  Timestamp t = Timestamp::Parse("2022-10-14T14:40").value();
  Value dt = Value::DateTime(t);
  EXPECT_TRUE(dt.is_datetime());
  EXPECT_EQ(dt.ToString(), "2022-10-14T14:40");
  Value d = Value::Dur(Duration::FromMinutes(5));
  EXPECT_TRUE(d.is_duration());
  EXPECT_EQ(d.ToString(), "PT5M");
  EXPECT_LT(Value::Compare(Value::DateTime(t),
                           Value::DateTime(t + Duration::FromMinutes(1))),
            0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(10),
      Value::Float(10.0),
      Value::String("10"),
      Value::MakeList({Value::Int(1), Value::Null()}),
      Value::MakeMap({{"a", Value::Int(1)}}),
      Value::Node(NodeId{1}),
      Value::Relationship(RelId{1}),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash())
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace seraph
