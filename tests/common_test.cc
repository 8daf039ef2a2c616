#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace seraph {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status e = Status::ParseError("bad token");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), StatusCode::kParseError);
  EXPECT_EQ(e.ToString(), "parse_error: bad token");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Status Fails() { return Status::Internal("boom"); }
Status PropagatesThrough() {
  SERAPH_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(PropagatesThrough().code(), StatusCode::kInternal);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SERAPH_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, ValueAndError) {
  auto ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
}

TEST(ResultTest, ConvertibleValueTypes) {
  // unique_ptr<Derived> → Result<unique_ptr<Base>>.
  struct Base {
    virtual ~Base() = default;
  };
  struct Derived : Base {};
  auto make = []() -> Result<std::unique_ptr<Base>> {
    return std::make_unique<Derived>();
  };
  EXPECT_TRUE(make().ok());
}

TEST(StringsTest, Split) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripAndCase) {
  EXPECT_EQ(StripWhitespace("  x \n"), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_TRUE(EqualsIgnoreCase("MATCH", "match"));
  EXPECT_FALSE(EqualsIgnoreCase("MATCH", "matches"));
  EXPECT_EQ(AsciiUpper("abC"), "ABC");
  EXPECT_TRUE(StartsWith("seraph", "ser"));
  EXPECT_FALSE(StartsWith("se", "ser"));
}

TEST(StringsTest, AppendJsonStringEscapesQuotesBackslashesAndControls) {
  std::string out = "x=";
  AppendJsonString("a\"b\\c", &out);
  EXPECT_EQ(out, "x=\"a\\\"b\\\\c\"");
  auto json = [](std::string_view text) {
    std::string quoted;
    AppendJsonString(text, &quoted);
    return quoted;
  };
  EXPECT_EQ(json(""), "\"\"");
  EXPECT_EQ(json("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // Other controls below 0x20 take the \u form; 0x20 itself is plain.
  EXPECT_EQ(json(std::string_view("\x00\x01\x1f ", 4)),
            "\"\\u0000\\u0001\\u001f \"");
  // UTF-8 bytes (here "é" and "→") pass through unchanged, as does DEL.
  EXPECT_EQ(json("caf\xc3\xa9 \xe2\x86\x92\x7f"),
            "\"caf\xc3\xa9 \xe2\x86\x92\x7f\"");
}

TEST(CancellationTokenTest, ExpiresWhenTheClockPassesTheDeadline) {
  ManualClock clock(0);
  CancellationToken token(&clock, /*deadline_micros=*/1000);
  EXPECT_FALSE(token.Expired());
  EXPECT_TRUE(token.Check().ok());
  clock.Set(1000);  // Deadline is inclusive: now >= deadline expires.
  // The strided clock read re-checks at most kCheckStride calls later.
  bool expired = false;
  for (int i = 0; i <= CancellationToken::kCheckStride && !expired; ++i) {
    expired = token.Expired();
  }
  EXPECT_TRUE(expired);
  // Sticky: every later check fails immediately, whatever the clock says.
  clock.Set(0);
  EXPECT_TRUE(token.Expired());
  Status s = token.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(s.IsTransient());  // Rides the error-budget path, not retry.
}

TEST(CancellationTokenTest, CancelTripsWithoutTheClock) {
  ManualClock clock(0);
  CancellationToken token(&clock, /*deadline_micros=*/1'000'000);
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, DeadlineExceededCodeAndFactory) {
  Status s = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "deadline_exceeded: too slow");
  EXPECT_FALSE(s.IsTransient());
}

}  // namespace
}  // namespace seraph
