#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace rsnsec {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a b c", ' '), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("  a   b ", ' '), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split("", ' ').empty());
  EXPECT_TRUE(split("   ", ' ').empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("register foo", "register"));
  EXPECT_FALSE(starts_with("reg", "register"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("a b c"), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("a\tb\t\tc"),
            (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("  a   b \t"), (std::vector<std::string_view>{"a", "b"}));
  EXPECT_EQ(split_ws("module\t x1  trust\t0"),
            (std::vector<std::string_view>{"module", "x1", "trust", "0"}));
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws(" \t \t ").empty());
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("+1"));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("x12"));
  EXPECT_FALSE(parse_u64(" 12"));
  EXPECT_FALSE(parse_u64("1.5"));
  // Overflow: one past uint64 max, and the classic hostile input.
  EXPECT_FALSE(parse_u64("18446744073709551616"));
  EXPECT_FALSE(parse_u64("99999999999999999999"));
}

TEST(Strings, ParseDouble) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("3"), 3.0);
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(" 1"));
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rbs\bff\f"), "cr\\rbs\\bff\\f");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1 000");
  EXPECT_EQ(with_thousands(28704), "28 704");
  EXPECT_EQ(with_thousands(121265), "121 265");
  EXPECT_EQ(with_thousands(-1234), "-1 234");
}

}  // namespace
}  // namespace rsnsec
