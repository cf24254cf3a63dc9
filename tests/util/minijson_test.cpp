// String decoding of the daemon's JSON parser: runs between escapes are
// copied whole, so every way a run can end, the escapes themselves, and
// the errors with their byte offsets are pinned here.

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace rsnsec {
namespace {

/// The decoded value of JSON string literal `literal` (quotes included).
std::string decode(const std::string& literal) {
  JsonParseResult r = parse_json(literal);
  EXPECT_TRUE(r.ok()) << literal << ": " << r.error << " at byte "
                      << r.error_pos;
  return r.ok() && r.value->is_string() ? r.value->string : "<error>";
}

TEST(JsonString, RunsEndAtEveryEscapeKind) {
  const std::pair<const char*, const char*> escapes[] = {
      {"\\\"", "\""}, {"\\\\", "\\"}, {"\\/", "/"},  {"\\b", "\b"},
      {"\\f", "\f"},  {"\\n", "\n"},  {"\\r", "\r"}, {"\\t", "\t"},
      {"\\u0041", "A"}};
  for (const auto& [raw, decoded] : escapes) {
    EXPECT_EQ(decode("\"abc" + std::string(raw) + "def\""),
              "abc" + std::string(decoded) + "def")
        << raw;
    EXPECT_EQ(decode("\"" + std::string(raw) + "\""), decoded) << raw;
    EXPECT_EQ(decode("\"" + std::string(raw) + raw + "x\""),
              std::string(decoded) + decoded + "x")
        << raw;
  }
  EXPECT_EQ(decode("\"one run to the closing quote\""),
            "one run to the closing quote");
  EXPECT_EQ(decode("\"\""), "");
  const std::string long_run(70000, 'r');
  EXPECT_EQ(decode("\"" + long_run + "\""), long_run);
}

TEST(JsonString, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(decode("\"\\u0041\\u007f\""), "A\x7f");
  EXPECT_EQ(decode("\"\\u00e9\\u07FF\""), "\xc3\xa9\xdf\xbf");
  EXPECT_EQ(decode("\"\\u20ac\\uFFFF\""), "\xe2\x82\xac\xef\xbf\xbf");
  EXPECT_EQ(decode("\"a\\u0000b\""), std::string("a\0b", 3));
}

TEST(JsonString, RawControlCharacterFailsAtItsByteOffset) {
  const std::string run(100000, 'a');
  const std::string text = "\"" + run + "\x01" + "tail\"";
  JsonParseResult r = parse_json(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "raw control character in string");
  EXPECT_EQ(r.error_pos, 1 + run.size());

  // Inside an object, after an escape: the offset is the byte's own.
  const std::string member = "{\"k\": \"x\\n" + run + "\n\"}";
  r = parse_json(member);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "raw control character in string");
  EXPECT_EQ(r.error_pos, member.find('\n'));
}

TEST(JsonString, EscapedQuoteJustBeforeTheClosingOne) {
  EXPECT_EQ(decode("\"abc\\\"\""), "abc\"");
  EXPECT_EQ(decode("\"abc\\\\\""), "abc\\");
  EXPECT_EQ(decode("\"abc\\\\\\\"\""), "abc\\\"");
  JsonParseResult r = parse_json("[\"a\\\"\", \"b\"]");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.value->array.size(), 2u);
  EXPECT_EQ(r.value->array[0].string, "a\"");
  EXPECT_EQ(r.value->array[1].string, "b");
}

TEST(JsonString, UnterminatedMegabyteStringFails) {
  const std::string plain = "\"" + std::string(1 << 20, 'a');
  JsonParseResult r = parse_json(plain);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "unterminated string");
  EXPECT_EQ(r.error_pos, plain.size());

  // Every quote escaped: the search for the closing one walks each
  // backslash run once.
  std::string escaped = "\"";
  for (int i = 0; i < (1 << 18); ++i) escaped += "\\\"\\\\";
  r = parse_json(escaped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "unterminated string");
  EXPECT_EQ(r.error_pos, escaped.size());

  r = parse_json("\"abc\\");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "truncated escape");
  EXPECT_EQ(r.error_pos, 5u);
}

TEST(JsonString, EscapeErrorsKeepTheirOffsets) {
  JsonParseResult r = parse_json("\"ab\\x\"");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "invalid escape character");
  EXPECT_EQ(r.error_pos, 5u);
  r = parse_json("\"ab\\u12G4\"");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error, "malformed \\u escape");
  EXPECT_EQ(r.error_pos, 7u);
}

}  // namespace
}  // namespace rsnsec
