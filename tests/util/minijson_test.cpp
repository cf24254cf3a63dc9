// String decoding of the daemon's JSON parser: runs between escapes are
// copied whole, in 16-byte blocks where the platform has them, so every
// way a run can end, the escapes themselves, and the errors with their
// byte offsets are pinned here, and swept against a byte-at-a-time
// reference decoder.

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// What parse_json makes of a text: the decoded string, or its error.
struct Decoded {
  std::string value;
  std::string error;
  std::size_t error_pos = 0;
};

/// The reference: parse_json of a text that opens with a string literal,
/// one byte at a time.
Decoded reference_decode(std::string_view t) {
  Decoded d;
  std::size_t pos = 1;
  auto fail = [&](const char* msg) {
    d.value.clear();
    d.error = msg;
    d.error_pos = pos;
    return d;
  };
  for (;;) {
    if (pos >= t.size()) return fail("unterminated string");
    const auto c = static_cast<unsigned char>(t[pos]);
    if (c == '"') break;
    if (c < 0x20) return fail("raw control character in string");
    ++pos;
    if (c != '\\') {
      d.value += static_cast<char>(c);
      continue;
    }
    if (pos >= t.size()) return fail("truncated escape");
    switch (t[pos++]) {
      case '"': d.value += '"'; break;
      case '\\': d.value += '\\'; break;
      case '/': d.value += '/'; break;
      case 'b': d.value += '\b'; break;
      case 'f': d.value += '\f'; break;
      case 'n': d.value += '\n'; break;
      case 'r': d.value += '\r'; break;
      case 't': d.value += '\t'; break;
      case 'u': {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i, ++pos) {
          if (pos >= t.size() ||
              !std::isxdigit(static_cast<unsigned char>(t[pos])))
            return fail("malformed \\u escape");
          const char h = t[pos];
          cp = cp * 16 + static_cast<unsigned>(
                             h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
        }
        if (cp < 0x80) {
          d.value += static_cast<char>(cp);
        } else if (cp < 0x800) {
          d.value += static_cast<char>(0xc0 | (cp >> 6));
          d.value += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          d.value += static_cast<char>(0xe0 | (cp >> 12));
          d.value += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          d.value += static_cast<char>(0x80 | (cp & 0x3f));
        }
        break;
      }
      default:
        return fail("invalid escape character");
    }
  }
  ++pos;  // the closing quote
  while (pos < t.size() && (t[pos] == ' ' || t[pos] == '\t' ||
                            t[pos] == '\n' || t[pos] == '\r'))
    ++pos;
  if (pos != t.size()) return fail("trailing bytes after JSON value");
  return d;
}

/// parse_json of `text` copied to the end of an exactly sized heap
/// buffer, so a read past the input trips AddressSanitizer.
Decoded block_decode(const std::string& text) {
  const std::unique_ptr<char[]> buf(new char[text.size()]);
  std::memcpy(buf.get(), text.data(), text.size());
  JsonParseResult r = parse_json(std::string_view(buf.get(), text.size()));
  Decoded d;
  if (r.ok()) {
    EXPECT_TRUE(r.value->is_string());
    d.value = r.value->string;
  } else {
    d.error = r.error;
    d.error_pos = r.error_pos;
  }
  return d;
}

/// `n` plain bytes: letters, a space, DEL and bytes above 0x7f, which a
/// signed compare would take for control bytes.
std::string filler(std::size_t n) {
  static const std::string kCycle = "ab \x7f\xc3\xa9z0/\x80\xff{}:,";
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += kCycle[i % kCycle.size()];
  return s;
}

/// Checks every prefix of `literal` (the whole of it included) against
/// the reference.
void expect_every_truncation_matches(const std::string& literal) {
  for (std::size_t cut = 0; cut <= literal.size(); ++cut) {
    const std::string text = literal.substr(0, cut);
    if (text.empty()) continue;  // no string literal to decode
    const Decoded want = reference_decode(text);
    const Decoded got = block_decode(text);
    ASSERT_EQ(got.error, want.error) << "input: " << testing::PrintToString(text);
    ASSERT_EQ(got.error_pos, want.error_pos)
        << "input: " << testing::PrintToString(text);
    ASSERT_EQ(got.value, want.value)
        << "input: " << testing::PrintToString(text);
  }
}

TEST(JsonString, EverySpecialAtEveryOffsetMatchesTheReference) {
  std::vector<std::string> specials = {
      "\"",       "\\\"",     "\\\\",     "\\/",      "\\b",     "\\f",
      "\\n",     "\\r",      "\\t",      "\\u0041",  "\\u00e9", "\\u20AC",
      "\\uFFFF", "\\u12G4",  "\\uZZZZ",  "\\u0",     "\\x"};
  for (int c = 0; c < 0x20; ++c) specials.emplace_back(1, static_cast<char>(c));
  for (const std::string& special : specials) {
    for (std::size_t offset = 0; offset <= 80; ++offset) {
      expect_every_truncation_matches("\"" + filler(offset) + special +
                                      filler(19) + "\"");
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(JsonString, EscapeRunsBeforeTheLastBlockMatchTheReference) {
  // Escapes shrink the decoded string below its raw bytes, so near the
  // end the output has room for a block that the input no longer holds.
  for (std::size_t escapes = 0; escapes <= 24; ++escapes) {
    for (std::size_t tail = 0; tail <= 40; ++tail) {
      std::string literal = "\"";
      for (std::size_t i = 0; i < escapes; ++i) literal += "\\n";
      expect_every_truncation_matches(literal + filler(tail) + "\"");
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rsnsec
