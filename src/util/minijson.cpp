#include "util/minijson.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <deque>
#include <iterator>

namespace rsnsec {

namespace {

/// Bytes a JSON string holds as they are: all but '"', '\\' and the
/// control characters below 0x20.
constexpr auto kPlain = [] {
  std::array<bool, 256> plain{};
  for (int c = 0x20; c < 256; ++c) plain[c] = c != '"' && c != '\\';
  return plain;
}();

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonParseResult run() {
    JsonParseResult r;
    skip_ws();
    JsonValue v;
    if (!value(v, 0)) {
      r.error_pos = pos_;
      r.error = error_.empty() ? "malformed JSON value" : error_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      r.error_pos = pos_;
      r.error = "trailing bytes after JSON value";
      return r;
    }
    r.value = std::move(v);
    return r;
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }
  bool fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::String;
        return string(out.string);
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      default:
        out.kind = JsonValue::Kind::Number;
        return number(out.number);
    }
  }

  bool object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::Object;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return fail("expected object key string");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::Array;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    // Elements collect in fixed-size deque blocks and then move into an
    // exactly sized vector. Growing the vector geometrically would make
    // one allocation of up to twice the final size: ~96 bytes for every
    // 2-byte "0," element of a hostile frame.
    std::deque<JsonValue> items;
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
    out.array.reserve(items.size());
    std::move(items.begin(), items.end(), std::back_inserter(out.array));
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  /// Raw bytes from the cursor to the string's closing quote: the first
  /// '"' not preceded by an odd run of backslashes (0 if there is none).
  /// A decoded string is never longer than its raw extent.
  std::size_t raw_extent() const {
    const char* const begin = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    for (const char* p = begin; p < end; ++p) {
      p = static_cast<const char*>(std::memchr(p, '"', end - p));
      if (p == nullptr) return 0;
      std::size_t backslashes = 0;
      while (p - backslashes > begin && p[-1 - backslashes] == '\\')
        ++backslashes;
      if (backslashes % 2 == 0) return static_cast<std::size_t>(p - begin);
    }
    return 0;
  }

  bool string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    out.reserve(raw_extent());
    const std::string_view s = text_;
    for (;;) {
      // Copy the run up to the next quote, backslash or control character
      // in one append.
      std::size_t run = pos_;
      while (run < s.size() && kPlain[static_cast<unsigned char>(s[run])])
        ++run;
      out.append(s.data() + pos_, run - pos_);
      pos_ = run;
      if (eof()) return fail("unterminated string");
      const auto c = static_cast<unsigned char>(s[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      ++pos_;  // the backslash
      if (eof()) return fail("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
              return fail("malformed \\u escape");
            char h = text_[pos_++];
            cp = cp * 16 +
                 static_cast<unsigned>(h <= '9' ? h - '0'
                                                : (h | 0x20) - 'a' + 10);
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool number(double& out) {
    std::size_t start = pos_;
    consume('-');
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("malformed number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("malformed number fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("malformed number exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    // The token shape is validated above, so from_chars/strtod can only
    // disagree on range; out-of-range doubles are the caller's data.
    out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult parse_json(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace rsnsec
