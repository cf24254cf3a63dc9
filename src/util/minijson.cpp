#include "util/minijson.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <deque>
#include <iterator>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace rsnsec {

namespace {

/// Bytes a JSON string holds as they are: all but '"', '\\' and the
/// control characters below 0x20.
constexpr auto kPlain = [] {
  std::array<bool, 256> plain{};
  for (int c = 0x20; c < 256; ++c) plain[c] = c != '"' && c != '\\';
  return plain;
}();

/// The byte each one-letter escape stands for (0: not one).
constexpr auto kSimpleEscape = [] {
  std::array<char, 256> decoded{};
  decoded['"'] = '"';
  decoded['\\'] = '\\';
  decoded['/'] = '/';
  decoded['b'] = '\b';
  decoded['f'] = '\f';
  decoded['n'] = '\n';
  decoded['r'] = '\r';
  decoded['t'] = '\t';
  return decoded;
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

  /// Writes code point `cp` (at most U+FFFF) as UTF-8 at `w`.
  static char* put_utf8(char* w, unsigned cp) {
    if (cp < 0x80) {
      *w++ = static_cast<char>(cp);
    } else if (cp < 0x800) {
      *w++ = static_cast<char>(0xc0 | (cp >> 6));
      *w++ = static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      *w++ = static_cast<char>(0xe0 | (cp >> 12));
      *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      *w++ = static_cast<char>(0x80 | (cp & 0x3f));
    }
    return w;
  }

  /// Raw bytes from the cursor to the string's closing quote: the first
  /// '"' not preceded by an odd run of backslashes, or the end of input
  /// when there is none. A decoded string is never longer than its raw
  /// extent, and decoding stops at that quote or fails before it.
  std::size_t raw_extent() const {
    const char* const begin = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    for (const char* p = begin; p < end; ++p) {
      p = static_cast<const char*>(std::memchr(p, '"', end - p));
      if (p == nullptr) break;
      std::size_t backslashes = 0;
      while (p - backslashes > begin && p[-1 - backslashes] == '\\')
        ++backslashes;
      if (backslashes % 2 == 0) return static_cast<std::size_t>(p - begin);
    }
    return static_cast<std::size_t>(end - begin);
  }

  /// Copies the plain bytes at `p` to `w`, up to the next quote,
  /// backslash or control byte or `end`, and moves both past them.
  /// `cap - w` is at least the raw bytes left before the closing quote,
  /// so every write stays inside the decoded string.
  static void copy_run(const char*& p, const char* end, char*& w,
                       const char* cap) {
#ifdef __SSE2__
    // 16-byte blocks while a whole one fits in the input and the output;
    // each block is stored before it is tested, and the cursor stops at
    // its first special byte.
    const __m128i quote = _mm_set1_epi8('"');
    const __m128i backslash = _mm_set1_epi8('\\');
    const __m128i control_max = _mm_set1_epi8(0x1f);
    while (end - p >= 16 && cap - w >= 16) {
      const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(w), b);
      const __m128i special = _mm_or_si128(
          _mm_or_si128(_mm_cmpeq_epi8(b, quote), _mm_cmpeq_epi8(b, backslash)),
          _mm_cmpeq_epi8(_mm_min_epu8(b, control_max), b));
      if (const int mask = _mm_movemask_epi8(special); mask != 0) {
        const int n = __builtin_ctz(static_cast<unsigned>(mask));
        w += n;
        p += n;
        return;
      }
      p += 16;
      w += 16;
    }
#endif
    const char* run = p;
    while (run < end && kPlain[static_cast<unsigned char>(*run)]) ++run;
    std::memcpy(w, p, static_cast<std::size_t>(run - p));
    w += run - p;
    p = run;
  }

  /// Decodes into `out` sized once from the raw extent. The cursor is a
  /// local pointer, stored back into pos_ when the string ends or fails.
  bool string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.resize(raw_extent());
    char* w = out.data();
    const char* const cap = w + out.size();
    const char* p = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    auto fail_at = [&](const char* msg) {
      pos_ = static_cast<std::size_t>(p - text_.data());
      return fail(msg);
    };
    for (;;) {
      copy_run(p, end, w, cap);
      if (p == end) return fail_at("unterminated string");
      const auto c = static_cast<unsigned char>(*p);
      if (c == '"') {
        pos_ = static_cast<std::size_t>(p + 1 - text_.data());
        out.resize(static_cast<std::size_t>(w - out.data()));
        return true;
      }
      if (c < 0x20) return fail_at("raw control character in string");
      if (++p == end) return fail_at("truncated escape");
      const char e = *p++;
      if (const char d = kSimpleEscape[static_cast<unsigned char>(e)]) {
        *w++ = d;
        continue;
      }
      if (e != 'u') return fail_at("invalid escape character");
      unsigned cp = 0;
      for (int i = 0; i < 4; ++i, ++p) {
        if (p == end || !std::isxdigit(static_cast<unsigned char>(*p)))
          return fail_at("malformed \\u escape");
        const char h = *p;
        cp = cp * 16 + static_cast<unsigned>(h <= '9' ? h - '0'
                                                      : (h | 0x20) - 'a' + 10);
      }
      w = put_utf8(w, cp);
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
