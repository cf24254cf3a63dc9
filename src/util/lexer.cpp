#include "util/lexer.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/strings.hpp"

namespace rsnsec {

namespace {

/// Byte classes; one table lookup answers each scan loop's question.
enum : std::uint8_t {
  kSpace = 1,        ///< ' ' and '\t'..'\r' (newline included)
  kIdentStart = 2,   ///< [A-Za-z_]
  kIdentChar = 4,    ///< [A-Za-z0-9_$.]
  kDigit = 8,        ///< [0-9]
  kNumberChar = 16,  ///< [A-Za-z0-9']
  kPunct = 32,       ///< ( ) { } [ ] ; : = ,
};

constexpr auto kClass = [] {
  std::array<std::uint8_t, 256> cls{};
  for (int c = '\t'; c <= '\r'; ++c) cls[c] |= kSpace;
  cls[' '] |= kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_') cls[c] |= kIdentStart;
    if (alpha || digit || c == '_' || c == '$' || c == '.')
      cls[c] |= kIdentChar;
    if (digit) cls[c] |= kDigit;
    if (alpha || digit || c == '\'') cls[c] |= kNumberChar;
  }
  for (char c : std::string_view("(){}[];:=,"))
    cls[static_cast<unsigned char>(c)] |= kPunct;
  return cls;
}();

bool is(char c, std::uint8_t cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

int count_newlines(const char* from, const char* to) {
  int n = 0;
  for (; from < to; ++from) n += *from == '\n';
  return n;
}

}  // namespace

Lexer::Lexer(std::string_view text, const char* lang)
    : text_(text), lang_(lang) {
  scan();
}

Lexer::Lexer(std::istream& is, const char* lang)
    : owned_(read_all(is)), text_(owned_), lang_(lang) {
  scan();
}

void Lexer::fail(int line, const std::string& msg) const {
  throw std::runtime_error(std::string(lang_) + " parse error at line " +
                           std::to_string(line) + ": " + msg);
}

void Lexer::scan() {
  // The cursor and line live in locals for the scan loops and are
  // stored back once per token.
  const char* const s = text_.data();
  const std::size_t n = text_.size();
  std::size_t pos = pos_;
  int line = line_;
  // Whitespace and comments.
  for (;;) {
    while (pos < n && is(s[pos], kSpace)) line += s[pos++] == '\n';
    if (pos + 1 >= n || s[pos] != '/') break;
    if (s[pos + 1] == '/') {
      const void* nl = std::memchr(s + pos, '\n', n - pos);
      pos = nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - s)
               : n;
    } else if (s[pos + 1] == '*') {
      const std::size_t close = text_.find("*/", pos + 2);
      if (close == std::string_view::npos)
        fail(line, "unterminated block comment");
      line += count_newlines(s + pos, s + close);
      pos = close + 2;
    } else {
      break;
    }
  }
  pos_ = pos;
  line_ = line;
  if (pos >= n) {
    ahead_ = {TokKind::End, "<eof>", line};
    return;
  }

  const std::size_t start = pos;
  const char c = s[pos];
  auto emit = [&](TokKind kind, std::size_t from, std::size_t to) {
    ahead_ = {kind, text_.substr(from, to - from), line};
  };
  if (is(c, kIdentStart)) {
    while (++pos < n && is(s[pos], kIdentChar)) {
    }
    emit(TokKind::Ident, start, pos);
  } else if (c == '\\') {
    while (++pos < n && !is(s[pos], kSpace)) {
    }
    if (pos == start + 1) fail(line, "empty escaped identifier");
    emit(TokKind::Ident, start + 1, pos);
  } else if (is(c, kDigit)) {
    while (++pos < n && is(s[pos], kNumberChar)) {
    }
    emit(TokKind::Number, start, pos);
  } else if (c == '"') {
    const void* q = std::memchr(s + start + 1, '"', n - start - 1);
    if (q == nullptr) fail(line, "unterminated string literal");
    const auto close =
        static_cast<std::size_t>(static_cast<const char*>(q) - s);
    emit(TokKind::String, start + 1, close);
    line_ += count_newlines(s + start, s + close);
    pos = close + 1;
  } else if (pos + 1 < n && ((c == '(' && s[pos + 1] == '*') ||
                             (c == '*' && s[pos + 1] == ')'))) {
    pos += 2;
    emit(TokKind::Punct, start, pos);
  } else if (is(c, kPunct)) {
    ++pos;
    emit(TokKind::Punct, start, pos);
  } else {
    char what[32];
    if (c >= 0x20 && c < 0x7f)
      std::snprintf(what, sizeof what, "'%c'", c);
    else
      std::snprintf(what, sizeof what, "byte 0x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
    fail(line, std::string("unexpected character ") + what);
  }
  pos_ = pos;
}

}  // namespace rsnsec
