#include "util/lexer.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <stdexcept>

namespace rsnsec {

namespace {

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '$' || c == '.';
}
constexpr std::string_view kPunct = "(){}[];:=,";

}  // namespace

Lexer::Lexer(std::istream& is, const char* lang) : lang_(lang) {
  char buf[1 << 16];
  while (is.read(buf, sizeof buf), is.gcount() > 0)
    text_.append(buf, static_cast<std::size_t>(is.gcount()));
  scan();
}

void Lexer::fail(int line, const std::string& msg) const {
  throw std::runtime_error(std::string(lang_) + " parse error at line " +
                           std::to_string(line) + ": " + msg);
}

void Lexer::scan() {
  const std::string_view s = text_;
  // Whitespace and comments.
  for (;;) {
    if (pos_ >= s.size()) {
      ahead_ = {TokKind::End, "<eof>", line_};
      return;
    }
    const char c = s[pos_];
    if (c == '\n') {
      ++line_;
      ++pos_;
    } else if (is_space(c)) {
      ++pos_;
    } else if (s.compare(pos_, 2, "//") == 0) {
      pos_ = std::min(s.find('\n', pos_), s.size());
    } else if (s.compare(pos_, 2, "/*") == 0) {
      const std::size_t close = s.find("*/", pos_ + 2);
      if (close == std::string_view::npos)
        fail(line_, "unterminated block comment");
      for (std::size_t i = pos_; i < close; ++i) line_ += s[i] == '\n';
      pos_ = close + 2;
    } else {
      break;
    }
  }

  const std::size_t start = pos_;
  const char c = s[pos_];
  auto emit = [&](TokKind kind, std::size_t from, std::size_t to) {
    ahead_ = {kind, s.substr(from, to - from), line_};
  };
  if (is_alpha(c) || c == '_') {
    while (pos_ < s.size() && is_ident_char(s[pos_])) ++pos_;
    emit(TokKind::Ident, start, pos_);
  } else if (c == '\\') {
    ++pos_;
    while (pos_ < s.size() && !is_space(s[pos_])) ++pos_;
    if (pos_ == start + 1) fail(line_, "empty escaped identifier");
    emit(TokKind::Ident, start + 1, pos_);
  } else if (is_digit(c)) {
    while (pos_ < s.size() &&
           (is_alpha(s[pos_]) || is_digit(s[pos_]) || s[pos_] == '\''))
      ++pos_;
    emit(TokKind::Number, start, pos_);
  } else if (c == '"') {
    const std::size_t close = s.find('"', start + 1);
    if (close == std::string_view::npos)
      fail(line_, "unterminated string literal");
    emit(TokKind::String, start + 1, close);
    for (std::size_t i = start; i < close; ++i) line_ += s[i] == '\n';
    pos_ = close + 1;
  } else if (s.compare(pos_, 2, "(*") == 0 || s.compare(pos_, 2, "*)") == 0) {
    pos_ += 2;
    emit(TokKind::Punct, start, pos_);
  } else if (kPunct.find(c) != std::string_view::npos) {
    ++pos_;
    emit(TokKind::Punct, start, pos_);
  } else {
    char what[32];
    if (c >= 0x20 && c < 0x7f)
      std::snprintf(what, sizeof what, "'%c'", c);
    else
      std::snprintf(what, sizeof what, "byte 0x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
    fail(line_, std::string("unexpected character ") + what);
  }
}

}  // namespace rsnsec
