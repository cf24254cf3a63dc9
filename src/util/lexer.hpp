#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace rsnsec {

/// Token classes of the structural-Verilog and ICL front ends.
enum class TokKind : std::uint8_t { Ident, Number, String, Punct, End };

/// One token: a view into the lexer's buffer, valid while the lexer
/// lives. `text` is the identifier (an escaped identifier without its
/// '\'), the raw number ("8", "1'b0", "16'h00ff"), the string body
/// without quotes, the punctuation, or "<eof>" for End.
struct Token {
  TokKind kind = TokKind::End;
  std::string_view text;
  int line = 0;  ///< 1-based line of the token's first character

  /// True for the identifier or punctuation spelled `s`.
  bool is(std::string_view s) const {
    return (kind == TokKind::Ident || kind == TokKind::Punct) && text == s;
  }
};

/// Streaming lexer over one token language, the union of what the
/// Verilog and ICL readers need:
///
///   comments      // to end of line, /* ... */
///   identifiers   [A-Za-z_][A-Za-z0-9_$.]*  and  \escaped (to whitespace)
///   numbers       [0-9][A-Za-z0-9']*  (raw text; the parser interprets)
///   strings       "..."
///   punctuation   ( ) { } [ ] ; : = ,  (*  *)
///
/// The lexer reads its input where it lies and classifies each byte with
/// one table lookup; tokens are produced on demand with one token of
/// lookahead and no allocation. Line numbers count every newline,
/// including those inside comments and strings. Lexical errors (an
/// unterminated comment or string, an empty escaped identifier, a
/// character outside the language) throw std::runtime_error as
/// "<lang> parse error at line N: ...". At end of input the lexer keeps
/// returning End.
class Lexer {
 public:
  /// Lexes `text`, which must outlive the lexer; `lang` ("verilog",
  /// "icl") prefixes error messages.
  Lexer(std::string_view text, const char* lang);
  /// Reads all of `is` into a buffer of its own and lexes that.
  Lexer(std::istream& is, const char* lang);
  Lexer(const Lexer&) = delete;
  Lexer& operator=(const Lexer&) = delete;

  const Token& peek() const { return ahead_; }
  Token next() {
    Token t = ahead_;
    if (t.kind != TokKind::End) scan();
    return t;
  }

  /// Throws "<lang> parse error at line <line>: <msg>".
  [[noreturn]] void fail(int line, const std::string& msg) const;

 private:
  void scan();

  std::string owned_;  ///< the stream constructor's copy of its input
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  const char* lang_;
  Token ahead_;
};

}  // namespace rsnsec
