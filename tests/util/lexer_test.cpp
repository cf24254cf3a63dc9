#include "util/lexer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rsnsec {
namespace {

/// All tokens of `text` as "kind:text@line" strings, End excluded.
std::vector<std::string> lex_all(const std::string& text) {
  std::istringstream is(text);
  Lexer lex(is, "test");
  std::vector<std::string> out;
  for (Token t = lex.next(); t.kind != TokKind::End; t = lex.next()) {
    const char* kind = t.kind == TokKind::Ident    ? "id"
                       : t.kind == TokKind::Number ? "num"
                       : t.kind == TokKind::String ? "str"
                                                   : "p";
    out.push_back(std::string(kind) + ":" + std::string(t.text) + "@" +
                  std::to_string(t.line));
  }
  return out;
}

std::string lex_error(const std::string& text) {
  try {
    lex_all(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Lexer, TokenClasses) {
  EXPECT_EQ(lex_all("and g1(w$1, a.b, 1'b0);"),
            (std::vector<std::string>{"id:and@1", "id:g1@1", "p:(@1",
                                      "id:w$1@1", "p:,@1", "id:a.b@1",
                                      "p:,@1", "num:1'b0@1", "p:)@1",
                                      "p:;@1"}));
  EXPECT_EQ(lex_all("R[7:0] { 16'h00ff : \\esc[3] ; } = \"s t\""),
            (std::vector<std::string>{
                "id:R@1", "p:[@1", "num:7@1", "p::@1", "num:0@1", "p:]@1",
                "p:{@1", "num:16'h00ff@1", "p::@1", "id:esc[3]@1", "p:;@1",
                "p:}@1", "p:=@1", "str:s t@1"}));
  EXPECT_EQ(lex_all("(* instrument = \"aes\" *)"),
            (std::vector<std::string>{"p:(*@1", "id:instrument@1", "p:=@1",
                                      "str:aes@1", "p:*)@1"}));
}

TEST(Lexer, CountsNewlinesInCommentsAndStrings) {
  EXPECT_EQ(lex_all("a // x\n/* 1\n2 */ b \"3\n4\" c\r\n\td"),
            (std::vector<std::string>{"id:a@1", "id:b@3", "str:3\n4@3",
                                      "id:c@4", "id:d@5"}));
}

TEST(Lexer, PeekAndEndRepeat) {
  std::istringstream is("x");
  Lexer lex(is, "test");
  EXPECT_TRUE(lex.peek().is("x"));
  EXPECT_TRUE(lex.next().is("x"));
  for (int i = 0; i < 3; ++i) {
    Token t = lex.next();
    EXPECT_EQ(t.kind, TokKind::End);
    EXPECT_EQ(t.line, 1);
  }
}

TEST(Lexer, ErrorsCarryPrefixAndLine) {
  EXPECT_EQ(lex_error("a\n/* open"),
            "test parse error at line 2: unterminated block comment");
  EXPECT_EQ(lex_error("a\n\n\"open"),
            "test parse error at line 3: unterminated string literal");
  EXPECT_EQ(lex_error("a \\"),
            "test parse error at line 1: empty escaped identifier");
  EXPECT_EQ(lex_error("a\n#"),
            "test parse error at line 2: unexpected character '#'");
  EXPECT_EQ(lex_error(std::string("a\n\n", 3) + '\xff'),
            "test parse error at line 3: unexpected character byte 0xff");
  EXPECT_EQ(lex_error(std::string("a", 1) + '\0'),
            "test parse error at line 1: unexpected character byte 0x00");
  EXPECT_EQ(lex_error("a * b"),
            "test parse error at line 1: unexpected character '*'");
}

}  // namespace
}  // namespace rsnsec
