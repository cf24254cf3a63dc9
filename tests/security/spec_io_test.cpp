#include "security/spec_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace rsnsec::security {
namespace {

TEST(SpecIo, RoundTrip) {
  SecuritySpec spec(4, 3);
  spec.set_policy(0, 2, 0b100);  // crypto: top-only
  spec.set_policy(1, 0, 0b111);  // sensor: low trust, permissive data
  spec.set_policy(2, 2, 0b110);
  // module 3 keeps the all-permissive default.
  std::vector<std::string> names{"crypto", "sensor", "debug", "dma"};

  std::ostringstream os;
  write_spec(os, spec, names);
  std::istringstream is(os.str());
  SecuritySpec back = read_spec(is, names);

  ASSERT_EQ(back.num_categories(), 3u);
  ASSERT_GE(back.num_modules(), 4u);
  for (netlist::ModuleId m = 0; m < 4; ++m) {
    EXPECT_EQ(back.policy(m).trust, spec.policy(m).trust) << m;
    EXPECT_EQ(back.policy(m).accepted & 0b111,
              spec.policy(m).accepted & 0b111)
        << m;
  }
}

TEST(SpecIo, WritesNamesWhenAvailable) {
  SecuritySpec spec(2, 2);
  spec.set_policy(0, 0, 0b11);
  std::ostringstream os;
  write_spec(os, spec, {"aes", "rng"});
  EXPECT_NE(os.str().find("module aes trust 0"), std::string::npos);
}

TEST(SpecIo, NumericIndicesAccepted) {
  std::istringstream is(
      "categories 2\n"
      "module 5 trust 0 accepts 0,1\n");
  SecuritySpec spec = read_spec(is);
  EXPECT_GE(spec.num_modules(), 6u);
  EXPECT_EQ(spec.policy(5).trust, 0u);
  EXPECT_EQ(spec.policy(5).accepted, 0b11u);
  // Unlisted modules default to fully permissive top trust.
  EXPECT_EQ(spec.policy(0).trust, 1u);
}

TEST(SpecIo, CommentsAndBlankLines) {
  std::istringstream is(
      "# policy file\n"
      "\n"
      "categories 2\n"
      "# crypto is protected\n"
      "module 0 trust 1 accepts 1\n");
  SecuritySpec spec = read_spec(is);
  EXPECT_EQ(spec.policy(0).accepted, 0b10u);
}

TEST(SpecIo, RejectsMalformedInput) {
  {
    std::istringstream is("module 0 trust 0 accepts 0\n");
    EXPECT_THROW(read_spec(is), std::runtime_error);  // categories first
  }
  {
    std::istringstream is("categories 2\nmodule 0 trust 5 accepts 0\n");
    EXPECT_THROW(read_spec(is), std::runtime_error);  // trust range
  }
  {
    std::istringstream is("categories 2\nmodule 0 trust 0 accepts 1\n");
    EXPECT_THROW(read_spec(is), std::runtime_error);  // self-acceptance
  }
  {
    std::istringstream is("categories 2\nmodule nosuch trust 0 accepts 0\n");
    EXPECT_THROW(read_spec(is), std::runtime_error);  // unknown name
  }
  {
    std::istringstream is("categories 0\n");
    EXPECT_THROW(read_spec(is), std::runtime_error);
  }
}

TEST(SpecIo, TabsAndRunsOfSpacesTokenizeLikeSingleSpaces) {
  std::istringstream is(
      "categories\t2\n"
      "module   0\ttrust  1   accepts\t0,1\n");
  SecuritySpec spec = read_spec(is);
  EXPECT_EQ(spec.policy(0).trust, 1u);
  EXPECT_EQ(spec.policy(0).accepted, 0b11u);
}

TEST(SpecIo, OverflowingNumbersAreLineNumberedParseErrors) {
  std::istringstream is(
      "categories 2\n"
      "module 0 trust 99999999999999999999 accepts 0\n");
  try {
    read_spec(is);
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("spec parse error at line 2"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("99999999999999999999"),
              std::string::npos);
  }
}

TEST(SpecIo, NonNumericFieldsAreParseErrors) {
  {
    std::istringstream is("categories abc\n");
    EXPECT_THROW(read_spec(is), SpecParseError);
  }
  {
    std::istringstream is("categories 2\nmodule 0 trust abc accepts 0\n");
    EXPECT_THROW(read_spec(is), SpecParseError);
  }
  {
    std::istringstream is("categories 2\nmodule 0 trust 0 accepts 0,x\n");
    EXPECT_THROW(read_spec(is), SpecParseError);
  }
  {
    // Overflowing category count must not wrap into a "valid" value.
    std::istringstream is("categories 18446744073709551616\n");
    EXPECT_THROW(read_spec(is), SpecParseError);
  }
}

TEST(SpecIo, AbsurdModuleIndexIsRejectedNotAllocated) {
  // A huge numeric index sizes the policy table; it must fail cleanly
  // instead of attempting a multi-gigabyte allocation.
  std::istringstream is(
      "categories 2\n"
      "module 4000000000 trust 0 accepts 0\n");
  try {
    read_spec(is);
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"),
              std::string::npos);
  }
}

TEST(SpecIo, ParseErrorsCarryTheFailingLineNumber) {
  std::istringstream is(
      "categories 2\n"
      "# a comment\n"
      "\n"
      "module 0 trust 0 accepts zero\n");
  try {
    read_spec(is);
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
}

// The line walk over the input buffer splits lines as std::getline did.
std::string spec_error(std::string_view text,
                       const std::vector<std::string>& names = {}) {
  try {
    read_spec(text, names);
  } catch (const SpecParseError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecIo, CrlfLineEndingsParseLikeLf) {
  SecuritySpec spec = read_spec(
      "categories 3\r\nmodule crypto trust 2 accepts 1,2\r\n",
      {"dma", "crypto"});
  EXPECT_EQ(spec.num_categories(), 3u);
  EXPECT_EQ(spec.policy(1).trust, 2);
  EXPECT_EQ(spec.policy(1).accepted, 0b110u);
  EXPECT_EQ(spec_error("categories 2\r\nmodule 0 trust 5 accepts 0\r\n"),
            "spec parse error at line 2: trust category out of range");
}

TEST(SpecIo, LastLineWithoutNewlineIsRead) {
  SecuritySpec spec = read_spec("categories 2\nmodule 0 trust 1 accepts 1");
  EXPECT_EQ(spec.policy(0).accepted, 0b10u);
  EXPECT_EQ(spec_error("categories 2\nmodule 0 trust 1 accepts 0"),
            "spec parse error at line 2: module must accept its own trust "
            "category");
}

TEST(SpecIo, BlankAndCommentLinesCountTowardLineNumbers) {
  EXPECT_EQ(spec_error("\n# policy\n \t \ncategories 2\n  # note\n\n"
                       "module nosuch trust 0 accepts 0\n"),
            "spec parse error at line 7: unknown module 'nosuch'");
  // Trailing blank lines count too, as the missing-header error shows.
  EXPECT_EQ(spec_error("# empty\n\n\n\n"),
            "spec parse error at line 4: missing 'categories' line");
}

TEST(SpecIo, OverlongStatementKeepsItsExpectedMessage) {
  std::string line = "module 0 trust 1 accepts 1";
  for (int i = 0; i < 64; ++i) line += " extra" + std::to_string(i);
  EXPECT_EQ(spec_error("categories 2\n\n" + line + "\n"),
            "spec parse error at line 3: expected: module <name|index> trust "
            "<cat> accepts <list>");
  EXPECT_EQ(spec_error("categories 2 3 4 5 6 7 8 9\n"),
            "spec parse error at line 1: expected: categories <n>");
}

TEST(SpecIo, ParsedSpecValidates) {
  std::istringstream is(
      "categories 4\n"
      "module 0 trust 3 accepts 2,3\n"
      "module 1 trust 0 accepts 0,1,2,3\n");
  SecuritySpec spec = read_spec(is);
  std::string err;
  EXPECT_TRUE(spec.validate(&err)) << err;
}

}  // namespace
}  // namespace rsnsec::security
