#include "rsn/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rsnsec::rsn {
namespace {

RsnDocument make_doc() {
  RsnDocument doc;
  doc.network = Rsn("demo");
  doc.module_names = {"crypto", "sensor"};
  Rsn& net = doc.network;
  ElemId r1 = net.add_register("r1", 2, 0);
  ElemId r2 = net.add_register("r2", 3, 1);
  ElemId m = net.add_mux("m", 2);
  net.connect(net.scan_in(), r1, 0);
  net.connect(r1, r2, 0);
  net.connect(r1, m, 0);
  net.connect(r2, m, 1);
  net.connect(m, net.scan_out(), 0);
  return doc;
}

TEST(RsnIo, RoundTripPreservesStructure) {
  RsnDocument doc = make_doc();
  std::ostringstream os;
  write_rsn(os, doc.network, doc.module_names);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);

  EXPECT_EQ(back.network.name(), "demo");
  EXPECT_EQ(back.module_names, doc.module_names);
  ASSERT_EQ(back.network.registers().size(), 2u);
  ASSERT_EQ(back.network.muxes().size(), 1u);
  EXPECT_EQ(back.network.num_scan_ffs(), 5u);

  // Same connection structure.
  std::ostringstream os2;
  write_rsn(os2, back.network, back.module_names);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(RsnIo, RoundTripPreservesValidation) {
  RsnDocument doc = make_doc();
  std::ostringstream os;
  write_rsn(os, doc.network, doc.module_names);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);
  std::string err;
  EXPECT_TRUE(back.network.validate(&err)) << err;
}

TEST(RsnIo, OneInputMuxRoundTripsByteIdentically) {
  // Resolution may shrink a mux to a single input (Rsn::remove_mux_input);
  // write_rsn emits it as `inputs 1`, and read_rsn must accept it.
  RsnDocument doc;
  doc.network = Rsn("shrunk");
  doc.module_names = {"core"};
  Rsn& net = doc.network;
  ElemId r = net.add_register("r", 2, 0);
  ElemId buf = net.add_mux("buf", 2);
  net.remove_mux_input(buf, 1);
  net.connect(net.scan_in(), r, 0);
  net.connect(r, buf, 0);
  net.connect(buf, net.scan_out(), 0);

  std::ostringstream os;
  write_rsn(os, net, doc.module_names);
  ASSERT_NE(os.str().find("mux buf inputs 1\n"), std::string::npos);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);
  ASSERT_EQ(back.network.muxes().size(), 1u);
  EXPECT_EQ(back.network.elem(back.network.muxes()[0]).inputs.size(), 1u);
  std::string err;
  EXPECT_TRUE(back.network.validate(&err)) << err;
  std::ostringstream os2;
  write_rsn(os2, back.network, back.module_names);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(RsnIo, RejectsInputlessMux) {
  std::istringstream is("rsn x\nmux m inputs 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, ParsesCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n"
      "\n"
      "rsn x\n"
      "register r ffs 1 module -1\n"
      "connect scan_in r 0\n"
      "connect r scan_out 0\n");
  RsnDocument doc = read_rsn(is);
  EXPECT_EQ(doc.network.registers().size(), 1u);
  EXPECT_TRUE(doc.network.validate());
}

TEST(RsnIo, FieldsMaySeparateByTabsAndRuns) {
  std::istringstream is(
      "rsn\tx\n"
      "register\tr  ffs\t1 \t module -1\n"
      "connect scan_in\t\tr 0\n"
      "  connect r scan_out 0\n");
  RsnDocument doc = read_rsn(is);
  ASSERT_EQ(doc.network.registers().size(), 1u);
  EXPECT_EQ(doc.network.elem(doc.network.registers()[0]).name, "r");
  EXPECT_TRUE(doc.network.validate());
}

TEST(RsnIo, RejectsElementsAboveTheCountLimit) {
  // The limit is rsn::kMaxElementCount, shared with the ICL reader.
  for (const char* line : {"register r ffs 4194305 module -1",
                           "mux m inputs 4194305"}) {
    std::istringstream is(std::string("rsn x\n") + line + "\n");
    try {
      read_rsn(is);
      FAIL() << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("rsn parse error at line 2"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "(max " + std::to_string(kMaxElementCount) + ")"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RsnIo, RejectsUnknownElement) {
  std::istringstream is(
      "rsn x\n"
      "connect scan_in nosuch 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsUnknownKeyword) {
  std::istringstream is("rsn x\nfrobnicate y\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsDuplicateNames) {
  std::istringstream is(
      "rsn x\n"
      "register r ffs 1 module 0\n"
      "mux r inputs 2\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsMissingHeader) {
  std::istringstream is("register r ffs 1 module 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsNonConsecutiveModules) {
  std::istringstream is("rsn x\nmodule 1 foo\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

// The line walk over the input buffer splits lines as std::getline did.
std::string rsn_error(std::string_view text) {
  try {
    read_rsn(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RsnIo, CrlfLineEndingsParseLikeLf) {
  const std::string text =
      "rsn x\r\n"
      "register r ffs 2 module -1\r\n"
      "connect scan_in r 0\r\n"
      "connect r scan_out 0\r\n";
  RsnDocument doc = read_rsn(text);
  ASSERT_EQ(doc.network.registers().size(), 1u);
  EXPECT_EQ(doc.network.elem(doc.network.registers()[0]).name, "r");
  EXPECT_EQ(doc.network.num_scan_ffs(), 2u);
  EXPECT_TRUE(doc.network.validate());
  EXPECT_EQ(rsn_error("rsn x\r\nfrobnicate y\r\n"),
            "rsn parse error at line 2: unknown keyword 'frobnicate'");
}

TEST(RsnIo, LastLineWithoutNewlineIsRead) {
  RsnDocument doc = read_rsn(
      "rsn x\nregister r ffs 1 module -1\nconnect scan_in r 0\n"
      "connect r scan_out 0");
  EXPECT_TRUE(doc.network.validate());
  EXPECT_EQ(rsn_error("rsn x\nconnect scan_in nosuch 0"),
            "rsn parse error at line 2: unknown element 'nosuch'");
}

TEST(RsnIo, BlankAndCommentLinesCountTowardLineNumbers) {
  const std::string text =
      "\n"
      "# header follows\n"
      "   \t\n"
      "rsn x\n"
      "  # indented comment\n"
      "\n"
      "mux m inputs zero\n";
  EXPECT_EQ(rsn_error(text),
            "rsn parse error at line 7: invalid mux input count 'zero' "
            "(expected a non-negative integer)");
  // Trailing blank lines count too, as the empty-document error shows.
  EXPECT_EQ(rsn_error("# nothing\n\n\n"),
            "rsn parse error at line 3: empty document (no rsn header)");
}

TEST(RsnIo, OverlongStatementKeepsItsExpectedMessage) {
  std::string line = "register r ffs 1 module 0";
  for (int i = 0; i < 64; ++i) line += " extra" + std::to_string(i);
  EXPECT_EQ(rsn_error("rsn x\n# c\n" + line + "\n"),
            "rsn parse error at line 3: expected: register <name> ffs <n> "
            "module <index>");
  EXPECT_EQ(rsn_error("rsn x\nconnect a b 0 1 2 3 4 5 6 7 8 9\n"),
            "rsn parse error at line 2: expected: connect <from> <to> <port>");
}

TEST(RsnIo, StreamAndBufferEntryPointsAgree) {
  RsnDocument doc = make_doc();
  std::ostringstream os;
  write_rsn(os, doc.network, doc.module_names);
  std::istringstream is(os.str());
  std::ostringstream from_stream, from_buffer;
  write_rsn(from_stream, read_rsn(is).network, doc.module_names);
  write_rsn(from_buffer, read_rsn(os.str()).network, doc.module_names);
  EXPECT_EQ(from_stream.str(), os.str());
  EXPECT_EQ(from_buffer.str(), os.str());
}

TEST(RsnIo, SummarizeMentionsCounts) {
  RsnDocument doc = make_doc();
  std::string s = summarize(doc.network);
  EXPECT_NE(s.find("2 registers"), std::string::npos);
  EXPECT_NE(s.find("5 scan FFs"), std::string::npos);
  EXPECT_NE(s.find("1 muxes"), std::string::npos);
}

}  // namespace
}  // namespace rsnsec::rsn
