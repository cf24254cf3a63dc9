// File-driven lint entry point: extension dispatch, strict-parser error
// classification onto stable codes, and cross-file attachment checks.

#include "lint/driver.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/registry.hpp"

namespace rsnsec::lint {
namespace {

namespace fs = std::filesystem;

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rsnsec_lint_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content) {
    std::string p = (dir_ / name).string();
    std::ofstream(p) << content;
    return p;
  }

  std::vector<Diagnostic> lint(const std::vector<std::string>& paths) {
    return lint_files(Registry::with_default_passes(), paths, "");
  }

  static std::size_t count_code(const std::vector<Diagnostic>& diags,
                                const std::string& code) {
    std::size_t n = 0;
    for (const Diagnostic& d : diags) n += d.code == code;
    return n;
  }

  fs::path dir_;
};

TEST_F(DriverTest, CleanFilesProduceZeroDiagnostics) {
  std::string rsn = write("net.rsn",
                          "rsn clean\n"
                          "register a ffs 2 module -1\n"
                          "register b ffs 1 module -1\n"
                          "connect scan_in a 0\n"
                          "connect a b 0\n"
                          "connect b scan_out 0\n");
  std::string v = write("ckt.v",
                        "module top(x, q);\n"
                        "  input x;\n"
                        "  output q;\n"
                        "  wire w;\n"
                        "  not g1(w, x);\n"
                        "  dff g2(q, w);\n"
                        "endmodule\n");
  std::vector<Diagnostic> diags = lint({rsn, v});
  EXPECT_TRUE(diags.empty()) << [&] {
    std::ostringstream os;
    render_text(os, diags);
    return os.str();
  }();
}

TEST_F(DriverTest, MultiDriverVerilogClassifiesAsNet001) {
  std::string v = write("multi.v",
                        "module top(a, b, q);\n"
                        "  input a, b;\n"
                        "  output q;\n"
                        "  wire w;\n"
                        "  not g1(w, a);\n"
                        "  buf g2(w, b);\n"
                        "  dff g3(q, w);\n"
                        "endmodule\n");
  std::vector<Diagnostic> diags = lint({v});
  EXPECT_EQ(count_code(diags, "NET001"), 1u);
}

TEST_F(DriverTest, CombinationalLoopVerilogClassifiesAsNet002) {
  std::string v = write("loop.v",
                        "module top(a, q);\n"
                        "  input a;\n"
                        "  output q;\n"
                        "  wire x, y;\n"
                        "  and g1(x, a, y);\n"
                        "  not g2(y, x);\n"
                        "  dff g3(q, x);\n"
                        "endmodule\n");
  std::vector<Diagnostic> diags = lint({v});
  EXPECT_EQ(count_code(diags, "NET002"), 1u);
}

TEST_F(DriverTest, CyclicRsnFileProducesRsn001) {
  std::string rsn = write("cyc.rsn",
                          "rsn cyc\n"
                          "register a ffs 1 module -1\n"
                          "register b ffs 1 module -1\n"
                          "connect scan_in scan_out 0\n"
                          "connect a b 0\n"
                          "connect b a 0\n");
  std::vector<Diagnostic> diags = lint({rsn});
  EXPECT_GE(count_code(diags, "RSN001"), 1u);
  EXPECT_GE(count_at_least(diags, Severity::Error), 1u);
}

TEST_F(DriverTest, SelfRejectingSpecClassifiesAsSpec003) {
  std::string spec = write("bad.spec",
                           "categories 2\n"
                           "module 0 trust 1 accepts 0\n");
  std::vector<Diagnostic> diags = lint({spec});
  EXPECT_EQ(count_code(diags, "SPEC003"), 1u);
}

TEST_F(DriverTest, OutOfRangeSpecClassifiesAsSpec001) {
  std::string spec = write("range.spec",
                           "categories 2\n"
                           "module 0 trust 7 accepts 0,1\n");
  std::vector<Diagnostic> diags = lint({spec});
  EXPECT_EQ(count_code(diags, "SPEC001"), 1u);
}

TEST_F(DriverTest, MalformedSpecNumberClassifiesAsSpec005) {
  std::string spec = write("overflow.spec",
                           "categories 2\n"
                           "module 0 trust 99999999999999999999 accepts 0\n");
  std::vector<Diagnostic> diags = lint({spec});
  ASSERT_EQ(count_code(diags, "SPEC005"), 1u);
  for (const Diagnostic& d : diags) {
    if (d.code != "SPEC005") continue;
    EXPECT_EQ(d.severity, Severity::Error);
    // The message carries the failing line number from SpecParseError.
    EXPECT_NE(d.message.find("line 2"), std::string::npos) << d.message;
  }

  std::string garbage = write("garbage.spec",
                              "categories 2\n"
                              "module 0 trust abc accepts 0\n");
  diags = lint({garbage});
  EXPECT_EQ(count_code(diags, "SPEC005"), 1u);
}

TEST_F(DriverTest, GarbageRsnFileClassifiesAsIo003) {
  std::string rsn = write("garbage.rsn", "this is not an rsn file\n");
  std::vector<Diagnostic> diags = lint({rsn});
  ASSERT_EQ(count_code(diags, "IO003"), 1u);
  for (const Diagnostic& d : diags) {
    if (d.code != "IO003") continue;
    // The strict parser reports the failing line number.
    EXPECT_NE(d.message.find("line 1"), std::string::npos) << d.message;
  }
}

TEST_F(DriverTest, GarbageVerilogFileClassifiesAsIo003) {
  // Syntax errors of every strict reader share the IO003 code; a Verilog
  // file cut off inside its port list ends with an error, not a loop.
  for (const auto& [text, line] :
       {std::pair<std::string, std::string>{"module m(input a);\n"
                                            "  wire w;\n"
                                            "  this is not verilog;\n"
                                            "endmodule\n",
                                            "line 3"},
        {"module m(input a, b", "line 1"},
        {"module m(input a);\n  and g(x, a", "line 2"}}) {
    std::vector<Diagnostic> diags = lint({write("garbage.v", text)});
    ASSERT_EQ(count_code(diags, "IO003"), 1u) << text;
    for (const Diagnostic& d : diags) {
      if (d.code != "IO003") continue;
      EXPECT_NE(d.message.find("verilog parse error at " + line),
                std::string::npos)
          << d.message;
    }
  }
}

TEST_F(DriverTest, UnknownFileClassifiesAsIo001) {
  std::string unknown = write("notes.txt", "hello\n");
  std::vector<Diagnostic> diags = lint({unknown});
  EXPECT_EQ(count_code(diags, "IO001"), 1u);
}

TEST_F(DriverTest, UnknownAttachmentNetProducesIo002) {
  std::string rsn = write("att.rsn",
                          "rsn att\n"
                          "register a ffs 1 module -1\n"
                          "connect scan_in a 0\n"
                          "connect a scan_out 0\n"
                          "capture a 0 nosuchnet\n");
  std::string v = write("ckt.v",
                        "module top(x, q);\n"
                        "  input x;\n"
                        "  output q;\n"
                        "  dff g1(q, x);\n"
                        "endmodule\n");
  // Attachment resolution is command-line-order independent.
  for (const auto& order :
       {std::vector<std::string>{rsn, v}, std::vector<std::string>{v, rsn}}) {
    std::vector<Diagnostic> diags = lint(order);
    EXPECT_EQ(count_code(diags, "IO002"), 1u);
  }
}

}  // namespace
}  // namespace rsnsec::lint
