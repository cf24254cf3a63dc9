// End-to-end tests of the rsnsec command-line tool, driven in-process
// through rsnsec::cli::run with files in a temporary directory.

#include "tools/cli.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/minijson.hpp"
#include "util/minijson.hpp"

namespace rsnsec::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rsnsec_cli_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  /// Runs `rsnsec bench ARGS --circuits 1 --specs 2`, once with text and
  /// once with --json output. Returns the text table's cells of `columns`,
  /// one "name cell ..." line per row, then one "key value" line per
  /// `summary` key. Checks that the JSON rows carry the same names in the
  /// google-benchmark layout.
  std::string bench_grid(std::vector<std::string> args,
                         const std::vector<std::string>& columns,
                         const std::vector<std::string>& summary) {
    args.insert(args.begin(), "bench");
    for (const char* a : {"--circuits", "1", "--specs", "2"})
      args.emplace_back(a);
    EXPECT_EQ(run_cli(args), 0) << err_.str();
    std::istringstream text(out_.str());
    args.emplace_back("--json");
    EXPECT_EQ(run_cli(args), 0) << err_.str();
    EXPECT_TRUE(testsupport::JsonValidator(out_.str()).validate()) << out_.str();
    JsonParseResult json = parse_json(out_.str());
    const JsonValue* rows = json.ok() ? json.value->find("benchmarks") : nullptr;
    EXPECT_NE(rows, nullptr) << out_.str();
    if (rows == nullptr) return {};
    std::vector<std::string> names;
    for (const JsonValue& row : rows->array) {
      for (const char* key : {"name", "real_time", "cpu_time", "time_unit"})
        EXPECT_NE(row.find(key), nullptr) << key;
      names.push_back(row.string_field("name").value_or(""));
    }

    std::string line, cells;
    while (std::getline(text, line) && line.rfind("Benchmark", 0) != 0) {
    }
    std::vector<std::string> header;
    std::istringstream head(line);
    for (std::string h; head >> h;) header.push_back(h);
    std::getline(text, line);  // dashes
    std::size_t row = 0;
    while (std::getline(text, line) && !line.empty()) {
      std::istringstream fields(line);
      std::vector<std::string> cell;
      for (std::string f; fields >> f;) cell.push_back(f);
      // Every grid row fills every column, so cells split on whitespace.
      EXPECT_EQ(cell.size(), header.size()) << line;
      if (cell.size() != header.size()) return {};
      EXPECT_LT(row, names.size());
      if (row < names.size()) {
        EXPECT_EQ(cell[0], names[row]);
      }
      ++row;
      cells += cell[0];
      for (const std::string& c : columns) {
        auto it = std::find(header.begin(), header.end(), c);
        EXPECT_NE(it, header.end()) << c;
        if (it != header.end())
          cells += " " + cell[static_cast<std::size_t>(it - header.begin())];
      }
      cells += "\n";
    }
    EXPECT_EQ(row, names.size());
    while (std::getline(text, line)) {
      std::size_t colon = line.find(": ");
      if (colon == std::string::npos) continue;
      if (std::find(summary.begin(), summary.end(), line.substr(0, colon)) !=
          summary.end())
        cells += line.substr(0, colon) + " " + line.substr(colon + 2) + "\n";
    }
    return cells;
  }

  fs::path dir_;
  std::ostringstream out_, err_;
};

/// (name, keys) of every row of a google-benchmark JSON document.
std::vector<std::pair<std::string, std::vector<std::string>>> row_keys(
    const std::string& json) {
  std::vector<std::pair<std::string, std::vector<std::string>>> rows;
  JsonParseResult doc = parse_json(json);
  const JsonValue* benchmarks =
      doc.ok() ? doc.value->find("benchmarks") : nullptr;
  if (benchmarks == nullptr) return rows;
  for (const JsonValue& row : benchmarks->array) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : row.object) keys.push_back(key);
    rows.emplace_back(row.string_field("name").value_or(""), keys);
  }
  return rows;
}

std::string committed(const std::string& file) {
  std::ifstream in(std::string(RSNSEC_SOURCE_DIR) + "/" + file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST_F(CliTest, GenerateInfoAnalyzeSecureWorkflow) {
  // generate: network + circuit + spec files.
  int rc = run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                    "--seed", "5", "--out-rsn", path("net.rsn"),
                    "--out-verilog", path("ckt.v"), "--out-spec",
                    path("policy.spec")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("generated"), std::string::npos);
  ASSERT_TRUE(fs::exists(path("net.rsn")));
  ASSERT_TRUE(fs::exists(path("ckt.v")));
  ASSERT_TRUE(fs::exists(path("policy.spec")));

  // info.
  rc = run_cli({"info", "--rsn", path("net.rsn")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("valid: yes"), std::string::npos);
  EXPECT_NE(out_.str().find("accessible registers"), std::string::npos);

  // analyze (either clean or violating; both legal outcomes).
  rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("violating registers"), std::string::npos);

  // secure (may be a no-op if the spec found nothing; rc 0 either way
  // unless the logic is statically insecure, which rc 3 reports).
  rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--out",
                path("net_secure.rsn")});
  if (rc == 0) {
    ASSERT_TRUE(fs::exists(path("net_secure.rsn")));
    // The secured network must analyze clean.
    rc = run_cli({"analyze", "--rsn", path("net_secure.rsn"), "--verilog",
                  path("ckt.v"), "--spec", path("policy.spec")});
    EXPECT_EQ(rc, 0) << out_.str() << err_.str();
  } else {
    EXPECT_EQ(rc, 3);  // statically insecure circuit logic
  }
}

TEST_F(CliTest, SecureFindsAndFixesViolations) {
  // Deterministic hand-written workload: conf register feeding an
  // untrusted register, plus an update/circuit relay.
  std::ofstream(path("net.rsn")) <<
      "rsn demo\n"
      "module 0 conf\n"
      "module 1 relay\n"
      "module 2 untrusted\n"
      "register rc ffs 1 module 0\n"
      "register rr ffs 1 module 1\n"
      "register ru ffs 1 module 2\n"
      "connect scan_in ru 0\n"
      "connect ru rc 0\n"
      "connect rc rr 0\n"
      "connect rr scan_out 0\n"
      "capture rc 0 cf\n"
      "update rr 0 rf\n"
      "capture ru 0 uf\n";
  std::ofstream(path("ckt.v")) <<
      "module demo(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "  (* instrument = \"untrusted\" *) dff (uf, rf);\n"
      "endmodule\n";
  std::ofstream(path("policy.spec")) <<
      "categories 2\n"
      "module conf trust 1 accepts 1\n"
      "module untrusted trust 0 accepts 0,1\n";

  int rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 2) << out_.str();  // hybrid violation present

  rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--out",
                path("fixed.rsn"), "--json"});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("\"secured\": true"), std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 0) << out_.str();
}

TEST_F(CliTest, AnalyzeJsonAndFilterBaseline) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--scale", "1",
                     "--seed", "3", "--out-rsn", path("n.rsn"),
                     "--out-verilog", path("c.v"), "--out-spec",
                     path("s.spec")}),
            0)
      << err_.str();
  const std::vector<std::string> analyze = {
      "analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
      "--spec", path("s.spec")};
  auto with = [&](std::vector<std::string> flags) {
    std::vector<std::string> args = analyze;
    args.insert(args.end(), flags.begin(), flags.end());
    return args;
  };
  // --json: stdout is exactly one JSON object.
  int rc = run_cli(with({"--json"}));
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"hybrid_violating_pairs\""),
            std::string::npos);
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();
  // The filter baseline only has a text report, so combining it with
  // --json is a usage error (exit 2) that prints nothing on stdout.
  rc = run_cli(with({"--json", "--filter-baseline"}));
  EXPECT_EQ(rc, 2);
  EXPECT_EQ(out_.str(), "");
  EXPECT_NE(err_.str().find("--filter-baseline"), std::string::npos)
      << err_.str();
  // Text mode appends the baseline line to the report.
  rc = run_cli(with({"--filter-baseline"}));
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("violating registers:"), std::string::npos);
  EXPECT_NE(out_.str().find("filter baseline would lock out "),
            std::string::npos)
      << out_.str();
}

// An input file that reports no length (a pipe here, as a procfs file
// reports 0) is read to its end, and analyzes as the regular file does.
TEST_F(CliTest, InputWithoutALengthIsReadToItsEnd) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--scale", "1",
                     "--seed", "3", "--out-rsn", path("n.rsn"),
                     "--out-verilog", path("c.v"), "--out-spec",
                     path("s.spec")}),
            0)
      << err_.str();
  auto analyze = [&](const std::string& spec) {
    return run_cli({"analyze", "--json", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", spec});
  };
  const int rc = analyze(path("s.spec"));
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  const std::string expected = out_.str();

  std::ifstream in(path("s.spec"));
  const std::string spec{std::istreambuf_iterator<char>(in), {}};
  ASSERT_FALSE(spec.empty());
  ASSERT_EQ(::mkfifo(path("s.fifo").c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(path("s.fifo")) << spec; });
  EXPECT_EQ(analyze(path("s.fifo")), rc) << err_.str();
  // Releases the writer should the CLI not have opened the pipe.
  const int fd = ::open(path("s.fifo").c_str(), O_RDONLY | O_NONBLOCK);
  writer.join();
  if (fd >= 0) ::close(fd);
  EXPECT_EQ(out_.str(), expected);
}

TEST_F(CliTest, InfoFromIcl) {
  std::ofstream(path("net.icl")) << R"(
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R[3:0] { ScanInSource SI; }
}
)";
  int rc = run_cli({"info", "--icl", path("net.icl")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("1 registers, 4 scan FFs"), std::string::npos);
}

TEST_F(CliTest, GenerateMbistByName) {
  int rc = run_cli({"generate", "--benchmark", "MBIST_1_2_2", "--out-rsn",
                    path("m.rsn")});
  ASSERT_EQ(rc, 0) << err_.str();
  rc = run_cli({"info", "--rsn", path("m.rsn")});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out_.str().find("MBIST_1_2_2"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReported) {
  // A malformed invocation exits 2; a run that fails exits 1.
  EXPECT_EQ(run_cli({"bogus"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);

  EXPECT_EQ(run_cli({"info", "--rsn", path("missing.rsn")}), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);

  EXPECT_EQ(run_cli({"analyze", "--rsn", path("missing.rsn")}), 1);
  EXPECT_EQ(run_cli({"generate", "--benchmark", "NoSuch", "--out-rsn",
                     path("x.rsn")}),
            1);
  EXPECT_EQ(run_cli({"secure", "--oops"}), 2);
}

TEST_F(CliTest, InvocationMistakesAreUsageErrors) {
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_NE(err_.str().find("missing command"), std::string::npos);
  EXPECT_EQ(run_cli({"analyze", "--rsn"}), 2);
  EXPECT_NE(err_.str().find("--rsn needs a value"), std::string::npos);
  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle"}), 2);
  EXPECT_NE(err_.str().find("missing required option --out-rsn"),
            std::string::npos);
  EXPECT_EQ(run_cli({"info"}), 2);
  EXPECT_NE(err_.str().find("need --rsn FILE or --icl FILE"),
            std::string::npos);
  EXPECT_EQ(run_cli({"lint"}), 2);
  EXPECT_EQ(run_cli({"info", "net.rsn"}), 2);
  EXPECT_NE(err_.str().find("unexpected argument 'net.rsn'"),
            std::string::npos);
  // --jobs is checked by every command, also by those that do not read it.
  EXPECT_EQ(run_cli({"info", "--rsn", path("n.rsn"), "--jobs", "0"}), 2);
  EXPECT_NE(err_.str().find("--jobs needs a thread count"), std::string::npos);
}

TEST_F(CliTest, OptionsTheCommandDoesNotReadAreUsageErrors) {
  // Each is rejected by name before the command opens a file (the
  // inputs do not exist) or starts a thread.
  const std::vector<std::string> secure = {
      "secure", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
      "--spec", path("p.spec"), "--out", path("o.rsn")};
  const std::vector<std::vector<std::string>> mistakes = {
      {"--job", "0"},  // a misspelt --jobs
      {"--no-pure"},   // retired pipeline switches
      {"--no-hybrid"},
      {"--seed", "3"},  // another command's option
  };
  for (const std::vector<std::string>& extra : mistakes) {
    std::vector<std::string> argv = secure;
    argv.insert(argv.end(), extra.begin(), extra.end());
    EXPECT_EQ(run_cli(argv), 2) << extra[0];
    EXPECT_NE(err_.str().find("does not take " + extra[0]), std::string::npos)
        << err_.str();
  }
  EXPECT_EQ(run_cli({"bench", "scale", "--jbos", "4"}), 2);
  EXPECT_NE(err_.str().find("does not take --jbos"), std::string::npos)
      << err_.str();
  // bridging runs its own fixed family list.
  EXPECT_EQ(run_cli({"bench", "bridging", "--families", "BasicSCB"}), 2);
  EXPECT_NE(err_.str().find("bench bridging does not take --families"),
            std::string::npos)
      << err_.str();
  // analyze ignores what only secure reads.
  EXPECT_EQ(run_cli({"analyze", "--verify"}), 2);
  EXPECT_NE(err_.str().find("does not take --verify"), std::string::npos);
}

TEST_F(CliTest, EveryDocumentedOptionIsAccepted) {
  // tools/cli.hpp's usage, one row per command (bench: per experiment):
  // the words before the options, then each option with a value. An
  // unknown option is rejected by name in command-line order, so an
  // invocation that reaches the trailing --not-an-option accepted the
  // documented one before it without running anything.
  struct Usage {
    std::vector<std::string> command;
    std::vector<std::string> options;
  };
  const std::vector<std::string> workload = {
      "--rsn F", "--icl F", "--top T", "--verilog F", "--spec F"};
  const std::vector<std::string> dep = {
      "--store D", "--mode exact", "--structural", "--no-ternary",
      "--partition auto", "--tile-spill-budget 1"};
  const std::vector<std::string> grid = {
      "--circuits 1", "--target-ffs 1", "--specs 1", "--target-regs 1",
      "--seed 1", "--store D", "--json"};
  const std::vector<std::string> redteam = {
      "--seed 1", "--scale 1", "--target-ffs 1", "--target-regs 1",
      "--scenario all", "--conflict-limit 1", "--json"};
  auto join = [](std::vector<std::string> a,
                 const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const std::vector<Usage> usages = {
      {{"generate"},
       {"--benchmark B", "--scale 1", "--seed 1", "--out-rsn F",
        "--out-verilog F", "--out-spec F"}},
      {{"info"}, {"--rsn F", "--icl F", "--top T"}},
      {{"analyze"}, join(join(workload, dep), {"--json", "--filter-baseline"})},
      {{"secure"},
       join(join(workload, dep), {"--out F", "--json", "--verify"})},
      {{"certify"},
       join(workload, {"--json", "--no-ternary", "--max-findings 1"})},
      {{"attack"}, join(redteam, {"--benchmark B", "--no-secure"})},
      {{"lint", "F"}, {"--json", "--top T"}},
      {{"store", "stats"}, {"--store D", "--max-bytes 1", "--json"}},
      {{"serve"},
       {"--socket S", "--port 1", "--workers 1", "--queue-depth 1",
        "--max-request-bytes 1", "--store D"}},
      {{"bench", "table1"}, join(grid, {"--families F"})},
      {{"bench", "bridging"}, grid},
      {{"bench", "ablation"}, grid},
      {{"bench", "filter"}, grid},
      {{"bench", "policy"}, grid},
      {{"bench", "attack"}, join(redteam, {"--families F"})},
      {{"bench", "scale"},
       {"--max-ffs 1", "--dense-max 1", "--seed 1", "--json"}},
      {{"bench", "serve"},
       {"--clients 1", "--requests 1", "--benchmark B", "--scale 1",
        "--workers 1", "--queue-depth 1", "--max-request-bytes 1",
        "--seed 1", "--json"}},
  };
  for (const Usage& u : usages) {
    for (const std::string& option :
         join(u.options, {"--jobs 1", "--trace F", "--metrics"})) {
      std::vector<std::string> argv = u.command;
      std::istringstream words(option);
      for (std::string word; words >> word;) argv.push_back(word);
      argv.push_back("--not-an-option");
      EXPECT_EQ(run_cli(argv), 2) << u.command[0] << " " << option;
      EXPECT_NE(err_.str().find("does not take --not-an-option"),
                std::string::npos)
          << u.command[0] << " " << option << ": " << err_.str();
    }
  }
}

TEST_F(CliTest, MalformedNumbersAreUsageErrors) {
  // Exit 2 = "your invocation is wrong", with the offending token named.
  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--seed", "abc",
                     "--out-rsn", path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("--seed"), std::string::npos);
  EXPECT_NE(err_.str().find("abc"), std::string::npos);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--seed",
                     "99999999999999999999", "--out-rsn", path("x.rsn")}),
            2);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "big",
                     "--out-rsn", path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("--scale"), std::string::npos);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "MBIST_1_x_2", "--out-rsn",
                     path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("MBIST"), std::string::npos);

  std::ofstream(path("n.rsn")) << "rsn t\n"
                                  "register a ffs 1 module -1\n"
                                  "connect scan_in a 0\n"
                                  "connect a scan_out 0\n";
  EXPECT_EQ(run_cli({"lint", path("n.rsn"), "--jobs", "many"}), 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
}

TEST_F(CliTest, MalformedSpecFileExitsTwoWithLineNumber) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v")}),
            0)
      << err_.str();
  std::ofstream(path("bad.spec")) << "categories 2\n"
                                  << "module 0 trust 99999999999999999999 "
                                     "accepts 0\n";
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("bad.spec")});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("spec parse error at line 2"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, TraceAndMetricsProduceValidOutputs) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                     "--seed", "5", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();

  int rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec"), "--json",
                    "--trace", path("trace.json"), "--metrics"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();

  // The trace file is strict JSON with spans and counters in it.
  std::ifstream f(path("trace.json"));
  ASSERT_TRUE(f.good());
  std::stringstream trace;
  trace << f.rdbuf();
  EXPECT_TRUE(testsupport::is_valid_json(trace.str()));
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("dep.one_cycle"), std::string::npos);
  EXPECT_NE(trace.str().find("dep.closure"), std::string::npos);

  // --metrics prints the text summary to the error stream.
  EXPECT_NE(err_.str().find("== metrics =="), std::string::npos);
  EXPECT_NE(err_.str().find("dep.runs"), std::string::npos);
}

TEST_F(CliTest, SecureWithTraceEmbedsObservabilityInReport) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                     "--seed", "5", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec"), "--out",
                    path("out.rsn"), "--json", "--trace",
                    path("trace.json")});
  ASSERT_TRUE(rc == 0 || rc == 3) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();
  EXPECT_NE(out_.str().find("\"observability\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"pipeline\""), std::string::npos);
  std::ifstream f(path("trace.json"));
  ASSERT_TRUE(f.good());
  std::stringstream trace;
  trace << f.rdbuf();
  EXPECT_TRUE(testsupport::is_valid_json(trace.str()));
}

TEST_F(CliTest, CertifyWorkflowOnDeterministicWorkload) {
  // Same hand-written workload as SecureFindsAndFixesViolations: a
  // confidential register whose data reaches an untrusted register over
  // the RSN and over an update/circuit relay.
  std::ofstream(path("net.rsn")) <<
      "rsn demo\n"
      "module 0 conf\n"
      "module 1 relay\n"
      "module 2 untrusted\n"
      "register rc ffs 1 module 0\n"
      "register rr ffs 1 module 1\n"
      "register ru ffs 1 module 2\n"
      "connect scan_in ru 0\n"
      "connect ru rc 0\n"
      "connect rc rr 0\n"
      "connect rr scan_out 0\n"
      "capture rc 0 cf\n"
      "update rr 0 rf\n"
      "capture ru 0 uf\n";
  std::ofstream(path("ckt.v")) <<
      "module demo(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "  (* instrument = \"untrusted\" *) dff (uf, rf);\n"
      "endmodule\n";
  std::ofstream(path("policy.spec")) <<
      "categories 2\n"
      "module conf trust 1 accepts 1\n"
      "module untrusted trust 0 accepts 0,1\n";

  // Unsecured: certification fails with CERT diagnostics, exit 2.
  int rc = run_cli({"certify", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 2) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("CERT"), std::string::npos);
  EXPECT_NE(out_.str().find("certified: NO"), std::string::npos);

  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("fixed.rsn"), "--verify"}),
            0)
      << err_.str();

  // Secured: certification passes, exit 0; --json is machine-readable.
  rc = run_cli({"certify", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 0) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("certified: yes"), std::string::npos);

  rc = run_cli({"certify", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();
  EXPECT_NE(out_.str().find("\"certified\": true"), std::string::npos);
  EXPECT_NE(out_.str().find("\"violating_pairs\": 0"), std::string::npos);
}

TEST_F(CliTest, AnalyzeAndCertifyRefuseACyclicNetwork) {
  // The certify workload with its relay register fed back through mux m:
  // m -> rc -> rr -> m is a scan-path cycle, and every register is still
  // reachable from scan-in and reaches scan-out. analyze and certify
  // refuse it as secure does, instead of counting on a network whose
  // path order does not exist.
  std::ofstream(path("net.rsn")) <<
      "rsn loop\n"
      "module 0 conf\n"
      "module 1 relay\n"
      "module 2 untrusted\n"
      "register rc ffs 1 module 0\n"
      "register rr ffs 1 module 1\n"
      "register ru ffs 1 module 2\n"
      "mux m inputs 2\n"
      "connect scan_in ru 0\n"
      "connect ru m 0\n"
      "connect rr m 1\n"
      "connect m rc 0\n"
      "connect rc rr 0\n"
      "connect rr scan_out 0\n"
      "capture rc 0 cf\n"
      "update rr 0 rf\n"
      "capture ru 0 uf\n";
  std::ofstream(path("ckt.v")) <<
      "module loop(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "  (* instrument = \"untrusted\" *) dff (uf, rf);\n"
      "endmodule\n";
  std::ofstream(path("policy.spec")) <<
      "categories 2\n"
      "module conf trust 1 accepts 1\n"
      "module untrusted trust 0 accepts 0,1\n";
  for (const char* command : {"analyze", "certify", "secure"}) {
    std::vector<std::string> args = {
        command,  "--rsn",  path("net.rsn"),    "--verilog", path("ckt.v"),
        "--spec", path("policy.spec"), "--json"};
    if (std::string(command) == "secure") {
      args.emplace_back("--out");
      args.push_back(path("fixed.rsn"));
    }
    EXPECT_EQ(run_cli(args), 1) << command << ": " << out_.str();
    EXPECT_EQ(out_.str(), "") << command;
    EXPECT_EQ(err_.str(),
              "rsnsec: invalid scan network: scan network contains a cycle\n")
        << command;
  }
}

TEST_F(CliTest, AnalyzeJsonEchoesDependencyConfiguration) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--scale", "1",
                     "--seed", "3", "--out-rsn", path("n.rsn"),
                     "--out-verilog", path("c.v"), "--out-spec",
                     path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--json"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_mode\": \"exact\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_ternary_prefilter\": true"),
            std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                path("c.v"), "--spec", path("s.spec"), "--json",
                "--structural", "--no-ternary"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_mode\": \"structural\""),
            std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_ternary_prefilter\": false"),
            std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_ternary_resolved\": 0"),
            std::string::npos);
}

TEST_F(CliTest, UnknownModeIsUsageError) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--mode",
                    "bogus"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown --mode 'bogus'"), std::string::npos);
  EXPECT_NE(err_.str().find("exact"), std::string::npos);
}

TEST_F(CliTest, BenchRequiresKnownExperiment) {
  EXPECT_EQ(run_cli({"bench"}), 2);
  EXPECT_NE(err_.str().find("ablation"), std::string::npos);
  EXPECT_EQ(run_cli({"bench", "bogus"}), 2);
  EXPECT_NE(err_.str().find("bogus"), std::string::npos);
}

TEST_F(CliTest, JobsZeroIsUsageError) {
  // --jobs 0 used to silently mean "auto" (the internal convention);
  // as explicit user input it is ambiguous and now exits 2.
  int rc = run_cli({"attack", "--benchmark", "BasicSCB", "--jobs", "0"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
  EXPECT_NE(err_.str().find("omit the flag for auto"), std::string::npos);
}

TEST_F(CliTest, ServeSocketAndPortAreMutuallyExclusive) {
  int rc = run_cli({"serve", "--socket", path("s.sock"), "--port", "0"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);
  EXPECT_NE(err_.str().find("--port"), std::string::npos);
  EXPECT_NE(err_.str().find("mutually exclusive"), std::string::npos);
}

TEST_F(CliTest, ServeWithoutEndpointIsUsageError) {
  // The env fallback must not leak in from the harness environment.
  ::unsetenv("RSNSEC_SERVE_SOCKET");
  int rc = run_cli({"serve"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);
  EXPECT_NE(err_.str().find("RSNSEC_SERVE_SOCKET"), std::string::npos);
}

TEST_F(CliTest, ServeEnvFallbackReachesEndpointValidation) {
  // With only the env var set, endpoint resolution succeeds and the
  // usage error comes from the *next* validation stage (--workers 0),
  // proving the fallback was honored without actually binding a socket.
  ::setenv("RSNSEC_SERVE_SOCKET", path("env.sock").c_str(), 1);
  int rc = run_cli({"serve", "--workers", "0"});
  ::unsetenv("RSNSEC_SERVE_SOCKET");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--workers"), std::string::npos);
  EXPECT_EQ(err_.str().find("RSNSEC_SERVE_SOCKET"), std::string::npos);
}

TEST_F(CliTest, ServeRejectsOutOfRangeTuning) {
  EXPECT_EQ(run_cli({"serve", "--port", "65536"}), 2);
  EXPECT_NE(err_.str().find("--port"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--queue-depth", "0"}), 2);
  EXPECT_NE(err_.str().find("--queue-depth"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--max-request-bytes", "0"}), 2);
  EXPECT_NE(err_.str().find("--max-request-bytes"), std::string::npos);
}

TEST_F(CliTest, BenchServeRejectsOutOfRangeCounts) {
  // Each is rejected before the daemon or any client thread starts.
  EXPECT_EQ(run_cli({"bench", "serve", "--clients", "0"}), 2);
  EXPECT_NE(err_.str().find("--clients"), std::string::npos);
  EXPECT_EQ(run_cli({"bench", "serve", "--clients", "1025"}), 2);
  EXPECT_NE(err_.str().find("[1, 1024]"), std::string::npos);
  EXPECT_EQ(run_cli({"bench", "serve", "--workers", "1000000"}), 2);
  EXPECT_EQ(run_cli({"bench", "serve", "--jobs", "4096"}), 2);
  EXPECT_EQ(run_cli({"bench", "serve", "--requests", "0"}), 2);
  EXPECT_EQ(run_cli({"bench", "serve", "--requests", "3000000000"}), 2);
}

TEST_F(CliTest, CountsAndThreadCountsOutOfRangeAreUsageErrors) {
  // A count cast to int used to wrap: --circuits 3000000000 ran a grid of
  // zeros and exited 0.
  for (const char* flag :
       {"--circuits", "--specs", "--target-ffs", "--target-regs"}) {
    for (const char* value : {"0", "3000000000"}) {
      EXPECT_EQ(run_cli({"bench", "ablation", flag, value}), 2)
          << flag << " " << value;
      EXPECT_NE(err_.str().find(flag), std::string::npos);
    }
  }
  // Thread counts above the cap are rejected before a pool is built.
  EXPECT_EQ(run_cli({"bench", "table1", "--jobs", "1025"}), 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
  EXPECT_EQ(run_cli({"attack", "--benchmark", "BasicSCB", "--jobs",
                     "1000000"}),
            2);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--workers", "1025"}), 2);
  EXPECT_NE(err_.str().find("--workers"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--jobs", "1025"}), 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
  // MBIST names go through one check in `generate` and `bench --families`:
  // a zero dimension (generate_mbist used to divide by it) and a malformed
  // name exit 2 before any work starts ...
  for (const char* name : {"MBIST_0_5_5", "MBIST_5_5", "MBIST_5_x_5"}) {
    EXPECT_EQ(run_cli({"generate", "--benchmark", name, "--out-rsn",
                       path("n.rsn")}),
              2)
        << name;
    EXPECT_NE(err_.str().find(name), std::string::npos) << err_.str();
    EXPECT_EQ(run_cli({"bench", "table1", "--families", name}), 2) << name;
    EXPECT_NE(err_.str().find(name), std::string::npos) << err_.str();
  }
  // ... and a dimension the generators refuse exits 2 in both commands
  // (the grid's cube-root scaling still asks for ~1.7e12 cores, past the
  // generators' limit, so nothing is allocated).
  EXPECT_EQ(run_cli({"bench", "table1", "--families",
                     "MBIST_1000000000000000000_1_1", "--circuits", "1",
                     "--specs", "1", "--jobs", "1"}),
            2);
  EXPECT_NE(err_.str().find("too large"), std::string::npos) << err_.str();
}

TEST_F(CliTest, DuplicateOptionLastOccurrenceWins) {
  // The first --benchmark value is unknown and would exit 2; success
  // proves the documented last-occurrence-wins rule.
  int rc = run_cli({"attack", "--benchmark", "NoSuchFamily", "--benchmark",
                    "BasicSCB", "--no-secure"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("attack: BasicSCB"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsBadArguments) {
  // Missing required option: a usage error, like every invocation mistake.
  EXPECT_EQ(run_cli({"attack"}), 2);
  EXPECT_EQ(run_cli({"attack", "--benchmark", "NoSuchFamily"}), 2);
  EXPECT_NE(err_.str().find("NoSuchFamily"), std::string::npos);
  EXPECT_NE(err_.str().find("BasicSCB"), std::string::npos);  // catalog
  EXPECT_EQ(run_cli({"attack", "--benchmark", "BasicSCB", "--scenario",
                     "bogus"}),
            2);
  EXPECT_EQ(run_cli({"attack", "--benchmark", "BasicSCB", "--seed",
                     "twelve"}),
            2);
}

TEST_F(CliTest, AttackEndToEndJson) {
  int rc = run_cli({"attack", "--benchmark", "BasicSCB", "--seed", "1",
                    "--json"});
  ASSERT_EQ(rc, 0) << err_.str();
  const std::string json = out_.str();
  EXPECT_TRUE(testsupport::JsonValidator(json).validate()) << json;
  EXPECT_NE(json.find("\"recovered_pre\": true"), std::string::npos);
  EXPECT_NE(json.find("\"recovered_post\": false"), std::string::npos);
  EXPECT_NE(json.find("\"soundness_bug\": false"), std::string::npos);
  EXPECT_NE(json.find("\"pre_secure\""), std::string::npos);
  EXPECT_NE(json.find("\"post_secure\""), std::string::npos);
}

TEST_F(CliTest, BenchAttackEmitsBenchmarkSchema) {
  ASSERT_EQ(run_cli({"bench", "attack", "--families", "BasicSCB"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("Attack_BasicSCB/pure"), std::string::npos);
  EXPECT_NE(out_.str().find("replay_shifts"), std::string::npos);
  int rc = run_cli({"bench", "attack", "--families", "BasicSCB", "--json"});
  ASSERT_EQ(rc, 0) << err_.str();
  const std::string json = out_.str();
  EXPECT_TRUE(testsupport::JsonValidator(json).validate()) << json;
  // google-benchmark compare.py layout: context + benchmarks[].
  EXPECT_NE(json.find("\"context\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"Attack_BasicSCB/pure\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"Attack_BasicSCB/hybrid\""),
            std::string::npos);
  EXPECT_NE(json.find("\"time_unit\": \"ms\""), std::string::npos);
  // Row names and counters are the committed BENCH_attack.json's.
  const auto fresh = row_keys(json);
  const auto pinned = row_keys(committed("BENCH_attack.json"));
  ASSERT_EQ(fresh.size(), 2u);
  for (const auto& row : fresh)
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), row), pinned.end())
        << row.first;
  EXPECT_EQ(run_cli({"bench", "attack", "--families", "NoSuchFamily",
                     "--json"}),
            2);
  // Red-team workloads exist for BASTION families only.
  EXPECT_EQ(run_cli({"bench", "attack", "--families", "BasicSCB,MBIST_1_5_5"}),
            2);
  EXPECT_NE(err_.str().find("MBIST_1_5_5"), std::string::npos);
}

TEST_F(CliTest, PartitionFlagSelectsRepresentation) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--json",
                    "--partition", "tiled"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_partition\": \"tiled\""),
            std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_tiled\": true"), std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_regions\": "), std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_matrix_bytes\": "), std::string::npos);

  // The default (auto) stays dense on a repro-scale workload.
  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
                "--spec", path("s.spec"), "--json"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_partition\": \"auto\""),
            std::string::npos);
  EXPECT_NE(out_.str().find("\"dep_tiled\": false"), std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
                "--spec", path("s.spec"), "--partition", "bogus"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown --partition 'bogus'"),
            std::string::npos);
}

TEST_F(CliTest, TileSpillBudgetRequiresStore) {
  // MBIST_2_4_4 is big enough (several hundred circuit FFs) that a
  // 4 KiB residency budget must evict tiles.
  ASSERT_EQ(run_cli({"generate", "--benchmark", "MBIST_2_4_4", "--seed",
                     "3", "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"),
                    "--tile-spill-budget", "4096"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--tile-spill-budget"), std::string::npos);
  EXPECT_NE(err_.str().find("--store"), std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
                "--spec", path("s.spec"), "--json", "--partition", "tiled",
                "--tile-spill-budget", "4096", "--store", path("store")});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_tiled\": true"), std::string::npos);
  EXPECT_EQ(out_.str().find("\"dep_tiles_spilled\": 0"), std::string::npos)
      << out_.str();
}

// A repeated `analyze --store` of the same files is answered from the
// stored report: the same output and exit code, and its trace holds an
// analyze.lookup span but no reader's span. --filter-baseline, which
// needs the network, reads the files again. An ICL network is keyed with
// its top module: another top parses again.
TEST_F(CliTest, RepeatedAnalyzeWithStoreParsesNothing) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--seed", "2",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  const std::vector<std::string> analyze = {
      "analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
      "--spec", path("s.spec"), "--store", path("store")};
  std::vector<std::string> json = analyze;
  json.push_back("--json");
  const int cold_rc = run_cli(json);
  ASSERT_TRUE(cold_rc == 0 || cold_rc == 2) << err_.str();
  const std::string cold = out_.str();
  std::vector<std::string> traced = json;
  traced.push_back("--trace");
  traced.push_back(path("t.json"));
  EXPECT_EQ(run_cli(traced), cold_rc) << err_.str();
  EXPECT_EQ(out_.str(), cold);
  std::ifstream f(path("t.json"));
  const std::string trace((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(trace.find("\"analyze.lookup\""), std::string::npos) << trace;
  EXPECT_EQ(trace.find("\"parse."), std::string::npos) << trace;

  std::vector<std::string> baseline = analyze;
  baseline.push_back("--filter-baseline");
  EXPECT_EQ(run_cli(baseline), cold_rc) << err_.str();
  EXPECT_NE(out_.str().find("filter baseline would lock out "),
            std::string::npos)
      << out_.str();

  std::ofstream(path("chip.v")) << "module chip(input a);\nendmodule\n";
  std::ofstream(path("chip.spec")) << "categories 2\n";
  // The trace of an ICL analyze elaborated at `top`.
  auto icl_trace = [&](const char* top) {
    EXPECT_EQ(run_cli({"analyze", "--icl",
                       RSNSEC_SOURCE_DIR "/examples/data/soc_demo.icl",
                       "--top", top, "--verilog", path("chip.v"), "--spec",
                       path("chip.spec"), "--store", path("store"),
                       "--trace", path("icl.json")}),
              0)
        << err_.str();
    std::ifstream in(path("icl.json"));
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_NE(icl_trace("Chip").find("\"parse.icl\""), std::string::npos);
  EXPECT_EQ(icl_trace("Chip").find("\"parse.icl\""), std::string::npos);
  EXPECT_NE(icl_trace("Sib").find("\"parse.icl\""), std::string::npos);
}

TEST_F(CliTest, OverflowingGenerateDimensionsAreUsageErrors) {
  int rc = run_cli({"generate", "--benchmark",
                    "MBIST_9999999999_99999_99999", "--out-rsn",
                    path("n.rsn")});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("too large"), std::string::npos);
  rc = run_cli({"generate", "--benchmark", "MBIST_2_5_5", "--scale", "1e30",
                "--out-rsn", path("n.rsn")});
  EXPECT_EQ(rc, 2);
}

TEST_F(CliTest, BenchScaleEmitsBenchmarkSchema) {
  ASSERT_EQ(run_cli({"bench", "scale", "--max-ffs", "600", "--dense-max",
                     "600"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("Scale_MBIST/"), std::string::npos);
  EXPECT_NE(out_.str().find("closure_speedup_vs_dense"), std::string::npos);
  int rc = run_cli({"bench", "scale", "--json", "--max-ffs", "600",
                    "--dense-max", "600", "--jobs", "2"});
  ASSERT_EQ(rc, 0) << err_.str();
  const std::string json = out_.str();
  EXPECT_TRUE(testsupport::JsonValidator(json).validate()) << json;
  // google-benchmark compare.py layout: context + benchmarks[], one
  // dense and one tiled row per size plus the headline ratios.
  EXPECT_NE(json.find("\"context\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"Scale_MBIST/"), std::string::npos);
  EXPECT_NE(json.find("/dense\""), std::string::npos);
  EXPECT_NE(json.find("/tiled\""), std::string::npos);
  EXPECT_NE(json.find("\"time_unit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"closure_speedup_vs_dense\""), std::string::npos);
  EXPECT_NE(json.find("\"matrix_bytes_reduction_vs_dense\""),
            std::string::npos);
  // Row names are Scale_MBIST/<circuit FFs>/<variant>, with the committed
  // BENCH_scale.json's counters per variant.
  const auto pinned = row_keys(committed("BENCH_scale.json"));
  const auto fresh = row_keys(json);
  ASSERT_EQ(fresh.size(), 2u);
  for (const auto& [name, keys] : fresh) {
    const std::string variant = name.substr(name.rfind('/'));
    EXPECT_EQ(name.rfind("Scale_MBIST/", 0), 0u) << name;
    EXPECT_EQ(std::count(name.begin(), name.end(), '/'), 2) << name;
    EXPECT_TRUE(std::any_of(pinned.begin(), pinned.end(), [&](const auto& p) {
      return p.first.substr(p.first.rfind('/')) == variant && p.second == keys;
    })) << name;
  }
  EXPECT_EQ(run_cli({"bench", "scale", "--json", "--max-ffs", "0"}), 2);
  // Above INT_MAX the decade loop used to wrap and never end.
  EXPECT_EQ(run_cli({"bench", "scale", "--json", "--max-ffs",
                     "18446744073709551615"}),
            2);
  EXPECT_NE(err_.str().find("--max-ffs"), std::string::npos);
}

// The grid experiments at 1 circuit x 2 specs. Every pinned cell is the
// value the former bench/ programs (table1_bastion, table1_mbist,
// ablation_bridging, ablation_resolution, baseline_filter) and
// `bench ablation` printed at that size; timings are not pinned.

TEST_F(CliTest, BenchTable1MatchesPinnedGrid) {
  // The pins were taken at hardware concurrency; --jobs 3 and --jobs 1
  // must give the same cells (the grid runner's contract).
  const std::vector<std::string> columns = {
      "regs", "scan_ffs", "muxes", "viol_regs", "pure", "hybrid", "total",
      "runs"};
  const std::vector<std::string> summary = {
      "runs", "skipped_no_violation", "skipped_insecure", "pure_share_pct"};
  EXPECT_EQ(bench_grid({"table1", "--families", "bastion", "--jobs", "3"},
                       columns, summary),
            "BasicSCB 21 176 10 0.00 0.0 0.0 0.0 0\n"
            "Mingle 22 270 13 0.00 0.0 0.0 0.0 0\n"
            "TreeFlat 24 101 24 0.00 0.0 0.0 0.0 0\n"
            "TreeFlatEx 48 400 23 0.00 0.0 0.0 0.0 0\n"
            "TreeBalanced 48 400 24 0.00 0.0 0.0 0.0 0\n"
            "TreeUnbalanced 48 400 21 0.00 0.0 0.0 0.0 0\n"
            "q12710 48 400 25 6.00 1.5 0.5 2.0 2\n"
            "t512505 48 400 26 6.00 2.0 4.0 6.0 1\n"
            "p22810 48 400 24 6.00 1.0 1.0 2.0 1\n"
            "a586710 48 400 24 6.00 1.5 2.0 3.5 2\n"
            "p34392 48 400 23 5.00 1.0 1.5 2.5 2\n"
            "p93791 48 400 24 6.00 1.5 3.0 4.5 2\n"
            "FlexScan 400 400 200 39.50 25.5 30.5 56.0 2\n"
            "runs 12\nskipped_no_violation 12\nskipped_insecure 2\n"
            "pure_share_pct 44.8\n");
  EXPECT_EQ(bench_grid({"table1", "--families", "mbist", "--jobs", "1"},
                       columns, summary),
            "MBIST_1_5_5 113 548 15 0.00 0.0 0.0 0.0 0\n"
            "MBIST_1_5_20 145 644 11 0.00 0.0 0.0 0.0 0\n"
            "MBIST_1_20_20 245 1184 21 0.00 0.0 0.0 0.0 0\n"
            "MBIST_2_5_5 160 771 24 0.00 0.0 0.0 0.0 0\n"
            "MBIST_2_5_20 118 527 11 0.00 0.0 0.0 0.0 0\n"
            "MBIST_2_20_20 195 946 19 0.00 0.0 0.0 0.0 0\n"
            "MBIST_5_5_5 161 752 29 14.00 1.0 0.0 1.0 1\n"
            "MBIST_5_20_20 113 548 15 0.00 0.0 0.0 0.0 0\n"
            "MBIST_20_20_20 161 752 29 0.00 0.0 0.0 0.0 0\n"
            "runs 1\nskipped_no_violation 16\nskipped_insecure 1\n"
            "pure_share_pct 100.0\n");
  // Every row carries the paper's Table I averages next to the measured
  // ones.
  EXPECT_EQ(bench_grid({"table1", "--families", "BasicSCB,MBIST_20_20_20"},
                       {"paper_viol_regs", "paper_pure", "paper_hybrid",
                        "paper_total", "paper_t_dep_s", "paper_t_pure_s",
                        "paper_t_hybrid_s", "paper_t_total_s"},
                       {}),
            "BasicSCB 1.56 1.4 0.6 2.0 0.13 0.00 0.00 0.13\n"
            "MBIST_20_20_20 19.62 15.1 89.8 104.8 9359.48 0.87 73.19 "
            "9433.54\n");
}

TEST_F(CliTest, BenchBridgingMatchesPinnedGrid) {
  EXPECT_EQ(bench_grid({"bridging"},
                       {"circuit_ffs", "internal_ffs", "ff_red_pct",
                        "dep_red_pct"},
                       {"avg_ff_red_pct", "avg_dep_red_pct"}),
            "BasicSCB 157 74 47.13 51.57\n"
            "Mingle 236 108 45.76 54.88\n"
            "TreeFlat 94 47 50.00 54.95\n"
            "TreeBalanced 346 153 44.22 53.46\n"
            "q12710 372 185 49.73 56.10\n"
            "MBIST_1_5_5 473 210 44.61 51.39\n"
            "MBIST_2_5_5 666 298 44.74 55.25\n"
            "MBIST_5_5_5 659 300 45.52 54.61\n"
            "avg_ff_red_pct 46.47\navg_dep_red_pct 54.03\n");
}

TEST_F(CliTest, BenchAblationMatchesPinnedGrid) {
  EXPECT_EQ(bench_grid({"ablation"},
                       {"exact_changes", "structural_changes",
                        "extra_changes_pct", "false_insecure_pct",
                        "attempts"},
                       {"extra_changes_pct", "false_insecure_pct"}),
            "BasicSCB 0.0 0.0 0.0 0.0 2\n"
            "Mingle 0.0 0.0 0.0 0.0 2\n"
            "TreeFlat 0.0 0.0 0.0 0.0 2\n"
            "TreeBalanced 0.0 0.0 0.0 0.0 2\n"
            "q12710 0.0 0.0 0.0 100.0 2\n"
            "MBIST_1_5_5 0.0 0.0 0.0 0.0 2\n"
            "MBIST_2_5_5 0.0 0.0 0.0 0.0 2\n"
            "MBIST_5_5_5 0.0 0.0 0.0 50.0 2\n"
            "extra_changes_pct 0.0\nfalse_insecure_pct 18.75\n");
}

TEST_F(CliTest, BenchFilterMatchesPinnedGrid) {
  EXPECT_EQ(bench_grid({"filter"},
                       {"regs", "filter_lock", "lock_pct", "hybrid_missed",
                        "our_changes", "our_all_accessible"},
                       {"filter_lock_pct", "runs", "runs_hybrid_missed"}),
            "q12710 48 0.0 0.0 2 2.0 1\n"
            "MBIST_5_5_5 161 14.0 8.7 1 1.0 1\n"
            "filter_lock_pct 5.4\nruns 3\nruns_hybrid_missed 3\n");
}

TEST_F(CliTest, BenchPolicyMatchesPinnedGrid) {
  EXPECT_EQ(bench_grid({"policy"}, {"changes"},
                       {"BestGlobal_changes", "FirstImproving_changes",
                        "PreferScanIn_changes"}),
            "BasicSCB/BestGlobal 0.0\n"
            "BasicSCB/FirstImproving 0.0\n"
            "BasicSCB/PreferScanIn 0.0\n"
            "Mingle/BestGlobal 0.0\n"
            "Mingle/FirstImproving 0.0\n"
            "Mingle/PreferScanIn 0.0\n"
            "TreeFlatEx/BestGlobal 0.0\n"
            "TreeFlatEx/FirstImproving 0.0\n"
            "TreeFlatEx/PreferScanIn 0.0\n"
            "q12710/BestGlobal 2.0\n"
            "q12710/FirstImproving 2.0\n"
            "q12710/PreferScanIn 2.0\n"
            "MBIST_2_5_5/BestGlobal 0.0\n"
            "MBIST_2_5_5/FirstImproving 0.0\n"
            "MBIST_2_5_5/PreferScanIn 0.0\n"
            "MBIST_5_5_5/BestGlobal 1.0\n"
            "MBIST_5_5_5/FirstImproving 2.0\n"
            "MBIST_5_5_5/PreferScanIn 2.0\n"
            "BestGlobal_changes 5\nFirstImproving_changes 6\n"
            "PreferScanIn_changes 6\n");
}

/// Reads a whole file into a string.
std::string slurp(const std::string& file) {
  std::ifstream in(file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST_F(CliTest, SecuredNetworkWithOneInputMuxReadsBack) {
  // Hybrid isolation on this design leaves p93791_wsib12 with a single
  // input; the secured .rsn must still read back, certify clean, and
  // re-secure to the same bytes (write -> read -> write).
  ASSERT_EQ(run_cli({"generate", "--benchmark", "p93791", "--seed", "3",
                     "--scale", "0.05", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("secured.rsn")}),
            0)
      << err_.str();
  const std::string secured = slurp(path("secured.rsn"));
  EXPECT_NE(secured.find(" inputs 1\n"), std::string::npos)
      << "the workload no longer shrinks a mux to one input";

  EXPECT_EQ(run_cli({"certify", "--rsn", path("secured.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec")}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("certified: yes"), std::string::npos);

  ASSERT_EQ(run_cli({"secure", "--rsn", path("secured.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("again.rsn")}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("violating registers before: 0"),
            std::string::npos)
      << out_.str();
  EXPECT_EQ(slurp(path("again.rsn")), secured);
}

TEST_F(CliTest, SecureVerifyProbesOnlyPolicyViolatingPairs) {
  // Data a register's policy accepts may reach it — its own scan state
  // included — so the leakage probe must not report such a flow. On these
  // networks every remaining flow is of that kind: `certify` certifies
  // the secured network, and `secure --verify` must agree.
  for (const auto& [benchmark, seed] :
       {std::pair<const char*, const char*>{"p22810", "1"},
        std::pair<const char*, const char*>{"FlexScan", "3"}}) {
    ASSERT_EQ(run_cli({"generate", "--benchmark", benchmark, "--seed", seed,
                       "--scale", "0.05", "--out-rsn", path("net.rsn"),
                       "--out-verilog", path("ckt.v"), "--out-spec",
                       path("policy.spec")}),
              0)
        << err_.str();
    EXPECT_EQ(run_cli({"secure", "--verify", "--rsn", path("net.rsn"),
                       "--verilog", path("ckt.v"), "--spec",
                       path("policy.spec"), "--out", path("secured.rsn")}),
              0)
        << benchmark << " seed " << seed << ": " << out_.str() << err_.str();
    EXPECT_EQ(run_cli({"certify", "--rsn", path("secured.rsn"), "--verilog",
                       path("ckt.v"), "--spec", path("policy.spec")}),
              0)
        << benchmark << " seed " << seed << ": " << out_.str() << err_.str();
  }
}

}  // namespace
}  // namespace rsnsec::cli
