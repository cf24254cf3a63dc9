// End-to-end tests of the rsnsec command-line tool, driven in-process
// through rsnsec::cli::run with files in a temporary directory.

#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/minijson.hpp"

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

  fs::path dir_;
  std::ostringstream out_, err_;
};

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
  EXPECT_EQ(run_cli({"bogus"}), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);

  EXPECT_EQ(run_cli({"info", "--rsn", path("missing.rsn")}), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);

  EXPECT_EQ(run_cli({"analyze", "--rsn", path("missing.rsn")}), 1);
  EXPECT_EQ(run_cli({"generate", "--benchmark", "NoSuch", "--out-rsn",
                     path("x.rsn")}),
            1);
  EXPECT_EQ(run_cli({"secure", "--oops"}), 1);
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

TEST_F(CliTest, BenchServeRequiresJson) {
  int rc = run_cli({"bench", "serve"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--json"), std::string::npos);
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
  // Missing required option: generic error (rc 1), repo convention.
  EXPECT_EQ(run_cli({"attack"}), 1);
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
  EXPECT_EQ(run_cli({"bench", "attack", "--families", "BasicSCB"}), 2)
      << "bench attack without --json must be a usage error";
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
  EXPECT_EQ(run_cli({"bench", "attack", "--families", "NoSuchFamily",
                     "--json"}),
            2);
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
  EXPECT_EQ(run_cli({"bench", "scale", "--max-ffs", "600"}), 2)
      << "bench scale without --json must be a usage error";
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
  EXPECT_EQ(run_cli({"bench", "scale", "--json", "--max-ffs", "0"}), 2);
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
