// AnalysisService contract: daemon results are byte-identical to the
// one-shot CLI (same emitters, no timings in result bodies), a warm
// repeated-design request makes zero SAT calls (the store acceptance
// criterion, asserted via obs counters), requests trace only into the
// caller's session, and execute() is re-entrant — concurrent requests
// produce the same bytes as serial ones.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/families.hpp"
#include "obs/trace.hpp"
#include "rsn/io.hpp"
#include "store/codec.hpp"
#include "tests/serve/test_workload.hpp"
#include "tools/cli.hpp"
#include "util/minijson.hpp"

namespace rsnsec::serve {
namespace {

namespace fs = std::filesystem;

using Workload = TestWorkload;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_serve_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JsonParseResult parse_result(const ExecResult& result) {
  return parse_json(result.result_json);
}

/// `rsnsec analyze --json` on the files of `w`, with `extra` flags.
std::string cli_analyze_json(const Workload& w, const fs::path& dir,
                             const std::vector<std::string>& extra) {
  std::ofstream(dir / "net.rsn") << w.rsn_text;
  std::ofstream(dir / "ckt.v") << w.verilog_text;
  std::ofstream(dir / "policy.spec") << w.spec_text;
  std::vector<std::string> args = {
      "analyze", "--rsn", (dir / "net.rsn").string(), "--verilog",
      (dir / "ckt.v").string(), "--spec", (dir / "policy.spec").string(),
      "--json"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::ostringstream out, err;
  cli::run(args, out, err);
  EXPECT_FALSE(out.str().empty()) << err.str();
  return out.str();
}

TEST(AnalysisService, AnalyzeMatchesCliJsonByteForByte) {
  Workload w;
  fs::path dir = test_root();
  AnalysisService service({});
  // The request options and the CLI flags that spell the same analysis.
  struct Variant {
    bool structural, no_ternary;
    std::vector<std::string> flags;
  };
  const Variant variants[] = {{false, false, {}},
                              {true, false, {"--structural"}},
                              {false, true, {"--no-ternary"}}};
  for (const Variant& v : variants) {
    const std::string cli_out = cli_analyze_json(w, dir, v.flags);
    Request req = w.request(Command::Analyze);
    req.structural = v.structural;
    req.no_ternary = v.no_ternary;
    ExecResult result = service.execute(req);
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.result_json + "\n", cli_out)
        << "daemon analyze must match the CLI byte-for-byte (structural "
        << v.structural << ", no_ternary " << v.no_ternary << ")";
  }
  fs::remove_all(dir);
}

// `analyze --json` of one small design per generator family, in exact and
// structural mode, pinned by FNV-1a digest. Seeds and sizes pick a design
// with violations where the family yields one at this size. Both front
// ends must produce the pinned bytes, and each analyze runs the hybrid
// fixpoint three times: twice in the static check, once for both
// violation counts.
TEST(AnalysisService, AnalyzeJsonPinnedOnEveryFamily) {
  struct Pinned {
    const char* family;
    std::uint64_t seed;
    double target_ffs;
    std::uint64_t exact;
    std::uint64_t structural;
  };
  const Pinned pinned[] = {
      {"BasicSCB", 2, 300, 0x893461c05ae11380ull, 0xa266ce7e1c598c4bull},
      {"Mingle", 8, 300, 0x4c44800821015471ull, 0x4973f3a9c0531be3ull},
      {"TreeFlat", 3, 300, 0x703864abcfe0e869ull, 0x16973cb344b50b9full},
      {"TreeFlatEx", 6, 300, 0x407a768ab0056f8eull, 0x133a43fdc7acb323ull},
      {"TreeBalanced", 12, 300, 0x7045b4bca239b13bull, 0x74f0c5bf6316d1fdull},
      {"TreeUnbalanced", 12, 300, 0x552f3e040727e7fbull, 0x931f3afb17a0009aull},
      {"q12710", 11, 300, 0x1b384ae8f774e38aull, 0x26cce44bd697fca1ull},
      {"t512505", 5, 1200, 0xec16d5a2864481afull, 0x9c201547332d6b07ull},
      {"p22810", 2, 600, 0xd7b830a9d439cc08ull, 0xbf29873223d0c039ull},
      {"a586710", 11, 300, 0x1b384ae8f774e38aull, 0x26cce44bd697fca1ull},
      {"p34392", 7, 1200, 0xd5c4e15a51a59effull, 0xd4b41df84ea04b2dull},
      {"p93791", 5, 600, 0x4b73b871c1395aa3ull, 0xd4085ad9ca876626ull},
      {"FlexScan", 3, 300, 0x31435779c0cd1478ull, 0xcc81ef1e54c17470ull},
      {"MBIST_2_4_4", 5, 0, 0x1bce45ca5dd776abull, 0x13c5b50d225cfe3aull},
  };
  ASSERT_EQ(std::size(pinned), benchgen::bastion_profiles().size() + 1);
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  obs::Counter& propagations = session.counter("hybrid.propagations");
  fs::path dir = test_root();
  {
    AnalysisService service({});
    for (const Pinned& p : pinned) {
      const Workload w(p.family, p.seed, p.target_ffs);
      for (bool structural : {false, true}) {
        const std::string what =
            std::string(p.family) + (structural ? " structural" : " exact");
        std::uint64_t before = propagations.value();
        const std::string cli_out = cli_analyze_json(
            w, dir,
            structural ? std::vector<std::string>{"--structural"}
                       : std::vector<std::string>{});
        // cli::run deactivates the ambient session on return.
        obs::TraceSession::set_active(&session);
        EXPECT_EQ(propagations.value() - before, 3u) << what << " (CLI)";
        const std::uint64_t got = store::fnv1a64(cli_out);
        EXPECT_EQ(got, structural ? p.structural : p.exact)
            << what << " digest 0x" << std::hex << got << "\n" << cli_out;

        Request req = w.request(Command::Analyze);
        req.structural = structural;
        before = propagations.value();
        ExecResult result = service.execute(req);
        ASSERT_TRUE(result.ok()) << what << ": " << result.message;
        EXPECT_EQ(propagations.value() - before, 3u) << what << " (daemon)";
        EXPECT_EQ(result.result_json + "\n", cli_out) << what;
      }
    }
  }
  obs::TraceSession::set_active(nullptr);
  fs::remove_all(dir);
}

// The store acceptance criterion, end to end through the daemon's
// execution path: a warm repeated-design request performs zero SAT
// calls, asserted via the obs `dep.sat_calls` counter.
TEST(AnalysisService, WarmRepeatedDesignMakesZeroSatCalls) {
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  fs::path dir = test_root();
  {
    ServiceOptions sopt;
    sopt.store_dir = (dir / "store").string();
    sopt.analysis_threads = 2;
    AnalysisService service(sopt);

    Workload w;
    Request req = w.request(Command::Analyze);
    // Disable the ternary prefilter so the cold run provably reaches the
    // SAT solver — otherwise "zero calls when warm" would be vacuous.
    req.no_ternary = true;

    std::uint64_t before = session.counter("dep.sat_calls").value();
    ExecResult cold = service.execute(req);
    ASSERT_TRUE(cold.ok()) << cold.message;
    std::uint64_t after_cold = session.counter("dep.sat_calls").value();
    EXPECT_GT(after_cold, before) << "cold run must actually hit SAT";
    EXPECT_FALSE(cold.cache_hit);

    ExecResult warm = service.execute(req);
    ASSERT_TRUE(warm.ok()) << warm.message;
    std::uint64_t after_warm = session.counter("dep.sat_calls").value();
    EXPECT_EQ(after_warm, after_cold)
        << "warm repeated-design request must make zero SAT calls";
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.result_json, cold.result_json);

    // Warm-starts are cross-tenant: the store is shared, so a different
    // tenant's identical design is also served without SAT.
    Request other = req;
    other.tenant = "someone-else";
    ExecResult cross = service.execute(other);
    ASSERT_TRUE(cross.ok()) << cross.message;
    EXPECT_EQ(session.counter("dep.sat_calls").value(), after_cold);
    EXPECT_TRUE(cross.cache_hit);
    EXPECT_EQ(cross.result_json, cold.result_json);
  }
  obs::TraceSession::set_active(nullptr);
  fs::remove_all(dir);
}

// The service owns no trace session: without one active it leaves the
// process untraced, and with the caller's session it records into it and
// leaves it installed when the service goes away.
TEST(AnalysisService, RecordsOnlyIntoTheCallersTraceSession) {
  Workload w;
  obs::TraceSession::set_active(nullptr);
  {
    AnalysisService service({});
    ExecResult result = service.execute(w.request(Command::Analyze));
    EXPECT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(obs::TraceSession::active(), nullptr);
  }
  EXPECT_EQ(obs::TraceSession::active(), nullptr);

  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  {
    AnalysisService service({});
    ExecResult result = service.execute(w.request(Command::Analyze));
    EXPECT_TRUE(result.ok()) << result.message;
  }
  EXPECT_EQ(obs::TraceSession::active(), &session);
  obs::TraceSession::set_active(nullptr);
  std::size_t analyze_spans = 0;
  for (const obs::SpanEvent& e : session.events())
    analyze_spans += e.name == "serve.analyze" ? 1 : 0;
  EXPECT_EQ(analyze_spans, 1u);
}

// Satellite check: SecureFlowTool / DependencyAnalyzer are re-entrant
// when sharing one service (one pool, one store). Concurrent execute()
// calls must produce exactly the serial bytes.
TEST(AnalysisService, ConcurrentExecuteIsBitIdenticalToSerial) {
  Workload w;
  AnalysisService service({.store_dir = "", .analysis_threads = 2});
  ExecResult ref_analyze = service.execute(w.request(Command::Analyze));
  ExecResult ref_secure = service.execute(w.request(Command::Secure));
  ASSERT_TRUE(ref_analyze.ok()) << ref_analyze.message;
  ASSERT_TRUE(ref_secure.ok()) << ref_secure.message;

  constexpr int kThreads = 4;
  std::vector<std::string> analyze_out(kThreads), secure_out(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      analyze_out[t] =
          service.execute(w.request(Command::Analyze)).result_json;
      secure_out[t] =
          service.execute(w.request(Command::Secure)).result_json;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(analyze_out[t], ref_analyze.result_json) << "thread " << t;
    EXPECT_EQ(secure_out[t], ref_secure.result_json) << "thread " << t;
  }
}

TEST(AnalysisService, GarbagePayloadIsBadFieldNotCrash) {
  AnalysisService service({});
  Request req;
  req.command = Command::Analyze;
  req.rsn = "this is not an rsn file";
  req.verilog = "module garbage(; endmodule";
  req.spec = "nor a spec";
  ExecResult result = service.execute(req);
  EXPECT_EQ(result.code, ServeCode::BadField);
  EXPECT_NE(result.message.find("payload"), std::string::npos)
      << result.message;
}

TEST(AnalysisService, SecureReturnsParseableSecuredNetwork) {
  Workload w;
  AnalysisService service({});
  ExecResult result = service.execute(w.request(Command::Secure));
  ASSERT_TRUE(result.ok()) << result.message;
  JsonParseResult parsed = parse_result(result);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.value->find("secured") != nullptr);
  ASSERT_NE(parsed.value->find("changes"), nullptr);
  const JsonValue* rsn = parsed.value->find("rsn");
  ASSERT_NE(rsn, nullptr);
  ASSERT_TRUE(rsn->is_string());
  // The inline secured network must round-trip through the parser.
  std::istringstream is(rsn->string);
  EXPECT_NO_THROW({ rsn::read_rsn(is); });
}

TEST(AnalysisService, CertifyReturnsVerdictCounts) {
  Workload w;
  AnalysisService service({});
  ExecResult result = service.execute(w.request(Command::Certify));
  ASSERT_TRUE(result.ok()) << result.message;
  JsonParseResult parsed = parse_result(result);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_NE(parsed.value->find("certified"), nullptr);
  EXPECT_NE(parsed.value->find("violating_pairs"), nullptr);
  EXPECT_NE(parsed.value->find("nodes"), nullptr);
}

TEST(AnalysisService, AttackRejectsUnknownBenchmarkWithCatalog) {
  AnalysisService service({});
  Request req;
  req.command = Command::Attack;
  req.benchmark = "NoSuchFamily";
  ExecResult result = service.execute(req);
  EXPECT_EQ(result.code, ServeCode::BadField);
  EXPECT_NE(result.message.find("Mingle"), std::string::npos)
      << "error should list the known families: " << result.message;
}

TEST(AnalysisService, StatsReportPerTenantAccounting) {
  AnalysisService service({});
  service.set_queue_probe([] { return std::size_t{3}; });

  ExecResult ok;
  ok.code = ServeCode::Ok;
  ok.cache_hit = true;
  ExecResult err;
  err.code = ServeCode::Internal;
  service.record_queue_wait("acme", 0.002);
  service.record_result("acme", ok, 0.010);
  service.record_result("acme", err, 0.001);
  service.record_busy("acme");
  service.record_result("zeta", ok, 0.005);

  JsonParseResult parsed = parse_json(service.stats_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << service.stats_json();
  EXPECT_EQ(parsed.value->number_field("queue_depth").value_or(-1), 3);
  const JsonValue* tenants = parsed.value->find("tenants");
  ASSERT_NE(tenants, nullptr);
  const JsonValue* acme = tenants->find("acme");
  ASSERT_NE(acme, nullptr);
  // Busy rejections count as requests too: 2 completed + 1 bounced.
  EXPECT_EQ(acme->number_field("requests").value_or(0), 3);
  EXPECT_EQ(acme->number_field("ok").value_or(0), 1);
  EXPECT_EQ(acme->number_field("errors").value_or(0), 1);
  EXPECT_EQ(acme->number_field("busy").value_or(0), 1);
  EXPECT_EQ(acme->number_field("cache_hits").value_or(0), 1);
  const JsonValue* latency = acme->find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->number_field("count").value_or(0), 2);
  EXPECT_GT(latency->number_field("p99_us").value_or(0), 0);
  const JsonValue* zeta = tenants->find("zeta");
  ASSERT_NE(zeta, nullptr);
  EXPECT_EQ(zeta->number_field("requests").value_or(0), 1);

  // store-stats without a store is still a valid (empty) report.
  JsonParseResult ss = parse_json(service.store_stats_json());
  ASSERT_TRUE(ss.ok()) << ss.error;
}

}  // namespace
}  // namespace rsnsec::serve
