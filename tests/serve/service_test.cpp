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
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchgen/families.hpp"
#include "obs/trace.hpp"
#include "rsn/io.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/dep_cache.hpp"
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

struct CliRun {
  int rc = 0;
  std::string out;
};

/// `rsnsec analyze` on the files of `w`, its spec replaced by `spec` when
/// given, with `extra` flags.
CliRun cli_analyze(const Workload& w, const fs::path& dir,
                   const std::vector<std::string>& extra,
                   const std::string* spec = nullptr) {
  std::ofstream(dir / "net.rsn") << w.rsn_text;
  std::ofstream(dir / "ckt.v") << w.verilog_text;
  std::ofstream(dir / "policy.spec") << (spec ? *spec : w.spec_text);
  std::vector<std::string> args = {
      "analyze", "--rsn", (dir / "net.rsn").string(), "--verilog",
      (dir / "ckt.v").string(), "--spec", (dir / "policy.spec").string()};
  args.insert(args.end(), extra.begin(), extra.end());
  std::ostringstream out, err;
  CliRun run;
  run.rc = cli::run(args, out, err);
  run.out = out.str();
  EXPECT_FALSE(run.out.empty()) << err.str();
  return run;
}

/// `rsnsec analyze --json` on the files of `w`, with `extra` flags.
std::string cli_analyze_json(const Workload& w, const fs::path& dir,
                             std::vector<std::string> extra) {
  extra.push_back("--json");
  return cli_analyze(w, dir, extra).out;
}

/// The spans named `name` in `session`, each checked to sit directly
/// under the span `parent`.
std::size_t count_spans(const obs::TraceSession& session,
                        std::string_view name, std::uint64_t parent) {
  std::size_t count = 0;
  for (const obs::SpanEvent& e : session.events()) {
    if (e.name != name) continue;
    ++count;
    EXPECT_EQ(e.parent, parent) << name;
  }
  return count;
}

/// Id of the (last) span named `name`, 0 if there is none.
std::uint64_t span_id(const obs::TraceSession& session, std::string_view name) {
  std::uint64_t id = 0;
  for (const obs::SpanEvent& e : session.events())
    if (e.name == name) id = e.id;
  return id;
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
// with violations where the family yields one at this size.
struct Pinned {
  const char* family;
  std::uint64_t seed;
  double target_ffs;
  std::uint64_t exact;
  std::uint64_t structural;
};
constexpr Pinned kPinned[] = {
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

// Both front ends must produce the pinned bytes, and each analyze runs the
// hybrid fixpoint three times: twice in the static check, once for both
// violation counts.
TEST(AnalysisService, AnalyzeJsonPinnedOnEveryFamily) {
  ASSERT_EQ(std::size(kPinned), benchgen::bastion_profiles().size() + 1);
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  obs::Counter& propagations = session.counter("hybrid.propagations");
  fs::path dir = test_root();
  {
    AnalysisService service({});
    for (const Pinned& p : kPinned) {
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

// The three ways a store answers analyze give the same bytes as a cold
// run, on every pinned design in both modes: a report hit (an exact
// repeat), and a snapshot hit (a `#` line appended to the spec, which
// misses the report but parses to the same design). The CLI's JSON and
// text output and its exit code, and the daemon's reply, all agree.
TEST(AnalysisService, ReportAndSnapshotHitsMatchColdOnEveryFamily) {
  fs::path dir = test_root();
  for (const Pinned& p : kPinned) {
    const Workload w(p.family, p.seed, p.target_ffs);
    const std::string edited = w.spec_text + "# reviewed\n";
    for (bool structural : {false, true}) {
      const std::string what =
          std::string(p.family) + (structural ? " structural" : " exact");
      const std::string tag =
          std::string(p.family) + (structural ? "-s" : "-e");
      for (bool json : {true, false}) {
        // A fresh store per output form: the report key does not depend
        // on it, so each form gets its own cold run.
        const char* form = json ? "json" : "text";
        std::vector<std::string> flags = {
            "--store", (dir / (tag + "-" + form)).string()};
        if (structural) flags.push_back("--structural");
        if (json) flags.push_back("--json");
        const CliRun cold = cli_analyze(w, dir, flags);
        const CliRun repeat = cli_analyze(w, dir, flags);
        const CliRun snapshot = cli_analyze(w, dir, flags, &edited);
        EXPECT_EQ(repeat.out, cold.out) << what << " " << form;
        EXPECT_EQ(snapshot.out, cold.out) << what << " " << form;
        EXPECT_EQ(repeat.rc, cold.rc) << what << " " << form;
        EXPECT_EQ(snapshot.rc, cold.rc) << what << " " << form;
        if (json)
          EXPECT_EQ(store::fnv1a64(cold.out),
                    structural ? p.structural : p.exact)
              << what;
      }

      AnalysisService service(
          {.store_dir = (dir / (tag + "-daemon")).string()});
      Request req = w.request(Command::Analyze);
      req.structural = structural;
      const ExecResult cold = service.execute(req);
      const ExecResult repeat = service.execute(req);
      req.spec = edited;
      const ExecResult snapshot = service.execute(req);
      ASSERT_TRUE(cold.ok() && repeat.ok() && snapshot.ok()) << what;
      EXPECT_FALSE(cold.cache_hit) << what;
      EXPECT_TRUE(repeat.cache_hit) << what;
      EXPECT_TRUE(snapshot.cache_hit) << what;
      EXPECT_EQ(repeat.result_json, cold.result_json) << what;
      EXPECT_EQ(snapshot.result_json, cold.result_json) << what;
      EXPECT_EQ(store::fnv1a64(cold.result_json + "\n"),
                structural ? p.structural : p.exact)
          << what;
      // Cold: one miss; repeat: the report; edit: the snapshot.
      const store::StoreCounters c = service.store()->counters();
      EXPECT_EQ(c.misses, 1u) << what;
      EXPECT_EQ(c.hits, 2u) << what;
    }
  }
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

// The secure reply's cache_hit is the store's own answer. Inferring it
// from the SAT call count read a hit as a miss (a hit restores the cold
// run's counters) and a structural-mode miss, which makes no SAT calls,
// as a hit.
TEST(AnalysisService, SecureReportsTheStoresAnswerAsCacheHit) {
  fs::path dir = test_root();
  {
    AnalysisService service(
        {.store_dir = (dir / "store").string(), .analysis_threads = 1});
    Workload w;
    Request req = w.request(Command::Secure);
    req.no_ternary = true;  // the cold run reaches the SAT solver
    ExecResult cold = service.execute(req);
    ASSERT_TRUE(cold.ok()) << cold.message;
    EXPECT_FALSE(cold.cache_hit);
    ExecResult warm = service.execute(req);
    ASSERT_TRUE(warm.ok()) << warm.message;
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.result_json, cold.result_json);
    req.structural = true;  // another store key, and no SAT calls
    ExecResult structural = service.execute(req);
    ASSERT_TRUE(structural.ok()) << structural.message;
    EXPECT_FALSE(structural.cache_hit);
  }
  fs::remove_all(dir);
}

// Analyze, secure and certify share one workload loader, which refuses a
// network secure would refuse: a scan-path cycle is the client's mistake
// (SRV004), not an internal error or a silently wrong count.
TEST(AnalysisService, CyclicNetworkIsBadFieldForEveryDesignCommand) {
  Request req;
  // Mux m closes the cycle m -> rc -> rr -> m; every register is still
  // reachable from scan-in and reaches scan-out.
  req.rsn =
      "rsn loop\nmodule 0 conf\nmodule 1 relay\n"
      "register rc ffs 1 module 0\nregister rr ffs 1 module 1\n"
      "mux m inputs 2\nconnect scan_in m 0\nconnect rr m 1\n"
      "connect m rc 0\nconnect rc rr 0\nconnect rr scan_out 0\n"
      "capture rc 0 cf\nupdate rr 0 rf\n";
  req.verilog =
      "module loop(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "endmodule\n";
  req.spec = "categories 2\nmodule conf trust 1 accepts 1\n";
  AnalysisService service({.store_dir = "", .analysis_threads = 1});
  for (Command c : {Command::Analyze, Command::Secure, Command::Certify}) {
    req.command = c;
    ExecResult result = service.execute(req);
    EXPECT_EQ(result.code, ServeCode::BadField) << command_name(c);
    EXPECT_EQ(result.message,
              "payload: invalid scan network: scan network contains a cycle")
        << command_name(c);
  }
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

// A spec edit that parses to the same design (a `#` line appended) is
// another request: it misses the report, so the front end parses its
// three payloads, once each inside the request's span, and the
// dependency snapshot the parse keys answers it: the cold run's bytes,
// cache_hit set, no SAT call.
TEST(AnalysisService, TracedWarmAnalyzeRecordsEachParseSpanOnce) {
  Workload w;
  fs::path dir = test_root();
  AnalysisService service({.store_dir = (dir / "store").string()});
  Request req = w.request(Command::Analyze);
  req.no_ternary = true;  // the cold run reaches SAT, so zero means something
  obs::TraceSession cold_session;
  obs::TraceSession::set_active(&cold_session);
  ExecResult cold = service.execute(req);
  obs::TraceSession::set_active(nullptr);
  ASSERT_TRUE(cold.ok()) << cold.message;
  ASSERT_GT(cold_session.counter("dep.sat_calls").value(), 0u);

  req.spec += "# reviewed\n";
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  ExecResult warm = service.execute(req);
  obs::TraceSession::set_active(nullptr);
  ASSERT_TRUE(warm.ok()) << warm.message;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result_json, cold.result_json);
  EXPECT_EQ(session.counter("dep.sat_calls").value(), 0u);

  const std::uint64_t request = span_id(session, "serve.analyze");
  ASSERT_NE(request, 0u);
  for (const char* name : {"parse.rsn", "parse.verilog", "parse.spec"})
    EXPECT_EQ(count_spans(session, name, request), 1u) << name;
  EXPECT_EQ(count_spans(session, "analyze.lookup", request), 1u);
  fs::remove_all(dir);
}

// An exact repeat is answered from the report: one lookup span inside
// the request's span, and no reader runs.
TEST(AnalysisService, TracedRepeatAnalyzeParsesNothing) {
  Workload w;
  fs::path dir = test_root();
  AnalysisService service({.store_dir = (dir / "store").string()});
  ExecResult cold = service.execute(w.request(Command::Analyze));
  ASSERT_TRUE(cold.ok()) << cold.message;

  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  ExecResult warm = service.execute(w.request(Command::Analyze));
  obs::TraceSession::set_active(nullptr);
  ASSERT_TRUE(warm.ok()) << warm.message;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result_json, cold.result_json);

  const std::uint64_t request = span_id(session, "serve.analyze");
  ASSERT_NE(request, 0u);
  EXPECT_EQ(count_spans(session, "analyze.lookup", request), 1u);
  for (const obs::SpanEvent& e : session.events()) {
    EXPECT_NE(e.name.rfind("parse.", 0), 0u) << e.name;
    EXPECT_NE(e.name, "store.key");
  }
  fs::remove_all(dir);
}

// A report the store returns but that does not decode is never served:
// it is discarded (counted corrupt), the request is answered from the
// dependency snapshot with the cold bytes, and the report is published
// again for the next repeat.
TEST(AnalysisService, DamagedReportIsDiscardedAndRecomputed) {
  Workload w;
  fs::path dir = test_root();
  const std::string store_dir = (dir / "store").string();
  const Request req = w.request(Command::Analyze);
  const std::string key = store::analysis_key(
      {}, "rsn", "", {req.rsn, req.verilog, req.spec});
  std::string cold_json;
  {
    AnalysisService cold_service({.store_dir = store_dir});
    const ExecResult cold = cold_service.execute(req);
    ASSERT_TRUE(cold.ok()) << cold.message;
    cold_json = cold.result_json;
  }
  {
    // Another process rewrites the report with one byte flipped, inside
    // a valid envelope.
    store::ArtifactStore other(store_dir);
    std::optional<std::string> report = other.load(key);
    ASSERT_TRUE(report.has_value()) << "no report published";
    (*report)[report->size() / 2] ^= 0x01;
    other.put(key, *report);
  }
  AnalysisService service({.store_dir = store_dir});
  const ExecResult again = service.execute(req);
  ASSERT_TRUE(again.ok()) << again.message;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result_json, cold_json);
  EXPECT_EQ(service.store()->counters().corrupt, 1u);
  const ExecResult repeat = service.execute(req);
  EXPECT_EQ(repeat.result_json, cold_json);
  EXPECT_EQ(service.store()->counters().corrupt, 1u);
  EXPECT_EQ(service.store()->counters().hits, 2u);
  fs::remove_all(dir);
}

// Satellite check: SecureFlowTool / DependencyAnalyzer are re-entrant
// when sharing one service (one pool, one store). Concurrent execute()
// calls must produce exactly the serial bytes, without a store and with
// an empty one, whose report and snapshot the first requests race to
// miss and publish.
TEST(AnalysisService, ConcurrentExecuteIsBitIdenticalToSerial) {
  Workload w;
  AnalysisService reference({.store_dir = "", .analysis_threads = 2});
  ExecResult ref_analyze = reference.execute(w.request(Command::Analyze));
  ExecResult ref_secure = reference.execute(w.request(Command::Secure));
  ASSERT_TRUE(ref_analyze.ok()) << ref_analyze.message;
  ASSERT_TRUE(ref_secure.ok()) << ref_secure.message;

  fs::path dir = test_root();
  for (const std::string& store_dir :
       {std::string(), (dir / "store").string()}) {
    AnalysisService service({.store_dir = store_dir, .analysis_threads = 2});
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
      EXPECT_EQ(analyze_out[t], ref_analyze.result_json)
          << "thread " << t << ", store '" << store_dir << "'";
      EXPECT_EQ(secure_out[t], ref_secure.result_json)
          << "thread " << t << ", store '" << store_dir << "'";
    }
  }
  fs::remove_all(dir);
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

// A design that reads but that the analysis cannot take is the daemon's
// failure, not the client's: 300 modules with distinct accepted sets
// exceed the 256 sensitivity tokens. With a store or without, the reply
// is SRV007 with the analysis's message, and nothing is stored as a
// report for the next request to serve.
TEST(AnalysisService, AnalysisFailureIsInternalNotBadField) {
  Request req;
  req.command = Command::Analyze;
  req.rsn = "rsn wide\n";
  req.spec = "categories 16\n";
  for (int m = 0; m < 300; ++m) {
    const std::string i = std::to_string(m);
    req.rsn += "module " + i + " m" + i + "\n";
    req.rsn += "register r" + i + " ffs 1 module " + i + "\n";
    // Accepted set: its own category 0, plus categories 1-15 by the bits
    // of m + 1: distinct per module, never all 16.
    std::string accepts = "0";
    for (int c = 1; c < 16; ++c)
      if (((m + 1) >> (c - 1)) & 1) accepts += "," + std::to_string(c);
    req.spec += "module m" + i + " trust 0 accepts " + accepts + "\n";
  }
  req.rsn += "connect scan_in r0 0\n";
  for (int m = 1; m < 300; ++m)
    req.rsn += "connect r" + std::to_string(m - 1) + " r" +
               std::to_string(m) + " 0\n";
  req.rsn += "connect r299 scan_out 0\n";
  req.verilog = "module wide(input a);\nendmodule\n";
  fs::path dir = test_root();
  for (const std::string& store_dir : {std::string(), (dir / "st").string()}) {
    AnalysisService service({.store_dir = store_dir});
    for (int repeat = 0; repeat < 2; ++repeat) {
      const ExecResult result = service.execute(req);
      EXPECT_EQ(result.code, ServeCode::Internal) << result.message;
      EXPECT_EQ(result.message, "too many distinct sensitivity classes");
    }
  }
  fs::remove_all(dir);
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
  AnalysisService service({.store_dir = "", .analysis_threads = 1});
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

  // The reply byte for byte: per histogram the count, mean, maximum and
  // the log2 bucket bounds of the 50th and 99th percentiles.
  EXPECT_EQ(service.stats_json(),
            "{\"tenants\": {\"acme\": {\"requests\": 3, \"ok\": 1, "
            "\"errors\": 1, \"busy\": 1, \"cache_hits\": 1, "
            "\"cache_misses\": 0, \"latency_us\": {\"count\": 2, "
            "\"mean_us\": 5500, \"max_us\": 10000, \"p50_us\": 16384, "
            "\"p99_us\": 16384}, \"queue_wait_us\": {\"count\": 1, "
            "\"mean_us\": 2000, \"max_us\": 2000, \"p50_us\": 2048, "
            "\"p99_us\": 2048}}, \"zeta\": {\"requests\": 1, \"ok\": 1, "
            "\"errors\": 0, \"busy\": 0, \"cache_hits\": 1, "
            "\"cache_misses\": 0, \"latency_us\": {\"count\": 1, "
            "\"mean_us\": 5000, \"max_us\": 5000, \"p50_us\": 8192, "
            "\"p99_us\": 8192}, \"queue_wait_us\": {\"count\": 0, "
            "\"mean_us\": 0, \"max_us\": 0, \"p50_us\": 0, "
            "\"p99_us\": 0}}}, \"queue_depth\": 3, "
            "\"analysis_threads\": 1}");

  // store-stats without a store is still a valid (empty) report.
  JsonParseResult ss = parse_json(service.store_stats_json());
  ASSERT_TRUE(ss.ok()) << ss.error;
}

}  // namespace
}  // namespace rsnsec::serve
