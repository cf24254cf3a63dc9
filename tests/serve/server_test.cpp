// Socket-level contract of the serve daemon, exercised over real
// unix-domain (and one loopback-TCP) connections: hostile framing
// (truncated JSON, oversize lines, partial writes, pipelining, abrupt
// disconnects) always gets a clean SRV reply or a clean close, never a
// wedged or dead daemon; backpressure arrives as SRV005 with a
// retry-after hint; graceful shutdown drains every admitted request.

#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "tests/serve/test_workload.hpp"
#include "util/minijson.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace rsnsec::serve {
namespace {

namespace fs = std::filesystem;

const TestWorkload& workload() {
  static const TestWorkload w;
  return w;
}

/// In-process daemon on a private unix socket; serve() runs on its own
/// thread, stopped and joined on destruction. The socket lives under a
/// deliberately short /tmp path (sun_path is ~108 bytes).
class TestServer {
 public:
  explicit TestServer(ServerOptions opt = {}, ServiceOptions sopt = {}) {
    static std::atomic<int> next_id{0};
    dir_ = fs::temp_directory_path() /
           ("rsnsec_srvt_" + std::to_string(::getpid()) + "_" +
            std::to_string(next_id.fetch_add(1)));
    fs::create_directories(dir_);
    if (!sopt.store_dir.empty()) sopt.store_dir = (dir_ / "store").string();
    if (sopt.analysis_threads == 0) sopt.analysis_threads = 2;
    service_ = std::make_unique<AnalysisService>(sopt);
    socket_path_ = (dir_ / "s.sock").string();
    opt.socket_path = socket_path_;
    server_ = std::make_unique<Server>(*service_, opt);
    server_->bind();
    thread_ = std::thread([this] { server_->serve(); });
  }

  ~TestServer() {
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    service_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  const std::string& socket_path() const { return socket_path_; }
  Server& server() { return *server_; }
  AnalysisService& service() { return *service_; }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  fs::path dir_;
  std::string socket_path_;
  std::unique_ptr<AnalysisService> service_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

struct Client {
  Socket sock;
  LineReader reader;

  explicit Client(const std::string& path)
      : sock(Socket::connect_unix(path)), reader(sock, 8u << 20) {}
  explicit Client(std::uint16_t port)
      : sock(Socket::connect_tcp(port)), reader(sock, 8u << 20) {}

  void send(const std::string& line) { sock.write_all(line); }

  /// Next reply line, parsed; fails the test on EOF or invalid JSON.
  JsonValue reply() {
    std::optional<LineReader::Line> line = reader.next();
    if (!line) {
      ADD_FAILURE() << "unexpected EOF from daemon";
      return {};
    }
    JsonParseResult parsed = parse_json(line->text);
    if (!parsed.ok()) {
      ADD_FAILURE() << "unparsable reply: " << line->text;
      return {};
    }
    return *parsed.value;
  }
};

std::string error_code(const JsonValue& reply) {
  const JsonValue* error = reply.find("error");
  if (error == nullptr) return "";
  return error->string_field("code").value_or("");
}

std::string analyze_frame(const std::string& id,
                          const std::string& tenant = "default",
                          bool no_ternary = false) {
  const TestWorkload& w = workload();
  std::string frame = "{\"command\": \"analyze\", \"id\": \"" + id +
                      "\", \"tenant\": \"" + tenant + "\", \"rsn\": \"" +
                      json_escape(w.rsn_text) + "\", \"verilog\": \"" +
                      json_escape(w.verilog_text) + "\", \"spec\": \"" +
                      json_escape(w.spec_text) + "\"";
  if (no_ternary) frame += ", \"options\": {\"no_ternary\": true}";
  return frame + "}\n";
}

TEST(ServeServer, PingAndStatsRunInline) {
  TestServer srv;
  Client c(srv.socket_path());
  c.send("{\"command\": \"ping\", \"id\": \"p1\"}\n");
  JsonValue pong = c.reply();
  EXPECT_TRUE(pong.bool_field("ok").value_or(false));
  ASSERT_NE(pong.find("result"), nullptr);
  EXPECT_EQ(pong.find("result")->string, "pong");
  EXPECT_EQ(pong.string_field("id").value_or(""), "p1");

  c.send("{\"command\": \"stats\"}\n");
  JsonValue stats = c.reply();
  EXPECT_TRUE(stats.bool_field("ok").value_or(false));
  EXPECT_NE(stats.find("result")->find("tenants"), nullptr);

  c.send("{\"command\": \"store-stats\"}\n");
  JsonValue ss = c.reply();
  EXPECT_TRUE(ss.bool_field("ok").value_or(false));
  EXPECT_FALSE(
      ss.find("result")->bool_field("enabled").value_or(true));
}

TEST(ServeServer, AnalyzeOverTheWireMatchesDirectExecution) {
  TestServer srv;
  ExecResult direct =
      srv.service().execute(workload().request(Command::Analyze));
  ASSERT_TRUE(direct.ok()) << direct.message;

  Client c(srv.socket_path());
  c.send(analyze_frame("a1"));
  std::optional<LineReader::Line> line = c.reader.next();
  ASSERT_TRUE(line.has_value());
  // The result bytes inside the reply envelope are exactly the direct
  // (CLI-identical) result; "server" carries the non-deterministic part.
  const std::string needle = "\"result\": " + direct.result_json + ",";
  EXPECT_NE(line->text.find(needle), std::string::npos)
      << "wire reply must embed the one-shot result verbatim";
  JsonParseResult parsed = parse_json(line->text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* server = parsed.value->find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->find("cache_hit"), nullptr);
  EXPECT_NE(server->find("queue_wait_seconds"), nullptr);
}

TEST(ServeServer, HostileFramesGetSrvCodesAndConnectionSurvives) {
  TestServer srv;
  Client c(srv.socket_path());

  c.send("{\"command\": \"analyze\", \"rsn\": \n");  // truncated JSON
  EXPECT_EQ(error_code(c.reply()), "SRV001");

  c.send("\x01\x02garbage\xff\n");
  EXPECT_EQ(error_code(c.reply()), "SRV001");

  c.send("{\"command\": \"frobnicate\"}\n");
  EXPECT_EQ(error_code(c.reply()), "SRV003");

  c.send("{\"command\": \"analyze\"}\n");  // missing payloads
  EXPECT_EQ(error_code(c.reply()), "SRV004");

  c.send("{\"command\": \"analyze\", \"rsn\": \"x\", \"verilog\": \"y\", "
         "\"spec\": \"garbage that does not parse\"}\n");
  EXPECT_EQ(error_code(c.reply()), "SRV004");  // payload parse failure

  // The connection is still healthy after every rejection.
  c.send("{\"command\": \"ping\"}\n");
  EXPECT_TRUE(c.reply().bool_field("ok").value_or(false));
}

TEST(ServeServer, OversizeLineGetsSrv002AndConnectionSurvives) {
  ServerOptions opt;
  opt.max_request_bytes = 512;
  TestServer srv(opt);
  Client c(srv.socket_path());

  std::string big = "{\"command\": \"ping\", \"tenant\": \"";
  big.append(4096, 'x');
  big += "\"}\n";
  c.send(big);
  EXPECT_EQ(error_code(c.reply()), "SRV002");

  c.send("{\"command\": \"ping\"}\n");
  EXPECT_TRUE(c.reply().bool_field("ok").value_or(false));
}

TEST(ServeServer, PartialWritesAreReassembled) {
  TestServer srv;
  Client c(srv.socket_path());
  const std::string frame = "{\"command\": \"ping\", \"id\": \"slow\"}\n";
  // Dribble the frame across several TCP-ish segments; the daemon's
  // line reader must buffer until the terminator arrives.
  for (std::size_t i = 0; i < frame.size(); i += 7) {
    c.send(frame.substr(i, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  JsonValue reply = c.reply();
  EXPECT_TRUE(reply.bool_field("ok").value_or(false));
  EXPECT_EQ(reply.string_field("id").value_or(""), "slow");
}

TEST(ServeServer, PipelinedFramesEachGetAReply) {
  TestServer srv;
  Client c(srv.socket_path());
  std::string burst;
  for (int i = 0; i < 5; ++i)
    burst += "{\"command\": \"ping\", \"id\": \"" + std::to_string(i) +
             "\"}\n";
  c.send(burst);  // one write, five frames
  for (int i = 0; i < 5; ++i) {
    JsonValue reply = c.reply();
    EXPECT_TRUE(reply.bool_field("ok").value_or(false));
    EXPECT_EQ(reply.string_field("id").value_or(""), std::to_string(i));
  }
}

TEST(ServeServer, EofMidFrameGetsErrorThenClose) {
  TestServer srv;
  Client c(srv.socket_path());
  // Peer dies mid-frame: the unterminated fragment is parsed (and
  // rejected), then the daemon closes its side.
  c.send("{\"command\": \"ping\"");
  c.sock.shutdown_write();
  EXPECT_EQ(error_code(c.reply()), "SRV001");
  EXPECT_FALSE(c.reader.next().has_value()) << "daemon should close";
}

TEST(ServeServer, AbruptDisconnectMidRequestLeavesDaemonAlive) {
  ServiceOptions sopt;
  sopt.store_dir = "store";  // rewritten to a temp path by TestServer
  TestServer srv({}, sopt);
  {
    Client c(srv.socket_path());
    c.send(analyze_frame("doomed"));
    // Destructor closes the socket while the request is queued or
    // running; the reply write fails and must be swallowed.
  }
  // Give the orphaned job time to finish against the dead socket.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (srv.server().requests_handled() >= 1) break;
  }
  Client c2(srv.socket_path());
  c2.send("{\"command\": \"ping\"}\n");
  EXPECT_TRUE(c2.reply().bool_field("ok").value_or(false));
  c2.send(analyze_frame("alive"));
  JsonValue reply = c2.reply();
  EXPECT_TRUE(reply.bool_field("ok").value_or(false)) << "daemon wedged";
}

TEST(ServeServer, RepeatedAnalyzeIsAnsweredBeforeQueuedColdWork) {
  // One executor, busy with a cold analyze of a larger design: a repeat
  // of a stored design is answered on the connection thread instead of
  // queueing behind it.
  ServerOptions opt;
  opt.workers = 1;
  ServiceOptions sopt;
  sopt.store_dir = "store";  // rewritten to a temp path by TestServer
  TestServer srv(opt, sopt);
  static const TestWorkload cold_design("q12710", 5, 4000);
  const std::string cold_frame =
      "{\"command\": \"analyze\", \"id\": \"cold\", \"rsn\": \"" +
      json_escape(cold_design.rsn_text) + "\", \"verilog\": \"" +
      json_escape(cold_design.verilog_text) + "\", \"spec\": \"" +
      json_escape(cold_design.spec_text) +
      "\", \"options\": {\"no_ternary\": true}}\n";

  Client c(srv.socket_path());
  c.send(analyze_frame("first"));
  JsonValue first = c.reply();
  ASSERT_TRUE(first.bool_field("ok").value_or(false));
  EXPECT_FALSE(first.find("server")->bool_field("cache_hit").value_or(true));

  c.send(cold_frame + analyze_frame("repeat"));
  JsonValue earlier = c.reply();
  JsonValue later = c.reply();
  ASSERT_TRUE(earlier.bool_field("ok").value_or(false));
  ASSERT_TRUE(later.bool_field("ok").value_or(false));
  EXPECT_GE(later.find("server")->number_field("seconds").value_or(0), 0.05)
      << "the cold request must occupy the executor for a while";
  EXPECT_EQ(earlier.string_field("id").value_or(""), "repeat");
  EXPECT_EQ(later.string_field("id").value_or(""), "cold");
  const JsonValue* repeat = earlier.find("server");
  ASSERT_NE(repeat, nullptr);
  EXPECT_TRUE(repeat->bool_field("cache_hit").value_or(false));
  EXPECT_EQ(repeat->number_field("queue_wait_seconds").value_or(-1), 0.0);

  // One store hit or miss per analyze request, wherever it was answered.
  c.send("{\"command\": \"store-stats\"}\n");
  JsonValue stats = c.reply();
  const JsonValue* result = stats.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->number_field("hits").value_or(0), 1);
  EXPECT_EQ(result->number_field("misses").value_or(0), 2);
}

TEST(ServeServer, BackpressureRepliesBusyWithRetryAfter) {
  ServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  TestServer srv(opt);
  Client c(srv.socket_path());
  // Burst of SAT-bearing analyzes (no store, prefilter off) against one
  // executor and a one-deep queue: the daemon must shed load explicitly.
  constexpr int kBurst = 8;
  std::string burst;
  for (int i = 0; i < kBurst; ++i)
    burst += analyze_frame("b" + std::to_string(i), "flooder",
                           /*no_ternary=*/true);
  c.send(burst);
  int ok = 0, busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    JsonValue reply = c.reply();
    if (reply.bool_field("ok").value_or(false)) {
      ++ok;
    } else {
      ASSERT_EQ(error_code(reply), "SRV005");
      const JsonValue* error = reply.find("error");
      EXPECT_GE(error->number_field("retry_after_ms").value_or(0), 1);
      ++busy;
    }
  }
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_GE(ok, 1) << "admitted requests must still complete";
  EXPECT_GE(busy, 1) << "a burst past capacity must see SRV005";
}

TEST(ServeServer, FloodingTenantDoesNotStarveOthers) {
  ServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 32;
  TestServer srv(opt);
  Client flooder(srv.socket_path());
  std::string burst;
  for (int i = 0; i < 6; ++i)
    burst += analyze_frame("f" + std::to_string(i), "flooder");
  flooder.send(burst);

  Client polite(srv.socket_path());
  polite.send(analyze_frame("p0", "polite"));
  // Fairness bound: the polite tenant's single request waits behind at
  // most ~two of the flooder's (one in flight + one per round-robin
  // round), never the whole backlog. Its reply must land while the
  // flooder still has work outstanding.
  JsonValue reply = polite.reply();
  EXPECT_TRUE(reply.bool_field("ok").value_or(false));
  int flooder_remaining = 0;
  for (int i = 0; i < 6; ++i) {
    JsonValue r = flooder.reply();
    EXPECT_TRUE(r.bool_field("ok").value_or(false));
    ++flooder_remaining;
  }
  EXPECT_EQ(flooder_remaining, 6);
}

TEST(ServeServer, GracefulShutdownDrainsAdmittedRequests) {
  TestServer srv;
  Client c(srv.socket_path());
  c.send(analyze_frame("d0") + analyze_frame("d1") +
         "{\"command\": \"shutdown\", \"id\": \"bye\"}\n");
  int ok_analyze = 0;
  bool draining_ack = false;
  for (int i = 0; i < 3; ++i) {
    JsonValue reply = c.reply();
    ASSERT_TRUE(reply.bool_field("ok").value_or(false))
        << "admitted requests must be drained, not dropped";
    std::string id = reply.string_field("id").value_or("");
    if (id == "bye")
      draining_ack = true;
    else
      ++ok_analyze;
  }
  EXPECT_EQ(ok_analyze, 2);
  EXPECT_TRUE(draining_ack);
  EXPECT_FALSE(c.reader.next().has_value()) << "daemon closes after drain";
  srv.join();  // serve() must return on its own after the request
  EXPECT_GE(srv.server().requests_handled(), 3u);
}

TEST(ServeServer, TcpLoopbackListenerWorks) {
  // Port 0: kernel assigns, server.port() reports.
  fs::path dir = fs::temp_directory_path() / "rsnsec_srvt_tcp";
  fs::create_directories(dir);
  AnalysisService service({});
  ServerOptions opt;
  opt.port = 0;
  Server server(service, opt);
  server.bind();
  ASSERT_GT(server.port(), 0);
  std::thread thread([&server] { server.serve(); });
  {
    Client c(server.port());
    c.send("{\"command\": \"ping\"}\n");
    EXPECT_TRUE(c.reply().bool_field("ok").value_or(false));
  }
  server.request_stop();
  thread.join();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace rsnsec::serve
