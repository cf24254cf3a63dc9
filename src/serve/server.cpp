#include "serve/server.hpp"

#include <csignal>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace rsnsec::serve {

namespace {
volatile std::sig_atomic_t g_signal_stop = 0;
void on_signal(int) { g_signal_stop = 1; }
}  // namespace

void install_signal_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
}

bool signal_stop_requested() { return g_signal_stop != 0; }

/// One accepted connection. Jobs in the scheduler keep it alive through
/// shared_ptr; the write mutex serializes reply frames from concurrent
/// executors with the reader's inline error replies.
struct Server::Conn {
  explicit Conn(Socket s) : sock(std::move(s)) {}

  /// Best-effort reply: a peer that disconnected mid-request simply
  /// loses the reply — the daemon must not die on EPIPE, and there is
  /// nobody left to report the error to.
  void send(const std::string& frame) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive) return;
    try {
      sock.write_all(frame);
    } catch (const SocketError&) {
      alive = false;
    }
  }

  /// Unblocks a reader stuck in read_some() during shutdown. Takes the
  /// write mutex so the fd state never races a concurrent send/close.
  void kick() {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (sock.valid()) sock.shutdown_both();
  }

  Socket sock;
  std::mutex write_mutex;
  bool alive = true;
};

Server::Server(AnalysisService& service, ServerOptions options)
    : service_(service),
      options_(options),
      scheduler_(SchedulerOptions{options.workers, options.queue_capacity}) {
  service_.set_queue_probe([this] { return scheduler_.queue_depth(); });
}

Server::~Server() {
  request_stop();
  scheduler_.drain_and_stop();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::shared_ptr<Conn>& c : conns_) c->kick();
  }
  for (std::thread& t : reader_threads_)
    if (t.joinable()) t.join();
  service_.set_queue_probe({});
}

void Server::bind() {
  if (listener_.valid()) return;
  if (!options_.socket_path.empty())
    listener_ = Listener::listen_unix(options_.socket_path);
  else
    listener_ = Listener::listen_tcp(
        static_cast<std::uint16_t>(options_.port < 0 ? 0 : options_.port));
}

void Server::serve() {
  bind();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (signal_stop_requested()) {
      request_stop();
      break;
    }
    std::optional<Socket> accepted = listener_.accept(200);
    if (!accepted) continue;
    auto conn = std::make_shared<Conn>(std::move(*accepted));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn]() mutable { reader_loop(std::move(conn)); });
  }

  // Graceful drain: no new connections or admissions, but every request
  // already admitted runs to completion and gets its reply before the
  // readers are kicked.
  listener_.close();
  draining_.store(true, std::memory_order_release);
  scheduler_.drain_and_stop();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::shared_ptr<Conn>& c : conns_) c->kick();
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers)
    if (t.joinable()) t.join();
  obs::bump("serve.shutdowns");
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  obs::set_current_thread_name("serve-reader");
  LineReader reader(conn->sock, options_.max_request_bytes);
  try {
    while (std::optional<LineReader::Line> line = reader.next()) {
      if (line->oversize) {
        conn->send(error_reply(
            "", ServeCode::Oversize,
            "request exceeds " + std::to_string(options_.max_request_bytes) +
                " bytes"));
        continue;
      }
      if (line->text.empty()) continue;  // blank keep-alive line
      handle_line(conn, line->text);
    }
  } catch (const SocketError&) {
    // Abrupt disconnect mid-read; nothing to reply to.
  }
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  conn->alive = false;
  conn->sock.close();
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& text) {
  ParseOutcome outcome;
  {
    obs::Span span(obs::TraceSession::active(), "serve.json");
    outcome = parse_request(text);
  }
  if (!outcome.ok()) {
    conn->send(error_reply("", outcome.code, outcome.message));
    return;
  }
  Request req = std::move(*outcome.request);
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  obs::bump("serve.requests");

  if (draining_.load(std::memory_order_acquire) &&
      req.command != Command::Ping && req.command != Command::Stats) {
    conn->send(error_reply(req.id, ServeCode::ShuttingDown,
                           "server is draining"));
    return;
  }

  // Cheap introspection runs inline on the reader thread; only analysis
  // work goes through admission control, and a repeated analyze not even
  // that (below).
  switch (req.command) {
    case Command::Ping:
      conn->send(ok_reply(req.id, "\"pong\""));
      return;
    case Command::Stats:
      conn->send(ok_reply(req.id, service_.stats_json()));
      return;
    case Command::StoreStats:
      conn->send(ok_reply(req.id, service_.store_stats_json()));
      return;
    case Command::Shutdown:
      conn->send(ok_reply(req.id, "\"draining\""));
      request_stop();
      return;
    default:
      break;
  }

  // A repeated analyze is answered here, before admission: its answer
  // costs one hash of the texts just decoded, and it must not queue
  // behind cold work. Only a miss goes to an executor.
  if (req.command == Command::Analyze && service_.store() != nullptr) {
    const Stopwatch sw;
    if (std::optional<ExecResult> hit = service_.answer_from_store(req)) {
      reply(*conn, req, *hit, sw.seconds(), 0.0);
      return;
    }
  }

  // The request, payloads included, moves into its job; the admission
  // replies below need only its id and tenant.
  const std::string id = req.id;
  const std::string tenant = req.tenant;
  auto job = [this, conn, req = std::move(req)](double queue_wait_seconds) {
    const Stopwatch sw;
    ExecResult result = service_.execute(req);
    reply(*conn, req, result, sw.seconds(), queue_wait_seconds);
  };

  switch (scheduler_.submit(tenant, std::move(job))) {
    case FairScheduler::Admit::Accepted:
      break;
    case FairScheduler::Admit::Busy:
      service_.record_busy(tenant);
      obs::bump("serve.busy_rejections");
      conn->send(error_reply(id, ServeCode::Busy,
                             "admission queue full (capacity " +
                                 std::to_string(scheduler_.capacity()) + ")",
                             scheduler_.retry_after_ms()));
      break;
    case FairScheduler::Admit::Stopping:
      conn->send(error_reply(id, ServeCode::ShuttingDown,
                             "server is draining"));
      break;
  }
}

void Server::reply(Conn& conn, const Request& req, const ExecResult& result,
                   double seconds, double queue_wait_seconds) {
  service_.record_queue_wait(req.tenant, queue_wait_seconds);
  service_.record_result(req.tenant, result, seconds);
  obs::Span span(obs::TraceSession::active(), "serve.reply");
  if (!result.ok()) {
    conn.send(error_reply(req.id, result.code, result.message));
    return;
  }
  // Wall clock and cache provenance live in the separate "server" object:
  // the "result" value stays a deterministic function of the request,
  // byte-identical to a one-shot CLI run.
  const std::string server_json =
      "{\"cache_hit\": " + std::string(result.cache_hit ? "true" : "false") +
      ", \"seconds\": " + std::to_string(seconds) +
      ", \"queue_wait_seconds\": " + std::to_string(queue_wait_seconds) +
      "}";
  conn.send(ok_reply(req.id, result.result_json, server_json));
}

}  // namespace rsnsec::serve
