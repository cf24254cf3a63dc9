#pragma once

// Connection layer of the serve daemon: a listener (unix path or
// loopback TCP), one reader thread per connection, and the wiring from
// parsed frames to the fair-share scheduler / the AnalysisService.
//
// Threading model: the thread calling serve() owns the accept loop
// (polling its stop flag between 200 ms accept waits). Each connection
// gets a reader thread, which also answers the cheap commands and, with
// a store, every analyze the stored report answers; the rest go through
// admission to the scheduler's executors. Replies are written by
// whichever thread finishes the work — the connection's write mutex
// serializes frames, and pending jobs hold the connection alive via
// shared_ptr, so an abrupt disconnect never leaves a scheduler job with
// a dangling socket (the reply write just fails and is dropped).
//
// Graceful shutdown (SIGINT/SIGTERM via request_stop(), or a `shutdown`
// request): stop accepting, mark draining (new frames get SRV006),
// drain the scheduler — every admitted request still gets its reply —
// then kick and join the readers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "util/socket.hpp"

namespace rsnsec::serve {

struct ServerOptions {
  /// Exactly one of socket_path / port must be set (the CLI enforces
  /// mutual exclusion before constructing the server).
  std::string socket_path;  ///< unix-domain listener path ("" = TCP)
  int port = -1;            ///< loopback TCP port (0 = kernel-assigned)

  std::size_t workers = 2;          ///< concurrent request executors
  std::size_t queue_capacity = 64;  ///< admission bound (then SRV005)
  std::size_t max_request_bytes = 8u << 20;  ///< per-line cap (SRV002)
};

class Server {
 public:
  Server(AnalysisService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener. Separated from serve() so callers (tests, the
  /// bench client) can read the resolved port before connecting.
  void bind();

  /// Resolved TCP port after bind() (0 for unix listeners).
  std::uint16_t port() const { return listener_.port(); }

  /// Accept loop; returns after a graceful shutdown completes. Call
  /// bind() first (serve() binds on its own if not).
  void serve();

  /// Initiates graceful shutdown from any thread (signal poll, the
  /// `shutdown` request, tests). Idempotent, returns immediately.
  void request_stop();

  /// Requests served over the lifetime (drained on shutdown).
  std::uint64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void reader_loop(std::shared_ptr<Conn> conn);
  void handle_line(const std::shared_ptr<Conn>& conn,
                   const std::string& text);
  /// Records an executed request in its tenant's stats and sends its
  /// reply, under a `serve.reply` span.
  void reply(Conn& conn, const Request& req, const ExecResult& result,
             double seconds, double queue_wait_seconds);

  AnalysisService& service_;
  ServerOptions options_;
  FairScheduler scheduler_;
  Listener listener_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> requests_handled_{0};

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> reader_threads_;
};

/// Installs SIGINT/SIGTERM handlers that flip a process-wide flag, and
/// the poll the accept loop uses to notice it. The CLI installs these;
/// tests drive request_stop() directly instead.
void install_signal_handlers();
bool signal_stop_requested();

}  // namespace rsnsec::serve
