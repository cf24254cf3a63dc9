#pragma once

// Thin RAII layer over POSIX stream sockets for the serve subsystem:
// unix-domain and loopback-TCP listeners, connected streams with
// full-write/poll-read helpers, and a buffered line reader with an
// oversize cap. Errors surface as SocketError (a runtime_error carrying
// errno text), never as raw return codes the caller might ignore. Linux
// only, like the rest of the toolchain this repo targets.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rsnsec {

struct SocketError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A connected stream socket (move-only owner of the fd).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Connects to a unix-domain socket path / loopback TCP port.
  static Socket connect_unix(const std::string& path);
  static Socket connect_tcp(std::uint16_t port);

  /// Writes all of `data` (retrying short writes). SIGPIPE is avoided
  /// via MSG_NOSIGNAL — a closed peer raises SocketError instead of
  /// killing the process, which a daemon must never allow.
  void write_all(std::string_view data);

  /// Reads up to `max` bytes into `dst`; returns the count read (0 =
  /// orderly peer shutdown). Blocks.
  std::size_t read_some(char* dst, std::size_t max);

  /// Half-closes the write side (client "no more requests" signal) or
  /// both sides (server kick during shutdown; wakes a blocked reader).
  void shutdown_write();
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening socket (unix path or loopback TCP).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds + listens on a fresh unix-domain socket at `path` (an
  /// existing socket file there is unlinked first — the daemon owns its
  /// advertised path). The file is unlinked again on destruction.
  static Listener listen_unix(const std::string& path);

  /// Binds + listens on 127.0.0.1:`port` (0 = kernel-assigned; read the
  /// outcome back via port()). Loopback only: the daemon speaks an
  /// unauthenticated protocol, so it must not bind a routable address.
  static Listener listen_tcp(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  const std::string& path() const { return path_; }

  /// Waits up to `timeout_ms` for a connection; nullopt on timeout (the
  /// accept loop uses this to poll its stop flag between waits).
  std::optional<Socket> accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string path_;  // unix only; unlinked on close
};

/// Buffered \n-delimited frame reader over a Socket. Lines longer than
/// `max_line` are consumed to their terminator but reported as oversize
/// (the protocol layer answers SRV002 and keeps the connection usable).
/// The socket is read straight into one reused buffer, and the search for
/// a terminator resumes where the previous one stopped, so each byte is
/// scanned once however many reads a frame takes.
class LineReader {
 public:
  LineReader(Socket& socket, std::size_t max_line)
      : socket_(socket), max_line_(max_line) {}

  struct Line {
    std::string text;
    bool oversize = false;
  };

  /// Next frame, nullopt on EOF. A final unterminated fragment (peer
  /// died mid-frame) is returned as a frame; the following call reports
  /// EOF.
  std::optional<Line> next();

 private:
  Socket& socket_;
  std::size_t max_line_;
  /// Received bytes are buffer_[begin_, end_); [begin_, scan_) holds no
  /// '\n'. The tail past end_ is the next read's space.
  std::string buffer_;
  std::size_t begin_ = 0;
  std::size_t scan_ = 0;
  std::size_t end_ = 0;
  std::size_t dropping_ = 0;  ///< bytes of an oversize line being skipped
  bool eof_ = false;
};

}  // namespace rsnsec
