#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rsnsec {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw SocketError("unix socket path too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  Socket s(fd);
  sockaddr_un addr = unix_addr(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("connect('" + path + "')");
  return s;
}

Socket Socket::connect_tcp(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  Socket s(fd);
  sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

void Socket::write_all(std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::size_t Socket::read_some(char* dst, std::size_t max) {
  for (;;) {
    ssize_t n = ::recv(fd_, dst, max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

Listener Listener::listen_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  Listener l;
  l.fd_ = fd;
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE; the advertised path belongs to the new daemon.
  ::unlink(path.c_str());
  sockaddr_un addr = unix_addr(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("bind('" + path + "')");
  l.path_ = path;
  if (::listen(fd, 64) != 0) throw_errno("listen('" + path + "')");
  return l;
}

Listener Listener::listen_tcp(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  Listener l;
  l.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  l.port_ = ntohs(addr.sin_port);
  if (::listen(fd, 64) != 0)
    throw_errno("listen(127.0.0.1:" + std::to_string(l.port_) + ")");
  return l;
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return std::nullopt;  // signal: let caller re-check
    throw_errno("poll");
  }
  if (rc == 0) return std::nullopt;
  int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    throw_errno("accept");
  }
  return Socket(client);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

std::optional<LineReader::Line> LineReader::next() {
  constexpr std::size_t kReadChunk = 65536;
  for (;;) {
    // Drain complete frames already buffered.
    const char* data = buffer_.data();
    if (const void* nl = std::memchr(data + scan_, '\n', end_ - scan_)) {
      const auto at = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                data);
      Line line;
      if (dropping_ > 0 || at - begin_ > max_line_) {
        // Either this newline terminates a line whose prefix was already
        // discarded, or the whole oversize line landed in one read chunk
        // (a single recv can buffer line + terminator together, so the
        // cap must also be enforced on complete frames).
        line.oversize = true;
        dropping_ = 0;
      } else {
        line.text.assign(data + begin_, at - begin_);
        if (!line.text.empty() && line.text.back() == '\r')
          line.text.pop_back();
      }
      begin_ = scan_ = at + 1;
      return line;
    }
    scan_ = end_;
    if (dropping_ > 0 || end_ - begin_ > max_line_) {
      // Oversize in progress: stop accumulating, remember we owe the
      // caller one SRV002 once the terminator arrives.
      dropping_ += end_ - begin_;
      begin_ = scan_ = end_ = 0;
    }
    if (eof_) {
      if (begin_ == end_ && dropping_ == 0) return std::nullopt;
      // Peer died mid-frame: surface the fragment (the protocol layer
      // rejects it as malformed), then report EOF.
      Line line;
      line.text.assign(buffer_.data() + begin_, end_ - begin_);
      line.oversize = dropping_ > 0;
      begin_ = scan_ = end_ = 0;
      dropping_ = 0;
      return line;
    }
    // Move the unfinished frame to the front and receive behind it. Only
    // a growing buffer is zero-filled; a frame's bytes move at most once.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      scan_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < kReadChunk) buffer_.resize(end_ + kReadChunk);
    const std::size_t n =
        socket_.read_some(buffer_.data() + end_, buffer_.size() - end_);
    if (n == 0)
      eof_ = true;
    else
      end_ += n;
  }
}

}  // namespace rsnsec
