#include "src/net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>

namespace thor::net {

void IgnoreSigPipe() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

const char* IoStatusName(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kWouldBlock:
      return "would-block";
    case IoStatus::kClosed:
      return "closed";
    case IoStatus::kError:
      return "error";
  }
  return "unknown";
}

IoResult ReadSome(int fd, char* buf, size_t len) {
  IoResult result;
  for (;;) {
    ssize_t n = ::read(fd, buf, len);
    if (n > 0) {
      result.status = IoStatus::kOk;
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (n == 0) {
      result.status = IoStatus::kClosed;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.status = IoStatus::kWouldBlock;
      return result;
    }
    if (errno == ECONNRESET) {
      result.status = IoStatus::kClosed;
      result.err = errno;
      return result;
    }
    result.status = IoStatus::kError;
    result.err = errno;
    return result;
  }
}

IoResult WriteSome(int fd, const char* buf, size_t len) {
  IoResult result;
  for (;;) {
    ssize_t n = ::write(fd, buf, len);
    if (n >= 0) {
      result.status = IoStatus::kOk;
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.status = IoStatus::kWouldBlock;
      return result;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      // The typed connection-closed outcome: a client that hung up between
      // request and response. With SIGPIPE ignored this is a value, not a
      // signal, and callers drop the connection without ceremony.
      result.status = IoStatus::kClosed;
      result.err = errno;
      return result;
    }
    result.status = IoStatus::kError;
    result.err = errno;
    return result;
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl O_NONBLOCK: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<Socket> ListenTcp(uint16_t port, int backlog) {
  IgnoreSigPipe();
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(socket.fd(), backlog) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  THOR_RETURN_IF_ERROR(SetNonBlocking(socket.fd()));
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  const std::string text = std::to_string(port) + "\n";
  // Names the failed step with the OS error, then drops the tmp file.
  auto fail = [&tmp](const std::string& step) {
    Status status = Status::Internal(step + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  };
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail("cannot create " + tmp);
  ssize_t written = ::write(fd, text.data(), text.size());
  if (written != static_cast<ssize_t>(text.size())) {
    if (written >= 0) errno = EIO;  // a short write sets no errno
    Status status = fail("cannot write " + tmp);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) return fail("cannot close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status WaitReady(int fd, bool for_write, const Deadline& deadline) {
  for (;;) {
    THOR_RETURN_IF_ERROR(deadline.Check("socket wait"));
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = static_cast<short>(for_write ? POLLOUT : POLLIN);
    pfd.revents = 0;
    int timeout_ms = -1;
    if (deadline.active()) {
      double remaining = deadline.RemainingMs();
      // Cap the poll slice so stop-token cancellation is noticed even when
      // the deadline clock is simulated (RemainingMs then never shrinks
      // with wall time).
      timeout_ms = static_cast<int>(std::clamp(remaining, 0.0, 50.0)) + 1;
    }
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return Status::OK();
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
  }
}

namespace {

/// One non-blocking connect attempt to an already-resolved address.
Result<Socket> ConnectResolved(const sockaddr* addr, socklen_t addr_len,
                               int family, const Deadline& deadline) {
  Socket socket(::socket(family, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  THOR_RETURN_IF_ERROR(SetNonBlocking(socket.fd()));
  int rc = ::connect(socket.fd(), addr, addr_len);
  if (rc < 0 && errno != EINPROGRESS) {
    return Status::NotFound(std::string("connect: ") + std::strerror(errno));
  }
  if (rc < 0) {
    THOR_RETURN_IF_ERROR(WaitReady(socket.fd(), /*for_write=*/true, deadline));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      return Status::NotFound(std::string("connect: ") +
                              std::strerror(err != 0 ? err : errno));
    }
  }
  SetNoDelay(socket.fd());
  return socket;
}

}  // namespace

Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          const Deadline& deadline) {
  IgnoreSigPipe();
  // Fast path: an IPv4 or IPv6 literal needs no resolver round trip.
  sockaddr_in addr4;
  std::memset(&addr4, 0, sizeof(addr4));
  addr4.sin_family = AF_INET;
  addr4.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr4.sin_addr) == 1) {
    return ConnectResolved(reinterpret_cast<sockaddr*>(&addr4),
                           sizeof(addr4), AF_INET, deadline);
  }
  sockaddr_in6 addr6;
  std::memset(&addr6, 0, sizeof(addr6));
  addr6.sin6_family = AF_INET6;
  addr6.sin6_port = htons(port);
  if (::inet_pton(AF_INET6, host.c_str(), &addr6.sin6_addr) == 1) {
    return ConnectResolved(reinterpret_cast<sockaddr*>(&addr6),
                           sizeof(addr6), AF_INET6, deadline);
  }
  // Hostname: resolve with getaddrinfo and walk the results in resolver
  // order, attempting each until one connects. The deadline covers the
  // whole iteration — every attempt re-checks it — so a host with many
  // unreachable addresses cannot stall the caller past its budget.
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  addrinfo* results = nullptr;
  int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &results);
  if (rc != 0) {
    return Status::NotFound("resolve " + host + ": " + gai_strerror(rc));
  }
  Status last = Status::NotFound("resolve " + host + ": no usable address");
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    Status expired = deadline.Check("connect " + host);
    if (!expired.ok()) {
      last = expired;
      break;
    }
    if (ai->ai_family == AF_INET) {
      auto* sin = reinterpret_cast<sockaddr_in*>(ai->ai_addr);
      sin->sin_port = htons(port);
    } else if (ai->ai_family == AF_INET6) {
      auto* sin6 = reinterpret_cast<sockaddr_in6*>(ai->ai_addr);
      sin6->sin6_port = htons(port);
    } else {
      continue;
    }
    auto attempt =
        ConnectResolved(ai->ai_addr, static_cast<socklen_t>(ai->ai_addrlen),
                        ai->ai_family, deadline);
    if (attempt.ok()) {
      ::freeaddrinfo(results);
      return attempt;
    }
    last = attempt.status();
  }
  ::freeaddrinfo(results);
  return last;
}

}  // namespace thor::net
