#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <optional>
#include <utility>

#include "common/env.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace orpheus::net {

namespace {

/// Consult a net.* failpoint. Fired kError becomes Unavailable — the same
/// status a real network fault produces, so injected and organic faults
/// take identical paths through the retry machinery. kAbort crashes (for
/// the crash matrix); kDelay is absorbed inside ConsumeHit.
std::optional<Status> HitNetFailpoint(const char* name) {
#if ORPHEUS_FAILPOINTS_ENABLED
  if (failpoint::AnyArmed()) {
    if (auto action = failpoint::internal::ConsumeHit(name)) {
      if (*action == failpoint::Action::kAbort) {
        failpoint::internal::CrashNow(name);
      }
      return Status::Unavailable(
          StrFormat("injected network fault at failpoint %s", name));
    }
  }
#endif
  (void)name;
  return std::nullopt;
}

Status ErrnoStatus(const char* what, int err) {
  return Status::Unavailable(StrFormat("%s: %s", what, std::strerror(err)));
}

/// poll(2) timeout for a deadline: whole milliseconds, rounded up so a
/// sub-millisecond remainder still sleeps instead of spinning.
int PollTimeoutMillis(const Deadline& deadline) {
  if (deadline.is_infinite()) return -1;
  const int64_t ns = deadline.remaining().count();
  const int64_t ms = (ns + 999999) / 1000000;
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

/// Wait for `events` on `fd` within the deadline.
Status PollFor(int fd, short events, const Deadline& deadline,
               const char* what) {
  while (true) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded(
          StrFormat("%s: deadline expired", what));
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int n = ::poll(&pfd, 1, PollTimeoutMillis(deadline));
    if (n > 0) return Status::OK();
    if (n == 0) {
      return Status::DeadlineExceeded(
          StrFormat("%s: deadline expired", what));
    }
    if (errno == EINTR) continue;
    return ErrnoStatus(what, errno);
  }
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

struct ParsedAddress {
  bool is_unix = false;
  std::string unix_path;
  std::string host;  // tcp
  int port = 0;      // tcp
};

Result<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.unix_path = address.substr(5);
    if (out.unix_path.empty()) {
      return Status::InvalidArgument("unix address needs a path");
    }
    sockaddr_un sun;
    if (out.unix_path.size() >= sizeof(sun.sun_path)) {
      return Status::InvalidArgument(StrFormat(
          "unix socket path too long (%zu bytes, max %zu): %s",
          out.unix_path.size(), sizeof(sun.sun_path) - 1,
          out.unix_path.c_str()));
    }
    return out;
  }
  if (address.rfind("tcp:", 0) == 0) {
    std::string rest = address.substr(4);
    out.host = "127.0.0.1";
    const size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      out.host = rest.substr(0, colon);
      rest = rest.substr(colon + 1);
    }
    if (out.host != "127.0.0.1" && out.host != "localhost") {
      return Status::InvalidArgument(StrFormat(
          "orpheusd is loopback-only (no authentication); refusing "
          "non-loopback host \"%s\"",
          out.host.c_str()));
    }
    out.host = "127.0.0.1";
    const std::optional<int64_t> port = ParseIntStrict(rest);
    if (!port || *port < 0 || *port > 65535) {
      return Status::InvalidArgument(
          StrFormat("bad tcp port \"%s\"", rest.c_str()));
    }
    out.port = static_cast<int>(*port);
    return out;
  }
  return Status::InvalidArgument(StrFormat(
      "address must be unix:<path> or tcp:[host:]<port>, got \"%s\"",
      address.c_str()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), peer_(other.peer_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    peer_ = other.peer_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::SendAll(std::string_view head, std::string_view body,
                       const Deadline& deadline) {
  if (fd_ < 0) return Status::Unavailable("send on closed socket");
  const bool client = peer_ == Peer::kClient;
  const size_t total = head.size() + body.size();

  // Torn-frame injection: push half the bytes for real, then fail — the
  // peer sees a frame that stops mid-payload, exactly like a crash between
  // two TCP segments.
  size_t limit = total;
  bool tear = false;
  if (auto s = HitNetFailpoint(client ? "net.client.send.partial"
                                      : "net.server.send.partial")) {
    limit = total / 2;
    tear = true;
    (void)s;
  } else if (auto fault =
                 HitNetFailpoint(client ? "net.client.send"
                                        : "net.server.send")) {
    return *fault;
  }

  size_t sent = 0;
  while (sent < limit) {
    // The unsent remainder of [head | body], cut at `limit`.
    iovec iov[2];
    int iovcnt = 0;
    size_t want = limit - sent;
    if (sent < head.size()) {
      const size_t n = std::min(head.size() - sent, want);
      iov[iovcnt++] = {const_cast<char*>(head.data() + sent), n};
      want -= n;
    }
    if (want > 0) {
      const size_t offset = sent > head.size() ? sent - head.size() : 0;
      iov[iovcnt++] = {const_cast<char*>(body.data() + offset), want};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ORPHEUS_RETURN_NOT_OK(PollFor(fd_, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoStatus("send", errno);
  }
  ORPHEUS_COUNTER_ADD("net.bytes_sent", sent);
  if (tear) {
    ShutdownBoth();  // make the tear observable to the peer immediately
    return Status::Unavailable(
        "injected network fault at failpoint net.*.send.partial "
        "(frame torn mid-payload)");
  }
  return Status::OK();
}

Status Socket::RecvAll(char* buf, size_t n, const Deadline& deadline,
                       size_t* received) {
  if (received != nullptr) *received = 0;
  if (fd_ < 0) return Status::Unavailable("recv on closed socket");
  const bool client = peer_ == Peer::kClient;
  if (auto fault = HitNetFailpoint(client ? "net.client.recv"
                                          : "net.server.recv")) {
    return *fault;
  }
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, buf + got, n - got, MSG_DONTWAIT);
    if (r > 0) {
      got += static_cast<size_t>(r);
      if (received != nullptr) *received = got;
      continue;
    }
    if (r == 0) {
      return Status::Unavailable(StrFormat(
          "connection closed by peer (%zu of %zu bytes read)", got, n));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ORPHEUS_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline, "recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("recv", errno);
  }
  ORPHEUS_COUNTER_ADD("net.bytes_recv", got);
  return Status::OK();
}

Result<Socket> Socket::Connect(const std::string& address,
                               const Deadline& deadline) {
  if (auto fault = HitNetFailpoint("net.client.connect")) return *fault;
  ORPHEUS_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));

  const int fd = ::socket(parsed.is_unix ? AF_UNIX : AF_INET,
                          SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  Socket sock(fd, Peer::kClient);
  SetNonBlocking(fd);

  int rc;
  if (parsed.is_unix) {
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, parsed.unix_path.c_str(),
                parsed.unix_path.size());
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun));
  } else {
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(parsed.port));
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  }
  if (rc < 0 && errno != EINPROGRESS && errno != EAGAIN) {
    return ErrnoStatus("connect", errno);
  }
  if (rc < 0) {
    ORPHEUS_RETURN_NOT_OK(PollFor(fd, POLLOUT, deadline, "connect"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return ErrnoStatus("connect (getsockopt)", errno);
    }
    if (err != 0) return ErrnoStatus("connect", err);
  }
  if (!parsed.is_unix) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ORPHEUS_COUNTER_ADD("net.connects", 1);
  return sock;
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      address_(std::move(other.address_)),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.unix_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    unix_path_ = std::move(other.unix_path_);
    other.fd_ = -1;
    other.unix_path_.clear();
  }
  return *this;
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    // shutdown() first so a thread parked in poll(fd_) wakes immediately.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Result<Listener> Listener::Listen(const std::string& address) {
  ORPHEUS_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));
  const int fd = ::socket(parsed.is_unix ? AF_UNIX : AF_INET,
                          SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  Listener listener;
  listener.fd_ = fd;

  int rc;
  if (parsed.is_unix) {
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, parsed.unix_path.c_str(),
                parsed.unix_path.size());
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun));
    if (rc == 0) {
      listener.unix_path_ = parsed.unix_path;
      listener.address_ = address;
    }
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(parsed.port));
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
    if (rc == 0) {
      sockaddr_in bound;
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
        return ErrnoStatus("getsockname", errno);
      }
      listener.address_ =
          StrFormat("tcp:127.0.0.1:%d", ntohs(bound.sin_port));
    }
  }
  if (rc < 0) return ErrnoStatus("bind", errno);
  if (::listen(fd, 64) < 0) return ErrnoStatus("listen", errno);
  SetNonBlocking(fd);
  return listener;
}

Result<Socket> Listener::Accept(const Deadline& deadline) {
  if (fd_ < 0) return Status::Unavailable("accept on closed listener");
  while (true) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      if (auto fault = HitNetFailpoint("net.server.accept")) {
        ::close(conn);
        return *fault;
      }
      Socket sock(conn, Socket::Peer::kServer);
      SetNonBlocking(conn);
      int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ORPHEUS_COUNTER_ADD("net.accepts", 1);
      return sock;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ORPHEUS_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline, "accept"));
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("accept", errno);
  }
}

}  // namespace orpheus::net
