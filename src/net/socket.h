#ifndef ORPHEUS_NET_SOCKET_H_
#define ORPHEUS_NET_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"

namespace orpheus::net {

/// Deadline-aware RAII socket (DESIGN.md §14.2). All I/O is non-blocking
/// under the hood and waits via poll(2) bounded by the caller's Deadline,
/// so no network call can hang past its budget. Error taxonomy:
///   - Unavailable: the connection failed (reset, EOF, refused) — the
///     transport is dead; a RETRY over a fresh connection may succeed.
///   - DeadlineExceeded: the budget ran out — the transport may be fine,
///     but the caller's time is up.
///
/// Fault injection: every path consults role-scoped `net.*` failpoints
/// (net.client.connect, net.server.accept, net.{client,server}.send,
/// net.{client,server}.send.partial, net.{client,server}.recv). An armed
/// kError fires as Unavailable — indistinguishable from a real network
/// fault, which is the point; kAbort crashes for the crash matrix; delay
/// specs (`:<n>ms`) stall the path without failing it.
class Socket {
 public:
  /// Which end of the connection this is; selects the failpoint namespace.
  enum class Peer { kClient, kServer };

  Socket() = default;
  Socket(int fd, Peer peer) : fd_(fd), peer_(peer) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  Peer peer() const { return peer_; }

  void Close();

  /// Shut down both directions without closing the fd — wakes a thread
  /// blocked in poll() on this socket (its next recv sees EOF). Safe to
  /// call from another thread while the owner is mid-I/O; the owner still
  /// Closes.
  void ShutdownBoth();

  /// Write all of `head` then all of `body` with gather writes (neither is
  /// copied), waiting (bounded by `deadline`) whenever the kernel buffer is
  /// full.
  Status SendAll(std::string_view head, std::string_view body,
                 const Deadline& deadline);

  /// Read exactly `n` bytes into `buf`. EOF or reset mid-read is
  /// Unavailable. `*received` (optional) reports bytes consumed so far on
  /// failure — 0 means the stream is still frame-aligned.
  Status RecvAll(char* buf, size_t n, const Deadline& deadline,
                 size_t* received = nullptr);

  /// Connect to `address` — "unix:<path>" or "tcp:<port>" /
  /// "tcp:<host>:<port>" (loopback only) — within the deadline.
  static Result<Socket> Connect(const std::string& address,
                                const Deadline& deadline);

 private:
  int fd_ = -1;
  Peer peer_ = Peer::kClient;
};

/// Listening endpoint. "unix:<path>" binds a Unix-domain socket (the path
/// is unlinked on Close); "tcp:<port>" binds 127.0.0.1 only — orpheusd has
/// no authentication, so it never listens on a routable interface. Port 0
/// lets the kernel pick; address() reports the resolved endpoint.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  static Result<Listener> Listen(const std::string& address);

  /// Accept one connection (a Peer::kServer socket), waiting at most until
  /// `deadline` (DeadlineExceeded makes a fine poll tick). After Close()
  /// (from any thread) returns Unavailable.
  Result<Socket> Accept(const Deadline& deadline);

  bool valid() const { return fd_ >= 0; }
  const std::string& address() const { return address_; }

  /// Wake a thread parked in Accept (it returns an error) without
  /// releasing the fd, so it is safe to call while that thread runs.
  /// Close() once the accepting thread has been joined.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  std::string address_;    // resolved ("tcp:127.0.0.1:<port>" / "unix:<path>")
  std::string unix_path_;  // non-empty for unix sockets; unlinked on Close
};

}  // namespace orpheus::net

#endif  // ORPHEUS_NET_SOCKET_H_
