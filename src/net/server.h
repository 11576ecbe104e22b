#ifndef ORPHEUS_NET_SERVER_H_
#define ORPHEUS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cvd.h"
#include "net/socket.h"
#include "net/wire.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::net {

struct ServerOptions {
  /// "unix:<path>" or "tcp:[127.0.0.1:]<port>" (port 0 = kernel-assigned;
  /// the bound endpoint is SessionServer::address()).
  std::string listen = "tcp:0";
  /// A session whose client has neither issued a request nor heartbeat
  /// for this long is expired: its staging state is released and further
  /// requests on its sid get NotFound (reopen to continue).
  int64_t lease_ms = 30000;
  /// Cap on concurrently open remote sessions across all CVDs.
  int max_sessions = 256;
  /// Retired mutating-op responses remembered per client for replay to a
  /// retrying peer, beyond what acked_seq already pruned.
  size_t dedup_window = 64;
  /// Cap on one commit's server-side durability wait when the request does
  /// not carry a tighter deadline.
  int64_t commit_deadline_ms = 10000;
  std::string server_id = "orpheusd";
};

/// The orpheusd network front end (DESIGN.md §14): serves the Session API
/// over the wire protocol to many concurrent clients.
///
/// Robustness contract:
///   - Exactly-once commits: every mutating request carries the client's
///     (client_uuid, request_seq) stamp. Finished open/commit responses
///     are kept in a per-client replay window (pruned by the client's
///     acked_seq); a retried request replays the recorded response byte
///     for byte instead of re-executing. A commit whose durability wait
///     timed out is parked (Session::CommitChangeset) and a retry
///     RESUMES the wait — the apply never runs twice.
///   - Leases: sessions expire after lease_ms without traffic; the reaper
///     (on the accept thread) releases their staging state so a dead
///     client cannot pin resources forever. Heartbeats renew.
///   - Graceful degradation: when the repository is degraded (WAL append
///     failure) or a manager is poisoned, commits are refused with a
///     distinct retryable=false status; checkouts, diffs and ls keep
///     working — snapshot reads never depend on the WAL.
///
/// Threading: one DedicatedThread accepts, reaps leases and joins the
/// handlers of ended connections; one per live connection runs the
/// request loop. The registry lock (rank kNetServer, below every
/// session/storage rank) is never held across a session operation — a
/// per-session busy flag serializes requests on the same sid while
/// letting other sessions proceed.
class SessionServer {
 public:
  /// Take ownership of `cvds` (each gets a SessionManager routing commits
  /// into `repo`, which may be null for an in-memory server) and start
  /// listening. The repository must outlive the server.
  static Result<std::unique_ptr<SessionServer>> Start(
      storage::Repository* repo,
      std::vector<std::unique_ptr<core::Cvd>> cvds,
      const ServerOptions& options);

  ~SessionServer();
  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Stop accepting, disconnect every client, join all threads, release
  /// all sessions. Idempotent.
  void Stop();

  /// Hand the CVDs back (after Stop). The server is empty afterwards.
  std::vector<std::unique_ptr<core::Cvd>> ReleaseCvds();

  /// The bound endpoint, e.g. "tcp:127.0.0.1:45123".
  const std::string& address() const { return address_; }

  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t commits = 0;
    uint64_t commits_replayed = 0;  // dedup-window hits
    uint64_t commits_resumed = 0;   // parked durability waits resumed
    uint64_t leases_expired = 0;
    uint64_t sessions_open = 0;
  };
  Stats stats() const;

  /// Test hook: the manager serving `cvd`, or null.
  session::SessionManager* manager(const std::string& cvd) const;

 private:
  SessionServer(storage::Repository* repo, ServerOptions options);

  struct RemoteSession {
    uint64_t sid = 0;
    std::string cvd;
    std::string client_uuid;
    std::unique_ptr<session::Session> session;
    int64_t lease_deadline_ms = 0;
    bool busy = false;
    // Staging table -> request_seq of the commit whose durability wait is
    // parked in the Session (a retry with the same seq resumes it).
    std::map<std::string, uint64_t> pending_commit_seqs;
  };

  /// Per-client replay window for mutating ops (open/commit).
  struct ClientWindow {
    std::map<uint64_t, std::string> done;  // request_seq -> encoded Response
    int64_t last_active_ms = 0;
  };

  void AcceptLoop();
  /// Join the handlers whose connection has ended (on the accept thread),
  /// so a finished handler's thread and stack do not outlive it.
  void JoinFinishedHandlers() ORPHEUS_EXCLUDES(mu_);
  void HandleConnection(std::shared_ptr<Socket> sock, uint64_t conn_id);
  /// Run one request; returns the encoded Response to send.
  std::string Dispatch(const std::string& client_uuid, Request req);

  Response HandleOpen(const std::string& client_uuid, const Request& req);
  /// Returns the encoded reply: an OK one is gathered from the version's
  /// rows under the session layer's reader lock (no staged copy).
  std::string HandleCheckout(RemoteSession* rs, const Request& req);
  Response HandleCommit(RemoteSession* rs, const Request& req);
  Response HandleRefresh(RemoteSession* rs, const Request& req);
  Response HandleLs(const Request& req);
  Response HandleClose(const Request& req, const std::string& client_uuid);
  Response HandleHeartbeat(RemoteSession* rs, const Request& req);

  /// Claim exclusive use of a session for one request (sets busy, renews
  /// the lease). Retryable "busy" if another request is mid-flight on it;
  /// definitive NotFound if the sid is unknown (e.g. lease expired).
  Result<RemoteSession*> ClaimSession(uint64_t sid,
                                      const std::string& client_uuid)
      ORPHEUS_EXCLUDES(mu_);
  void ReleaseSession(RemoteSession* rs) ORPHEUS_EXCLUDES(mu_);

  /// Replay-window lookup / record (mutating ops only).
  bool LookupDone(const std::string& client_uuid, uint64_t seq,
                  uint64_t acked_seq, std::string* encoded)
      ORPHEUS_EXCLUDES(mu_);
  void RecordDone(const std::string& client_uuid, uint64_t seq,
                  std::string encoded) ORPHEUS_EXCLUDES(mu_);

  void ReapExpiredLeases() ORPHEUS_EXCLUDES(mu_);

  int64_t NowMs() const {
    return static_cast<int64_t>(uptime_.ElapsedMillis());
  }

  /// Commits refused? (repo degraded or this CVD's manager poisoned.)
  bool CommitsRefused(const session::SessionManager& mgr) const;

  storage::Repository* const repo_;  // nullable, not owned
  const ServerOptions options_;
  std::string address_;
  Timer uptime_;

  // CVD name -> its manager. Built at Start, torn down at ReleaseCvds;
  // immutable in between, so handlers read it without mu_.
  std::map<std::string, std::unique_ptr<session::SessionManager>> managers_;

  Listener listener_;
  std::atomic<bool> stop_{false};

  // Registry lock: sessions, replay windows, live connections, counters.
  // Rank kNetServer (1) sits below every session/storage rank; handlers
  // release it before touching a Session.
  mutable Mutex mu_{"net.server", lock_rank::kNetServer};
  std::map<uint64_t, std::unique_ptr<RemoteSession>> sessions_
      ORPHEUS_GUARDED_BY(mu_);
  std::map<std::string, ClientWindow> windows_ ORPHEUS_GUARDED_BY(mu_);
  std::map<uint64_t, std::shared_ptr<Socket>> conns_ ORPHEUS_GUARDED_BY(mu_);
  uint64_t next_sid_ ORPHEUS_GUARDED_BY(mu_) = 1;
  uint64_t next_conn_id_ ORPHEUS_GUARDED_BY(mu_) = 1;
  Stats stats_ ORPHEUS_GUARDED_BY(mu_);

  DedicatedThread accept_thread_;
  // Connection id -> its handler, until the accept thread joins it once
  // the id has left conns_.
  std::map<uint64_t, DedicatedThread> handler_threads_ ORPHEUS_GUARDED_BY(mu_);
};

}  // namespace orpheus::net

#endif  // ORPHEUS_NET_SERVER_H_
