#include "net/server.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace orpheus::net {

namespace {

/// A connection-drop failpoint: fired = close the connection right here
/// (kAbort crashes instead, for the crash matrix). Unlike the socket
/// sites these return no status — the server just hangs up, which is
/// exactly what a killed process or yanked cable looks like to the peer.
bool FireConnDrop(const char* name) {
#if ORPHEUS_FAILPOINTS_ENABLED
  if (failpoint::AnyArmed()) {
    if (auto action = failpoint::internal::ConsumeHit(name)) {
      if (*action == failpoint::Action::kAbort) {
        failpoint::internal::CrashNow(name);
      }
      return true;
    }
  }
#endif
  (void)name;
  return false;
}

}  // namespace

SessionServer::SessionServer(storage::Repository* repo, ServerOptions options)
    : repo_(repo), options_(std::move(options)) {}

Result<std::unique_ptr<SessionServer>> SessionServer::Start(
    storage::Repository* repo, std::vector<std::unique_ptr<core::Cvd>> cvds,
    const ServerOptions& options) {
  std::unique_ptr<SessionServer> server(new SessionServer(repo, options));
  for (std::unique_ptr<core::Cvd>& cvd : cvds) {
    std::string name = cvd->name();
    server->managers_.emplace(
        std::move(name),
        std::make_unique<session::SessionManager>(std::move(cvd), repo));
  }
  ORPHEUS_ASSIGN_OR_RETURN(server->listener_,
                           Listener::Listen(options.listen));
  server->address_ = server->listener_.address();
  LOG_INFO("orpheusd serving",
           {{"cvds", server->managers_.size()},
            {"address", server->address_}});
  SessionServer* raw = server.get();
  server->accept_thread_ =
      DedicatedThread("net.accept", [raw] { raw->AcceptLoop(); });
  return server;
}

SessionServer::~SessionServer() { Stop(); }

void SessionServer::Stop() {
  if (stop_.exchange(true)) return;
  // Wake the accept thread without releasing the fd it is polling; the
  // listener is closed only once that thread is gone.
  listener_.Shutdown();
  accept_thread_.Join();
  listener_.Close();
  // Nudge every live connection so handlers parked in poll() wake now
  // instead of at their next 250ms idle tick. Under mu_, so no handler
  // can close its socket meanwhile (handlers leave conns_ before Close).
  std::map<uint64_t, DedicatedThread> handlers;
  {
    MutexLock lock(&mu_);
    for (auto& entry : conns_) entry.second->ShutdownBoth();
    handlers.swap(handler_threads_);
  }
  for (auto& entry : handlers) entry.second.Join();
  MutexLock lock(&mu_);
  sessions_.clear();
  conns_.clear();
  windows_.clear();
}

std::vector<std::unique_ptr<core::Cvd>> SessionServer::ReleaseCvds() {
  Stop();
  std::vector<std::unique_ptr<core::Cvd>> out;
  out.reserve(managers_.size());
  for (auto& entry : managers_) out.push_back(entry.second->Release());
  managers_.clear();
  return out;
}

SessionServer::Stats SessionServer::stats() const {
  MutexLock lock(&mu_);
  Stats out = stats_;
  out.sessions_open = sessions_.size();
  return out;
}

session::SessionManager* SessionServer::manager(
    const std::string& cvd) const {
  auto it = managers_.find(cvd);
  return it == managers_.end() ? nullptr : it->second.get();
}

bool SessionServer::CommitsRefused(
    const session::SessionManager& mgr) const {
  return (repo_ != nullptr && repo_->degraded()) || mgr.failed();
}

// ---------------------------------------------------------------------------
// Accept loop + lease reaper
// ---------------------------------------------------------------------------

void SessionServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener_.Accept(Deadline::AfterMillis(100));
    ReapExpiredLeases();
    JoinFinishedHandlers();
    if (stop_.load(std::memory_order_acquire)) break;
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) continue;
      // Injected accept fault: drop this connection attempt and keep
      // serving. A dead listener ends the loop.
      if (!listener_.valid()) break;
      LOG_WARN("net.server accept failed",
               {{"error", accepted.status().ToString()}});
      continue;
    }
    auto sock = std::make_shared<Socket>(accepted.MoveValueOrDie());
    MutexLock lock(&mu_);
    const uint64_t conn_id = next_conn_id_++;
    conns_[conn_id] = sock;
    ++stats_.connections;
    ORPHEUS_COUNTER_ADD("net.server.connections", 1);
    handler_threads_.emplace(
        conn_id, DedicatedThread("net.conn", [this, sock, conn_id] {
          HandleConnection(sock, conn_id);
        }));
  }
}

void SessionServer::JoinFinishedHandlers() {
  std::vector<DedicatedThread> finished;
  {
    MutexLock lock(&mu_);
    for (auto it = handler_threads_.begin(); it != handler_threads_.end();) {
      if (conns_.count(it->first) != 0) {
        ++it;
        continue;
      }
      finished.push_back(std::move(it->second));
      it = handler_threads_.erase(it);
    }
  }
  // A handler leaves conns_ in its last critical section, so each join
  // waits at most for it to close its socket and return.
  for (DedicatedThread& t : finished) t.Join();
}

void SessionServer::ReapExpiredLeases() {
  MutexLock lock(&mu_);
  const int64_t now = NowMs();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    RemoteSession* rs = it->second.get();
    if (!rs->busy && rs->lease_deadline_ms < now) {
      LOG_WARN("net.server lease expired; releasing session staging state",
               {{"sid", static_cast<unsigned long long>(rs->sid)},
                {"cvd", rs->cvd},
                {"client", rs->client_uuid}});
      ++stats_.leases_expired;
      ORPHEUS_COUNTER_ADD("net.server.leases_expired", 1);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  // Replay windows of clients with no sessions idle for several lease
  // periods are garbage: the client is gone for good.
  for (auto it = windows_.begin(); it != windows_.end();) {
    const bool stale =
        it->second.last_active_ms + 4 * options_.lease_ms < now;
    bool has_session = false;
    if (stale) {
      for (const auto& entry : sessions_) {
        if (entry.second->client_uuid == it->first) {
          has_session = true;
          break;
        }
      }
    }
    if (stale && !has_session) {
      it = windows_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

void SessionServer::HandleConnection(std::shared_ptr<Socket> sock,
                                     uint64_t conn_id) {
  MsgType type;
  std::string payload;
  std::string client_uuid;
  bool handshook = false;

  // Handshake: Hello -> HelloAck. A peer speaking the wrong protocol (or
  // version) gets a descriptive ack and a closed connection — never a
  // half-understood session.
  Status s = RecvMessage(sock.get(), &type, &payload,
                         Deadline::AfterMillis(options_.lease_ms));
  if (s.ok() && type == MsgType::kHello) {
    HelloAck ack;
    ack.server_id = options_.server_id;
    ack.degraded = repo_ != nullptr && repo_->degraded();
    Result<Hello> hello = DecodeHello(payload);
    if (!hello.ok()) {
      ack.code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      ack.message = std::string(hello.status().message());
    } else if (hello.ValueOrDie().magic != kNetMagic) {
      ack.code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      ack.message = "bad magic: peer is not an orpheus client";
    } else if (hello.ValueOrDie().protocol_version != kProtocolVersion) {
      ack.code = static_cast<uint8_t>(StatusCode::kNotSupported);
      ack.message = StrFormat(
          "protocol version mismatch: client speaks v%u, server v%u",
          hello.ValueOrDie().protocol_version, kProtocolVersion);
    } else if (hello.ValueOrDie().client_uuid.empty()) {
      ack.code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      ack.message = "client_uuid must be non-empty (idempotency identity)";
    } else {
      client_uuid = hello.ValueOrDie().client_uuid;
    }
    Status sent = SendMessage(sock.get(), MsgType::kHelloAck,
                              EncodeHelloAck(ack),
                              Deadline::AfterMillis(5000));
    handshook = sent.ok() && ack.code == 0;
    if (ack.code != 0) {
      LOG_WARN("net.server refused connection", {{"reason", ack.message}});
      ORPHEUS_COUNTER_ADD("net.server.handshake_refused", 1);
    }
  }

  while (handshook && !stop_.load(std::memory_order_acquire)) {
    // Short idle deadline = the tick at which we notice Stop(). An idle
    // timeout leaves the stream aligned; anything else is fatal to the
    // connection (the client reconnects and retries).
    s = RecvMessage(sock.get(), &type, &payload, Deadline::AfterMillis(250));
    if (s.IsDeadlineExceeded()) continue;
    if (!s.ok()) break;
    if (type != MsgType::kRequest) break;
    Result<Request> req = DecodeRequest(payload);
    if (!req.ok()) break;
    if (FireConnDrop("net.server.drop_after_read")) break;
    std::string encoded =
        Dispatch(client_uuid, req.MoveValueOrDie());
    if (FireConnDrop("net.server.drop_before_send")) break;
    Status sent;
    {
      ORPHEUS_TRACE_SPAN("net.server.send");
      sent = SendMessage(sock.get(), MsgType::kResponse, encoded,
                         Deadline::AfterMillis(10000));
    }
    if (!sent.ok()) break;
  }

  {
    MutexLock lock(&mu_);
    conns_.erase(conn_id);
  }
  sock->Close();
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

std::string SessionServer::Dispatch(const std::string& client_uuid,
                                    Request req) {
  {
    MutexLock lock(&mu_);
    ++stats_.requests;
  }
  ORPHEUS_COUNTER_ADD("net.server.requests", 1);
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;

  switch (req.op) {
    case Op::kOpen: {
      // Open is mutating (it allocates a sid): a retried open must get
      // the ORIGINAL sid back, not leak a second session.
      std::string replay;
      if (LookupDone(client_uuid, req.request_seq, req.acked_seq, &replay)) {
        return replay;
      }
      resp = HandleOpen(client_uuid, req);
      std::string encoded = EncodeResponse(resp);
      if (resp.ok()) RecordDone(client_uuid, req.request_seq, encoded);
      return encoded;
    }
    case Op::kLs:
      return EncodeResponse(HandleLs(req));
    case Op::kClose:
      return EncodeResponse(HandleClose(req, client_uuid));
    default:
      break;
  }

  Result<RemoteSession*> claimed = ClaimSession(req.sid, client_uuid);
  if (!claimed.ok()) {
    resp.SetStatus(claimed.status(), claimed.status().IsUnavailable());
    return EncodeResponse(resp);
  }
  RemoteSession* rs = claimed.ValueOrDie();

  if (req.op == Op::kCommit) {
    std::string replay;
    if (LookupDone(client_uuid, req.request_seq, req.acked_seq, &replay)) {
      ReleaseSession(rs);
      return replay;
    }
  }

  if (req.op == Op::kCheckout) {
    std::string encoded = HandleCheckout(rs, req);
    ReleaseSession(rs);
    return encoded;
  }
  switch (req.op) {
    case Op::kCommit:
      resp = HandleCommit(rs, req);
      break;
    case Op::kRefresh:
      resp = HandleRefresh(rs, req);
      break;
    case Op::kHeartbeat:
      resp = HandleHeartbeat(rs, req);
      break;
    default:
      resp.SetStatus(
          Status::InvalidArgument(StrFormat("op %u needs no session",
                                            static_cast<unsigned>(req.op))),
          false);
      break;
  }
  std::string encoded = EncodeResponse(resp);
  ReleaseSession(rs);
  // A commit's FINAL verdict (success or definitive error) enters the
  // replay window; a durability timeout does not — the retry must resume
  // the parked wait, not replay the "try again" answer forever.
  if (req.op == Op::kCommit &&
      resp.code != static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    RecordDone(client_uuid, req.request_seq, encoded);
  }
  return encoded;
}

Result<SessionServer::RemoteSession*> SessionServer::ClaimSession(
    uint64_t sid, const std::string& client_uuid) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Status::NotFound(StrFormat(
        "no session %llu on this server (closed, or its lease expired) — "
        "open a new session",
        static_cast<unsigned long long>(sid)));
  }
  RemoteSession* rs = it->second.get();
  if (rs->client_uuid != client_uuid) {
    return Status::InvalidArgument(StrFormat(
        "session %llu belongs to another client",
        static_cast<unsigned long long>(sid)));
  }
  if (rs->busy) {
    return Status::Unavailable(StrFormat(
        "session %llu is serving another request; retry",
        static_cast<unsigned long long>(sid)));
  }
  rs->busy = true;
  rs->lease_deadline_ms = NowMs() + options_.lease_ms;
  return rs;
}

void SessionServer::ReleaseSession(RemoteSession* rs) {
  MutexLock lock(&mu_);
  rs->busy = false;
  rs->lease_deadline_ms = NowMs() + options_.lease_ms;
}

bool SessionServer::LookupDone(const std::string& client_uuid, uint64_t seq,
                               uint64_t acked_seq, std::string* encoded) {
  MutexLock lock(&mu_);
  ClientWindow& win = windows_[client_uuid];
  win.last_active_ms = NowMs();
  while (!win.done.empty() && win.done.begin()->first <= acked_seq) {
    win.done.erase(win.done.begin());
  }
  auto it = win.done.find(seq);
  if (it == win.done.end()) return false;
  *encoded = it->second;
  ++stats_.commits_replayed;
  ORPHEUS_COUNTER_ADD("net.server.replayed_responses", 1);
  return true;
}

void SessionServer::RecordDone(const std::string& client_uuid, uint64_t seq,
                               std::string encoded) {
  MutexLock lock(&mu_);
  ClientWindow& win = windows_[client_uuid];
  win.last_active_ms = NowMs();
  win.done[seq] = std::move(encoded);
  while (win.done.size() > options_.dedup_window) {
    win.done.erase(win.done.begin());
  }
}

// ---------------------------------------------------------------------------
// Op handlers
// ---------------------------------------------------------------------------

Response SessionServer::HandleOpen(const std::string& client_uuid,
                                   const Request& req) {
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  auto it = managers_.find(req.cvd);
  if (it == managers_.end()) {
    resp.SetStatus(
        Status::NotFound(StrFormat("no CVD \"%s\" on this server",
                                   req.cvd.c_str())),
        false);
    return resp;
  }
  MutexLock lock(&mu_);
  if (sessions_.size() >= static_cast<size_t>(options_.max_sessions)) {
    resp.SetStatus(
        Status::Unavailable(StrFormat(
            "session limit reached (%d); retry after sessions close",
            options_.max_sessions)),
        true);
    return resp;
  }
  auto rs = std::make_unique<RemoteSession>();
  rs->sid = next_sid_++;
  rs->cvd = req.cvd;
  rs->client_uuid = client_uuid;
  rs->session = it->second->Open();
  rs->lease_deadline_ms = NowMs() + options_.lease_ms;
  resp.sid = rs->sid;
  resp.watermark = rs->session->watermark();
  sessions_[rs->sid] = std::move(rs);
  return resp;
}

std::string SessionServer::HandleCheckout(RemoteSession* rs,
                                          const Request& req) {
  ORPHEUS_TRACE_SPAN("net.server.checkout");
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  // The reply is gathered from the shared tables while the session layer
  // holds its reader lock; the session keeps only the checkout's parents,
  // schema and rids, against which the client's commit ships a changeset.
  // A retry after a lost response replaces the checkout it already made.
  std::string encoded;
  Status s = rs->session->CheckoutSelection(
      req.vids, req.table_name, [&](const core::RowSelection& sel) {
        ORPHEUS_TRACE_SPAN("encode");
        encoded = EncodeCheckoutResponse(resp, sel, req.table_name);
      });
  if (!s.ok()) {
    resp.SetStatus(s, false);
    return EncodeResponse(resp);
  }
  return encoded;
}

Response SessionServer::HandleCommit(RemoteSession* rs,
                                     const Request& req) {
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  session::SessionManager& mgr = *managers_.at(rs->cvd);
  if (CommitsRefused(mgr)) {
    // Graceful degradation: a distinct, deliberately NON-retryable verdict
    // — the repository needs operator attention (reopen), so hammering it
    // with retries is pointless. Checkouts keep working.
    resp.code = static_cast<uint8_t>(StatusCode::kUnavailable);
    resp.retryable = false;
    resp.message = StrFormat(
        "repository degraded: commits on \"%s\" refused (read-only "
        "checkouts still served); reopen the repository to recover",
        rs->cvd.c_str());
    ORPHEUS_COUNTER_ADD("net.server.commits_refused_degraded", 1);
    return resp;
  }

  if (req.table == nullptr) {
    resp.SetStatus(
        Status::InvalidArgument("commit request carries no changeset"),
        false);
    return resp;
  }
  session::Session* session = rs->session.get();
  const std::string& table_name = req.table_name;
  bool resumed = false;
  if (session->HasPendingCommit(table_name)) {
    auto pending = rs->pending_commit_seqs.find(table_name);
    if (pending == rs->pending_commit_seqs.end() ||
        pending->second != req.request_seq) {
      resp.SetStatus(
          Status::Internal(StrFormat(
              "a different commit on \"%s\" is awaiting durability; "
              "resolve it first",
              table_name.c_str())),
          false);
      return resp;
    }
    resumed = true;  // retry of the timed-out commit: resume the wait
  }

  const int64_t budget =
      req.deadline_ms > 0
          ? std::min(req.deadline_ms, options_.commit_deadline_ms)
          : options_.commit_deadline_ms;
  session::CommitOutcome outcome;
  // A resumed commit ignores the re-sent changeset (it is the same one).
  Status s = session->CommitChangeset(
      table_name, *req.table, req.deleted, req.message, req.author,
      Deadline::AfterMillis(budget), &outcome);
  if (s.IsDeadlineExceeded()) {
    rs->pending_commit_seqs[table_name] = req.request_seq;
    resp.SetStatus(s, /*transient=*/true);
    ORPHEUS_COUNTER_ADD("net.server.commit_durability_timeouts", 1);
    return resp;
  }
  rs->pending_commit_seqs.erase(table_name);
  if (!s.ok()) {
    resp.SetStatus(s, s.IsUnavailable());
    return resp;
  }
  resp.outcome = std::move(outcome);
  {
    MutexLock lock(&mu_);
    ++stats_.commits;
    if (resumed) ++stats_.commits_resumed;
  }
  ORPHEUS_COUNTER_ADD("net.server.commits", 1);
  return resp;
}

Response SessionServer::HandleRefresh(RemoteSession* rs,
                                      const Request& req) {
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  Status s = rs->session->Refresh();
  if (!s.ok()) {
    resp.SetStatus(s, false);
    return resp;
  }
  resp.watermark = rs->session->watermark();
  return resp;
}

Response SessionServer::HandleLs(const Request& req) {
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  for (const auto& entry : managers_) {
    CvdSummary summary;
    summary.name = entry.first;
    summary.watermark = entry.second->watermark();
    summary.failed = CommitsRefused(*entry.second);
    Status s = entry.second->ReadCvd([&summary](const core::Cvd& cvd) {
      summary.num_versions = cvd.num_versions();
      return Status::OK();
    });
    if (!s.ok()) {
      // A poisoned manager still lists (that IS the signal); only report
      // what we could read.
      summary.num_versions = -1;
    }
    {
      MutexLock lock(&mu_);
      for (const auto& sess : sessions_) {
        if (sess.second->cvd == entry.first) ++summary.open_sessions;
      }
    }
    resp.cvds.push_back(std::move(summary));
  }
  return resp;
}

Response SessionServer::HandleClose(const Request& req,
                                    const std::string& client_uuid) {
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  MutexLock lock(&mu_);
  auto it = sessions_.find(req.sid);
  if (it == sessions_.end()) return resp;  // idempotent: already gone
  if (it->second->client_uuid != client_uuid) {
    resp.SetStatus(
        Status::InvalidArgument(StrFormat(
            "session %llu belongs to another client",
            static_cast<unsigned long long>(req.sid))),
        false);
    return resp;
  }
  if (it->second->busy) {
    resp.SetStatus(
        Status::Unavailable(StrFormat(
            "session %llu is serving another request; retry close",
            static_cast<unsigned long long>(req.sid))),
        true);
    return resp;
  }
  sessions_.erase(it);
  return resp;
}

Response SessionServer::HandleHeartbeat(RemoteSession* rs,
                                        const Request& req) {
  // Claim/release already renewed the lease; just confirm the term.
  Response resp;
  resp.request_seq = req.request_seq;
  resp.op = req.op;
  resp.lease_ms = options_.lease_ms;
  (void)rs;
  return resp;
}

}  // namespace orpheus::net
