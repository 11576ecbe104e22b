#include "net/client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace orpheus::net {

namespace {

/// Process-unique idempotency identity: pid + a process-global counter
/// (+ wall-clock ns so pid reuse across reboots stays unique). NOT a
/// cryptographic id — orpheusd is loopback-only.
std::string DeriveClientUuid() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const long long now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  return StrFormat("c%d-%llu-%llx", static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(n),
                   static_cast<unsigned long long>(now_ns));
}

uint64_t HashSeed(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

}  // namespace

Client::Client(std::string address, ClientOptions options)
    : address_(std::move(address)),
      options_(std::move(options)),
      rng_(options_.jitter_seed != 0 ? options_.jitter_seed
                                     : HashSeed(options_.client_uuid)) {}

Result<std::unique_ptr<Client>> Client::Connect(
    const std::string& address, const ClientOptions& options) {
  ClientOptions opts = options;
  if (opts.client_uuid.empty()) opts.client_uuid = DeriveClientUuid();
  std::unique_ptr<Client> client(new Client(address, std::move(opts)));
  // Eager handshake so a wrong address or protocol mismatch fails at
  // Connect, not at the first call. Transient faults get the same
  // backoff-retry treatment as calls; definitive refusals (version
  // mismatch -> NotSupported) fail immediately.
  const Deadline deadline =
      Deadline::AfterMillis(client->options_.call_deadline_ms);
  Status s = client->EnsureConnected(deadline);
  for (int attempt = 1;
       !s.ok() && s.IsUnavailable() && attempt < client->options_.max_attempts;
       ++attempt) {
    client->BackoffBeforeRetry(attempt, deadline);
    if (deadline.expired()) break;
    s = client->EnsureConnected(deadline);
  }
  ORPHEUS_RETURN_NOT_OK(s);
  return client;
}

Status Client::EnsureConnected(const Deadline& deadline) {
  if (connected_) return Status::OK();
  ORPHEUS_ASSIGN_OR_RETURN(sock_, Socket::Connect(address_, deadline));
  ++stats_.reconnects;
  Hello hello;
  hello.magic = kNetMagic;
  hello.protocol_version = kProtocolVersion;
  hello.client_uuid = options_.client_uuid;
  ORPHEUS_RETURN_NOT_OK(SendMessage(&sock_, MsgType::kHello,
                                    EncodeHello(hello), deadline));
  MsgType type;
  std::string payload;
  ORPHEUS_RETURN_NOT_OK(RecvMessage(&sock_, &type, &payload, deadline));
  if (type != MsgType::kHelloAck) {
    DropConnection();
    return Status::Unavailable("handshake: peer did not send a HelloAck");
  }
  Result<HelloAck> ack = DecodeHelloAck(payload);
  if (!ack.ok()) {
    DropConnection();
    return Status::Unavailable(StrFormat(
        "handshake: corrupt HelloAck: %s",
        ack.status().message().c_str()));
  }
  if (ack.ValueOrDie().code != 0) {
    // Refused (version mismatch, bad magic): a definitive, non-transport
    // verdict — reconstruct it so the caller sees e.g. NotSupported, which
    // the retry loop never retries.
    DropConnection();
    Response carrier;
    carrier.code = ack.ValueOrDie().code;
    carrier.message = ack.ValueOrDie().message;
    return carrier.ToStatus();
  }
  if (ack.ValueOrDie().protocol_version != kProtocolVersion) {
    DropConnection();
    return Status::NotSupported(StrFormat(
        "server speaks protocol v%u, this client v%u",
        ack.ValueOrDie().protocol_version, kProtocolVersion));
  }
  server_degraded_ = ack.ValueOrDie().degraded;
  connected_ = true;
  return Status::OK();
}

void Client::DropConnection() {
  sock_.Close();
  connected_ = false;
}

void Client::BackoffBeforeRetry(int attempt, const Deadline& deadline) {
  const int shift = std::min(attempt - 1, 16);
  int64_t backoff_ms =
      std::min(options_.backoff_base_ms << shift, options_.backoff_cap_ms);
  // +/-50% seeded jitter: decorrelates a fleet of clients retrying after
  // the same fault, deterministically per client_uuid.
  backoff_ms = static_cast<int64_t>(
      static_cast<double>(backoff_ms) * (0.5 + rng_.NextDouble()));
  backoff_ms = std::min(backoff_ms, deadline.remaining_millis());
  if (backoff_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

uint64_t Client::AckFloor() const {
  uint64_t floor = acked_seq_;
  for (const auto& entry : unresolved_commits_) {
    floor = std::min(floor, entry.second - 1);
  }
  return floor;
}

Result<Response> Client::Call(Request req) {
  ++stats_.calls;
  if (req.request_seq == 0) req.request_seq = next_seq_++;
  req.acked_seq = AckFloor();
  const Deadline deadline = Deadline::AfterMillis(options_.call_deadline_ms);
  Status last = Status::Unavailable("no attempt made");

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      ORPHEUS_COUNTER_ADD("net.client.retries", 1);
      BackoffBeforeRetry(attempt, deadline);
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded(StrFormat(
          "%s: call deadline expired after %d attempt(s); last error: %s",
          OpName(req.op), attempt, last.ToString().c_str()));
    }

    Status s = EnsureConnected(deadline);
    bool server_retryable = false;
    if (s.ok()) {
      req.deadline_ms = deadline.remaining_millis();
      s = SendMessage(&sock_, MsgType::kRequest, EncodeRequest(req),
                      deadline);
      if (s.ok()) {
        MsgType type;
        std::string payload;
        s = RecvMessage(&sock_, &type, &payload, deadline);
        if (s.ok() && type != MsgType::kResponse) {
          s = Status::Unavailable("unexpected frame where a response was "
                                  "expected — stream desynced");
        }
        if (s.ok()) {
          Result<Response> decoded = DecodeResponse(payload);
          if (!decoded.ok()) {
            s = Status::Unavailable(StrFormat(
                "corrupt response: %s",
                decoded.status().message().c_str()));
          } else if (decoded.ValueOrDie().request_seq != req.request_seq) {
            s = Status::Unavailable(StrFormat(
                "response for request %llu while waiting for %llu — "
                "stream desynced",
                static_cast<unsigned long long>(
                    decoded.ValueOrDie().request_seq),
                static_cast<unsigned long long>(req.request_seq)));
          } else {
            Response resp = decoded.MoveValueOrDie();
            // The server's answer for this seq is in hand: let it prune.
            acked_seq_ = std::max(acked_seq_, req.request_seq);
            if (resp.ok()) return resp;
            s = resp.ToStatus();
            server_retryable = resp.retryable;
            if (!server_retryable) return s;  // definitive verdict
          }
        }
      }
    }

    if (server_retryable) {
      // Server said "try again" (busy session, durability timeout): the
      // connection itself is fine — retry over it after backoff.
      last = s;
      continue;
    }
    // Transport fault or local failure: the stream state is unknown, so
    // retry on a fresh connection.
    DropConnection();
    if (s.IsDeadlineExceeded()) {
      return Status::DeadlineExceeded(StrFormat(
          "%s: deadline expired mid-call; outcome unknown — retry with the "
          "same client to resolve (%s)",
          OpName(req.op), s.ToString().c_str()));
    }
    if (!s.IsUnavailable()) return s;  // non-transient local error
    last = s;
  }
  return Status(last.code(),
                StrFormat("%s: %d attempts exhausted; last error: %s",
                          OpName(req.op), options_.max_attempts,
                          last.ToString().c_str()));
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

Result<Client::OpenResult> Client::Open(const std::string& cvd) {
  Request req;
  req.op = Op::kOpen;
  req.cvd = cvd;
  ORPHEUS_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  OpenResult out;
  out.sid = resp.sid;
  out.watermark = resp.watermark;
  return out;
}

Result<minidb::Table> Client::Checkout(
    uint64_t sid, const std::vector<core::VersionId>& vids,
    const std::string& table_name) {
  Request req;
  req.op = Op::kCheckout;
  req.sid = sid;
  req.vids = vids;
  req.table_name = table_name;
  // A re-checkout replaces the server's staged checkout, so the old one is
  // gone whatever this call returns.
  const auto key = std::make_pair(sid, table_name);
  checkouts_.erase(key);
  ORPHEUS_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  minidb::Table* table = resp.decoded_table.get();
  if (table == nullptr || table->num_columns() == 0 ||
      table->schema().column(0).name != "_rid" ||
      table->column(0).type() != minidb::ValueType::kInt64) {
    return Status::Internal("checkout response carries no _rid table");
  }
  checkouts_[key] = table->StampCheckout();
  return std::move(*table);
}

Result<session::CommitOutcome> Client::Commit(uint64_t sid,
                                              const minidb::Table& table,
                                              const std::string& message,
                                              const std::string& author) {
  ORPHEUS_TRACE_SPAN("net.client.commit");
  const auto key = std::make_pair(sid, table.name());
  auto checkout = checkouts_.find(key);
  if (checkout == checkouts_.end()) {
    return Status::NotFound(StrFormat(
        "no checkout of table %s in session %llu through this client; "
        "check it out first",
        table.name().c_str(), static_cast<unsigned long long>(sid)));
  }
  if (table.checkout_id() != checkout->second) {
    return Status::InvalidArgument(StrFormat(
        "table %s is a copy or a stale checkout", table.name().c_str()));
  }
  Request req;
  req.op = Op::kCommit;
  req.sid = sid;
  req.table_name = table.name();
  req.message = message;
  req.author = author;
  minidb::Table::Edits edits = table.GetEdits();
  req.deleted = std::move(edits.dropped);
  // Encoded in place on every attempt, never copied again.
  const minidb::Table rows = table.CopyRows(edits.changed, table.name());
  req.table = &rows;
  ORPHEUS_COUNTER_ADD("net.client.commit.rows_shipped", rows.num_rows());
  // A commit whose previous call died with the outcome unknown is retried
  // under its ORIGINAL stamp, with the same changeset: the server either
  // replays the recorded verdict or resumes the parked durability wait —
  // never commits twice.
  auto unresolved = unresolved_commits_.find(key);
  const uint64_t seq = unresolved != unresolved_commits_.end()
                           ? unresolved->second
                           : next_seq_++;
  req.request_seq = seq;
  Result<Response> resp = Call(std::move(req));
  // DeadlineExceeded and attempts-exhausted Unavailable both mean the
  // outcome is UNKNOWN (the commit may have executed server-side): keep
  // the stamp pinned, and the checkout with it. Anything else is a
  // definitive verdict.
  if (resp.ok() || (!resp.status().IsDeadlineExceeded() &&
                    !resp.status().IsUnavailable())) {
    unresolved_commits_.erase(key);
  } else {
    unresolved_commits_[key] = seq;
  }
  // The checkout goes once the server holds it no more: the commit landed,
  // or the session or checkout is gone. A refused commit keeps it, so the
  // caller can fix the table and commit again.
  if (resp.ok() || resp.status().IsNotFound()) checkouts_.erase(key);
  if (!resp.ok()) return resp.status();
  return std::move(resp.ValueOrDie().outcome);
}

Result<core::VersionId> Client::Refresh(uint64_t sid) {
  Request req;
  req.op = Op::kRefresh;
  req.sid = sid;
  ORPHEUS_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return resp.watermark;
}

Result<std::vector<CvdSummary>> Client::Ls() {
  Request req;
  req.op = Op::kLs;
  ORPHEUS_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return std::move(resp.cvds);
}

Status Client::CloseSession(uint64_t sid) {
  for (auto it = checkouts_.lower_bound({sid, ""});
       it != checkouts_.end() && it->first.first == sid;) {
    it = checkouts_.erase(it);
  }
  Request req;
  req.op = Op::kClose;
  req.sid = sid;
  return Call(std::move(req)).status();
}

Result<int64_t> Client::Heartbeat(uint64_t sid) {
  Request req;
  req.op = Op::kHeartbeat;
  req.sid = sid;
  ORPHEUS_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return resp.lease_ms;
}

}  // namespace orpheus::net
