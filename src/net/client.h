#ifndef ORPHEUS_NET_CLIENT_H_
#define ORPHEUS_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/types.h"
#include "minidb/table.h"
#include "net/socket.h"
#include "net/wire.h"
#include "session/session_api.h"

namespace orpheus::net {

struct ClientOptions {
  /// Per-call time budget: every public method either finishes or returns
  /// DeadlineExceeded within roughly this bound — never hangs.
  int64_t call_deadline_ms = 10000;
  /// Attempt cap within one call (first try + retries).
  int max_attempts = 8;
  /// Exponential backoff between retries: base * 2^attempt, capped, with
  /// +/-50% seeded jitter so a fleet of clients does not retry in
  /// lockstep.
  int64_t backoff_base_ms = 5;
  int64_t backoff_cap_ms = 500;
  /// Jitter RNG seed; 0 derives one from the client_uuid so two clients
  /// jitter differently while a fixed uuid keeps runs reproducible.
  uint64_t jitter_seed = 0;
  /// Idempotency identity sent in the Hello. Empty = derive a
  /// process-unique one. A client that reconnects MUST keep its uuid —
  /// it is the key of the server's replay window.
  std::string client_uuid;
};

/// Client side of the orpheusd wire protocol (DESIGN.md §14.5): carries
/// the SessionApi over a socket with deadlines, transparent reconnect,
/// and capped exponential backoff. Retry policy:
///   - Transport faults (Unavailable: reset, refused, torn frame) and
///     server verdicts marked retryable are retried on a FRESH connection
///     until the call deadline or attempt cap — safely, because mutating
///     requests carry (client_uuid, request_seq) stamps the server
///     deduplicates on: a commit retried after a lost ACK returns the
///     original result instead of committing twice.
///   - Definitive verdicts (validation errors, degraded-repository
///     refusal) surface immediately.
///   - DeadlineExceeded from a commit means the outcome is UNKNOWN: call
///     Commit again with the same table — the stamp makes the retry
///     resolve, not repeat, the commit.
///
/// Commits ship changesets (DESIGN.md §14.1): a checkout's table comes back
/// stamped and records its own edits, which a commit ships; the client
/// keeps only each (sid, table)'s checkout id.
///
/// NOT thread-safe: one thread drives a Client (like a Session).
class Client final : public session::SessionApi {
 public:
  /// Connect + handshake within the call deadline. Fails fast on a
  /// protocol-version mismatch (NotSupported — never retried).
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& address, const ClientOptions& options = {});

  Result<OpenResult> Open(const std::string& cvd) override;

  /// Materialize versions into the session's staging table `table_name`
  /// and return it, stamped as the checkout a later Commit of that name
  /// must hand back (replacing any earlier checkout of the same name).
  Result<minidb::Table> Checkout(uint64_t sid,
                                 const std::vector<core::VersionId>& vids,
                                 const std::string& table_name) override;

  /// Commit `table` (named as the checkout it edits) against the
  /// provenance recorded by the server at Checkout, shipping its recorded
  /// edits. NotFound without a checkout of that table through this client;
  /// InvalidArgument, nothing sent, when `table` is not the table that
  /// checkout returned. Exactly-once under retry (see above); the checkout
  /// stays committable until the commit succeeds, the server loses it, the
  /// table is checked out again or the session is closed.
  Result<session::CommitOutcome> Commit(
      uint64_t sid, const minidb::Table& table, const std::string& message,
      const std::string& author = "") override;

  Result<core::VersionId> Refresh(uint64_t sid) override;
  Result<std::vector<CvdSummary>> Ls() override;
  Status CloseSession(uint64_t sid) override;
  /// Renew the session lease; returns the lease term granted.
  Result<int64_t> Heartbeat(uint64_t sid);

  const std::string& client_uuid() const { return options_.client_uuid; }
  /// True if the server reported itself degraded at the last handshake.
  bool server_degraded() const { return server_degraded_; }

  struct Stats {
    uint64_t calls = 0;
    uint64_t retries = 0;
    uint64_t reconnects = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Client(std::string address, ClientOptions options);

  /// The retry loop every public method funnels through. A request_seq of
  /// 0 means "assign the next one"; Commit pre-sets it to resume an
  /// unresolved (deadline-exceeded) commit under its ORIGINAL stamp.
  Result<Response> Call(Request req);
  Status EnsureConnected(const Deadline& deadline);
  void DropConnection();
  void BackoffBeforeRetry(int attempt, const Deadline& deadline);
  /// The acked_seq to advertise: never past an unresolved commit's seq,
  /// or the server would prune the recorded verdict the retry needs.
  uint64_t AckFloor() const;

  const std::string address_;
  ClientOptions options_;
  Socket sock_;
  bool connected_ = false;
  bool server_degraded_ = false;
  uint64_t next_seq_ = 1;
  uint64_t acked_seq_ = 0;
  // Commits whose outcome is unknown (the call died in DeadlineExceeded),
  // keyed by (sid, table): the next Commit on that key reuses the stamp so
  // the server resolves — not repeats — the commit.
  std::map<std::pair<uint64_t, std::string>, uint64_t> unresolved_commits_;
  // Checkout id of the table each (sid, table) checkout returned.
  std::map<std::pair<uint64_t, std::string>, uint64_t> checkouts_;
  Xorshift rng_;
  Stats stats_;
};

}  // namespace orpheus::net

#endif  // ORPHEUS_NET_CLIENT_H_
