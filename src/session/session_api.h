#ifndef ORPHEUS_SESSION_SESSION_API_H_
#define ORPHEUS_SESSION_SESSION_API_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/cvd.h"
#include "core/types.h"
#include "minidb/table.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::session {

/// One CVD as a SessionApi lists it.
struct CvdSummary {
  std::string name;
  int num_versions = 0;
  core::VersionId watermark = core::kInvalidVersion;
  int open_sessions = 0;
  bool failed = false;  // commits refused (poisoned manager or degraded repo)
};

/// The session layer as one client drives it (DESIGN.md §13): open a
/// session on a CVD, check versions out as tables, commit edited tables
/// back optimistically, re-pin, list, close. Sessions are named by a sid
/// unique within the implementation. A checkout hands the caller its own
/// table; a commit takes the caller's edit of it (named as the checkout)
/// and succeeds also when it reports conflicts, since the version is
/// always created. Two implementations: `InProcessSessions` over
/// SessionManagers in this process, and `net::Client` over a socket to
/// `orpheusd`. Neither is thread-safe; one thread drives an instance.
class SessionApi {
 public:
  struct OpenResult {
    uint64_t sid = 0;
    core::VersionId watermark = core::kInvalidVersion;
  };

  virtual ~SessionApi() = default;

  virtual Result<OpenResult> Open(const std::string& cvd) = 0;
  /// Checking out a table name the session already holds replaces it.
  virtual Result<minidb::Table> Checkout(
      uint64_t sid, const std::vector<core::VersionId>& vids,
      const std::string& table_name) = 0;
  virtual Result<CommitOutcome> Commit(uint64_t sid,
                                       const minidb::Table& table,
                                       const std::string& message,
                                       const std::string& author = "") = 0;
  /// Re-pin the session to the durable watermark; returns the new pin.
  virtual Result<core::VersionId> Refresh(uint64_t sid) = 0;
  virtual Result<std::vector<CvdSummary>> Ls() = 0;
  /// Closing a sid that is not open succeeds (a retried close is a no-op).
  virtual Status CloseSession(uint64_t sid) = 0;
};

/// The in-process SessionApi: one SessionManager for each CVD with open
/// sessions, sids numbered across all of them. A CVD is lent to the
/// session layer by its first Open and given back when its last session
/// closes; Ls lists only the CVDs lent out.
class InProcessSessions final : public SessionApi {
 public:
  struct Loan {
    std::unique_ptr<core::Cvd> cvd;
    storage::Repository* repo = nullptr;  // where its commits go; nullable
  };
  /// `lend` hands over the named CVD or says why it cannot; `give_back`
  /// takes a CVD back after its last session closed.
  using Lend = std::function<Result<Loan>(const std::string& cvd)>;
  using GiveBack = std::function<void(std::unique_ptr<core::Cvd>)>;

  InProcessSessions(Lend lend, GiveBack give_back)
      : lend_(std::move(lend)), give_back_(std::move(give_back)) {}

  Result<OpenResult> Open(const std::string& cvd) override;
  Result<minidb::Table> Checkout(uint64_t sid,
                                 const std::vector<core::VersionId>& vids,
                                 const std::string& table_name) override;
  Result<CommitOutcome> Commit(uint64_t sid, const minidb::Table& table,
                               const std::string& message,
                               const std::string& author = "") override;
  Result<core::VersionId> Refresh(uint64_t sid) override;
  Result<std::vector<CvdSummary>> Ls() override;
  Status CloseSession(uint64_t sid) override;

  /// The manager of every CVD lent out, by name.
  const std::map<std::string, std::unique_ptr<SessionManager>>& managers()
      const {
    return managers_;
  }

 private:
  struct OpenSession {
    std::string cvd;
    std::unique_ptr<Session> session;
  };
  Result<Session*> Find(uint64_t sid);

  Lend lend_;
  GiveBack give_back_;
  std::map<std::string, std::unique_ptr<SessionManager>> managers_;
  // Declared after managers_: sessions point into their manager.
  std::map<uint64_t, OpenSession> sessions_;
  uint64_t next_sid_ = 1;
};

}  // namespace orpheus::session

#endif  // ORPHEUS_SESSION_SESSION_API_H_
