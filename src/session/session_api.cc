#include "session/session_api.h"

#include <utility>

#include "common/string_util.h"

namespace orpheus::session {

Result<SessionApi::OpenResult> InProcessSessions::Open(
    const std::string& cvd) {
  auto it = managers_.find(cvd);
  if (it == managers_.end()) {
    ORPHEUS_ASSIGN_OR_RETURN(Loan loan, lend_(cvd));
    it = managers_
             .emplace(cvd, std::make_unique<SessionManager>(
                               std::move(loan.cvd), loan.repo))
             .first;
  }
  std::unique_ptr<Session> session = it->second->Open();
  const OpenResult opened{next_sid_++, session->watermark()};
  sessions_[opened.sid] = OpenSession{cvd, std::move(session)};
  return opened;
}

Result<Session*> InProcessSessions::Find(uint64_t sid) {
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Status::NotFound(StrFormat(
        "no open session %llu", static_cast<unsigned long long>(sid)));
  }
  return it->second.session.get();
}

Result<minidb::Table> InProcessSessions::Checkout(
    uint64_t sid, const std::vector<core::VersionId>& vids,
    const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(Session * session, Find(sid));
  return session->CheckoutTable(vids, table_name);
}

Result<CommitOutcome> InProcessSessions::Commit(uint64_t sid,
                                                const minidb::Table& table,
                                                const std::string& message,
                                                const std::string& author) {
  ORPHEUS_ASSIGN_OR_RETURN(Session * session, Find(sid));
  return session->CommitTable(table, message, author);
}

Result<core::VersionId> InProcessSessions::Refresh(uint64_t sid) {
  ORPHEUS_ASSIGN_OR_RETURN(Session * session, Find(sid));
  ORPHEUS_RETURN_NOT_OK(session->Refresh());
  return session->watermark();
}

Result<std::vector<CvdSummary>> InProcessSessions::Ls() {
  std::vector<CvdSummary> out;
  for (const auto& [name, manager] : managers_) {
    CvdSummary summary;
    summary.name = name;
    summary.watermark = manager->watermark();
    summary.failed = manager->failed();
    ORPHEUS_RETURN_NOT_OK(manager->ReadCvd([&summary](const core::Cvd& cvd) {
      summary.num_versions = cvd.num_versions();
      return Status::OK();
    }));
    for (const auto& entry : sessions_) {
      if (entry.second.cvd == name) ++summary.open_sessions;
    }
    out.push_back(std::move(summary));
  }
  return out;
}

Status InProcessSessions::CloseSession(uint64_t sid) {
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) return Status::OK();  // already closed
  const std::string cvd = it->second.cvd;
  sessions_.erase(it);
  for (const auto& entry : sessions_) {
    if (entry.second.cvd == cvd) return Status::OK();
  }
  auto manager = managers_.find(cvd);
  give_back_(manager->second->Release());
  managers_.erase(manager);
  return Status::OK();
}

}  // namespace orpheus::session
