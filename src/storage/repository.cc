#include "storage/repository.h"

#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/validation.h"
#include "core/validate.h"
#include "storage/snapshot.h"

namespace orpheus::storage {

namespace {

std::string SnapshotPath(const std::string& dir, uint64_t seq) {
  return StrFormat("%s/snapshot-%llu", dir.c_str(),
                   static_cast<unsigned long long>(seq));
}

std::string WalPath(const std::string& dir, uint64_t seq) {
  return StrFormat("%s/wal-%llu", dir.c_str(),
                   static_cast<unsigned long long>(seq));
}

std::string CurrentPath(const std::string& dir) { return dir + "/CURRENT"; }

/// Parse CURRENT's contents, "snapshot-<seq>\n", into the sequence number.
Result<uint64_t> ParseCurrent(const std::string& path,
                              const std::string& contents) {
  constexpr std::string_view kPrefix = "snapshot-";
  std::string_view body = contents;
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  if (body.substr(0, kPrefix.size()) != kPrefix) {
    return Status::DataLoss(StrFormat("%s: malformed CURRENT contents \"%s\"",
                                      path.c_str(), contents.c_str()));
  }
  body.remove_prefix(kPrefix.size());
  if (body.empty()) {
    return Status::DataLoss(
        StrFormat("%s: CURRENT names no sequence number", path.c_str()));
  }
  uint64_t seq = 0;
  for (char c : body) {
    if (c < '0' || c > '9') {
      return Status::DataLoss(StrFormat(
          "%s: malformed CURRENT contents \"%s\"", path.c_str(),
          contents.c_str()));
    }
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

Status WriteCurrent(const std::string& dir, uint64_t seq) {
  ORPHEUS_FAILPOINT("storage.current.write");
  return WriteFileAtomic(
      CurrentPath(dir),
      StrFormat("snapshot-%llu\n", static_cast<unsigned long long>(seq)),
      /*sync=*/true);
}

Status ValidateRecovered(const core::Cvd& cvd, const std::string& source) {
  ValidationReport report;
  core::ValidateCvd(cvd, &report);
  if (!report.ok()) {
    return Status::DataLoss(StrFormat(
        "%s: recovered CVD \"%s\" fails invariant validation:\n%s",
        source.c_str(), cvd.name().c_str(), report.ToString().c_str()));
  }
  return Status::OK();
}

struct RecoveredState {
  uint64_t seq = 0;
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  WalContents wal;
  std::string snapshot_path;
  std::string wal_path;
};

/// Shared by Open and Fsck: load CURRENT -> snapshot -> WAL and replay the
/// records in memory. Pure read — torn tails are reported, not repaired.
Result<RecoveredState> Recover(const std::string& dir) {
  RecoveredState out;
  ORPHEUS_ASSIGN_OR_RETURN(std::string current,
                           ReadFileToString(CurrentPath(dir)));
  ORPHEUS_ASSIGN_OR_RETURN(out.seq, ParseCurrent(CurrentPath(dir), current));
  out.snapshot_path = SnapshotPath(dir, out.seq);
  out.wal_path = WalPath(dir, out.seq);

  ORPHEUS_ASSIGN_OR_RETURN(SnapshotContents snapshot,
                           ReadSnapshot(out.snapshot_path));
  if (snapshot.seq != out.seq) {
    return Status::DataLoss(StrFormat(
        "%s: snapshot sequence %llu does not match CURRENT (%llu)",
        out.snapshot_path.c_str(),
        static_cast<unsigned long long>(snapshot.seq),
        static_cast<unsigned long long>(out.seq)));
  }

  std::unordered_map<std::string, size_t> by_name;
  for (const core::CvdState& state : snapshot.cvds) {
    if (by_name.count(state.name) != 0) {
      return Status::DataLoss(
          StrFormat("%s: duplicate CVD \"%s\" in snapshot",
                    out.snapshot_path.c_str(), state.name.c_str()));
    }
    auto cvd = core::Cvd::FromState(state);
    if (!cvd.ok()) {
      return Status::DataLoss(StrFormat(
          "%s: CVD \"%s\": %s", out.snapshot_path.c_str(),
          state.name.c_str(), cvd.status().message().c_str()));
    }
    by_name[state.name] = out.cvds.size();
    out.cvds.push_back(cvd.MoveValueOrDie());
  }

  ORPHEUS_ASSIGN_OR_RETURN(out.wal, ReadWal(out.wal_path));
  if (out.wal.seq != out.seq) {
    return Status::DataLoss(StrFormat(
        "%s: WAL sequence %llu does not match CURRENT (%llu)",
        out.wal_path.c_str(), static_cast<unsigned long long>(out.wal.seq),
        static_cast<unsigned long long>(out.seq)));
  }

  for (const WalRecord& record : out.wal.records) {
    if (const auto* create = std::get_if<WalCreateRecord>(&record)) {
      if (by_name.count(create->state.name) != 0) {
        return Status::DataLoss(StrFormat(
            "%s: WAL creates CVD \"%s\" which already exists",
            out.wal_path.c_str(), create->state.name.c_str()));
      }
      auto cvd = core::Cvd::FromState(create->state);
      if (!cvd.ok()) {
        return Status::DataLoss(StrFormat(
            "%s: CVD \"%s\": %s", out.wal_path.c_str(),
            create->state.name.c_str(), cvd.status().message().c_str()));
      }
      by_name[create->state.name] = out.cvds.size();
      out.cvds.push_back(cvd.MoveValueOrDie());
    } else if (const auto* commit = std::get_if<WalCommitRecord>(&record)) {
      auto it = by_name.find(commit->cvd);
      if (it == by_name.end() || out.cvds[it->second] == nullptr) {
        return Status::DataLoss(StrFormat(
            "%s: WAL commit targets unknown CVD \"%s\"", out.wal_path.c_str(),
            commit->cvd.c_str()));
      }
      Status s = out.cvds[it->second]->ApplyCommitRecord(commit->record);
      if (!s.ok()) {
        return Status::DataLoss(StrFormat(
            "%s: replaying commit v%d of \"%s\": %s", out.wal_path.c_str(),
            commit->record.vid, commit->cvd.c_str(), s.message().c_str()));
      }
    } else {
      const auto& drop = std::get<WalDropRecord>(record);
      auto it = by_name.find(drop.cvd);
      if (it == by_name.end() || out.cvds[it->second] == nullptr) {
        return Status::DataLoss(StrFormat(
            "%s: WAL drops unknown CVD \"%s\"", out.wal_path.c_str(),
            drop.cvd.c_str()));
      }
      out.cvds[it->second].reset();
      by_name.erase(it);
    }
  }
  // Compact out dropped CVDs.
  std::vector<std::unique_ptr<core::Cvd>> live;
  for (auto& cvd : out.cvds) {
    if (cvd != nullptr) live.push_back(std::move(cvd));
  }
  out.cvds = std::move(live);
  return out;
}

}  // namespace

Repository::Repository(std::string dir, uint64_t seq, WalWriter wal)
    : dir_(std::move(dir)) {
  MutexLock lock(&mu_);
  seq_ = seq;
  wal_ = std::move(wal);
  stats_.seq = seq;
  stats_.wal_bytes = wal_->offset();
}

Repository::~Repository() {
  // Closing the WAL fd drops no acknowledged data (every Append fsyncs);
  // errors here have no one to report to.
  MutexLock lock(&mu_);
  // A leader mid-flush holds a raw pointer into wal_ with mu_ released;
  // wait for it to publish before closing the file. (Destroying the
  // repository while commits are still being enqueued is a caller bug —
  // this only covers the in-flight batch.)
  while (leader_active_) {
    commit_cv_.Wait(&mu_);
  }
  if (wal_.has_value()) {
    ORPHEUS_IGNORE_ERROR(wal_->Close());
  }
}

Result<std::unique_ptr<Repository>> Repository::Open(const std::string& dir) {
  ORPHEUS_TRACE_SPAN("storage.recovery");
  ORPHEUS_RETURN_NOT_OK(CreateDirs(dir));

  if (!FileExists(CurrentPath(dir))) {
    // Refuse to "fresh-init" a directory that clearly held a repository:
    // a missing CURRENT next to snapshot/WAL files means the pointer was
    // lost, and silently starting over would shadow recoverable data.
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDir(dir));
    for (const std::string& name : entries) {
      if (name.rfind("snapshot-", 0) == 0 || name.rfind("wal-", 0) == 0) {
        return Status::DataLoss(StrFormat(
            "%s: CURRENT missing but repository files present (found %s)",
            dir.c_str(), name.c_str()));
      }
    }
    constexpr uint64_t kFirstSeq = 1;
    ORPHEUS_RETURN_NOT_OK(WriteSnapshot(SnapshotPath(dir, kFirstSeq),
                                        kFirstSeq, {}));
    ORPHEUS_FAILPOINT("storage.checkpoint.wal_create");
    ORPHEUS_ASSIGN_OR_RETURN(WalWriter wal,
                             WalWriter::Create(WalPath(dir, kFirstSeq),
                                               kFirstSeq));
    ORPHEUS_RETURN_NOT_OK(WriteCurrent(dir, kFirstSeq));
    LOG_INFO("repository initialized", {{"dir", dir}});
    return std::unique_ptr<Repository>(
        new Repository(dir, kFirstSeq, std::move(wal)));
  }

  ORPHEUS_ASSIGN_OR_RETURN(RecoveredState state, Recover(dir));
  for (const auto& cvd : state.cvds) {
    ORPHEUS_RETURN_NOT_OK(ValidateRecovered(*cvd, state.wal_path));
  }
  if (state.wal.torn_tail) {
    // The torn record was never acknowledged to any client (Append fsyncs
    // before returning), so dropping it is loss-free.
    ORPHEUS_FAILPOINT("storage.open.truncate");
    ORPHEUS_RETURN_NOT_OK(
        TruncateFile(state.wal_path, state.wal.valid_bytes));
    ORPHEUS_COUNTER_ADD("storage.recovery.torn_tail_truncated", 1);
    LOG_WARN("truncated torn WAL tail",
             {{"path", state.wal_path},
              {"valid_bytes",
               static_cast<unsigned long long>(state.wal.valid_bytes)}});
  }
  ORPHEUS_ASSIGN_OR_RETURN(
      WalWriter wal, WalWriter::Open(state.wal_path, state.wal.valid_bytes));
  ORPHEUS_COUNTER_ADD("storage.wal.replayed_records",
                      state.wal.records.size());
  LOG_INFO("repository opened",
           {{"dir", dir},
            {"seq", static_cast<unsigned long long>(state.seq)},
            {"cvds", static_cast<unsigned long long>(state.cvds.size())},
            {"wal_records",
             static_cast<unsigned long long>(state.wal.records.size())},
            {"torn_tail", state.wal.torn_tail}});
  auto repo = std::unique_ptr<Repository>(
      new Repository(dir, state.seq, std::move(wal)));
  {
    MutexLock lock(&repo->mu_);
    repo->recovered_ = std::move(state.cvds);
    repo->stats_.seq = state.seq;
    repo->stats_.wal_records = state.wal.records.size();
    repo->stats_.wal_bytes = state.wal.valid_bytes;
    repo->stats_.recovered_torn_tail = state.wal.torn_tail;
  }
  return repo;
}

std::vector<std::unique_ptr<core::Cvd>> Repository::TakeCvds() {
  MutexLock lock(&mu_);
  return std::move(recovered_);
}

Status Repository::RequireHealthy() {
  if (closed_) {
    return Status::Internal("repository is closed");
  }
  if (degraded_) {
    return Status::Internal(StrFormat(
        "repository %s is degraded after a WAL write failure; reopen it to "
        "recover",
        dir_.c_str()));
  }
  return Status::OK();
}

Status Repository::AppendRecord(const WalRecord& record) {
  // Creates and drops write the WAL directly; order them after every
  // enqueued commit and keep the file exclusively ours for the append.
  DrainCommitsLocked();
  ORPHEUS_RETURN_NOT_OK(RequireHealthy());
  Status s = wal_->Append(record);
  if (!s.ok()) {
    // Creates/drops are logged write-behind (the in-memory change already
    // happened), so the log is now behind memory. Refuse further writes so
    // the divergence cannot grow (the analog of RocksDB's background-error
    // state).
    degraded_ = true;
    LOG_ERROR("WAL append failed; repository degraded",
              {{"dir", dir_}, {"error", s.message()}});
    return s;
  }
  stats_.wal_records += 1;
  stats_.wal_bytes = wal_->offset();
  return Status::OK();
}

Status Repository::LogCreate(const core::Cvd& cvd) {
  ORPHEUS_ASSIGN_OR_RETURN(core::CvdState state, cvd.ExportState());
  MutexLock lock(&mu_);
  return AppendRecord(WalCreateRecord{std::move(state)});
}

Status Repository::LogCommit(const std::string& cvd_name,
                             const core::CvdCommitRecord& record) {
  MutexLock lock(&mu_);
  ORPHEUS_ASSIGN_OR_RETURN(uint64_t ticket,
                           EnqueueCommitLocked(cvd_name, record));
  return WaitCommitDurableLocked(ticket, Deadline::Infinite());
}

Status Repository::LogDrop(const std::string& cvd_name) {
  MutexLock lock(&mu_);
  return AppendRecord(WalDropRecord{cvd_name});
}

Result<uint64_t> Repository::EnqueueCommit(
    const std::string& cvd_name, const core::CvdCommitRecord& record) {
  MutexLock lock(&mu_);
  return EnqueueCommitLocked(cvd_name, record);
}

Status Repository::WaitCommitDurable(uint64_t ticket) {
  MutexLock lock(&mu_);
  return WaitCommitDurableLocked(ticket, Deadline::Infinite());
}

Status Repository::WaitCommitDurableFor(uint64_t ticket,
                                        const Deadline& deadline) {
  MutexLock lock(&mu_);
  return WaitCommitDurableLocked(ticket, deadline);
}

Result<uint64_t> Repository::EnqueueCommitLocked(
    const std::string& cvd_name, const core::CvdCommitRecord& record) {
  ORPHEUS_RETURN_NOT_OK(RequireHealthy());
  pending_.push_back(WalCommitRecord{cvd_name, record});
  return ++enqueued_ticket_;
}

Status Repository::WaitCommitDurableLocked(uint64_t ticket,
                                           const Deadline& deadline) {
  while (durable_ticket_ < ticket) {
    if (!leader_active_ && !pending_.empty()) {
      // No leader in flight: this waiter flushes the whole queue itself.
      // Deliberately not deadline-bounded — abandoning our own append
      // mid-write is not safe, and if every bounded waiter bailed before
      // leading, the queue would never drain.
      LeadBatchLocked();
      continue;
    }
    if (!commit_cv_.WaitFor(&mu_, deadline.remaining()) &&
        durable_ticket_ < ticket && deadline.expired()) {
      // A leader is still mid-flush. The batch may yet land (or fail):
      // this ticket's durability is UNKNOWN, and the caller may call
      // again to keep waiting.
      return Status::DeadlineExceeded(StrFormat(
          "commit ticket %llu not durable before deadline (leader still "
          "flushing); durability unknown — wait again or reopen",
          static_cast<unsigned long long>(ticket)));
    }
  }
  if (failed_from_ticket_ != 0 && ticket >= failed_from_ticket_) {
    return batch_error_;
  }
  return Status::OK();
}

void Repository::LeadBatchLocked() {
  std::vector<WalRecord> batch;
  batch.swap(pending_);
  const uint64_t hi = enqueued_ticket_;
  leader_active_ = true;
  // Safe to deref while unlocked: leader_active_ pins wal_ — checkpoints,
  // direct appends, and the destructor all wait for the leader first, and
  // nothing else reassigns wal_.
  WalWriter* wal = &*wal_;
  mu_.Unlock();
  Status s = wal->AppendBatch(batch);
  ORPHEUS_HISTOGRAM_RECORD("session.commit.group_size",
                           static_cast<double>(batch.size()));
  mu_.Lock();
  if (s.ok()) {
    stats_.wal_records += batch.size();
    stats_.wal_bytes = wal_->offset();
  } else {
    // None of the batch is durable (a torn tail inside it is truncated on
    // replay). The committers were applied in memory only AFTER their wait
    // succeeds, so refusing here leaves no phantom versions — but the file
    // position is unreliable, so degrade until reopen.
    degraded_ = true;
    if (failed_from_ticket_ == 0) failed_from_ticket_ = durable_ticket_ + 1;
    batch_error_ = s;
    LOG_ERROR("WAL batch append failed; repository degraded",
              {{"dir", dir_},
               {"batch", static_cast<unsigned long long>(batch.size())},
               {"error", s.message()}});
  }
  durable_ticket_ = hi;
  leader_active_ = false;
  commit_cv_.NotifyAll();
}

void Repository::DrainCommitsLocked() {
  while (leader_active_ || !pending_.empty()) {
    if (!leader_active_) {
      LeadBatchLocked();
    } else {
      commit_cv_.Wait(&mu_);
    }
  }
}

Status Repository::Checkpoint(const std::vector<const core::Cvd*>& cvds) {
  MutexLock lock(&mu_);
  return CheckpointLocked(cvds);
}

Status Repository::CheckpointLocked(
    const std::vector<const core::Cvd*>& cvds) {
  ORPHEUS_TRACE_SPAN("storage.checkpoint");
  DrainCommitsLocked();  // the WAL swap below must not race a leader flush
  ORPHEUS_RETURN_NOT_OK(RequireHealthy());
  const uint64_t new_seq = seq_ + 1;

  std::vector<core::CvdState> states;
  states.reserve(cvds.size());
  for (const core::Cvd* cvd : cvds) {
    ORPHEUS_ASSIGN_OR_RETURN(core::CvdState state, cvd->ExportState());
    states.push_back(std::move(state));
  }

  // Order matters for crash safety: (1) new snapshot, (2) new WAL, (3)
  // repoint CURRENT, (4) drop old files. A crash before (3) recovers from
  // the old epoch (new files are orphans, overwritten next time); a crash
  // after (3) recovers from the new one (old files are orphans).
  ORPHEUS_RETURN_NOT_OK(
      WriteSnapshot(SnapshotPath(dir_, new_seq), new_seq, states));
  ORPHEUS_FAILPOINT("storage.checkpoint.wal_create");
  ORPHEUS_ASSIGN_OR_RETURN(
      WalWriter new_wal, WalWriter::Create(WalPath(dir_, new_seq), new_seq));
  ORPHEUS_RETURN_NOT_OK(WriteCurrent(dir_, new_seq));

  ORPHEUS_IGNORE_ERROR(wal_->Close());
  const uint64_t old_seq = seq_;
  wal_ = std::move(new_wal);
  seq_ = new_seq;
  stats_.seq = new_seq;
  stats_.wal_records = 0;
  stats_.wal_bytes = wal_->offset();

  // Best-effort cleanup; leftover old-epoch files are inert.
  ORPHEUS_FAILPOINT("storage.checkpoint.cleanup");
  ORPHEUS_IGNORE_ERROR(RemoveFile(SnapshotPath(dir_, old_seq)));
  ORPHEUS_IGNORE_ERROR(RemoveFile(WalPath(dir_, old_seq)));
  LOG_INFO("checkpoint complete",
           {{"dir", dir_},
            {"seq", static_cast<unsigned long long>(new_seq)},
            {"cvds", static_cast<unsigned long long>(states.size())}});
  return Status::OK();
}

Status Repository::Close(const std::vector<const core::Cvd*>& cvds) {
  MutexLock lock(&mu_);
  ORPHEUS_RETURN_NOT_OK(CheckpointLocked(cvds));
  ORPHEUS_RETURN_NOT_OK(wal_->Close());
  closed_ = true;
  return Status::OK();
}

Result<std::vector<std::string>> Repository::Fsck(const std::string& dir) {
  std::vector<std::string> lines;
  if (!FileExists(CurrentPath(dir))) {
    return Status::DataLoss(
        StrFormat("%s: no CURRENT file (not a repository?)", dir.c_str()));
  }
  ORPHEUS_ASSIGN_OR_RETURN(RecoveredState state, Recover(dir));
  lines.push_back(StrFormat("CURRENT -> snapshot-%llu",
                            static_cast<unsigned long long>(state.seq)));
  lines.push_back(StrFormat(
      "%s: ok (%zu CVDs)", state.snapshot_path.c_str(), state.cvds.size()));
  lines.push_back(StrFormat(
      "%s: ok (%zu records%s)", state.wal_path.c_str(),
      state.wal.records.size(),
      state.wal.torn_tail ? ", torn tail pending truncation" : ""));
  for (const auto& cvd : state.cvds) {
    ORPHEUS_RETURN_NOT_OK(ValidateRecovered(*cvd, state.wal_path));
    lines.push_back(StrFormat("cvd %s: ok (%d versions)", cvd->name().c_str(),
                              cvd->num_versions()));
  }
  return lines;
}

}  // namespace orpheus::storage
