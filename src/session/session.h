#ifndef ORPHEUS_SESSION_SESSION_H_
#define ORPHEUS_SESSION_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/cvd.h"
#include "core/types.h"
#include "minidb/database.h"
#include "storage/repository.h"

namespace orpheus::session {

/// Concurrent multi-session access to one CVD (DESIGN.md §13).
///
/// A SessionManager owns the shared Cvd (and optionally routes commits into
/// a durable Repository); each Session is a private workspace — its own
/// staging database and a pinned snapshot watermark — handed to one thread
/// at a time. Many sessions operate concurrently:
///
///   - Checkouts/diffs are snapshot-isolated reads: a session only sees
///     versions at or below the durable high-water mark it pinned at
///     open/refresh time, so mid-churn checkouts are byte-stable. They run
///     under a shared (reader) lock and never wait on WAL fsyncs.
///   - Commits are optimistic. The committer validates under the commit
///     lock that its base version is still a graph tip; if a concurrent
///     commit got there first, reconciliation (three-way record-level
///     merge, Ranjan et al.) produces a merge commit with both divergent
///     versions as parents. Only when the same attribute of the same
///     record diverges does the commit surface a conflict set instead.
///   - Durability is group-committed: the commit lock is released before
///     waiting on the WAL, so concurrent committers' records are batched
///     under a single fsync by the repository's leader.

/// One attribute-level divergence the automatic merge cannot resolve.
struct MergeConflict {
  std::string key;        // rendered primary-key tuple
  std::string attribute;  // data attribute whose values diverge
  std::string base;       // value at the common base ("" if record absent)
  std::string ours;       // the committing session's value
  std::string theirs;     // the concurrent tip's value
};

/// What one Session::Commit produced.
struct CommitOutcome {
  /// The version holding the session's table (always created).
  core::VersionId vid = core::kInvalidVersion;
  /// The reconciliation merge commit (kInvalidVersion when the base was
  /// still a tip, or when conflicts blocked the merge).
  core::VersionId merged_vid = core::kInvalidVersion;
  /// The version the merge reconciled against (the concurrent tip).
  core::VersionId reconciled_with = core::kInvalidVersion;
  bool reconciled = false;
  /// Non-empty: the merge was refused; `vid` is left as a divergent branch
  /// for manual resolution.
  std::vector<MergeConflict> conflicts;
};

class SessionManager;

/// A commit applied in memory whose group-commit batch outlived the
/// caller's deadline: the WAL tickets are still in flight and the outcome
/// (computed during apply) is parked until a re-wait resolves durability.
struct PendingDurability {
  std::vector<uint64_t> tickets;
  CommitOutcome outcome;
  Status apply_status;
};

/// A private workspace over the shared CVD. NOT thread-safe — one thread
/// drives a Session at a time; concurrency comes from many Sessions.
/// Every commit is a changeset against a kept checkout (CommitChangeset);
/// a checkout's table is stamped and records the edits a commit ships.
class Session {
 public:
  /// Materialize versions (all <= the pinned watermark) into this session's
  /// staging database as `table_name`, recording provenance for Commit. A
  /// checkout of a name the session holds replaces it (DiscardStaging).
  Status Checkout(const std::vector<core::VersionId>& vids,
                  const std::string& table_name);

  /// Checkout that hands the stamped table to the caller instead of
  /// staging it, for CommitTable.
  Result<minidb::Table> CheckoutTable(const std::vector<core::VersionId>& vids,
                                      const std::string& table_name);

  /// The session's staging area (mutate checked-out tables here).
  minidb::Database* staging() { return &staging_; }
  minidb::Table* table(const std::string& name) {
    return staging_.GetTable(name);
  }

  /// Commit a staged table against the parents recorded at Checkout (a
  /// table restaged under that name ships whole). On success (including a
  /// conflict outcome — the table's own version is always created) the
  /// staging table is dropped and the watermark advances to cover the new
  /// commit(s).
  Result<CommitOutcome> Commit(const std::string& table_name,
                               const std::string& message,
                               const std::string& author = "");

  /// Commit the recorded edits of `table`, the caller's edit of the
  /// checkout named table.name(); as Commit otherwise. InvalidArgument
  /// when `table` is not the table that checkout handed out (a copy, or
  /// one from an earlier checkout of the name).
  Result<CommitOutcome> CommitTable(const minidb::Table& table,
                                    const std::string& message,
                                    const std::string& author = "");

  /// The core of every checkout, and the server's form of it (DESIGN.md
  /// §14.1): select the versions' rows and hand the selection to `emit`
  /// while the CVD's reader lock is still held — the selection borrows the
  /// shared tables, so it must not be used after `emit` returns. Stages no
  /// table: the session keeps only the parents, schema and sorted rids of
  /// the checkout, against which a changeset commits (CommitChangeset).
  Status CheckoutSelection(
      const std::vector<core::VersionId>& vids, const std::string& table_name,
      const std::function<void(core::RowSelection&)>& emit);

  /// Commit a changeset against a kept checkout: `rows` are the rows the
  /// caller changed or added; `deleted` are the checkout rids no unchanged
  /// row holds, sorted and unique. The version holds `rows` plus the
  /// checkout's other records, which are carried without a scan; every
  /// shipped row gets the matching and primary-key checks of a full-table
  /// commit. InvalidArgument if `deleted` is unsorted, repeats a rid, or
  /// names one the checkout does not hold, or if `rows` carries records
  /// while its columns differ from the checkout's in more than order (a
  /// schema change ships every row).
  ///
  /// The durability wait is bounded by `deadline` (a client deadline must
  /// not hang on a stalled group-commit leader). On DeadlineExceeded the
  /// commit was APPLIED in memory but its WAL batch is still in flight —
  /// the outcome is unknown, and the session parks the in-flight tickets:
  /// a later call for the same table re-waits them, ignoring the re-sent
  /// changeset, instead of re-applying, so retrying after a timeout can
  /// never double-commit. Any other error is definitive (validation
  /// failure, apply error, or a durability failure that poisons the
  /// manager).
  Status CommitChangeset(const std::string& table_name,
                         const minidb::Table& rows,
                         const std::vector<core::RecordId>& deleted,
                         const std::string& message, const std::string& author,
                         const Deadline& deadline, CommitOutcome* out);

  /// True while a deadline-exceeded commit for `table_name` awaits its
  /// durability verdict (CommitChangeset must be called to resolve it).
  bool HasPendingCommit(const std::string& table_name) const {
    return pending_commits_.find(table_name) != pending_commits_.end();
  }

  /// Drop a checkout (its staged table or kept rid list, and its
  /// provenance) without committing (a checkout of a name already held
  /// uses this to replace it). Refused while a timed-out commit for
  /// `table_name` is still in flight.
  Status DiscardStaging(const std::string& table_name);

  /// Records in `a` but not `b` (both <= the pinned watermark).
  Result<minidb::Table> Diff(core::VersionId a, core::VersionId b) const;

  /// Re-pin the watermark to the current durable high-water mark, making
  /// commits that landed since open/last refresh visible.
  Status Refresh();

  core::VersionId watermark() const { return watermark_; }

 private:
  friend class SessionManager;
  Session(SessionManager* manager, core::VersionId watermark)
      : manager_(manager), watermark_(watermark) {}

  /// Re-wait the parked commit at `pending` (see CommitChangeset).
  Status ResumePending(
      std::unordered_map<std::string, PendingDurability>::iterator pending,
      const Deadline& deadline, CommitOutcome* out);
  /// Forget everything staged under `table_name` (rows, rids, parents).
  void Forget(const std::string& table_name);

  SessionManager* manager_;
  core::VersionId watermark_;
  minidb::Database staging_;
  // Checkout name -> what a commit of it is checked against.
  struct KeptCheckout {
    std::vector<core::VersionId> parents;  // pinned at checkout
    minidb::Schema schema;
    std::vector<core::RecordId> rids;  // sorted
    uint64_t checkout_id = 0;  // of the table handed out; 0 for the server's
  };
  std::unordered_map<std::string, KeptCheckout> checkouts_;
  // Staging table -> commit applied in memory but with its WAL batch still
  // in flight after a durability-wait timeout (see CommitChangeset).
  std::unordered_map<std::string, PendingDurability> pending_commits_;
};

/// Owns the shared Cvd and coordinates its concurrent sessions.
class SessionManager {
 public:
  /// Takes ownership of `cvd` and installs its commit observer (replacing
  /// any existing one). `repo` may be null: commits are then acknowledged
  /// without durability. The repository must outlive the manager.
  SessionManager(std::unique_ptr<core::Cvd> cvd, storage::Repository* repo);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a new session pinned at the current durable watermark. The
  /// manager must outlive every session it opened.
  std::unique_ptr<Session> Open();

  /// Hand the CVD back (clearing the commit observer). No session may be
  /// used afterwards.
  std::unique_ptr<core::Cvd> Release();

  /// Durable high-water mark: versions <= this are applied AND logged.
  core::VersionId watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// True after a durability failure: commits are refused until the
  /// repository is reopened (in-memory versions past the watermark may not
  /// be on disk).
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Run a read-only callback against the CVD under the shared data lock
  /// (for callers outside the Session API, e.g. the CLI's ls/log).
  Status ReadCvd(const std::function<Status(const core::Cvd&)>& fn) const;

 private:
  friend class Session;

  Status RequireUsable() const;
  /// Largest childless descendant of `base` (== base when base is a tip).
  /// Deterministic: highest version id wins. Caller holds data_mu_.
  core::VersionId TipOf(core::VersionId base) const;

  Result<minidb::Table> Diff(core::VersionId a, core::VersionId b,
                             core::VersionId watermark) const;

  /// The optimistic-commit protocol (see session.cc for the lock dance):
  /// commit `rows` plus the stored records `carried` (sorted) with a
  /// bounded durability wait. On DeadlineExceeded `*pending` holds the
  /// in-flight tickets plus the parked outcome (the apply already
  /// happened); the manager is NOT poisoned — durability is unknown, not
  /// failed. Resolve by calling WaitPendingDurable.
  Status CommitStaged(const minidb::Table& rows,
                      const std::vector<core::RecordId>& carried,
                      const std::vector<core::VersionId>& parents,
                      const std::string& message, const std::string& author,
                      const Deadline& deadline, CommitOutcome* out,
                      PendingDurability* pending);

  /// Re-wait a parked commit's tickets. OK: fills `*out` and advances the
  /// watermark. DeadlineExceeded: still in flight, call again. Other
  /// errors are definitive (durability failed -> manager poisoned, or the
  /// parked apply error).
  Status WaitPendingDurable(PendingDurability* pending,
                            const Deadline& deadline, CommitOutcome* out);

  /// Phase run under commit_mu_: apply the commit, detect divergence,
  /// build + apply the reconciliation merge. Fills `out`.
  Status CommitApply(const minidb::Table& rows,
                     const std::vector<core::RecordId>& carried,
                     const std::vector<core::VersionId>& parents,
                     const std::string& message, const std::string& author,
                     CommitOutcome* out) ORPHEUS_REQUIRES(commit_mu_);

  /// Deterministic three-way record-level merge of tip `t` and fresh
  /// commit `v` against their common base `b` (DESIGN.md §13.2), planned
  /// from the membership deltas: only records one side changed are
  /// fetched and classified. Takes data_mu_ shared.
  struct MergePlan {
    std::vector<core::RecordId> carried;  // stored records the merge keeps
    std::vector<minidb::Row> fresh;       // attribute-wise merged payloads
    std::vector<MergeConflict> conflicts;  // non-empty: no merge commit
  };
  Result<MergePlan> PlanMerge(core::VersionId base, core::VersionId tip,
                              core::VersionId vid) const;

  void AdvanceWatermark(core::VersionId vid);

  /// Wait out every ticket, bounded by `deadline`. DeadlineExceeded
  /// short-circuits (durability unknown); append failures are collected
  /// (first wins) so every ticket still gets waited on.
  Status WaitTicketsDurable(const std::vector<uint64_t>& tickets,
                            const Deadline& deadline);
  /// Mark the manager failed after a definitive durability failure.
  void PoisonAfterDurabilityFailure(const Status& error);

  // Lock order (ranks): commit_mu_ (2) -> data_mu_ (5) -> repository (10).
  // Committers serialize on commit_mu_ while holding data_mu_ only for the
  // in-memory apply; readers take data_mu_ shared and never touch
  // commit_mu_, so checkouts stay concurrent with a committer's planning
  // and its fsync wait.
  mutable Mutex commit_mu_{"session.commit", lock_rank::kSessionCommit};
  mutable SharedMutex data_mu_{"session.data", lock_rank::kSessionData};

  // Owned CVD; writes under data_mu_ exclusive, reads under shared. Not
  // annotated: the commit observer lambda inside the Cvd also reaches it.
  std::unique_ptr<core::Cvd> cvd_;
  storage::Repository* repo_;  // nullable, not owned
  std::string name_;

  // Tickets returned by Repository::EnqueueCommit during the current
  // CommitApply. Written by the commit observer, drained by CommitStaged;
  // both run with commit_mu_ held (the observer fires inside CommitTable,
  // which sessions only call from CommitApply).
  std::vector<uint64_t> inflight_tickets_;

  std::atomic<core::VersionId> watermark_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace orpheus::session

#endif  // ORPHEUS_SESSION_SESSION_H_
