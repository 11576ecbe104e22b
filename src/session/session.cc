#include "session/session.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "minidb/value.h"

namespace orpheus::session {

namespace {

using core::RecordId;

enum class RowState { kAbsent, kUnchanged, kModified, kAdded };

/// a ∖ b over sorted rid lists.
std::vector<RecordId> Minus(const std::vector<RecordId>& a,
                            const std::vector<RecordId>& b) {
  std::vector<RecordId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// a ∪ b over sorted rid lists.
std::vector<RecordId> Union(const std::vector<RecordId>& a,
                            const std::vector<RecordId>& b) {
  std::vector<RecordId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// MutexLock whose wait for the mutex is traced as the span `lock_wait`
/// (the time committers queue behind one another on commit_mu_).
class ORPHEUS_SCOPED_CAPABILITY TracedMutexLock {
 public:
  explicit TracedMutexLock(Mutex* mu) ORPHEUS_ACQUIRE(mu) : mu_(mu) {
    ORPHEUS_TRACE_SPAN("lock_wait");
    mu_->Lock();
  }
  ~TracedMutexLock() ORPHEUS_RELEASE() { mu_->Unlock(); }

  TracedMutexLock(const TracedMutexLock&) = delete;
  TracedMutexLock& operator=(const TracedMutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Status Session::Checkout(const std::vector<core::VersionId>& vids,
                         const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(minidb::Table table,
                           CheckoutTable(vids, table_name));
  Status adopted = staging_.AdoptTable(std::move(table)).status();
  if (!adopted.ok()) checkouts_.erase(table_name);
  return adopted;
}

Result<minidb::Table> Session::CheckoutTable(
    const std::vector<core::VersionId>& vids, const std::string& table_name) {
  ORPHEUS_TRACE_SPAN("session.checkout");
  minidb::Table table(table_name, minidb::Schema());
  ORPHEUS_RETURN_NOT_OK(CheckoutSelection(
      vids, table_name, [&](core::RowSelection& sel) {
        table = std::move(sel).Materialize(table_name);
      }));
  checkouts_[table_name].checkout_id = table.StampCheckout();
  return table;
}

Status Session::CheckoutSelection(
    const std::vector<core::VersionId>& vids, const std::string& table_name,
    const std::function<void(core::RowSelection&)>& emit) {
  if (checkouts_.find(table_name) != checkouts_.end()) {
    ORPHEUS_RETURN_NOT_OK(DiscardStaging(table_name));
  }
  for (core::VersionId vid : vids) {
    if (vid > watermark_) {
      return Status::InvalidArgument(StrFormat(
          "version v%d is beyond this session's snapshot (watermark v%d); "
          "refresh the session to see newer commits",
          vid, watermark_));
    }
  }
  // A commit appends to the tables the selection borrows (and may move
  // their columns), so the lock is held until `emit` is done with it.
  ReaderMutexLock data(&manager_->data_mu_);
  Result<core::RowSelection> sel = [&] {
    ORPHEUS_TRACE_SPAN("select");
    return manager_->cvd_->Select(vids);
  }();
  ORPHEUS_RETURN_NOT_OK(sel.status());
  checkouts_[table_name] =
      KeptCheckout{vids, sel->schema(), sel->SortedRids(), 0};
  emit(*sel);
  return Status::OK();
}

Result<CommitOutcome> Session::Commit(const std::string& table_name,
                                      const std::string& message,
                                      const std::string& author) {
  const minidb::Table* table = staging_.GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(
        StrFormat("no staging table \"%s\"", table_name.c_str()));
  }
  auto it = checkouts_.find(table_name);
  if (it == checkouts_.end() ||
      table->checkout_id() == it->second.checkout_id) {
    return CommitTable(*table, message, author);
  }
  // A table restaged under the name ships whole, deleting every rid.
  CommitOutcome out;
  ORPHEUS_RETURN_NOT_OK(CommitChangeset(table_name, *table, it->second.rids,
                                        message, author, Deadline::Infinite(),
                                        &out));
  return out;
}

Result<CommitOutcome> Session::CommitTable(const minidb::Table& table,
                                           const std::string& message,
                                           const std::string& author) {
  // A copy: committing a staged table drops it, name and all.
  const std::string name = table.name();
  auto it = checkouts_.find(name);
  if (it != checkouts_.end() &&
      (table.checkout_id() == 0 ||
       table.checkout_id() != it->second.checkout_id)) {
    return Status::InvalidArgument(StrFormat(
        "table \"%s\" is a copy or a stale checkout", name.c_str()));
  }
  const minidb::Table::Edits edits = table.GetEdits();
  CommitOutcome out;
  ORPHEUS_RETURN_NOT_OK(CommitChangeset(
      name, table.CopyRows(edits.changed, name), edits.dropped, message,
      author, Deadline::Infinite(), &out));
  return out;
}

Status Session::CommitChangeset(const std::string& table_name,
                                const minidb::Table& rows,
                                const std::vector<core::RecordId>& deleted,
                                const std::string& message,
                                const std::string& author,
                                const Deadline& deadline, CommitOutcome* out) {
  auto pending_it = pending_commits_.find(table_name);
  if (pending_it != pending_commits_.end()) {
    return ResumePending(pending_it, deadline, out);
  }
  auto it = checkouts_.find(table_name);
  if (it == checkouts_.end()) {
    return Status::NotFound(StrFormat(
        "no checkout of table \"%s\" in this session", table_name.c_str()));
  }
  const std::vector<RecordId>& checkout = it->second.rids;
  for (size_t i = 0; i < deleted.size(); ++i) {
    if ((i > 0 && deleted[i] <= deleted[i - 1]) ||
        !std::binary_search(checkout.begin(), checkout.end(), deleted[i])) {
      return Status::InvalidArgument(StrFormat(
          "changeset for \"%s\" deletes rid %lld, which is repeated, out of "
          "order, or not in the checkout",
          table_name.c_str(), static_cast<long long>(deleted[i])));
    }
  }
  const std::vector<RecordId> carried = Minus(checkout, deleted);
  if (!carried.empty()) {
    // Carried records keep the checkout's columns, so the shipped rows must
    // have them too, `_rid` first.
    const std::vector<int> order =
        rows.schema().ColumnOrderIn(it->second.schema);
    if (order.empty() || order[0] != 0) {
      return Status::InvalidArgument(StrFormat(
          "changeset for \"%s\" carries %zu records but its columns %s differ "
          "from the checkout's %s; a schema change must ship every row",
          table_name.c_str(), carried.size(),
          rows.schema().ToString().c_str(),
          it->second.schema.ToString().c_str()));
    }
  }
  ORPHEUS_COUNTER_ADD("session.commit.rows_carried", carried.size());
  PendingDurability pending;
  Status s = manager_->CommitStaged(rows, carried, it->second.parents, message,
                                    author, deadline, out, &pending);
  if (s.IsDeadlineExceeded()) {
    pending_commits_[table_name] = std::move(pending);
    return s;
  }
  ORPHEUS_RETURN_NOT_OK(s);
  Forget(table_name);
  // Read-your-writes: the commit is durable by now, so the manager's
  // watermark covers it — advancing the pin cannot admit anything weaker
  // than snapshot isolation.
  watermark_ = std::max(watermark_, manager_->watermark());
  return Status::OK();
}

Status Session::ResumePending(
    std::unordered_map<std::string, PendingDurability>::iterator pending,
    const Deadline& deadline, CommitOutcome* out) {
  // A previous attempt timed out waiting for durability: the commit is
  // already applied, so re-wait its tickets — never re-apply (retrying
  // after a lost result must be exactly-once).
  Status s = manager_->WaitPendingDurable(&pending->second, deadline, out);
  if (s.IsDeadlineExceeded()) return s;  // still in flight; keep parked
  const std::string table_name = pending->first;
  pending_commits_.erase(pending);
  ORPHEUS_RETURN_NOT_OK(s);
  Forget(table_name);
  watermark_ = std::max(watermark_, manager_->watermark());
  return Status::OK();
}

void Session::Forget(const std::string& table_name) {
  if (staging_.HasTable(table_name)) {
    ORPHEUS_CHECK_OK(staging_.DropTable(table_name));
  }
  checkouts_.erase(table_name);
}

Status Session::DiscardStaging(const std::string& table_name) {
  if (pending_commits_.find(table_name) != pending_commits_.end()) {
    return Status::InvalidArgument(StrFormat(
        "staging table \"%s\" has a commit awaiting durability; resolve it "
        "before discarding", table_name.c_str()));
  }
  if (checkouts_.find(table_name) == checkouts_.end()) {
    return Status::NotFound(
        StrFormat("no staging table \"%s\"", table_name.c_str()));
  }
  Forget(table_name);
  return Status::OK();
}

Result<minidb::Table> Session::Diff(core::VersionId a,
                                    core::VersionId b) const {
  return manager_->Diff(a, b, watermark_);
}

Status Session::Refresh() {
  ORPHEUS_RETURN_NOT_OK(manager_->RequireUsable());
  watermark_ = std::max(watermark_, manager_->watermark());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(std::unique_ptr<core::Cvd> cvd,
                               storage::Repository* repo)
    : cvd_(std::move(cvd)), repo_(repo), name_(cvd_->name()) {
  watermark_.store(cvd_->num_versions(), std::memory_order_release);
  cvd_->set_commit_observer([this](const core::CvdCommitRecord& record) {
    if (repo_ == nullptr) return Status::OK();
    ORPHEUS_ASSIGN_OR_RETURN(uint64_t ticket,
                             repo_->EnqueueCommit(name_, record));
    inflight_tickets_.push_back(ticket);
    return Status::OK();
  });
}

std::unique_ptr<Session> SessionManager::Open() {
  ORPHEUS_COUNTER_ADD("session.opened", 1);
  return std::unique_ptr<Session>(new Session(this, watermark()));
}

std::unique_ptr<core::Cvd> SessionManager::Release() {
  MutexLock commit_lock(&commit_mu_);
  WriterMutexLock data(&data_mu_);
  cvd_->set_commit_observer(nullptr);
  return std::move(cvd_);
}

Status SessionManager::ReadCvd(
    const std::function<Status(const core::Cvd&)>& fn) const {
  ReaderMutexLock data(&data_mu_);
  return fn(*cvd_);
}

Status SessionManager::RequireUsable() const {
  if (failed_.load(std::memory_order_acquire)) {
    return Status::Internal(StrFormat(
        "session manager for \"%s\" is poisoned after a durability failure; "
        "reopen the repository to recover",
        name_.c_str()));
  }
  return Status::OK();
}

core::VersionId SessionManager::TipOf(core::VersionId base) const {
  const auto& graph = cvd_->graph();
  if (graph.children(base - 1).empty()) return base;
  core::VersionId tip = base;
  for (core::VersionId d : cvd_->Descendants(base)) {
    if (graph.children(d - 1).empty() && d > tip) tip = d;
  }
  return tip;
}

Result<minidb::Table> SessionManager::Diff(core::VersionId a,
                                           core::VersionId b,
                                           core::VersionId watermark) const {
  if (a > watermark || b > watermark) {
    return Status::InvalidArgument(StrFormat(
        "diff v%d,v%d is beyond this session's snapshot (watermark v%d)",
        a, b, watermark));
  }
  ReaderMutexLock data(&data_mu_);
  return cvd_->Diff(a, b);
}

Status SessionManager::CommitStaged(
    const minidb::Table& rows, const std::vector<RecordId>& carried,
    const std::vector<core::VersionId>& parents, const std::string& message,
    const std::string& author, const Deadline& deadline, CommitOutcome* out,
    PendingDurability* pending) {
  ORPHEUS_TRACE_SPAN("session.commit");
  std::vector<uint64_t> tickets;
  Status apply_status;
  {
    TracedMutexLock commit_lock(&commit_mu_);
    ORPHEUS_RETURN_NOT_OK(RequireUsable());
    inflight_tickets_.clear();
    apply_status = CommitApply(rows, carried, parents, message, author, out);
    // Drain the tickets even when a later step failed: every enqueued
    // record WAS applied in memory, so someone must wait out its batch.
    tickets.swap(inflight_tickets_);
  }
  // Wait outside commit_mu_: the next committer enqueues meanwhile and the
  // repository's leader batches both under one fsync.
  Status durable_status;
  {
    ORPHEUS_TRACE_SPAN("durable_wait");
    durable_status = WaitTicketsDurable(tickets, deadline);
  }
  if (durable_status.IsDeadlineExceeded()) {
    // The batch is still in flight: durability (and hence the outcome) is
    // unknown, so the manager is NOT poisoned and the watermark does not
    // move. Park everything needed to resolve the commit later.
    pending->tickets = std::move(tickets);
    pending->outcome = *out;
    pending->apply_status = apply_status;
    ORPHEUS_COUNTER_ADD("session.commit.durability_timeout", 1);
    return durable_status;
  }
  if (!durable_status.ok()) {
    // Versions past the watermark exist in memory but not on disk. The
    // watermark never advances over them, so no session can check them
    // out; poison the manager and make the caller reopen.
    PoisonAfterDurabilityFailure(durable_status);
    return durable_status;
  }
  ORPHEUS_RETURN_NOT_OK(apply_status);
  AdvanceWatermark(std::max(out->vid, out->merged_vid));
  return Status::OK();
}

Status SessionManager::WaitPendingDurable(PendingDurability* pending,
                                          const Deadline& deadline,
                                          CommitOutcome* out) {
  Status durable_status = WaitTicketsDurable(pending->tickets, deadline);
  if (durable_status.IsDeadlineExceeded()) return durable_status;
  if (!durable_status.ok()) {
    PoisonAfterDurabilityFailure(durable_status);
    return durable_status;
  }
  ORPHEUS_RETURN_NOT_OK(pending->apply_status);
  *out = pending->outcome;
  AdvanceWatermark(std::max(out->vid, out->merged_vid));
  return Status::OK();
}

Status SessionManager::WaitTicketsDurable(
    const std::vector<uint64_t>& tickets, const Deadline& deadline) {
  Status first_error;
  for (uint64_t ticket : tickets) {
    if (repo_ == nullptr) break;
    Status s = deadline.is_infinite()
                   ? repo_->WaitCommitDurable(ticket)
                   : repo_->WaitCommitDurableFor(ticket, deadline);
    if (s.IsDeadlineExceeded()) return s;
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

void SessionManager::PoisonAfterDurabilityFailure(const Status& error) {
  failed_.store(true, std::memory_order_release);
  LOG_ERROR("session commit not durable; manager poisoned",
            {{"cvd", name_}, {"error", error.message()}});
}

Status SessionManager::CommitApply(const minidb::Table& rows,
                                   const std::vector<RecordId>& carried,
                                   const std::vector<core::VersionId>& parents,
                                   const std::string& message,
                                   const std::string& author,
                                   CommitOutcome* out) {
  const core::VersionId base =
      parents.empty() ? core::kInvalidVersion : parents[0];
  core::VersionId tip = base;
  {
    WriterMutexLock data(&data_mu_);
    // Optimistic validation: the tip must be computed before our commit
    // lands (afterwards the new version is itself a childless descendant).
    if (base != core::kInvalidVersion) tip = TipOf(base);
    ORPHEUS_ASSIGN_OR_RETURN(
        out->vid, cvd_->CommitTable(rows, parents, message, author,
                                    /*checkout_time=*/0, carried));
  }
  ORPHEUS_COUNTER_ADD("session.commit.applied", 1);
  if (tip == base) return Status::OK();

  // A concurrent commit moved the branch past our base: reconcile.
  ORPHEUS_TRACE_SPAN("session.reconcile");
  MergePlan plan;
  {
    ORPHEUS_TRACE_SPAN("plan");
    ORPHEUS_ASSIGN_OR_RETURN(plan, PlanMerge(base, tip, out->vid));
  }
  if (!plan.conflicts.empty()) {
    out->conflicts = std::move(plan.conflicts);
    out->reconciled_with = tip;
    ORPHEUS_COUNTER_ADD("session.commit.conflicts", out->conflicts.size());
    LOG_WARN("reconciliation found attribute conflicts",
             {{"cvd", name_},
              {"vid", static_cast<unsigned long long>(out->vid)},
              {"tip", static_cast<unsigned long long>(tip)},
              {"conflicts",
               static_cast<unsigned long long>(out->conflicts.size())}});
    return Status::OK();
  }
  {
    ORPHEUS_TRACE_SPAN("apply");
    WriterMutexLock data(&data_mu_);
    // The merge is a commit of its fresh payloads plus the carried records.
    minidb::Table fresh("reconcile", cvd_->backend()->data_schema());
    for (const minidb::Row& row : plan.fresh) fresh.AppendRowUnchecked(row);
    std::sort(plan.carried.begin(), plan.carried.end());
    ORPHEUS_ASSIGN_OR_RETURN(
        out->merged_vid,
        cvd_->CommitTable(fresh, {tip, out->vid},
                          StrFormat("reconcile v%d into v%d", out->vid, tip),
                          author, /*checkout_time=*/0, plan.carried));
  }
  out->reconciled = true;
  out->reconciled_with = tip;
  ORPHEUS_COUNTER_ADD("session.commit.reconciled", 1);
  return Status::OK();
}

Result<SessionManager::MergePlan> SessionManager::PlanMerge(
    core::VersionId base, core::VersionId tip, core::VersionId vid) const {
  // Records are immutable, so the shared lock only guards the catalog.
  ReaderMutexLock data(&data_mu_);
  const core::Cvd& cvd = *cvd_;
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> b_rids,
                           cvd.VersionRecords(base));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> t_rids,
                           cvd.VersionRecords(tip));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> v_rids,
                           cvd.VersionRecords(vid));
  // The membership deltas name every record either side changed (a modify
  // is a delete plus an add of a fresh rid); nothing else is looked at.
  const std::vector<RecordId> t_added = Minus(t_rids, b_rids);
  const std::vector<RecordId> t_removed = Minus(b_rids, t_rids);
  const std::vector<RecordId> v_added = Minus(v_rids, b_rids);
  const std::vector<RecordId> v_removed = Minus(b_rids, v_rids);
  const std::vector<RecordId> b_changed = Union(t_removed, v_removed);
  ORPHEUS_COUNTER_ADD("session.reconcile.records_touched",
                      t_added.size() + t_removed.size() + v_added.size() +
                          v_removed.size());

  MergePlan plan;
  if (cvd.primary_key().empty()) {
    // No primary key: record-level merge. Adds and deletes relative to the
    // base can never collide, so the merge is (tip ∪ ours) minus both
    // delete sets, and conflicts are impossible (Ranjan et al. §3).
    plan.carried = Minus(Union(t_rids, v_rids), b_changed);
    return plan;
  }

  // Primary-key three-way merge. Keys are unique within each version, so
  // the key of a base record both sides kept cannot also belong to a
  // changed record: those records carry forward untouched.
  plan.carried = Minus(b_rids, b_changed);
  const minidb::Schema& schema = cvd.backend()->data_schema();
  std::vector<size_t> pk_attrs;
  for (const std::string& attr : cvd.primary_key()) {
    const int k = schema.FindColumn(attr);
    if (k < 0) {
      return Status::Internal(StrFormat(
          "primary-key attribute \"%s\" missing from the CVD schema",
          attr.c_str()));
    }
    pk_attrs.push_back(static_cast<size_t>(k));
  }

  // Slot every changed record under its typed key; slots iterate in key
  // order, which fixes the order of conflicts and of fresh rids.
  struct Side {
    RecordId rid = -1;
    minidb::Row row;
  };
  struct Slot {
    Side b, t, v;
  };
  std::map<minidb::Row, Slot, minidb::KeyTupleLess> slots;
  auto add_side = [&](const std::vector<RecordId>& rids, core::VersionId in,
                      Side Slot::*side) -> Status {
    for (RecordId rid : rids) {
      ORPHEUS_ASSIGN_OR_RETURN(minidb::Row row, cvd.RecordPayload(rid, in));
      minidb::Row key;
      for (size_t k : pk_attrs) key.push_back(row[k]);
      slots[std::move(key)].*side = Side{rid, std::move(row)};
    }
    return Status::OK();
  };
  ORPHEUS_RETURN_NOT_OK(add_side(b_changed, base, &Slot::b));
  ORPHEUS_RETURN_NOT_OK(add_side(t_added, tip, &Slot::t));
  ORPHEUS_RETURN_NOT_OK(add_side(v_added, vid, &Slot::v));

  // A side's fate for a key. A base record missing from a side's removals
  // is still in that side: unchanged (records are immutable, so the same
  // rid means the same payload).
  auto state_of = [](const Slot& s, const Side& side,
                     const std::vector<RecordId>& removed) {
    if (s.b.rid < 0) return side.rid < 0 ? RowState::kAbsent : RowState::kAdded;
    if (side.rid >= 0) return RowState::kModified;
    return std::binary_search(removed.begin(), removed.end(), s.b.rid)
               ? RowState::kAbsent
               : RowState::kUnchanged;
  };
  auto conflict = [&](const minidb::Row& key, size_t attr, std::string base_v,
                      const minidb::Value& ours, const minidb::Value& theirs) {
    plan.conflicts.push_back(MergeConflict{
        minidb::RenderKey(key), schema.column(attr).name, std::move(base_v),
        ours.ToString(), theirs.ToString()});
  };

  for (const auto& [key, slot] : slots) {
    const RowState ts = state_of(slot, slot.t, t_removed);
    const RowState vs = state_of(slot, slot.v, v_removed);
    const Side& t = ts == RowState::kUnchanged ? slot.b : slot.t;
    const Side& v = vs == RowState::kUnchanged ? slot.b : slot.v;
    if (slot.b.rid < 0) {
      // add/add (or a one-sided add).
      if (ts == RowState::kAdded && vs == RowState::kAdded) {
        if (t.row == v.row) {
          // Identical insert on both sides: keep the tip's record id.
          plan.carried.push_back(t.rid);
        } else {
          for (size_t c = 0; c < t.row.size(); ++c) {
            if (t.row[c] != v.row[c]) conflict(key, c, "", v.row[c], t.row[c]);
          }
        }
      } else if (ts == RowState::kAdded) {
        plan.carried.push_back(t.rid);
      } else if (vs == RowState::kAdded) {
        plan.carried.push_back(v.rid);
      }
      continue;
    }
    // Key existed at the base.
    if (ts == RowState::kAbsent) {
      // delete/modify: the modification wins (Ranjan et al.'s rule — a
      // concurrent edit proves the record still matters); delete vs
      // unchanged is a clean delete.
      if (vs == RowState::kModified) plan.carried.push_back(v.rid);
    } else if (vs == RowState::kAbsent) {
      if (ts == RowState::kModified) plan.carried.push_back(t.rid);
    } else if (ts == RowState::kUnchanged) {
      plan.carried.push_back(v.rid);
    } else if (vs == RowState::kUnchanged) {
      plan.carried.push_back(t.rid);
    } else if (t.row == v.row) {
      // modify/modify to the same payload: keep the tip's record id.
      plan.carried.push_back(t.rid);
    } else {
      // modify/modify: attribute-wise three-way against the base. The
      // merged row combines cells from both sides, so it is a new record.
      const minidb::Row& b = slot.b.row;
      minidb::Row merged(b.size());
      const size_t conflicts_before = plan.conflicts.size();
      for (size_t c = 0; c < b.size(); ++c) {
        if (t.row[c] != b[c] && v.row[c] != b[c] && t.row[c] != v.row[c]) {
          conflict(key, c, b[c].ToString(), v.row[c], t.row[c]);
        } else {
          merged[c] = v.row[c] != b[c] ? v.row[c] : t.row[c];
        }
      }
      if (plan.conflicts.size() == conflicts_before) {
        plan.fresh.push_back(std::move(merged));
      }
    }
  }
  return plan;
}

void SessionManager::AdvanceWatermark(core::VersionId vid) {
  core::VersionId cur = watermark_.load(std::memory_order_relaxed);
  while (cur < vid && !watermark_.compare_exchange_weak(
                          cur, vid, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

}  // namespace orpheus::session
