#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/validation.h"
#include "core/cvd.h"
#include "core/types.h"
#include "core/validate.h"
#include "minidb/csv.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "session/session.h"
#include "session/session_api.h"
#include "storage/format.h"
#include "storage/repository.h"

namespace orpheus::session {
namespace {

using core::VersionId;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;
using storage::Repository;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_session_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

Table MakeTable(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Table t("seed",
          Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
  for (const auto& [id, name] : rows) {
    ORPHEUS_CHECK_OK(t.InsertRow({Value(id), Value(name)}));
  }
  return t;
}

core::Cvd::Options PkOptions() {
  core::Cvd::Options opts;
  opts.primary_key = {"id"};
  return opts;
}

std::unique_ptr<core::Cvd> MakeCvd(
    const std::vector<std::pair<int64_t, std::string>>& rows,
    const core::Cvd::Options& opts) {
  return core::Cvd::Init("t", MakeTable(rows), opts).MoveValueOrDie();
}

// --- Helpers over checked-out staging tables (schema: _rid, id, name) ---

int64_t RowOf(const Table& t, int64_t id) {
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (t.GetValue(r, 1).AsInt() == id) return r;
  }
  return -1;
}

void SetName(Table* t, int64_t id, const std::string& name) {
  int64_t row = RowOf(*t, id);
  ASSERT_GE(row, 0) << "no row with id " << id;
  minidb::Row vals = t->GetRow(static_cast<uint32_t>(row));
  vals[2] = Value(name);
  t->SetRow(static_cast<uint32_t>(row), vals);
}

void DeleteKey(Table* t, int64_t id) {
  int64_t row = RowOf(*t, id);
  ASSERT_GE(row, 0) << "no row with id " << id;
  t->DeleteRows({static_cast<uint32_t>(row)});
}

void AddRow(Table* t, int64_t id, const std::string& name) {
  t->AppendRowUnchecked({Value::Null(), Value(id), Value(name)});
}

std::map<int64_t, std::string> NamesByKey(const Table& t) {
  std::map<int64_t, std::string> out;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    out[t.GetValue(r, 1).AsInt()] = t.GetValue(r, 2).ToString();
  }
  return out;
}

/// Materialize `vids` through a throwaway session and render as CSV (the
/// byte-identical yardstick; includes the _rid column).
std::string CheckoutCsv(SessionManager* manager,
                        const std::vector<VersionId>& vids) {
  auto s = manager->Open();
  ORPHEUS_CHECK_OK(s->Checkout(vids, "peek"));
  return minidb::ToCsv(*s->table("peek"));
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { log::SetLevelForTest(log::Level::kError); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Basic flow + snapshot isolation
// ---------------------------------------------------------------------------

TEST_F(SessionTest, CommitAdvancesOnlyTheCommittersView) {
  SessionManager manager(MakeCvd({{1, "a"}, {2, "b"}, {3, "c"}}, PkOptions()),
                        /*repo=*/nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  EXPECT_EQ(s1->watermark(), 1);
  EXPECT_EQ(s2->watermark(), 1);

  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  SetName(s1->table("t"), 2, "b2");
  AddRow(s1->table("t"), 4, "d");
  auto out = s1->Commit("t", "edit b, add d");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->vid, 2);
  EXPECT_FALSE(out->reconciled);
  EXPECT_EQ(out->merged_vid, core::kInvalidVersion);
  EXPECT_TRUE(out->conflicts.empty());
  EXPECT_EQ(s1->watermark(), 2);  // read-your-writes
  EXPECT_FALSE(s1->staging()->HasTable("t"));

  // s2 is pinned at its open-time snapshot: v2 is invisible until Refresh.
  EXPECT_EQ(s2->watermark(), 1);
  EXPECT_FALSE(s2->Checkout({2}, "t").ok());
  ASSERT_TRUE(s2->Refresh().ok());
  EXPECT_EQ(s2->watermark(), 2);
  ASSERT_TRUE(s2->Checkout({2}, "t").ok());
  EXPECT_EQ(NamesByKey(*s2->table("t")),
            (std::map<int64_t, std::string>{
                {1, "a"}, {2, "b2"}, {3, "c"}, {4, "d"}}));
}

TEST_F(SessionTest, DiffIsWatermarkGated) {
  SessionManager manager(MakeCvd({{1, "a"}}, PkOptions()), nullptr);
  auto reader = manager.Open();  // pinned at v1
  auto writer = manager.Open();
  ASSERT_TRUE(writer->Checkout({1}, "t").ok());
  AddRow(writer->table("t"), 2, "b");
  ASSERT_TRUE(writer->Commit("t", "add b").ok());

  EXPECT_FALSE(reader->Diff(2, 1).ok());
  ASSERT_TRUE(reader->Refresh().ok());
  auto diff = reader->Diff(2, 1);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff->num_rows(), 1u);
  EXPECT_EQ(diff->GetValue(0, 1).AsInt(), 2);
}

// ---------------------------------------------------------------------------
// Optimistic commit reconciliation (three-way record-level merge)
// ---------------------------------------------------------------------------

TEST_F(SessionTest, DisjointEditsReconcileIntoMergeCommit) {
  SessionManager manager(MakeCvd({{1, "a"}, {2, "b"}, {3, "c"}}, PkOptions()),
                        nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  ASSERT_TRUE(s2->Checkout({1}, "t").ok());

  SetName(s1->table("t"), 2, "s1");
  AddRow(s1->table("t"), 4, "d");
  ASSERT_TRUE(s1->Commit("t", "s1 edits").ok());

  SetName(s2->table("t"), 3, "s2");
  AddRow(s2->table("t"), 5, "e");
  auto out = s2->Commit("t", "s2 edits");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->vid, 3);
  EXPECT_TRUE(out->reconciled);
  EXPECT_EQ(out->reconciled_with, 2);
  EXPECT_EQ(out->merged_vid, 4);
  EXPECT_TRUE(out->conflicts.empty());

  // Merge commit has both divergent versions as parents: {tip, ours}.
  ASSERT_TRUE(manager
                  .ReadCvd([](const core::Cvd& cvd) {
                    EXPECT_EQ(cvd.num_versions(), 4);
                    EXPECT_EQ(cvd.Parents(4),
                              (std::vector<VersionId>{2, 3}));
                    return Status::OK();
                  })
                  .ok());

  auto merged = manager.Open();
  ASSERT_TRUE(merged->Checkout({4}, "m").ok());
  EXPECT_EQ(NamesByKey(*merged->table("m")),
            (std::map<int64_t, std::string>{
                {1, "a"}, {2, "s1"}, {3, "s2"}, {4, "d"}, {5, "e"}}));
}

TEST_F(SessionTest, DeleteVersusModifyTheModificationWins) {
  SessionManager manager(MakeCvd({{1, "a"}, {2, "b"}, {3, "c"}}, PkOptions()),
                        nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  ASSERT_TRUE(s2->Checkout({1}, "t").ok());

  DeleteKey(s1->table("t"), 2);  // tip deletes...
  ASSERT_TRUE(s1->Commit("t", "delete b").ok());
  SetName(s2->table("t"), 2, "kept");  // ...we modify concurrently
  auto out = s2->Commit("t", "modify b");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->reconciled);

  auto merged = manager.Open();
  ASSERT_TRUE(merged->Checkout({out->merged_vid}, "m").ok());
  EXPECT_EQ(NamesByKey(*merged->table("m")),
            (std::map<int64_t, std::string>{
                {1, "a"}, {2, "kept"}, {3, "c"}}));
}

TEST_F(SessionTest, IdenticalConcurrentInsertsMergeToOneRecord) {
  SessionManager manager(MakeCvd({{1, "a"}}, PkOptions()), nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  ASSERT_TRUE(s2->Checkout({1}, "t").ok());
  AddRow(s1->table("t"), 2, "same");
  ASSERT_TRUE(s1->Commit("t", "add").ok());
  AddRow(s2->table("t"), 2, "same");
  auto out = s2->Commit("t", "add again");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->reconciled);

  // One surviving record, carrying the tip's record id.
  auto peek = manager.Open();
  ASSERT_TRUE(peek->Checkout({out->merged_vid}, "m").ok());
  ASSERT_TRUE(peek->Checkout({2}, "tip").ok());
  const Table* m = peek->table("m");
  EXPECT_EQ(m->num_rows(), 2u);
  int64_t merged_row = RowOf(*m, 2);
  int64_t tip_row = RowOf(*peek->table("tip"), 2);
  ASSERT_GE(merged_row, 0);
  ASSERT_GE(tip_row, 0);
  EXPECT_EQ(m->GetValue(static_cast<uint32_t>(merged_row), 0),
            peek->table("tip")->GetValue(static_cast<uint32_t>(tip_row), 0));
}

TEST_F(SessionTest, SameAttributeDivergenceReportsConflictSet) {
  SessionManager manager(MakeCvd({{1, "a"}, {2, "b"}}, PkOptions()), nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  ASSERT_TRUE(s2->Checkout({1}, "t").ok());
  SetName(s1->table("t"), 2, "theirs");
  ASSERT_TRUE(s1->Commit("t", "edit").ok());
  SetName(s2->table("t"), 2, "ours");
  auto out = s2->Commit("t", "conflicting edit");
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_EQ(out->vid, 3);
  EXPECT_FALSE(out->reconciled);
  EXPECT_EQ(out->merged_vid, core::kInvalidVersion);
  EXPECT_EQ(out->reconciled_with, 2);
  ASSERT_EQ(out->conflicts.size(), 1u);
  EXPECT_EQ(out->conflicts[0].key, "2");
  EXPECT_EQ(out->conflicts[0].attribute, "name");
  EXPECT_EQ(out->conflicts[0].base, "b");
  EXPECT_EQ(out->conflicts[0].ours, "ours");
  EXPECT_EQ(out->conflicts[0].theirs, "theirs");

  // No merge commit: the session's version stays as a divergent branch.
  ASSERT_TRUE(manager
                  .ReadCvd([](const core::Cvd& cvd) {
                    EXPECT_EQ(cvd.num_versions(), 3);
                    EXPECT_EQ(cvd.Parents(3),
                              (std::vector<VersionId>{1}));
                    return Status::OK();
                  })
                  .ok());
  auto peek = manager.Open();
  ASSERT_TRUE(peek->Checkout({3}, "v").ok());
  EXPECT_EQ(NamesByKey(*peek->table("v"))[2], "ours");
}

TEST_F(SessionTest, NoPrimaryKeyMergesAtTheRecordLevelWithoutConflicts) {
  // Records are immutable, so without a PK the merge is pure set algebra:
  // (base - both delete sets) + both add sets. Conflicts are impossible.
  SessionManager manager(
      MakeCvd({{1, "a"}, {2, "b"}, {3, "c"}}, core::Cvd::Options{}), nullptr);
  auto s1 = manager.Open();
  auto s2 = manager.Open();
  ASSERT_TRUE(s1->Checkout({1}, "t").ok());
  ASSERT_TRUE(s2->Checkout({1}, "t").ok());
  DeleteKey(s1->table("t"), 1);
  AddRow(s1->table("t"), 4, "d");
  ASSERT_TRUE(s1->Commit("t", "s1").ok());
  DeleteKey(s2->table("t"), 2);
  AddRow(s2->table("t"), 5, "e");
  auto out = s2->Commit("t", "s2");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->reconciled);

  auto peek = manager.Open();
  ASSERT_TRUE(peek->Checkout({out->merged_vid}, "m").ok());
  EXPECT_EQ(NamesByKey(*peek->table("m")),
            (std::map<int64_t, std::string>{
                {3, "c"}, {4, "d"}, {5, "e"}}));
}

TEST_F(SessionTest, MergeKeysAreTypedNotRendered) {
  // 0.1234561 and 0.1234562 both render "0.123456" under %g; NULL and the
  // string "NULL" render alike too. Each pair is two records, so the two
  // concurrent inserts merge cleanly instead of colliding in one slot.
  for (const auto& [ours, theirs] :
       std::vector<std::pair<Value, Value>>{
           {Value(0.1234561), Value(0.1234562)},
           {Value::Null(), Value("NULL")}}) {
    ASSERT_EQ(ours.ToString(), theirs.ToString());
    const ValueType key_type = ours.is_null() ? theirs.type() : ours.type();
    Table seed("seed", Schema({{"k", key_type}, {"v", ValueType::kString}}));
    ORPHEUS_CHECK_OK(seed.InsertRow(
        {key_type == ValueType::kDouble ? Value(0.5) : Value("base"),
         Value("b")}));
    core::Cvd::Options opts;
    opts.primary_key = {"k"};
    SessionManager manager(core::Cvd::Init("t", seed, opts).MoveValueOrDie(),
                           nullptr);
    auto s1 = manager.Open();
    auto s2 = manager.Open();
    ASSERT_TRUE(s1->Checkout({1}, "t").ok());
    ASSERT_TRUE(s2->Checkout({1}, "t").ok());
    s1->table("t")->AppendRowUnchecked({Value::Null(), theirs, Value("x")});
    ASSERT_TRUE(s1->Commit("t", "theirs").ok());
    s2->table("t")->AppendRowUnchecked({Value::Null(), ours, Value("y")});
    auto out = s2->Commit("t", "ours");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->conflicts.empty());
    ASSERT_TRUE(out->reconciled);
    auto peek = manager.Open();
    ASSERT_TRUE(peek->Checkout({out->merged_vid}, "m").ok());
    EXPECT_EQ(peek->table("m")->num_rows(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Determinism: a fixed commit order reconciles identically at any degree
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<std::tuple<VersionId, VersionId, VersionId>> outcomes;
  std::string final_csv;
  int num_versions = 0;
};

RunResult RunFixedScheduleAtDegree(int degree) {
  constexpr int kWorkers = 6;
  SessionManager manager(
      MakeCvd({{1, "r"}, {2, "r"}, {3, "r"}, {4, "r"}, {5, "r"}, {6, "r"}},
              PkOptions()),
      nullptr);

  // Every worker edits its own key; commit order is forced by a turn
  // counter, so the reconciliation chain (and every assigned rid) must come
  // out identical no matter how many threads run the schedule.
  std::vector<std::tuple<VersionId, VersionId, VersionId>> outcomes(kWorkers);
  std::atomic<int> turn{0};
  ThreadPool pool(degree);
  {
    ThreadPool::TaskGroup group(&pool);
    for (int i = 0; i < kWorkers; ++i) {
      group.Submit([&, i] {
        auto s = manager.Open();
        ORPHEUS_CHECK_OK(s->Checkout({1}, "t"));
        SetName(s->table("t"), i + 1, "w" + std::to_string(i));
        while (turn.load(std::memory_order_acquire) != i) {
        }
        auto out = s->Commit("t", "worker " + std::to_string(i));
        ORPHEUS_CHECK_OK(out.status());
        EXPECT_TRUE(out->conflicts.empty());
        outcomes[i] = {out->vid, out->merged_vid, out->reconciled_with};
        turn.store(i + 1, std::memory_order_release);
      });
    }
    group.Wait();
  }

  RunResult result;
  result.outcomes = std::move(outcomes);
  result.final_csv = CheckoutCsv(&manager, {manager.watermark()});
  ORPHEUS_CHECK_OK(manager.ReadCvd([&](const core::Cvd& cvd) {
    result.num_versions = cvd.num_versions();
    ValidationReport report;
    core::ValidateCvd(cvd, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
    return Status::OK();
  }));
  return result;
}

TEST_F(SessionTest, ReconciliationIsDeterministicAcrossDegrees) {
  RunResult serial = RunFixedScheduleAtDegree(1);
  RunResult parallel = RunFixedScheduleAtDegree(8);
  EXPECT_EQ(serial.outcomes, parallel.outcomes);
  EXPECT_EQ(serial.num_versions, parallel.num_versions);
  EXPECT_EQ(serial.final_csv, parallel.final_csv);
  // First committer saw its base still a tip; everyone after reconciled.
  EXPECT_EQ(std::get<1>(serial.outcomes[0]), core::kInvalidVersion);
  for (size_t i = 1; i < serial.outcomes.size(); ++i) {
    EXPECT_NE(std::get<1>(serial.outcomes[i]), core::kInvalidVersion);
  }
}

// ---------------------------------------------------------------------------
// Differential: the delta reconcile against the three-materialize oracle
// ---------------------------------------------------------------------------

/// The reconcile as planned before membership deltas, kept only as the
/// reference the delta planner must agree with: materialize base, tip and
/// ours in full, key every row by its rendered primary key, and build the
/// merged table row by row (a NULL _rid marks a new record). Its keys are
/// string renders, so the histories below use integer keys.
struct OracleMerge {
  std::unique_ptr<Table> table;  // null when conflicts is non-empty
  std::vector<MergeConflict> conflicts;
};

std::string OracleKey(const Table& table, const std::vector<int>& pk_cols,
                      uint32_t row) {
  std::string key;
  for (size_t i = 0; i < pk_cols.size(); ++i) {
    if (i > 0) key.push_back(',');
    key.append(table.GetValue(row, pk_cols[i]).ToString());
  }
  return key;
}

bool OracleSamePayload(const Table& a, uint32_t ra, const Table& b,
                       uint32_t rb) {
  for (size_t c = 1; c < a.num_columns(); ++c) {
    if (a.GetValue(ra, c) != b.GetValue(rb, c)) return false;
  }
  return true;
}

OracleMerge OraclePlanMerge(const core::Cvd& cvd, VersionId base,
                            VersionId tip, VersionId vid) {
  enum class State { kAbsent, kUnchanged, kModified, kAdded };
  Table b_table = cvd.Materialize({base}, "merge_base").MoveValueOrDie();
  Table t_table = cvd.Materialize({tip}, "merge_tip").MoveValueOrDie();
  Table v_table = cvd.Materialize({vid}, "merge_ours").MoveValueOrDie();
  std::vector<int> pk_cols;
  for (const std::string& attr : cvd.primary_key()) {
    pk_cols.push_back(v_table.schema().FindColumn(attr));
  }
  OracleMerge plan;
  auto merged = std::make_unique<Table>("oracle", v_table.schema());

  if (pk_cols.empty()) {
    std::map<core::RecordId, std::pair<const Table*, uint32_t>> rows;
    std::map<core::RecordId, int> membership;  // bit 1 = base, 2 = tip, 4 = v
    for (uint32_t r = 0; r < b_table.num_rows(); ++r) {
      membership[b_table.GetValue(r, 0).AsInt()] |= 1;
    }
    for (uint32_t r = 0; r < t_table.num_rows(); ++r) {
      core::RecordId rid = t_table.GetValue(r, 0).AsInt();
      membership[rid] |= 2;
      rows.emplace(rid, std::make_pair(&t_table, r));
    }
    for (uint32_t r = 0; r < v_table.num_rows(); ++r) {
      core::RecordId rid = v_table.GetValue(r, 0).AsInt();
      membership[rid] |= 4;
      rows.emplace(rid, std::make_pair(&v_table, r));
    }
    for (const auto& [rid, mask] : membership) {
      const bool in_base = (mask & 1) != 0;
      const bool keep = in_base ? mask == 7 : (mask & 6) != 0;
      if (!keep) continue;
      const auto& src = rows.at(rid);
      merged->AppendRowUnchecked(src.first->GetRow(src.second));
    }
    plan.table = std::move(merged);
    return plan;
  }

  struct Slot {
    int64_t b = -1, t = -1, v = -1;  // row ids; -1 = key absent
  };
  std::map<std::string, Slot> keys;
  for (uint32_t r = 0; r < b_table.num_rows(); ++r) {
    keys[OracleKey(b_table, pk_cols, r)].b = r;
  }
  for (uint32_t r = 0; r < t_table.num_rows(); ++r) {
    keys[OracleKey(t_table, pk_cols, r)].t = r;
  }
  for (uint32_t r = 0; r < v_table.num_rows(); ++r) {
    keys[OracleKey(v_table, pk_cols, r)].v = r;
  }
  auto state_of = [&](const Slot& s, const Table& side, int64_t side_row) {
    if (s.b < 0) return side_row < 0 ? State::kAbsent : State::kAdded;
    if (side_row < 0) return State::kAbsent;
    return b_table.GetValue(s.b, 0) == side.GetValue(side_row, 0)
               ? State::kUnchanged
               : State::kModified;
  };
  auto keep = [&merged](const Table& t, int64_t row) {
    merged->AppendRowUnchecked(t.GetRow(static_cast<uint32_t>(row)));
  };
  for (const auto& [key, slot] : keys) {
    const State ts = state_of(slot, t_table, slot.t);
    const State vs = state_of(slot, v_table, slot.v);
    if (slot.b < 0) {
      if (ts == State::kAdded && vs == State::kAdded) {
        if (OracleSamePayload(t_table, slot.t, v_table, slot.v)) {
          keep(t_table, slot.t);
        } else {
          for (size_t c = 1; c < v_table.num_columns(); ++c) {
            Value tv = t_table.GetValue(slot.t, c);
            Value vv = v_table.GetValue(slot.v, c);
            if (tv != vv) {
              plan.conflicts.push_back(
                  MergeConflict{key, v_table.schema().column(c).name, "",
                                vv.ToString(), tv.ToString()});
            }
          }
        }
      } else if (ts == State::kAdded) {
        keep(t_table, slot.t);
      } else if (vs == State::kAdded) {
        keep(v_table, slot.v);
      }
      continue;
    }
    if (ts == State::kAbsent && vs == State::kAbsent) continue;
    if (ts == State::kUnchanged && vs == State::kUnchanged) {
      keep(t_table, slot.t);
    } else if (ts == State::kAbsent) {
      if (vs == State::kModified) keep(v_table, slot.v);
    } else if (vs == State::kAbsent) {
      if (ts == State::kModified) keep(t_table, slot.t);
    } else if (ts == State::kUnchanged) {
      keep(v_table, slot.v);
    } else if (vs == State::kUnchanged) {
      keep(t_table, slot.t);
    } else if (OracleSamePayload(t_table, slot.t, v_table, slot.v)) {
      keep(t_table, slot.t);
    } else {
      minidb::Row row{Value::Null()};
      const size_t conflicts_before = plan.conflicts.size();
      for (size_t c = 1; c < v_table.num_columns(); ++c) {
        Value bv = b_table.GetValue(slot.b, c);
        Value tv = t_table.GetValue(slot.t, c);
        Value vv = v_table.GetValue(slot.v, c);
        if (tv != bv && vv != bv && tv != vv) {
          plan.conflicts.push_back(
              MergeConflict{key, v_table.schema().column(c).name,
                            bv.ToString(), vv.ToString(), tv.ToString()});
          row.push_back(bv);
        } else {
          row.push_back(vv != bv ? vv : tv);
        }
      }
      if (plan.conflicts.size() == conflicts_before) {
        merged->AppendRowUnchecked(row);
      }
    }
  }
  if (plan.conflicts.empty()) plan.table = std::move(merged);
  return plan;
}

using ConflictTuple = std::tuple<std::string, std::string, std::string,
                                 std::string, std::string>;

std::vector<ConflictTuple> SortedConflicts(
    const std::vector<MergeConflict>& conflicts) {
  std::vector<ConflictTuple> out;
  for (const MergeConflict& c : conflicts) {
    out.emplace_back(c.key, c.attribute, c.base, c.ours, c.theirs);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// "v1|v2|..." over a table row's data cells (column 0, _rid, skipped).
std::string RenderPayload(const Table& t, uint32_t row) {
  std::string out;
  for (size_t c = 1; c < t.num_columns(); ++c) {
    if (c > 1) out.push_back('|');
    out.append(t.GetValue(row, c).ToString());
  }
  return out;
}

/// Payload renders of a table's rows, sorted (a multiset: without a
/// primary key two records may carry the same id).
std::vector<std::string> SortedPayloads(const Table& t) {
  std::vector<std::string> out;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(RenderPayload(t, r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// `t` re-shipped with column `col` retyped to `to`, or appended as an
/// all-NULL column when absent: a client's ALTER TABLE.
Table Reshape(const Table& t, const std::string& col, ValueType to) {
  std::vector<minidb::ColumnDef> cols = t.schema().columns();
  const int c = t.schema().FindColumn(col);
  if (c < 0) {
    cols.push_back({col, to});
  } else {
    cols[c].type = to;
  }
  Table out(t.name(), Schema(std::move(cols)));
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    minidb::Row row = t.GetRow(r);
    if (c < 0) {
      row.push_back(Value::Null());
    } else if (!row[c].is_null() && to == ValueType::kDouble) {
      row[c] = Value(row[c].NumericValue());
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

/// A few random adds, deletes and modifies of a staged (_rid, id, name,
/// score[, note]) table. Values come from tiny domains and new ids from a
/// small shared range, so two sessions often make identical inserts,
/// identical edits, same-attribute conflicts and delete-vs-modify pairs.
void RandomEdits(Table* t, Xorshift* rng) {
  static const char* const kNames[] = {"a", "b", "c"};
  const int name_c = t->schema().FindColumn("name");
  const int score_c = t->schema().FindColumn("score");
  const int note_c = t->schema().FindColumn("note");
  auto score = [&] {
    const int64_t x = static_cast<int64_t>(rng->Uniform(3));
    return t->schema().column(score_c).type == ValueType::kDouble
               ? Value(static_cast<double>(x) + 0.5)
               : Value(x);
  };
  const int ops = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < ops; ++i) {
    const uint64_t op = rng->Uniform(10);
    if (op < 2 || t->num_rows() == 0) {
      const int64_t id = 100 + static_cast<int64_t>(rng->Uniform(6));
      if (RowOf(*t, id) >= 0) continue;
      minidb::Row row(t->num_columns());
      row[1] = Value(id);
      row[name_c] = Value(kNames[rng->Uniform(3)]);
      row[score_c] = score();
      t->AppendRowUnchecked(row);
    } else if (op < 4) {
      t->DeleteRows({static_cast<uint32_t>(rng->Uniform(t->num_rows()))});
    } else {
      const uint32_t r = static_cast<uint32_t>(rng->Uniform(t->num_rows()));
      minidb::Row row = t->GetRow(r);
      const uint64_t which = rng->Uniform(note_c < 0 ? 2 : 3);
      if (which == 0) row[name_c] = Value(kNames[rng->Uniform(3)]);
      if (which == 1) row[score_c] = score();
      if (which == 2) row[note_c] = Value(kNames[rng->Uniform(3)]);
      t->SetRow(r, row);
    }
  }
}

struct DifferentialTally {
  int reconciled = 0;
  int conflicted = 0;
  int fresh_merges = 0;
};

/// Compare one reconciled commit against the oracle over the same three
/// corners: the same conflict set, the same merged payloads, the same
/// carried-forward rids and as many new records.
void CheckAgainstOracle(const core::Cvd& cvd, VersionId base,
                        const CommitOutcome& out, DifferentialTally* tally) {
  OracleMerge oracle =
      OraclePlanMerge(cvd, base, out.reconciled_with, out.vid);
  EXPECT_EQ(SortedConflicts(out.conflicts), SortedConflicts(oracle.conflicts));
  if (!oracle.conflicts.empty()) {
    EXPECT_FALSE(out.reconciled);
    ++tally->conflicted;
    return;
  }
  ASSERT_TRUE(out.reconciled);
  ++tally->reconciled;
  Table merged = cvd.Materialize({out.merged_vid}, "m").MoveValueOrDie();
  EXPECT_EQ(SortedPayloads(merged), SortedPayloads(*oracle.table));

  std::vector<core::RecordId> oracle_carried;
  size_t oracle_fresh = 0;
  for (uint32_t r = 0; r < oracle.table->num_rows(); ++r) {
    if (oracle.table->column(0).IsNull(r)) {
      ++oracle_fresh;
    } else {
      oracle_carried.push_back(oracle.table->column(0).GetInt(r));
    }
  }
  std::sort(oracle_carried.begin(), oracle_carried.end());
  std::vector<core::RecordId> sides =
      cvd.VersionRecords(out.vid).MoveValueOrDie();
  const std::vector<core::RecordId> tip =
      cvd.VersionRecords(out.reconciled_with).MoveValueOrDie();
  const std::vector<core::RecordId> merged_rids =
      cvd.VersionRecords(out.merged_vid).MoveValueOrDie();
  sides.insert(sides.end(), tip.begin(), tip.end());
  std::sort(sides.begin(), sides.end());
  std::vector<core::RecordId> carried;
  size_t fresh = 0;
  for (core::RecordId rid : merged_rids) {
    if (std::binary_search(sides.begin(), sides.end(), rid)) {
      carried.push_back(rid);
    } else {
      ++fresh;
    }
  }
  EXPECT_EQ(carried, oracle_carried);
  EXPECT_EQ(fresh, oracle_fresh);
  if (fresh > 0) ++tally->fresh_merges;
}

/// Seeded concurrent history: each round two sessions check out the
/// latest version, edit it (sometimes adding an attribute or widening
/// `score` to double first), and commit; the second one reconciles.
void RunDifferentialHistory(core::DataModelType model, bool with_pk,
                            uint64_t seed, DifferentialTally* tally) {
  core::Cvd::Options opts;
  opts.model = model;
  if (with_pk) opts.primary_key = {"id"};
  Table seed_table("seed", Schema({{"id", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"score", ValueType::kInt64}}));
  for (int64_t id = 1; id <= 12; ++id) {
    ORPHEUS_CHECK_OK(
        seed_table.InsertRow({Value(id), Value("a"), Value(id % 3)}));
  }
  SessionManager manager(
      core::Cvd::Init("t", seed_table, opts).MoveValueOrDie(), nullptr);
  Xorshift rng(seed);
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const VersionId base = manager.watermark();
    std::unique_ptr<Session> sessions[2] = {manager.Open(), manager.Open()};
    for (auto& s : sessions) {
      ASSERT_TRUE(s->Checkout({base}, "t").ok());
      const Table& staged = *s->table("t");
      const uint64_t schema_event = rng.Uniform(20);
      // Reshape the staged table in place: the checkout's provenance stays.
      auto restage = [&](Table reshaped) {
        ASSERT_TRUE(s->staging()->DropTable("t").ok());
        ASSERT_TRUE(s->staging()->AdoptTable(std::move(reshaped)).ok());
      };
      if (schema_event == 0 && staged.schema().FindColumn("note") < 0) {
        restage(Reshape(staged, "note", ValueType::kString));
      } else if (schema_event == 1 &&
                 staged.schema().column(staged.schema().FindColumn("score"))
                         .type == ValueType::kInt64) {
        restage(Reshape(staged, "score", ValueType::kDouble));
      }
      RandomEdits(s->table("t"), &rng);
    }
    auto first = sessions[0]->Commit("t", "first");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto out = sessions[1]->Commit("t", "second");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->reconciled_with, first->vid);
    ASSERT_TRUE(manager
                    .ReadCvd([&](const core::Cvd& cvd) {
                      CheckAgainstOracle(cvd, base, *out, tally);
                      return Status::OK();
                    })
                    .ok());
  }
}

class ReconcileDifferentialTest
    : public SessionTest,
      public ::testing::WithParamInterface<core::DataModelType> {};

TEST_P(ReconcileDifferentialTest, DeltaPlanMatchesThreeMaterializeOracle) {
  for (bool with_pk : {true, false}) {
    DifferentialTally tally;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(StrFormat("pk=%d seed=%llu", with_pk ? 1 : 0,
                             static_cast<unsigned long long>(seed)));
      RunDifferentialHistory(GetParam(), with_pk, seed, &tally);
    }
    // The histories reach every branch the oracle distinguishes.
    EXPECT_GT(tally.reconciled, 0);
    if (with_pk) {
      EXPECT_GT(tally.conflicted, 0);
      EXPECT_GT(tally.fresh_merges, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ReconcileDifferentialTest,
    ::testing::Values(core::DataModelType::kATablePerVersion,
                      core::DataModelType::kCombinedTable,
                      core::DataModelType::kSplitByVlist,
                      core::DataModelType::kSplitByRlist,
                      core::DataModelType::kDeltaBased),
    [](const ::testing::TestParamInfo<core::DataModelType>& info) {
      std::string name = core::DataModelTypeName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Work counters: reconcile cost follows the changed records, not |R|
// ---------------------------------------------------------------------------

TEST_F(SessionTest, ReconcileWorkIsIndependentOfVersionSize) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  Counter& materialized =
      MetricsRegistry::Global().counter("cvd.checkout.records_materialized");
  Counter& touched =
      MetricsRegistry::Global().counter("session.reconcile.records_touched");
  // The same concurrent edit over a version of `n` records: both sides
  // modify, delete and add, and touch one key identically.
  auto reconcile_work = [&](int64_t n) {
    std::vector<std::pair<int64_t, std::string>> rows;
    for (int64_t id = 1; id <= n; ++id) rows.emplace_back(id, "r");
    SessionManager manager(MakeCvd(rows, PkOptions()), nullptr);
    auto s1 = manager.Open();
    auto s2 = manager.Open();
    ORPHEUS_CHECK_OK(s1->Checkout({1}, "t"));
    ORPHEUS_CHECK_OK(s2->Checkout({1}, "t"));
    SetName(s1->table("t"), 2, "s1");
    SetName(s1->table("t"), 3, "same");
    DeleteKey(s1->table("t"), 4);
    AddRow(s1->table("t"), n + 1, "x");
    ORPHEUS_CHECK_OK(s1->Commit("t", "s1").status());
    SetName(s2->table("t"), 5, "s2");
    SetName(s2->table("t"), 3, "same");
    DeleteKey(s2->table("t"), 6);
    AddRow(s2->table("t"), n + 2, "y");
    const uint64_t materialized_before = materialized.value();
    const uint64_t touched_before = touched.value();
    auto out = s2->Commit("t", "s2");
    ORPHEUS_CHECK_OK(out.status());
    EXPECT_TRUE(out->reconciled);
    EXPECT_EQ(materialized.value(), materialized_before);
    return touched.value() - touched_before;
  };
  const uint64_t small = reconcile_work(100);
  const uint64_t large = reconcile_work(10000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

// ---------------------------------------------------------------------------
// Changeset commits: the rows a client leaves out are carried, not scanned,
// and the commit record equals the full-table commit's (the oracle)
// ---------------------------------------------------------------------------

/// What one CommitTable call logged (the WAL encoding of its record), or
/// the status it failed with.
struct LoggedCommit {
  Status status;
  std::string record;
};

LoggedCommit CommitAndLog(core::Cvd* cvd, const Table& rows, VersionId parent,
                          const std::vector<core::RecordId>& carried) {
  LoggedCommit out;
  cvd->set_commit_observer([&out](const core::CvdCommitRecord& record) {
    storage::Encoder enc;
    storage::EncodeCommitRecord(record, &enc);
    out.record = enc.Take();
    return Status::OK();
  });
  out.status =
      cvd->CommitTable(rows, {parent}, "edit", "", 0, carried).status();
  cvd->set_commit_observer(nullptr);
  return out;
}

/// `t` with columns `cols`, each filled from the same-named column of `t`
/// (int cells widened to double where the target says so) or NULL.
Table WithColumns(const Table& t, const std::vector<minidb::ColumnDef>& cols) {
  Table out(t.name(), Schema(cols));
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    minidb::Row row;
    for (const minidb::ColumnDef& col : cols) {
      const int c = t.schema().FindColumn(col.name);
      Value v = c < 0 ? Value::Null() : t.GetValue(r, c);
      if (col.type == ValueType::kDouble && v.type() == ValueType::kInt64) {
        v = Value(static_cast<double>(v.AsInt()));
      }
      row.push_back(std::move(v));
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

/// A cell for column `type` drawn from the values a changeset must
/// compare exactly: NULL, NaN, -0.0 vs 0.0, and the string "NULL".
Value EditValue(ValueType type, Xorshift* rng) {
  switch (type) {
    case ValueType::kString: {
      const char* names[] = {"a", "b", "NULL", ""};
      if (rng->Uniform(5) == 0) return Value::Null();
      return Value(std::string(names[rng->Uniform(4)]));
    }
    case ValueType::kDouble: {
      const double values[] = {1.5, std::nan(""), -0.0, 0.0, 2.25};
      if (rng->Uniform(6) == 0) return Value::Null();
      return Value(values[rng->Uniform(5)]);
    }
    default:
      if (rng->Uniform(6) == 0) return Value::Null();
      return Value(static_cast<int64_t>(rng->Uniform(4)));
  }
}

/// The client-side diff changeset commits were computed with before tables
/// recorded their own edits, kept as the oracle of what a tracked commit may
/// drop: the rids of checkout `base` (column 0 `_rid`) that no row of
/// `table` still holds unchanged. A row keeps a rid only when it carries it,
/// no earlier row kept it, and every cell KeyEquals that checkout row's; a
/// table whose columns differ from the checkout's in more than order keeps
/// none.
std::vector<core::RecordId> DiffChangesetDeleted(const Table& base,
                                                 const Table& table) {
  const std::vector<int64_t>& base_rids = base.column(0).int_data();
  const std::vector<int> order = table.schema().ColumnOrderIn(base.schema());
  std::vector<bool> kept(base.num_rows(), false);
  if (!order.empty() && order[0] == 0) {
    std::unordered_map<int64_t, uint32_t> row_of_rid;
    for (uint32_t b = 0; b < base.num_rows(); ++b) {
      row_of_rid.emplace(base_rids[b], b);
    }
    const minidb::Column& rids = table.column(0);
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      if (rids.IsNull(r)) continue;
      auto b = row_of_rid.find(rids.GetInt(r));
      bool same = b != row_of_rid.end() && !kept[b->second];
      for (size_t c = 1; same && c < table.num_columns(); ++c) {
        same = table.column(c).KeyEquals(r, base.column(order[c]), b->second);
      }
      if (same) kept[b->second] = true;
    }
  }
  std::vector<core::RecordId> deleted;
  for (uint32_t b = 0; b < base.num_rows(); ++b) {
    if (!kept[b]) deleted.push_back(base_rids[b]);
  }
  std::sort(deleted.begin(), deleted.end());
  return deleted;
}

/// Random in-place edits of the stamped checkout `t` (column 0 `_rid`, key
/// `id`) through the mutators alone: modifies (some to identical values),
/// stale rids swapped in, deletes, appends with no rid, a checkout rid or
/// a rid never stored, a duplicated row or a row of the previous checkout,
/// re-clustering, and now and then an added or widened column or a
/// delete-all. At most one edit repeats a key, so a key violation names one
/// key on both commit paths.
void TrackedEdits(Table* t, const Table& prev,
                  const std::vector<core::RecordId>& old, int64_t* next_id,
                  Xorshift* rng) {
  const Table base = t->Clone(t->name());
  const int id_col = t->schema().FindColumn("id");
  auto edit_cell = [&](minidb::Row* row) {
    const size_t c = 2 + rng->Uniform(t->num_columns() - 2);
    if (static_cast<int>(c) != id_col) {
      (*row)[c] = EditValue(t->schema().column(c).type, rng);
    }
  };
  // Modify, set to identical values, and swap in stale rids.
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    const uint64_t dice = rng->Uniform(12);
    if (dice > 2) continue;
    minidb::Row row = t->GetRow(r);
    if (dice == 0) edit_cell(&row);
    if (dice == 1 && !old.empty()) {
      row[0] = Value(old[rng->Uniform(old.size())]);
    }
    t->SetRow(r, row);
  }
  // Delete.
  std::vector<uint32_t> doomed;
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    if (rng->Uniform(8) == 0) doomed.push_back(r);
  }
  t->DeleteRows(doomed);
  // Append: no rid, a checkout rid, or a rid never stored.
  const uint64_t inserts = rng->Uniform(3);
  for (uint64_t i = 0; i < inserts && t->num_rows() > 0; ++i) {
    minidb::Row row =
        t->GetRow(static_cast<uint32_t>(rng->Uniform(t->num_rows())));
    const uint64_t kind = rng->Uniform(3);
    row[0] = kind == 0 ? Value::Null()
             : kind == 1 ? base.GetValue(static_cast<uint32_t>(
                                             rng->Uniform(base.num_rows())),
                                         0)
                         : Value(int64_t{1} << 40);
    row[id_col] = Value((*next_id)++);
    edit_cell(&row);
    t->AppendRowUnchecked(row);
  }
  // At most one repeated key: a duplicated row (same rid, or none), or a
  // row of the previous checkout, rid and all (a stored record of another
  // version, kept when its payload still matches).
  const uint64_t repeat = rng->Uniform(7);
  if (repeat < 2 && t->num_rows() > 0) {
    minidb::Row row =
        t->GetRow(static_cast<uint32_t>(rng->Uniform(t->num_rows())));
    if (repeat == 1) row[0] = Value::Null();
    t->AppendRowUnchecked(row);
  } else if (repeat == 2 && prev.num_rows() > 0) {
    const Table aligned = WithColumns(prev, t->schema().columns());
    t->AppendRowUnchecked(aligned.GetRow(
        static_cast<uint32_t>(rng->Uniform(aligned.num_rows()))));
  }
  if (rng->Uniform(3) == 0) t->SortByIntColumn(id_col);
  // Schema changes.
  switch (rng->Uniform(12)) {
    case 0: {
      std::vector<uint32_t> all(t->num_rows());
      std::iota(all.begin(), all.end(), 0u);
      t->DeleteRows(all);
      break;
    }
    case 1:
      if (t->schema().FindColumn("note") < 0) {
        ORPHEUS_CHECK_OK(t->AddColumn({"note", ValueType::kString}));
      }
      break;
    case 2: {
      const int c = t->schema().FindColumn("count");
      if (t->schema().column(c).type == ValueType::kInt64) {
        ORPHEUS_CHECK_OK(t->WidenColumn(c, ValueType::kDouble));
      }
      break;
    }
    default:
      break;
  }
}

struct ChangesetTally {
  int committed = 0;
  int violations = 0;
  int partial = 0;  // shipped fewer rows than the table holds
  int whole = 0;    // a schema change shipped every row
  int same = 0;     // dropped a rid the oracle keeps (identical values)
};

/// Seeded history on two identical CVDs: every round checks out the
/// latest version as a stamped table, edits it in place, and commits it
/// whole to `full` and as its recorded edits (the changed rows, with the
/// checkout's other records carried) to `delta`.
void RunChangesetHistory(core::DataModelType model, bool with_pk,
                         uint64_t seed, ChangesetTally* tally) {
  core::Cvd::Options opts;
  opts.model = model;
  if (with_pk) opts.primary_key = {"id"};
  Table seed_table("seed", Schema({{"id", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"score", ValueType::kDouble},
                                   {"count", ValueType::kInt64}}));
  for (int64_t id = 1; id <= 10; ++id) {
    ORPHEUS_CHECK_OK(seed_table.InsertRow(
        {Value(id), Value("n" + std::to_string(id)),
         Value(static_cast<double>(id % 4) * 0.5), Value(id % 3)}));
  }
  auto full = core::Cvd::Init("t", seed_table, opts).MoveValueOrDie();
  auto delta = core::Cvd::Init("t", seed_table, opts).MoveValueOrDie();
  Xorshift rng(seed);
  int64_t next_id = 1000;
  std::vector<core::RecordId> old;  // stored rids, for stale-rid edits
  Table prev = seed_table.CopyRows({}, "t");
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const VersionId latest = delta->latest();
    auto base = delta->Materialize({latest}, "t");
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    Table edited = base->Clone("t");
    edited.StampCheckout();
    TrackedEdits(&edited, prev, old, &next_id, &rng);

    const LoggedCommit oracle = CommitAndLog(full.get(), edited, latest, {});
    const Table::Edits edits = edited.GetEdits();
    const std::vector<int64_t>& ids = base->column(0).int_data();
    std::vector<core::RecordId> checkout(ids.begin(), ids.end());
    std::sort(checkout.begin(), checkout.end());
    std::vector<core::RecordId> carried;
    std::set_difference(checkout.begin(), checkout.end(),
                        edits.dropped.begin(), edits.dropped.end(),
                        std::back_inserter(carried));
    const Table shipped = edited.CopyRows(edits.changed, "t");
    const LoggedCommit got =
        CommitAndLog(delta.get(), shipped, latest, carried);

    ASSERT_EQ(oracle.status.ToString(), got.status.ToString());
    ASSERT_TRUE(oracle.record == got.record)
        << "commit records differ (" << oracle.record.size() << " vs "
        << got.record.size() << " bytes)";
    // Every rid the diff oracle deletes is dropped; the tracked edits may
    // also drop a rid whose row was set to values equal to its checkout
    // row's (which the oracle keeps).
    const std::vector<core::RecordId> deleted =
        DiffChangesetDeleted(*base, edited);
    ASSERT_TRUE(std::includes(edits.dropped.begin(), edits.dropped.end(),
                              deleted.begin(), deleted.end()));
    if (edits.dropped.size() > deleted.size()) ++tally->same;
    if (!got.status.ok()) {
      ASSERT_TRUE(got.status.IsConstraintViolation())
          << got.status.ToString();
      ++tally->violations;
      continue;
    }
    ++tally->committed;
    if (shipped.num_rows() < edited.num_rows()) ++tally->partial;
    if (carried.empty() && !checkout.empty() && edited.num_rows() > 0) {
      ++tally->whole;
    }
    old.insert(old.end(), checkout.begin(), checkout.end());
    prev = std::move(base).MoveValueOrDie();
  }
  ValidationReport report;
  core::ValidateCvd(*delta, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

class ChangesetDifferentialTest
    : public SessionTest,
      public ::testing::WithParamInterface<core::DataModelType> {};

TEST_P(ChangesetDifferentialTest, MatchesFullTableCommit) {
  for (bool with_pk : {true, false}) {
    ChangesetTally tally;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(StrFormat("pk=%d seed=%llu", with_pk ? 1 : 0,
                             static_cast<unsigned long long>(seed)));
      RunChangesetHistory(GetParam(), with_pk, seed, &tally);
    }
    // The histories reach what the oracle distinguishes.
    EXPECT_GT(tally.committed, 0);
    EXPECT_GT(tally.partial, 0);
    EXPECT_GT(tally.whole, 0);
    EXPECT_GT(tally.same, 0);
    if (with_pk) {
      EXPECT_GT(tally.violations, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ChangesetDifferentialTest,
    ::testing::Values(core::DataModelType::kATablePerVersion,
                      core::DataModelType::kCombinedTable,
                      core::DataModelType::kSplitByVlist,
                      core::DataModelType::kSplitByRlist,
                      core::DataModelType::kDeltaBased),
    [](const ::testing::TestParamInfo<core::DataModelType>& info) {
      std::string name = core::DataModelTypeName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_F(SessionTest, ChangesetRefusesKeyWideningWhileCarrying) {
  auto cvd = MakeCvd({{1, "a"}, {2, "b"}}, PkOptions());
  auto base = cvd->Materialize({1}, "t").MoveValueOrDie();
  Table widened = WithColumns(base, {{"_rid", ValueType::kInt64},
                                     {"id", ValueType::kDouble},
                                     {"name", ValueType::kString}});
  auto refused = cvd->CommitTable(widened.CopyRows({1}, "t"), {1}, "w", "", 0,
                                  {base.GetValue(0, 0).AsInt()});
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  // Shipped whole, the same widening commits.
  EXPECT_TRUE(cvd->CommitTable(widened, {1}, "w").ok());
}

// A remote commit of one edited row does the same work at 100 and at
// 10,000 rows: bytes on the wire, rows scanned and key-index probes.
TEST_F(SessionTest, ChangesetCommitWorkIsIndependentOfTableSize) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry& metrics = MetricsRegistry::Global();
  // Bytes as received: either end counts them before the call returns (a
  // sender counts after its write, which can trail the peer's read).
  Counter& wire = metrics.counter("net.bytes_recv");
  Counter& scanned = metrics.counter("cvd.commit.rows_scanned");
  Counter& probes = metrics.counter("cvd.commit.key_index.probes");
  Counter& indexed = metrics.counter("cvd.key_index.records_indexed");
  Counter& shipped = metrics.counter("net.client.commit.rows_shipped");
  Counter& carried = metrics.counter("session.commit.rows_carried");
  Counter& copied = metrics.counter("minidb.rows_copied");
  Counter& materialized =
      metrics.counter("cvd.checkout.records_materialized");
  struct Work {
    uint64_t bytes = 0, scanned = 0, probes = 0, indexed = 0, shipped = 0,
             carried = 0;
  };
  auto commit_work = [&](int64_t n) {
    std::vector<std::pair<int64_t, std::string>> rows;
    for (int64_t id = 1; id <= n; ++id) rows.emplace_back(id, "r");
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    cvds.push_back(MakeCvd(rows, PkOptions()));
    net::ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server = net::SessionServer::Start(nullptr, std::move(cvds), options)
                      .MoveValueOrDie();
    auto client = net::Client::Connect(server->address()).MoveValueOrDie();
    const uint64_t sid = client->Open("t").MoveValueOrDie().sid;
    Work work;
    // The second commit runs against the key index the first one built.
    for (const char* name : {"edit-a", "edit-b"}) {
      const VersionId latest = client->Refresh(sid).MoveValueOrDie();
      const uint64_t copied_before = copied.value();
      const uint64_t materialized_before = materialized.value();
      Table t = client->Checkout(sid, {latest}, "t").MoveValueOrDie();
      // The reply is gathered from the shared table and the client only
      // stamps it: no row is copied on either side.
      EXPECT_EQ(copied.value() - copied_before, 0u);
      EXPECT_EQ(materialized.value() - materialized_before,
                static_cast<uint64_t>(n));
      SetName(&t, 7, name);
      const Work before{wire.value(),    scanned.value(), probes.value(),
                        indexed.value(), shipped.value(), carried.value()};
      auto out = client->Commit(sid, t, "edit");
      ORPHEUS_CHECK_OK(out.status());
      work = Work{wire.value() - before.bytes,
                  scanned.value() - before.scanned,
                  probes.value() - before.probes,
                  indexed.value() - before.indexed,
                  shipped.value() - before.shipped,
                  carried.value() - before.carried};
    }
    EXPECT_EQ(work.carried, static_cast<uint64_t>(n - 1));
    server->Stop();
    return work;
  };
  const Work small = commit_work(100);
  const Work large = commit_work(10000);
  EXPECT_EQ(small.shipped, 1u);
  EXPECT_EQ(small.scanned, 1u);
  EXPECT_EQ(small.probes, 1u);
  EXPECT_EQ(small.indexed, 0u);
  EXPECT_GT(small.bytes, 0u);
  EXPECT_EQ(small.bytes, large.bytes);
  EXPECT_EQ(small.scanned, large.scanned);
  EXPECT_EQ(small.probes, large.probes);
  EXPECT_EQ(small.indexed, large.indexed);
  EXPECT_EQ(small.shipped, large.shipped);
}

// A local commit of one edited row — Session::Commit and Cvd::Commit —
// scans that row alone, at 100 and at 10,000 rows.
TEST_F(SessionTest, LocalCommitWorkIsIndependentOfTableSize) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& scanned = metrics.counter("cvd.commit.rows_scanned");
  Counter& probes = metrics.counter("cvd.commit.key_index.probes");
  Counter& fresh = metrics.counter("cvd.commit.records_new");
  struct Work {
    uint64_t scanned = 0, probes = 0, fresh = 0;
  };
  // Two commits of one edited row each; the work of the second, which
  // runs against the key index the first one built.
  auto commit_work = [&](int64_t n, bool through_session) {
    std::vector<std::pair<int64_t, std::string>> rows;
    for (int64_t id = 1; id <= n; ++id) rows.emplace_back(id, "r");
    std::unique_ptr<core::Cvd> owned = MakeCvd(rows, PkOptions());
    minidb::Database staging;
    std::unique_ptr<SessionManager> manager;
    std::unique_ptr<Session> session;
    if (through_session) {
      manager = std::make_unique<SessionManager>(std::move(owned), nullptr);
      session = manager->Open();
    }
    Work work;
    for (const char* name : {"edit-a", "edit-b"}) {
      Table* t = nullptr;
      if (through_session) {
        ORPHEUS_CHECK_OK(session->Refresh());
        ORPHEUS_CHECK_OK(session->Checkout({session->watermark()}, "t"));
        t = session->table("t");
      } else {
        ORPHEUS_CHECK_OK(owned->Checkout({owned->latest()}, "t", &staging));
        t = staging.GetTable("t");
      }
      EXPECT_EQ(t->num_rows(), static_cast<size_t>(n));
      SetName(t, 7, name);
      const Work before{scanned.value(), probes.value(), fresh.value()};
      if (through_session) {
        ORPHEUS_CHECK_OK(session->Commit("t", "edit").status());
      } else {
        ORPHEUS_CHECK_OK(owned->Commit("t", &staging, "edit").status());
      }
      work = Work{scanned.value() - before.scanned,
                  probes.value() - before.probes, fresh.value() - before.fresh};
    }
    return work;
  };
  for (bool through_session : {true, false}) {
    SCOPED_TRACE(through_session ? "Session::Commit" : "Cvd::Commit");
    const Work small = commit_work(100, through_session);
    const Work large = commit_work(10000, through_session);
    EXPECT_EQ(small.scanned, 1u);
    EXPECT_EQ(small.probes, 1u);
    EXPECT_EQ(small.fresh, 1u);
    EXPECT_EQ(small.scanned, large.scanned);
    EXPECT_EQ(small.probes, large.probes);
    EXPECT_EQ(small.fresh, large.fresh);
  }
}

// A row holding NaN that a commit leaves as it was keeps its record on
// every commit path: untouched, set to the same values, or (Cvd::Commit
// of a restaged table) shipped whole.
class UnchangedNanTest
    : public SessionTest,
      public ::testing::WithParamInterface<core::DataModelType> {};

TEST_P(UnchangedNanTest, KeepsEveryRecord) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  Counter& fresh = MetricsRegistry::Global().counter("cvd.commit.records_new");
  Table seed("seed", Schema({{"id", ValueType::kInt64},
                             {"x", ValueType::kDouble}}));
  for (const auto& [id, x] : std::vector<std::pair<int64_t, double>>{
           {0, 0.0}, {1, 1.5}, {2, std::nan("")}, {3, 4.5}}) {
    ORPHEUS_CHECK_OK(seed.InsertRow({Value(id), Value(x)}));
  }
  core::Cvd::Options opts;
  opts.model = GetParam();
  opts.primary_key = {"id"};
  std::unique_ptr<core::Cvd> cvd =
      core::Cvd::Init("t", seed, opts).MoveValueOrDie();
  const std::vector<core::RecordId> rids =
      cvd->VersionRecords(1).MoveValueOrDie();
  // Sets every row of `t` to the values it holds.
  auto touch_all = [](Table* t) {
    for (uint32_t r = 0; r < t->num_rows(); ++r) t->SetRow(r, t->GetRow(r));
  };
  auto expect_kept = [&](const core::Cvd& c, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(c.VersionRecords(c.latest()).MoveValueOrDie(), rids);
  };
  const uint64_t fresh_before = fresh.value();

  minidb::Database staging;
  for (int edit = 0; edit < 3; ++edit) {
    ORPHEUS_CHECK_OK(cvd->Checkout({cvd->latest()}, "w", &staging));
    Table* w = staging.GetTable("w");
    if (edit == 1) touch_all(w);
    if (edit == 2) {
      // A table restaged under the checkout's name commits whole.
      Table restaged = w->Clone("w");
      ORPHEUS_CHECK_OK(staging.DropTable("w"));
      ORPHEUS_CHECK_OK(staging.AdoptTable(std::move(restaged)).status());
    }
    ORPHEUS_CHECK_OK(cvd->Commit("w", &staging, "unchanged").status());
    expect_kept(*cvd, "Cvd::Commit");
  }

  std::vector<std::unique_ptr<core::Cvd>> served;
  {
    SessionManager manager(std::move(cvd), nullptr);
    auto session = manager.Open();
    for (int edit = 0; edit < 2; ++edit) {
      ORPHEUS_CHECK_OK(session->Checkout({session->watermark()}, "w"));
      if (edit == 1) touch_all(session->table("w"));
      ORPHEUS_CHECK_OK(session->Commit("w", "unchanged").status());
    }
    session.reset();
    served.push_back(manager.Release());
    expect_kept(*served.back(), "Session::Commit");
  }

  net::ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = net::SessionServer::Start(nullptr, std::move(served), options)
                    .MoveValueOrDie();
  auto client = net::Client::Connect(server->address()).MoveValueOrDie();
  const uint64_t sid = client->Open("t").MoveValueOrDie().sid;
  for (int edit = 0; edit < 2; ++edit) {
    const VersionId latest = client->Refresh(sid).MoveValueOrDie();
    Table t = client->Checkout(sid, {latest}, "w").MoveValueOrDie();
    if (edit == 1) touch_all(&t);
    ORPHEUS_CHECK_OK(client->Commit(sid, t, "unchanged").status());
  }
  ORPHEUS_CHECK_OK(server->manager("t")->ReadCvd([&](const core::Cvd& c) {
    EXPECT_EQ(c.num_versions(), 8);
    expect_kept(c, "remote commit");
    return Status::OK();
  }));
  server->Stop();
  EXPECT_EQ(fresh.value() - fresh_before, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, UnchangedNanTest,
    ::testing::Values(core::DataModelType::kATablePerVersion,
                      core::DataModelType::kCombinedTable,
                      core::DataModelType::kSplitByVlist,
                      core::DataModelType::kSplitByRlist,
                      core::DataModelType::kDeltaBased),
    [](const ::testing::TestParamInfo<core::DataModelType>& info) {
      std::string name = core::DataModelTypeName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_F(SessionTest, RemoteCheckoutWorkFollowsTheVersionNotTheTable) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& wire = metrics.counter("net.bytes_recv");
  Counter& gathered = metrics.counter("net.encode.rows_gathered");
  Counter& scanned = metrics.counter("ridset.intersect_rows.scanned");
  Counter& copied = metrics.counter("minidb.rows_copied");
  constexpr int64_t kRecords = 100;  // |R_k|
  struct Work {
    uint64_t bytes = 0, gathered = 0, scanned = 0, copied = 0;
  };
  auto checkout_work = [&](int64_t n) {
    std::vector<std::pair<int64_t, std::string>> rows;
    for (int64_t id = 1; id <= n; ++id) rows.emplace_back(id, "r");
    auto cvd = MakeCvd(rows, PkOptions());
    // v2 keeps the first kRecords records of v1, so |R_k| is the same
    // whatever |R| = n is.
    Table keep = cvd->Materialize({1}, "keep").MoveValueOrDie();
    std::vector<uint32_t> drop(static_cast<size_t>(n - kRecords));
    std::iota(drop.begin(), drop.end(), static_cast<uint32_t>(kRecords));
    keep.DeleteRows(drop);
    ORPHEUS_CHECK_OK(cvd->CommitTable(keep, {1}, "keep").status());
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    cvds.push_back(std::move(cvd));
    net::ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server = net::SessionServer::Start(nullptr, std::move(cvds), options)
                      .MoveValueOrDie();
    auto client = net::Client::Connect(server->address()).MoveValueOrDie();
    const uint64_t sid = client->Open("t").MoveValueOrDie().sid;
    const Work before{wire.value(), gathered.value(), scanned.value(),
                      copied.value()};
    Table t = client->Checkout(sid, {2}, "t").MoveValueOrDie();
    const Work work{wire.value() - before.bytes,
                    gathered.value() - before.gathered,
                    scanned.value() - before.scanned,
                    copied.value() - before.copied};
    EXPECT_EQ(t.num_rows(), static_cast<uint64_t>(kRecords));
    server->Stop();
    return work;
  };
  const Work small = checkout_work(1000);
  const Work large = checkout_work(10000);
  EXPECT_EQ(small.gathered, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(small.scanned, 0u);
  EXPECT_EQ(small.copied, 0u);
  EXPECT_GT(small.bytes, 0u);
  EXPECT_EQ(small.bytes, large.bytes);
  EXPECT_EQ(small.gathered, large.gathered);
  EXPECT_EQ(small.scanned, large.scanned);
  EXPECT_EQ(small.copied, large.copied);
}

TEST_F(SessionTest, RemoteCheckoutGathersWhileCommitsAppend) {
  // A writer's commits append enough records to the shared data table to
  // move its columns while remote checkouts of v1 are encoded from it. A
  // column move lands in the encode's window only now and then, so the
  // race gets several rounds on fresh servers.
  for (int round = 0; round < 4; ++round) {
    std::vector<std::pair<int64_t, std::string>> rows;
    for (int64_t id = 1; id <= 64; ++id) rows.emplace_back(id, "seed");
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    cvds.push_back(MakeCvd(rows, PkOptions()));
    net::ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server =
        net::SessionServer::Start(nullptr, std::move(cvds), options)
            .MoveValueOrDie();
    SessionManager* manager = server->manager("t");
    std::string expected;
    {
      auto local = manager->Open();
      ORPHEUS_CHECK_OK(local->Checkout({1}, "v1"));
      expected = minidb::ToCsv(*local->table("v1"));
    }
    std::atomic<bool> reading{false};
    std::atomic<bool> done{false};
    DedicatedThread writer("writer", [&] {
      auto session = manager->Open();
      while (!reading.load()) std::this_thread::yield();
      int64_t next_id = 1000;
      for (int i = 0; i < 12; ++i) {
        ORPHEUS_CHECK_OK(session->Refresh());
        ORPHEUS_CHECK_OK(session->Checkout({session->watermark()}, "w"));
        for (int k = 0; k < 300; ++k) {
          AddRow(session->table("w"), next_id++, "x");
        }
        ORPHEUS_CHECK_OK(session->Commit("w", "grow").status());
      }
      done.store(true);
    });
    auto client = net::Client::Connect(server->address()).MoveValueOrDie();
    const uint64_t sid = client->Open("t").MoveValueOrDie().sid;
    int checkouts = 0;
    while (!done.load()) {
      Table t = client->Checkout(sid, {1}, "v1").MoveValueOrDie();
      reading.store(true);
      if (minidb::ToCsv(t) != expected) {
        ADD_FAILURE() << "round " << round << ", checkout " << checkouts
                      << " differs from v1";
        break;
      }
      ++checkouts;
    }
    writer.Join();
    EXPECT_EQ(manager->watermark(), 13);
    server->Stop();
  }
}

// ---------------------------------------------------------------------------
// SessionApi differential: in-process sessions vs a socket client
// ---------------------------------------------------------------------------

/// The differential test's CVD: (id, name, score) keyed by id.
std::unique_ptr<core::Cvd> ApiSeedCvd() {
  Table seed("seed", Schema({{"id", ValueType::kInt64},
                             {"name", ValueType::kString},
                             {"score", ValueType::kInt64}}));
  for (int64_t id = 1; id <= 12; ++id) {
    ORPHEUS_CHECK_OK(seed.InsertRow({Value(id), Value("a"), Value(id % 3)}));
  }
  return core::Cvd::Init("t", seed, PkOptions()).MoveValueOrDie();
}

void ExpectSameTable(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_TRUE(a.schema() == b.schema())
      << a.schema().ToString() << " vs " << b.schema().ToString();
  EXPECT_EQ(minidb::ToCsv(a), minidb::ToCsv(b));
}

/// One seeded script of opens, checkouts (one or two versions), random
/// edits, commits, refreshes and closes, run step by step through both
/// SessionApi implementations over copies of one CVD: every sid, pin,
/// checkout table and commit outcome must agree, and so must every version
/// of the two CVDs at the end.
void RunApiDifferential(uint64_t seed, DifferentialTally* tally) {
  std::unique_ptr<core::Cvd> lent = ApiSeedCvd();
  InProcessSessions local(
      [&lent](const std::string& name) -> Result<InProcessSessions::Loan> {
        if (lent == nullptr || lent->name() != name) {
          return Status::NotFound("no CVD " + name);
        }
        return InProcessSessions::Loan{std::move(lent), nullptr};
      },
      [&lent](std::unique_ptr<core::Cvd> cvd) { lent = std::move(cvd); });
  std::vector<std::unique_ptr<core::Cvd>> served;
  served.push_back(ApiSeedCvd());
  net::ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = net::SessionServer::Start(nullptr, std::move(served), options)
                    .MoveValueOrDie();
  auto client = net::Client::Connect(server->address()).MoveValueOrDie();
  SessionApi* apis[2] = {&local, client.get()};

  constexpr int kSessions = 3;
  uint64_t sids[kSessions];
  for (uint64_t& sid : sids) {
    auto a = apis[0]->Open("t");
    auto b = apis[1]->Open("t");
    ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString() << " / "
                                  << b.status().ToString();
    EXPECT_EQ(a->sid, b->sid);
    EXPECT_EQ(a->watermark, b->watermark);
    sid = a->sid;
  }
  // Each session's open checkout on each side (named "w"), if any.
  std::vector<std::unique_ptr<Table>> work[2];
  work[0].resize(kSessions);
  work[1].resize(kSessions);
  Xorshift rng(seed);
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int s = static_cast<int>(rng.Uniform(kSessions));
    const uint64_t sid = sids[s];
    if (work[0][s] == nullptr) {
      // Re-pin, then check out the pin, sometimes over an older version.
      auto wa = apis[0]->Refresh(sid);
      auto wb = apis[1]->Refresh(sid);
      ASSERT_TRUE(wa.ok() && wb.ok());
      ASSERT_EQ(*wa, *wb);
      std::vector<VersionId> vids = {*wa};
      if (*wa > 1 && rng.Uniform(4) == 0) {
        vids.push_back(1 + static_cast<VersionId>(rng.Uniform(*wa - 1)));
      }
      for (int side = 0; side < 2; ++side) {
        auto table = apis[side]->Checkout(sid, vids, "w");
        ASSERT_TRUE(table.ok()) << table.status().ToString();
        work[side][s] = std::make_unique<Table>(table.MoveValueOrDie());
      }
      ExpectSameTable(*work[0][s], *work[1][s]);
      continue;
    }
    // Edit both copies alike, then commit: other sessions may have
    // committed since this checkout, so the commit may be overtaken.
    Xorshift twin = rng;
    RandomEdits(work[0][s].get(), &rng);
    RandomEdits(work[1][s].get(), &twin);
    auto a = apis[0]->Commit(sid, *work[0][s], "edit", "differential");
    auto b = apis[1]->Commit(sid, *work[1][s], "edit", "differential");
    ASSERT_EQ(a.status().code(), b.status().code())
        << a.status().ToString() << " / " << b.status().ToString();
    work[0][s].reset();
    work[1][s].reset();
    if (!a.ok()) continue;
    EXPECT_EQ(a->vid, b->vid);
    EXPECT_EQ(a->merged_vid, b->merged_vid);
    EXPECT_EQ(a->reconciled_with, b->reconciled_with);
    EXPECT_EQ(a->reconciled, b->reconciled);
    EXPECT_EQ(SortedConflicts(a->conflicts), SortedConflicts(b->conflicts));
    if (a->reconciled) ++tally->reconciled;
    if (!a->conflicts.empty()) ++tally->conflicted;
  }

  // A table that is not the session's checkout of its name is refused
  // alike, and commits nothing: one from an earlier checkout of the name,
  // or a copy of the current one.
  for (int side = 0; side < 2; ++side) {
    SessionApi* api = apis[side];
    const VersionId watermark = api->Refresh(sids[0]).MoveValueOrDie();
    Table stale = api->Checkout(sids[0], {1}, "stale").MoveValueOrDie();
    Table current = api->Checkout(sids[0], {1}, "stale").MoveValueOrDie();
    EXPECT_TRUE(
        api->Commit(sids[0], stale, "stale").status().IsInvalidArgument());
    EXPECT_TRUE(api->Commit(sids[0], current.Clone("stale"), "copy")
                    .status()
                    .IsInvalidArgument());
    EXPECT_EQ(api->Refresh(sids[0]).MoveValueOrDie(), watermark);
    // The checkout's own table still commits.
    EXPECT_TRUE(api->Commit(sids[0], current, "current").ok());
  }

  auto la = apis[0]->Ls();
  auto lb = apis[1]->Ls();
  ASSERT_TRUE(la.ok() && lb.ok());
  ASSERT_EQ(la->size(), 1u);
  ASSERT_EQ(lb->size(), 1u);
  EXPECT_EQ((*la)[0].num_versions, (*lb)[0].num_versions);
  EXPECT_EQ((*la)[0].watermark, (*lb)[0].watermark);
  EXPECT_EQ((*la)[0].open_sessions, kSessions);
  EXPECT_EQ((*lb)[0].open_sessions, kSessions);
  for (uint64_t sid : sids) {
    ORPHEUS_CHECK_OK(apis[0]->CloseSession(sid));
    ORPHEUS_CHECK_OK(apis[1]->CloseSession(sid));
  }
  // The last close hands the in-process CVD back.
  ASSERT_NE(lent, nullptr);
  EXPECT_TRUE(apis[0]->Ls()->empty());
  ORPHEUS_CHECK_OK(server->manager("t")->ReadCvd([&](const core::Cvd& cvd) {
    EXPECT_EQ(cvd.num_versions(), lent->num_versions());
    for (VersionId v = 1; v <= cvd.num_versions(); ++v) {
      ExpectSameTable(*cvd.Materialize({v}, "v"), *lent->Materialize({v}, "v"));
    }
    return Status::OK();
  }));
  client.reset();
  server->Stop();
}

TEST_F(SessionTest, SessionApiBackendsAgree) {
  DifferentialTally tally;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunApiDifferential(seed, &tally);
  }
  // The scripts reach overtaken commits of both kinds.
  EXPECT_GT(tally.reconciled, 0);
  EXPECT_GT(tally.conflicted, 0);
}

// ---------------------------------------------------------------------------
// 8-session hammer over a durable repository
// ---------------------------------------------------------------------------

TEST_F(SessionTest, EightSessionHammerStaysConsistentAndDurable) {
  constexpr int kWorkers = 8;
  constexpr int kIters = 6;
  const std::string dir = MakeTempDir();
  auto repo = Repository::Open(dir).MoveValueOrDie();
  auto cvd = MakeCvd({{1, "r1"},
                      {2, "r2"},
                      {3, "r3"},
                      {4, "r4"},
                      {5, "r5"},
                      {6, "r6"},
                      {7, "r7"},
                      {8, "r8"}},
                     PkOptions());
  ASSERT_TRUE(repo->LogCreate(*cvd).ok());
  SessionManager manager(std::move(cvd), repo.get());

  const std::string pinned_golden = CheckoutCsv(&manager, {1});
  const uint64_t syncs_before =
      MetricsRegistry::Global().counter("storage.wal.syncs").value();
  std::atomic<int> done{0};
  ThreadPool pool(kWorkers + 1);
  {
    ThreadPool::TaskGroup group(&pool);
    // Pinned reader: mid-churn checkouts of v1 must stay byte-identical.
    group.Submit([&] {
      auto s = manager.Open();
      int j = 0;
      while (done.load(std::memory_order_acquire) < kWorkers) {
        std::string name = "pin" + std::to_string(j++);
        ORPHEUS_CHECK_OK(s->Checkout({1}, name));
        EXPECT_EQ(minidb::ToCsv(*s->table(name)), pinned_golden);
        ORPHEUS_CHECK_OK(s->staging()->DropTable(name));
      }
    });
    // Committers: each owns one key, so every reconciliation is clean.
    for (int i = 0; i < kWorkers; ++i) {
      group.Submit([&, i] {
        auto s = manager.Open();
        for (int it = 0; it < kIters; ++it) {
          ORPHEUS_CHECK_OK(s->Refresh());
          ORPHEUS_CHECK_OK(s->Checkout({s->watermark()}, "t"));
          SetName(s->table("t"), i + 1,
                  "w" + std::to_string(i) + "_" + std::to_string(it));
          auto out = s->Commit("t", "hammer");
          ORPHEUS_CHECK_OK(out.status());
          EXPECT_TRUE(out->conflicts.empty());
        }
        done.fetch_add(1, std::memory_order_release);
      });
    }
    group.Wait();
  }
  EXPECT_FALSE(manager.failed());

  // Validator-clean graph; the watermark covers every applied version.
  VersionId final_wm = manager.watermark();
  ASSERT_TRUE(manager
                  .ReadCvd([&](const core::Cvd& cvd_ref) {
                    EXPECT_EQ(cvd_ref.num_versions(),
                              static_cast<int>(final_wm));
                    ValidationReport report;
                    core::ValidateCvd(cvd_ref, &report);
                    EXPECT_TRUE(report.ok()) << report.ToString();
                    return Status::OK();
                  })
                  .ok());
  const std::string final_golden = CheckoutCsv(&manager, {final_wm});

  // Every applied version reached the WAL, and the leader batched: the
  // fsync count can never exceed one per logged commit record.
  const uint64_t commits = static_cast<uint64_t>(final_wm) - 1;
  EXPECT_EQ(repo->stats().wal_records, commits + 1);  // + the create record
  if (MetricsEnabled()) {
    const uint64_t syncs =
        MetricsRegistry::Global().counter("storage.wal.syncs").value() -
        syncs_before;
    EXPECT_LE(syncs, commits);
  }

  // Everything survives close + fsck + reopen bit-identically.
  auto released = manager.Release();
  ASSERT_TRUE(repo->Close({released.get()}).ok());
  repo.reset();
  ASSERT_TRUE(Repository::Fsck(dir).ok());
  auto reopened = Repository::Open(dir).MoveValueOrDie();
  auto cvds = reopened->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  SessionManager manager2(std::move(cvds[0]), reopened.get());
  EXPECT_EQ(manager2.watermark(), final_wm);
  EXPECT_EQ(CheckoutCsv(&manager2, {final_wm}), final_golden);
}

// ---------------------------------------------------------------------------
// Durability failure: no phantom version, manager poisoned
// ---------------------------------------------------------------------------

#if ORPHEUS_FAILPOINTS_ENABLED
TEST_F(SessionTest, DurabilityFailurePoisonsManagerWithoutPhantomVersions) {
  const std::string dir = MakeTempDir();
  auto repo = Repository::Open(dir).MoveValueOrDie();
  auto cvd = MakeCvd({{1, "a"}, {2, "b"}}, PkOptions());
  ASSERT_TRUE(repo->LogCreate(*cvd).ok());
  SessionManager manager(std::move(cvd), repo.get());
  const std::string golden = CheckoutCsv(&manager, {1});

  // Fail before any byte reaches the file: the commit must be absent both
  // from every live session's view and from the reopened repository. (A
  // failed *fsync* is weaker — the record may survive in the page cache —
  // so the live-view guarantees below hold for it too, but not the
  // absent-after-reopen one.)
  failpoint::Arm("storage.wal.append.frame", failpoint::Action::kError);
  auto s = manager.Open();
  ASSERT_TRUE(s->Checkout({1}, "t").ok());
  SetName(s->table("t"), 2, "lost");
  auto out = s->Commit("t", "never durable");
  EXPECT_FALSE(out.ok());
  failpoint::DisarmAll();

  // The manager is poisoned and the un-durable version stays invisible:
  // the watermark never advanced over it, so no session can check it out.
  EXPECT_TRUE(manager.failed());
  EXPECT_TRUE(repo->degraded());
  EXPECT_EQ(manager.watermark(), 1);
  auto s2 = manager.Open();
  EXPECT_FALSE(s2->Checkout({2}, "t").ok());
  EXPECT_TRUE(s2->Checkout({1}, "ok").ok());  // snapshot reads still work
  EXPECT_FALSE(s2->Refresh().ok());
  ASSERT_TRUE(s2->Checkout({1}, "t2").ok());
  SetName(s2->table("t2"), 2, "refused");
  EXPECT_FALSE(s2->Commit("t2", "must be refused").ok());

  // Recovery path: reopen from disk — only the durable state is there.
  repo.reset();
  ASSERT_TRUE(Repository::Fsck(dir).ok());
  auto reopened = Repository::Open(dir).MoveValueOrDie();
  auto cvds = reopened->TakeCvds();
  ASSERT_EQ(cvds.size(), 1u);
  SessionManager manager2(std::move(cvds[0]), reopened.get());
  EXPECT_EQ(manager2.watermark(), 1);
  EXPECT_EQ(CheckoutCsv(&manager2, {1}), golden);
}
#endif  // ORPHEUS_FAILPOINTS_ENABLED

}  // namespace
}  // namespace orpheus::session
