#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/validation.h"
#include "core/cvd.h"
#include "core/validate.h"
#include "minidb/database.h"

namespace orpheus::core {
namespace {

using minidb::Database;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

Table InteractionTable() {
  Table t("interaction", Schema({{"protein1", ValueType::kString},
                                 {"protein2", ValueType::kString},
                                 {"coexpression", ValueType::kInt64}}));
  EXPECT_TRUE(t.InsertRow({Value("ENSP273047"), Value("ENSP261890"),
                           Value(int64_t{0})})
                  .ok());
  EXPECT_TRUE(t.InsertRow({Value("ENSP273047"), Value("ENSP235932"),
                           Value(int64_t{87})})
                  .ok());
  EXPECT_TRUE(t.InsertRow({Value("ENSP300413"), Value("ENSP274242"),
                           Value(int64_t{164})})
                  .ok());
  return t;
}

Cvd::Options PkOptions() {
  Cvd::Options opt;
  opt.primary_key = {"protein1", "protein2"};
  return opt;
}

class CvdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cvd = Cvd::Init("Interaction", InteractionTable(), PkOptions());
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = cvd.MoveValueOrDie();
  }

  std::unique_ptr<Cvd> cvd_;
  Database staging_;
};

TEST_F(CvdTest, InitCreatesVersionOne) {
  EXPECT_EQ(cvd_->num_versions(), 1);
  EXPECT_EQ(cvd_->latest(), 1);
  auto rids = cvd_->VersionRecords(1);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 3u);
  EXPECT_EQ(cvd_->version_metadata(1).num_records, 3);
}

TEST_F(CvdTest, InitRejectsBadPrimaryKey) {
  Cvd::Options opt;
  opt.primary_key = {"nonexistent"};
  EXPECT_TRUE(Cvd::Init("X", InteractionTable(), opt)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CvdTest, CheckoutMaterializesStagingTable) {
  ASSERT_TRUE(cvd_->Checkout({1}, "my_work", &staging_).ok());
  Table* t = staging_.GetTable("my_work");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->schema().column(0).name, "_rid");
  EXPECT_EQ(cvd_->StagedTables(), std::vector<std::string>{"my_work"});
  // Duplicate checkout name is rejected.
  EXPECT_TRUE(cvd_->Checkout({1}, "my_work", &staging_).IsAlreadyExists());
}

TEST_F(CvdTest, CommitUnchangedSharesAllRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  auto v2 = cvd_->Commit("w", &staging_, "no changes");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2);
  // No new records were created; graph edge carries full weight.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 3);
  EXPECT_EQ(*cvd_->VersionRecords(2), *cvd_->VersionRecords(1));
  // Staging table dropped after commit.
  EXPECT_EQ(staging_.GetTable("w"), nullptr);
  EXPECT_TRUE(cvd_->StagedTables().empty());
}

TEST_F(CvdTest, CommitDetectsModifiedRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Modify coexpression of the first row: same rid, new payload.
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{999});
  t->SetRow(0, row);
  auto v2 = cvd_->Commit("w", &staging_, "edit");
  ASSERT_TRUE(v2.ok());
  // Two records survive, one is new: weight with parent is 2.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 2);
  auto d = cvd_->VDiff(2, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 1u);
}

TEST_F(CvdTest, CommitDetectsInsertedAndDeletedRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Delete row 2 and insert a brand-new record (rid NULL).
  t->DeleteRows({2});
  Row fresh = {Value::Null(), Value("NEW1"), Value("NEW2"),
               Value(int64_t{50})};
  t->AppendRowUnchecked(fresh);
  auto v2 = cvd_->Commit("w", &staging_, "insert+delete");
  ASSERT_TRUE(v2.ok());
  auto rids2 = cvd_->VersionRecords(2);
  ASSERT_TRUE(rids2.ok());
  EXPECT_EQ(rids2->size(), 3u);
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 2);  // two kept
}

TEST_F(CvdTest, CommitEnforcesPrimaryKey) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Duplicate the PK of row 0 in a new row.
  Row dup = {Value::Null(), Value("ENSP273047"), Value("ENSP261890"),
             Value(int64_t{123})};
  t->AppendRowUnchecked(dup);
  EXPECT_TRUE(
      cvd_->Commit("w", &staging_, "dup").status().IsConstraintViolation());
}

// Primary-key identity is typed value equality. These pairs render alike
// through Value::ToString ("%g" doubles; NULL and the string "NULL") yet
// are distinct keys.
std::vector<std::pair<Value, Value>> KeysThatRenderAlike() {
  return {{Value(0.1234561), Value(0.1234562)}, {Value::Null(), Value("NULL")}};
}

Table KeyedTable(ValueType key_type,
                 const std::vector<std::pair<Value, int64_t>>& rows) {
  Table t("keyed", Schema({{"k", key_type}, {"v", ValueType::kInt64}}));
  for (const auto& [key, v] : rows) t.AppendRowUnchecked({key, Value(v)});
  return t;
}

Cvd::Options KeyOnK() {
  Cvd::Options opt;
  opt.primary_key = {"k"};
  return opt;
}

TEST(CvdTypedKeyTest, CommitAcceptsDistinctKeysThatRenderAlike) {
  for (const auto& [a, b] : KeysThatRenderAlike()) {
    ASSERT_EQ(a.ToString(), b.ToString());
    const ValueType type = a.is_null() ? b.type() : a.type();
    auto cvd = Cvd::Init("K", KeyedTable(type, {{a, 1}, {b, 2}}), KeyOnK());
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    EXPECT_EQ((*cvd)->version_metadata(1).num_records, 2);
    // A true duplicate is still refused.
    EXPECT_TRUE(Cvd::Init("K", KeyedTable(type, {{a, 1}, {a, 2}}), KeyOnK())
                    .status()
                    .IsConstraintViolation());
  }
}

TEST(CvdTypedKeyTest, MultiVersionCheckoutKeepsKeysThatRenderAlike) {
  for (const auto& [a, b] : KeysThatRenderAlike()) {
    const ValueType type = a.is_null() ? b.type() : a.type();
    auto cvd = Cvd::Init("K", KeyedTable(type, {{a, 1}}), KeyOnK());
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    ASSERT_TRUE((*cvd)->CommitTable(KeyedTable(type, {{b, 2}}), {1}, "b").ok());
    ASSERT_TRUE((*cvd)->CommitTable(KeyedTable(type, {{a, 3}}), {1}, "a").ok());
    // v1 ∪ v2: two keys, both kept.
    auto both = (*cvd)->Materialize({2, 1}, "both");
    ASSERT_TRUE(both.ok()) << both.status().ToString();
    EXPECT_EQ(both->num_rows(), 2u);
    // v3 then v1 share key a: precedence keeps v3's record only.
    auto shadowed = (*cvd)->Materialize({3, 1}, "shadowed");
    ASSERT_TRUE(shadowed.ok()) << shadowed.status().ToString();
    ASSERT_EQ(shadowed->num_rows(), 1u);
    EXPECT_EQ(shadowed->GetValue(0, 2).AsInt(), 3);
  }
}

// A staged key column of another type is coerced to the committed type
// before keys compare: int64 2^53 and 2^53+1 both become the double 2^53.
TEST(CvdTypedKeyTest, StagedKeysCollideAfterCoercion) {
  const int64_t big = int64_t{1} << 53;
  auto cvd = Cvd::Init("K", KeyedTable(ValueType::kDouble, {{Value(0.5), 1}}),
                       KeyOnK());
  ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
  auto collide = (*cvd)->CommitTable(
      KeyedTable(ValueType::kInt64, {{Value(big), 1}, {Value(big + 1), 2}}),
      {1}, "collide");
  EXPECT_TRUE(collide.status().IsConstraintViolation())
      << collide.status().ToString();
  auto distinct = (*cvd)->CommitTable(
      KeyedTable(ValueType::kInt64, {{Value(big), 1}, {Value(big + 2), 2}}),
      {1}, "distinct");
  EXPECT_TRUE(distinct.ok()) << distinct.status().ToString();
}

// The same holds against carried records: a shipped int64 7 is stored as
// "7", the key of a carried record, and a record committed with a carried
// probe joins the key index the next probe reads.
TEST(CvdTypedKeyTest, ShippedKeysCoerceBeforeTheCarriedProbe) {
  auto cvd = Cvd::Init("K",
                       KeyedTable(ValueType::kString,
                                  {{Value("7"), 1}, {Value("8"), 2}}),
                       KeyOnK());
  ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
  const std::vector<RecordId> carried = *(*cvd)->VersionRecords(1);
  auto dup = (*cvd)->CommitTable(
      KeyedTable(ValueType::kInt64, {{Value(int64_t{7}), 3}}), {1}, "dup", "",
      0, carried);
  EXPECT_TRUE(dup.status().IsConstraintViolation()) << dup.status().ToString();
  auto fresh = (*cvd)->CommitTable(
      KeyedTable(ValueType::kInt64, {{Value(int64_t{9}), 3}}), {1}, "fresh",
      "", 0, carried);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto again = (*cvd)->CommitTable(
      KeyedTable(ValueType::kInt64, {{Value(int64_t{9}), 4}}), {*fresh},
      "again", "", 0, *(*cvd)->VersionRecords(*fresh));
  EXPECT_TRUE(again.status().IsConstraintViolation())
      << again.status().ToString();
}

TEST_F(CvdTest, CommitWithoutCheckoutRejected) {
  EXPECT_TRUE(cvd_->Commit("ghost", &staging_, "x").status().IsNotFound());
}

TEST_F(CvdTest, BranchAndMergeWithPrecedence) {
  // Branch A: modify record 0. Branch B: modify record 1.
  ASSERT_TRUE(cvd_->Checkout({1}, "a", &staging_).ok());
  Table* ta = staging_.GetTable("a");
  Row row_a = ta->GetRow(0);
  row_a[3] = Value(int64_t{111});
  ta->SetRow(0, row_a);
  ASSERT_TRUE(cvd_->Commit("a", &staging_, "branch a").ok());  // v2

  ASSERT_TRUE(cvd_->Checkout({1}, "b", &staging_).ok());
  Table* tb = staging_.GetTable("b");
  Row row_b = tb->GetRow(0);
  row_b[3] = Value(int64_t{222});
  tb->SetRow(0, row_b);
  ASSERT_TRUE(cvd_->Commit("b", &staging_, "branch b").ok());  // v3

  // Merge checkout: v2 has precedence over v3 on PK conflicts.
  ASSERT_TRUE(cvd_->Checkout({2, 3}, "m", &staging_).ok());
  Table* tm = staging_.GetTable("m");
  EXPECT_EQ(tm->num_rows(), 3u);  // 3 distinct PKs
  bool saw_111 = false;
  bool saw_222 = false;
  for (uint32_t r = 0; r < tm->num_rows(); ++r) {
    int64_t co = tm->column(3).GetInt(r);
    saw_111 |= co == 111;
    saw_222 |= co == 222;
  }
  EXPECT_TRUE(saw_111);
  EXPECT_FALSE(saw_222) << "precedence order must drop v3's conflict";

  auto v4 = cvd_->Commit("m", &staging_, "merge");
  ASSERT_TRUE(v4.ok());
  EXPECT_EQ(*v4, 4);
  EXPECT_EQ(cvd_->Parents(4), (std::vector<VersionId>{2, 3}));
  EXPECT_EQ(cvd_->Ancestors(4), (std::vector<VersionId>{1, 2, 3}));
}

TEST_F(CvdTest, DiffReturnsExclusiveRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  Row row = t->GetRow(1);
  row[3] = Value(int64_t{4242});
  t->SetRow(1, row);
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "edit").ok());
  auto diff = cvd_->Diff(2, 1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->num_rows(), 1u);
  EXPECT_EQ(diff->GetValue(0, 3).AsInt(), 4242);
  auto diff_rev = cvd_->Diff(1, 2);
  ASSERT_TRUE(diff_rev.ok());
  EXPECT_EQ(diff_rev->num_rows(), 1u);
  EXPECT_EQ(diff_rev->GetValue(0, 3).AsInt(), 87);
}

TEST_F(CvdTest, VIntersect) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{5});
  t->SetRow(0, row);
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "edit").ok());
  auto common = cvd_->VIntersect({1, 2});
  ASSERT_TRUE(common.ok());
  EXPECT_EQ(common->size(), 2u);
}

TEST_F(CvdTest, SchemaEvolutionOnCommit) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  // Add a new attribute and fill it.
  ASSERT_TRUE(t->AddColumn({"neighborhood", ValueType::kInt64}).ok());
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    Row row = t->GetRow(r);
    row[4] = Value(int64_t{r});
    t->SetRow(r, row);
  }
  auto v2 = cvd_->Commit("w", &staging_, "add attribute");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  // The CVD schema evolved; the attribute table logged the new attribute.
  EXPECT_EQ(cvd_->backend()->data_schema().num_columns(), 4u);
  EXPECT_EQ(cvd_->attribute_table().size(), 4u);
  // All records are new (every payload changed by the added value).
  auto mat = cvd_->backend()->Checkout(1, "m");
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->num_columns(), 5u);
}

TEST_F(CvdTest, SchemaEvolutionTypeWidening) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  Table* t = staging_.GetTable("w");
  ASSERT_TRUE(t->WidenColumn(3, ValueType::kDouble).ok());
  auto v2 = cvd_->Commit("w", &staging_, "int -> decimal");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(cvd_->backend()->data_schema().column(2).type,
            ValueType::kDouble);
  // A new attribute-table entry was created for the widened column.
  EXPECT_EQ(cvd_->attribute_table().size(), 4u);
  // Unchanged values (modulo the widen) are recognized: records survive.
  EXPECT_EQ(cvd_->graph().EdgeWeight(0, 1), 3);
}

TEST_F(CvdTest, MetadataTracksCommits) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w", &staging_).ok());
  ASSERT_TRUE(cvd_->Commit("w", &staging_, "msg two", "alice").ok());
  const auto& meta = cvd_->version_metadata(2);
  EXPECT_EQ(meta.message, "msg two");
  EXPECT_EQ(meta.author, "alice");
  EXPECT_EQ(meta.parents, std::vector<VersionId>{1});
  EXPECT_GT(meta.commit_time, meta.checkout_time);
}

TEST_F(CvdTest, CheckoutUnknownVersion) {
  EXPECT_TRUE(cvd_->Checkout({7}, "w", &staging_).IsNotFound());
  EXPECT_TRUE(cvd_->Checkout({}, "w", &staging_).IsInvalidArgument());
}

class CvdAllModelsTest : public ::testing::TestWithParam<DataModelType> {};

TEST_P(CvdAllModelsTest, FullRoundTrip) {
  Cvd::Options opt = PkOptions();
  opt.model = GetParam();
  auto cvd = Cvd::Init("Interaction", InteractionTable(), opt);
  ASSERT_TRUE(cvd.ok());
  Database staging;
  ASSERT_TRUE((*cvd)->Checkout({1}, "w", &staging).ok());
  Table* t = staging.GetTable("w");
  Row row = t->GetRow(0);
  row[3] = Value(int64_t{12345});
  t->SetRow(0, row);
  auto v2 = (*cvd)->Commit("w", &staging, "edit");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE((*cvd)->Checkout({2}, "verify", &staging).ok());
  Table* check = staging.GetTable("verify");
  bool found = false;
  for (uint32_t r = 0; r < check->num_rows(); ++r) {
    if (check->column(3).GetInt(r) == 12345) found = true;
  }
  EXPECT_TRUE(found);
}

// A version holds a stored record at most once: without a primary key, a
// duplicated checkout row (same `_rid`, same payload) becomes a new record
// instead of repeating the rid in the version's membership.
TEST_P(CvdAllModelsTest, RepeatedRidBecomesNewRecord) {
  Cvd::Options opt;
  opt.model = GetParam();
  auto cvd = Cvd::Init("Interaction", InteractionTable(), opt);
  ASSERT_TRUE(cvd.ok());
  auto base = (*cvd)->Materialize({1}, "w");
  ASSERT_TRUE(base.ok());
  Table edited = base->Clone("w");
  edited.AppendRowUnchecked(edited.GetRow(1));
  auto v2 = (*cvd)->CommitTable(edited, {1}, "duplicate");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  auto rids = (*cvd)->VersionRecords(*v2);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 4u);
  EXPECT_TRUE(std::adjacent_find(rids->begin(), rids->end()) == rids->end());
  ValidationReport report;
  ValidateCvd(**cvd, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// A row may carry a stored rid from a version other than its parent; when
// its payload matches, the record is kept, on every model (the delta-based
// model once failed to find such a payload off the parent's chain).
TEST_P(CvdAllModelsTest, KeepsStoredRidFromAnotherVersion) {
  Cvd::Options opt = PkOptions();
  opt.model = GetParam();
  auto cvd = Cvd::Init("Interaction", InteractionTable(), opt);
  ASSERT_TRUE(cvd.ok());
  auto v1 = (*cvd)->Materialize({1}, "w");
  ASSERT_TRUE(v1.ok());
  const int64_t dropped = v1->GetValue(2, 0).AsInt();
  auto v2 = (*cvd)->CommitTable(v1->CopyRows({0, 1}, "w"), {1}, "drop");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  auto v3 = (*cvd)->CommitTable(v1.ValueOrDie(), {*v2}, "restore");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  auto rids = (*cvd)->VersionRecords(*v3);
  ASSERT_TRUE(rids.ok());
  EXPECT_TRUE(std::binary_search(rids->begin(), rids->end(), dropped));
  EXPECT_EQ((*cvd)->graph().EdgeWeight(*v2 - 1, *v3 - 1), 2);
  auto restored = (*cvd)->Materialize({*v3}, "check");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_rows(), 3u);
}

// The boxed precedence merge that Cvd::Select's key kernel replaced, kept as
// the oracle: each version materialized alone, in precedence order, and a
// row kept unless a kept row has an equal key. Keys compare typed: NaN
// equals NaN, -0.0 equals 0.0, NULL equals only NULL.
bool OracleKeyEquals(const Value& a, const Value& b) {
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a == b;
}

bool OracleSameKey(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!OracleKeyEquals(a[i], b[i])) return false;
  }
  return true;
}

Row KeyAt(const Table& t, uint32_t r, const std::vector<int>& cols) {
  Row key;
  for (int c : cols) key.push_back(t.GetValue(r, c));
  return key;
}

bool OracleHasDuplicateKey(const Table& t, const std::vector<int>& cols) {
  for (uint32_t a = 0; a < t.num_rows(); ++a) {
    for (uint32_t b = 0; b < a; ++b) {
      if (OracleSameKey(KeyAt(t, a, cols), KeyAt(t, b, cols))) return true;
    }
  }
  return false;
}

// The rids of the oracle's merge of `vids`. `key_cols` index materialized
// tables ([_rid, data...]); without a primary key the rid is the key.
std::vector<int64_t> OracleMergeRids(const Cvd& cvd,
                                     const std::vector<VersionId>& vids,
                                     const std::vector<int>& key_cols) {
  std::vector<Row> kept_keys;
  std::vector<int64_t> rids;
  for (VersionId v : vids) {
    Table t = cvd.Materialize({v}, "v").MoveValueOrDie();
    std::vector<Row> mine;
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      const Row key = KeyAt(t, r, key_cols);
      if (std::any_of(kept_keys.begin(), kept_keys.end(),
                      [&](const Row& k) { return OracleSameKey(k, key); })) {
        continue;
      }
      rids.push_back(t.GetValue(r, 0).AsInt());
      mine.push_back(key);
    }
    kept_keys.insert(kept_keys.end(), mine.begin(), mine.end());
  }
  return rids;
}

struct MergeScenario {
  const char* name;
  std::vector<minidb::ColumnDef> keys;     // the key attributes' columns
  std::vector<std::vector<Value>> pools;   // candidate cells per key column
  bool primary_key;                        // else rid identity
};

std::vector<MergeScenario> MergeScenarios() {
  const double nan = std::nan("");
  const std::vector<Value> doubles = {
      Value(0.0),       Value(-0.0),      Value(1.0),    Value(nan),
      Value(0.1234561), Value(0.1234562), Value::Null(), Value(2.0)};
  return {
      {"double key", {{"k", ValueType::kDouble}}, {doubles}, true},
      {"int64+string key",
       {{"k1", ValueType::kInt64}, {"k2", ValueType::kString}},
       {{Value(int64_t{1}), Value(int64_t{2}), Value::Null()},
        {Value("a"), Value("NULL"), Value::Null(), Value("7")}},
       true},
      {"no key", {{"k", ValueType::kDouble}}, {doubles}, false},
  };
}

// Seeded histories on every data model: the commit's key check refuses a
// table iff the oracle finds a duplicate key in it, and every two- and
// three-version checkout keeps exactly the oracle's records, in its order.
TEST_P(CvdAllModelsTest, PrecedenceMergeMatchesTheBoxedOracle) {
  for (const MergeScenario& sc : MergeScenarios()) {
    SCOPED_TRACE(sc.name);
    std::vector<minidb::ColumnDef> defs = sc.keys;
    defs.push_back({"v", ValueType::kInt64});
    Cvd::Options opt;
    opt.model = GetParam();
    std::vector<int> key_cols;  // in materialized tables
    for (size_t k = 0; k < sc.keys.size(); ++k) {
      if (sc.primary_key) opt.primary_key.push_back(sc.keys[k].name);
      key_cols.push_back(static_cast<int>(k) + 1);
    }
    if (!sc.primary_key) key_cols = {0};
    Xorshift rng(static_cast<uint64_t>(GetParam()) * 31 + sc.keys.size());
    auto add_row = [&](Table* t) {
      Row row;
      if (t->schema().num_columns() > defs.size()) row.push_back(Value::Null());
      for (const auto& pool : sc.pools) {
        row.push_back(pool[rng.Uniform(pool.size())]);
      }
      row.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
      t->AppendRowUnchecked(row);
    };

    Table init("t", Schema(defs));
    std::vector<int> init_keys;
    for (size_t k = 0; k < sc.keys.size(); ++k) {
      init_keys.push_back(static_cast<int>(k));
    }
    for (int i = 0; i < 6; ++i) {
      add_row(&init);
      if (sc.primary_key && OracleHasDuplicateKey(init, init_keys)) {
        init.DeleteRows({static_cast<uint32_t>(init.num_rows() - 1)});
      }
    }
    auto made = Cvd::Init("M", init, opt);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    Cvd& cvd = **made;

    int refused = 0;
    for (int step = 0; step < 12; ++step) {
      const VersionId parent =
          1 + static_cast<VersionId>(rng.Uniform(cvd.num_versions()));
      Table t = cvd.Materialize({parent}, "t").MoveValueOrDie();
      std::vector<uint32_t> drop;
      for (uint32_t r = 0; r < t.num_rows(); ++r) {
        if (rng.Bernoulli(0.2)) {
          drop.push_back(r);
        } else if (rng.Bernoulli(0.3)) {
          Row row = t.GetRow(r);
          row.back() = Value(static_cast<int64_t>(rng.Uniform(100)));
          t.SetRow(r, row);
        }
      }
      t.DeleteRows(drop);
      for (uint64_t n = rng.Uniform(3); n > 0; --n) add_row(&t);
      const bool dup = sc.primary_key && OracleHasDuplicateKey(t, key_cols);
      auto vid = cvd.CommitTable(t, {parent}, "edit");
      if (dup) {
        EXPECT_TRUE(vid.status().IsConstraintViolation())
            << vid.status().ToString();
        ++refused;
      } else {
        EXPECT_TRUE(vid.ok()) << vid.status().ToString();
      }
    }
    if (sc.primary_key) EXPECT_GT(refused, 0);

    auto check = [&](const std::vector<VersionId>& vids) {
      auto merged = cvd.Materialize(vids, "m");
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      std::vector<int64_t> rids;
      for (uint32_t r = 0; r < merged->num_rows(); ++r) {
        rids.push_back(merged->GetValue(r, 0).AsInt());
      }
      EXPECT_EQ(rids, OracleMergeRids(cvd, vids, key_cols));
    };
    const VersionId n = cvd.num_versions();
    for (VersionId a = 1; a <= n; ++a) {
      for (VersionId b = 1; b <= n; ++b) {
        if (a != b) check({a, b});
      }
    }
    for (int i = 0; i < 20; ++i) {
      std::vector<uint64_t> pick = rng.SampleWithoutReplacement(n, 3);
      check({static_cast<VersionId>(pick[0]) + 1,
             static_cast<VersionId>(pick[1]) + 1,
             static_cast<VersionId>(pick[2]) + 1});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CvdAllModelsTest,
    ::testing::Values(DataModelType::kATablePerVersion,
                      DataModelType::kCombinedTable,
                      DataModelType::kSplitByVlist,
                      DataModelType::kSplitByRlist,
                      DataModelType::kDeltaBased));

}  // namespace
}  // namespace orpheus::core
