#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/random.h"
#include "provenance/explanation.h"
#include "provenance/inference.h"

namespace orpheus::provenance {
namespace {

using minidb::ColumnDef;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

Schema BaseSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"city", ValueType::kString},
                 {"score", ValueType::kInt64}});
}

Table MakeBase(int rows, uint64_t seed = 3) {
  Table t("base", BaseSchema());
  Xorshift rng(seed);
  for (int i = 0; i < rows; ++i) {
    t.AppendRowUnchecked({Value(static_cast<int64_t>(i)),
                          Value("city" + std::to_string(rng.Uniform(20))),
                          Value(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  return t;
}

// ---- Structural explanation ----

TEST(ExplanationTest, Identity) {
  Table a = MakeBase(50);
  Table b = a.Clone("b");
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kIdentity);
  EXPECT_EQ(ex.rows_added, 0);
  EXPECT_EQ(ex.rows_removed, 0);
}

TEST(ExplanationTest, Projection) {
  Table a = MakeBase(50);
  std::vector<uint32_t> all(a.num_rows());
  for (uint32_t r = 0; r < a.num_rows(); ++r) all[r] = r;
  Table b = a.ProjectRows(all, {0, 1}, "b");  // drop score
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kProjection);
  ASSERT_EQ(ex.columns_removed.size(), 1u);
  EXPECT_EQ(ex.columns_removed[0], "score");
}

TEST(ExplanationTest, ColumnAddition) {
  Table a = MakeBase(50);
  Table b = a.Clone("b");
  ASSERT_TRUE(b.AddColumn({"derived", ValueType::kDouble}).ok());
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kColumnAddition);
  ASSERT_EQ(ex.columns_added.size(), 1u);
  EXPECT_EQ(ex.columns_added[0], "derived");
}

TEST(ExplanationTest, Selection) {
  Table a = MakeBase(60);
  std::vector<uint32_t> keep;
  for (uint32_t r = 0; r < a.num_rows(); ++r) {
    if (a.column(2).GetInt(r) >= 500) keep.push_back(r);
  }
  Table b = a.CopyRows(keep, "b");
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kSelection);
  EXPECT_EQ(ex.rows_removed,
            static_cast<int>(a.num_rows() - keep.size()));
  EXPECT_EQ(ex.rows_added, 0);
}

TEST(ExplanationTest, Append) {
  Table a = MakeBase(40);
  Table b = a.Clone("b");
  for (int i = 0; i < 10; ++i) {
    b.AppendRowUnchecked({Value(static_cast<int64_t>(1000 + i)), Value("new"),
                          Value(int64_t{1})});
  }
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kAppend);
  EXPECT_EQ(ex.rows_added, 10);
}

TEST(ExplanationTest, UpdateDetectedViaKeyColumn) {
  Table a = MakeBase(50);
  Table b = a.Clone("b");
  for (uint32_t r = 0; r < 8; ++r) {
    Row row = b.GetRow(r);
    row[2] = Value(int64_t{-1});
    b.SetRow(r, row);
  }
  Explanation ex = ExplainDerivation(a, b, "id");
  EXPECT_EQ(ex.op, Operation::kUpdate);
  EXPECT_EQ(ex.rows_modified, 8);
}

TEST(ExplanationTest, UnknownForMixedChanges) {
  Table a = MakeBase(30);
  Table b("b", Schema({{"id", ValueType::kInt64},
                       {"other", ValueType::kString}}));
  for (int i = 0; i < 5; ++i) {
    b.AppendRowUnchecked({Value(static_cast<int64_t>(i)), Value("x")});
  }
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kUnknown);
}

// Rows compare typed: NULL is not the string "NULL", and doubles that
// print alike under "%g" are different values.
TEST(ExplanationTest, NullAndCloseDoublesAreChanges) {
  const Schema schema({{"k", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"x", ValueType::kDouble}});
  Table parent("p", schema);
  parent.AppendRowUnchecked(
      {Value(int64_t{1}), Value::Null(), Value(0.1234561)});
  Table child("c", schema);
  child.AppendRowUnchecked(
      {Value(int64_t{1}), Value("NULL"), Value(0.1234562)});
  Explanation ex = ExplainDerivation(parent, child, "k");
  EXPECT_EQ(ex.op, Operation::kUpdate);
  EXPECT_EQ(ex.rows_added, 1);
  EXPECT_EQ(ex.rows_removed, 1);
  EXPECT_EQ(ex.rows_modified, 1);
  // Each cell change alone is a change too.
  Table null_only("c", schema);
  null_only.AppendRowUnchecked(
      {Value(int64_t{1}), Value("NULL"), Value(0.1234561)});
  EXPECT_EQ(ExplainDerivation(parent, null_only, "k").rows_modified, 1);
  Table double_only("c", schema);
  double_only.AppendRowUnchecked(
      {Value(int64_t{1}), Value::Null(), Value(0.1234562)});
  EXPECT_EQ(ExplainDerivation(parent, double_only, "k").rows_modified, 1);
}

// A widened column compares at the wider type: int 7 matches double 7.0,
// on the rows and on the key.
TEST(ExplanationTest, WidenedColumnsMatchTheirValues) {
  Table parent("p", Schema({{"k", ValueType::kInt64},
                            {"n", ValueType::kInt64}}));
  Table child("c", Schema({{"k", ValueType::kDouble},
                           {"n", ValueType::kDouble}}));
  for (int64_t i = 0; i < 5; ++i) {
    parent.AppendRowUnchecked({Value(i), i == 2 ? Value::Null() : Value(7 * i)});
    child.AppendRowUnchecked({Value(static_cast<double>(i)),
                              i == 2 ? Value::Null()
                                     : Value(static_cast<double>(7 * i))});
  }
  Explanation same = ExplainDerivation(parent, child, "k");
  EXPECT_EQ(same.op, Operation::kIdentity);
  EXPECT_EQ(same.rows_added, 0);
  EXPECT_EQ(same.rows_removed, 0);
  // One value changed: the widened key still finds the row.
  Row row = child.GetRow(3);
  row[1] = Value(0.5);
  child.SetRow(3, row);
  Explanation updated = ExplainDerivation(parent, child, "k");
  EXPECT_EQ(updated.op, Operation::kUpdate);
  EXPECT_EQ(updated.rows_modified, 1);
  // Coercion works in either direction.
  EXPECT_EQ(ExplainDerivation(child, parent, "k").rows_modified, 1);
}

TEST(ExplanationTest, OperationNames) {
  EXPECT_STREQ(OperationName(Operation::kProjection), "projection");
  EXPECT_STREQ(OperationName(Operation::kUpdate), "update");
}

// ---- Signatures & similarity ----

TEST(SignatureTest, BasicProperties) {
  Table a = MakeBase(30);
  Signature sig = ComputeSignature(a);
  EXPECT_EQ(sig.num_rows, 30u);
  EXPECT_EQ(sig.columns.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sig.row_hashes.begin(), sig.row_hashes.end()));
  EXPECT_DOUBLE_EQ(RowJaccard(sig, sig), 1.0);
  EXPECT_DOUBLE_EQ(ColumnContainment(sig, sig), 1.0);
}

TEST(SignatureTest, JaccardDropsWithEdits) {
  Table a = MakeBase(100);
  Table b = a.Clone("b");
  for (uint32_t r = 0; r < 50; ++r) {
    Row row = b.GetRow(r);
    row[2] = Value(int64_t{-7});
    b.SetRow(r, row);
  }
  double j = RowJaccard(ComputeSignature(a), ComputeSignature(b));
  EXPECT_GT(j, 0.2);
  EXPECT_LT(j, 0.6);
}

// ---- Lineage inference ----

struct Repo {
  std::vector<std::unique_ptr<Table>> tables;
  std::vector<std::vector<int>> true_parents;
  std::vector<DatasetVersion> versions;
};

// A chain of row-preserving-ish edits with occasional branches.
Repo MakeRepo(int n, bool with_timestamps, uint64_t seed = 11) {
  Repo repo;
  Xorshift rng(seed);
  repo.tables.push_back(std::make_unique<Table>(MakeBase(200, seed)));
  repo.true_parents.push_back({});
  for (int v = 1; v < n; ++v) {
    int parent = v - 1;
    if (v > 2 && rng.Bernoulli(0.3)) {
      parent = static_cast<int>(rng.Uniform(v));  // branch
    }
    Table next = repo.tables[parent]->Clone("v" + std::to_string(v));
    // Modify ~5% of rows, append a couple.
    for (int e = 0; e < 10; ++e) {
      uint32_t r = static_cast<uint32_t>(rng.Uniform(next.num_rows()));
      Row row = next.GetRow(r);
      row[2] = Value(static_cast<int64_t>(rng.Uniform(1000)));
      next.SetRow(r, row);
    }
    next.AppendRowUnchecked({Value(static_cast<int64_t>(10000 + v)),
                             Value("new"), Value(int64_t{0})});
    repo.tables.push_back(std::make_unique<Table>(std::move(next)));
    repo.true_parents.push_back({parent});
  }
  for (int v = 0; v < n; ++v) {
    DatasetVersion dv;
    dv.name = "v" + std::to_string(v);
    dv.table = repo.tables[v].get();
    dv.timestamp = with_timestamps ? static_cast<double>(v) : -1.0;
    repo.versions.push_back(dv);
  }
  return repo;
}

TEST(InferenceTest, RecoversChainWithTimestamps) {
  Repo repo = MakeRepo(20, /*with_timestamps=*/true);
  InferredGraph g = InferLineage(repo.versions);
  EdgeQuality q = ScoreEdges(g, repo.true_parents);
  EXPECT_GE(q.precision, 0.8) << "precision " << q.precision;
  EXPECT_GE(q.recall, 0.8) << "recall " << q.recall;
  EXPECT_EQ(g.parent[0], -1);  // the root has no plausible parent
}

TEST(InferenceTest, WorksWithoutTimestamps) {
  Repo repo = MakeRepo(15, /*with_timestamps=*/false);
  InferredGraph g = InferLineage(repo.versions);
  EdgeQuality q = ScoreEdges(g, repo.true_parents);
  // Orientation is harder without timestamps; undirected adjacency should
  // still be mostly right, so precision stays usable.
  EXPECT_GE(q.precision, 0.5);
  // No cycles.
  for (int v = 0; v < static_cast<int>(g.parent.size()); ++v) {
    int steps = 0;
    int x = v;
    while (x >= 0 && steps <= static_cast<int>(g.parent.size())) {
      x = g.parent[x];
      ++steps;
    }
    EXPECT_LE(steps, static_cast<int>(g.parent.size()));
  }
}

TEST(InferenceTest, UnrelatedDatasetsStayDisconnected) {
  Table a = MakeBase(100, 1);
  Table b("other", Schema({{"k", ValueType::kString}}));
  for (int i = 0; i < 80; ++i) {
    b.AppendRowUnchecked({Value("item" + std::to_string(i * 13))});
  }
  std::vector<DatasetVersion> versions = {
      {"a", &a, 1.0},
      {"b", &b, 2.0},
  };
  InferredGraph g = InferLineage(versions);
  EXPECT_EQ(g.parent[0], -1);
  EXPECT_EQ(g.parent[1], -1);
}

TEST(InferenceTest, RecognizesProjectionEdges) {
  // A projection shares no full-row hashes with its parent; the per-column
  // sketches must still link them.
  Table a = MakeBase(200, 8);
  std::vector<uint32_t> all(a.num_rows());
  for (uint32_t r = 0; r < a.num_rows(); ++r) all[r] = r;
  Table b = a.ProjectRows(all, {0, 1}, "b");
  std::vector<DatasetVersion> versions = {{"a", &a, 1.0}, {"b", &b, 2.0}};
  InferredGraph g = InferLineage(versions);
  EXPECT_EQ(g.parent[1], 0);
  Explanation ex = ExplainDerivation(a, b);
  EXPECT_EQ(ex.op, Operation::kProjection);
}

TEST(SignatureTest, ColumnValueSimilarity) {
  Table a = MakeBase(100, 4);
  Signature sa = ComputeSignature(a);
  EXPECT_DOUBLE_EQ(ColumnValueSimilarity(sa, sa), 1.0);
  // Projection keeps surviving column contents identical.
  std::vector<uint32_t> all(a.num_rows());
  for (uint32_t r = 0; r < a.num_rows(); ++r) all[r] = r;
  Table b = a.ProjectRows(all, {0, 1}, "b");
  Signature sb = ComputeSignature(b);
  EXPECT_NEAR(ColumnValueSimilarity(sa, sb), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(RowJaccard(sa, sb), 0.0);
}

TEST(InferenceTest, LshMatchesExhaustiveSearch) {
  Repo repo = MakeRepo(30, /*with_timestamps=*/true, 21);
  InferenceOptions exhaustive;
  InferenceOptions lsh;
  lsh.use_lsh = true;
  InferredGraph a = InferLineage(repo.versions, exhaustive);
  InferredGraph b = InferLineage(repo.versions, lsh);
  // The banded candidates must retain every confident edge.
  int agree = 0;
  int edges = 0;
  for (size_t v = 0; v < a.parent.size(); ++v) {
    if (a.parent[v] < 0) continue;
    ++edges;
    if (a.parent[v] == b.parent[v]) ++agree;
  }
  EXPECT_GE(agree, edges * 8 / 10);
}

TEST(InferenceTest, LshCandidatesCoverTrueEdges) {
  Repo repo = MakeRepo(40, /*with_timestamps=*/true, 31);
  std::vector<Signature> sigs;
  for (const auto& v : repo.versions) {
    sigs.push_back(ComputeSignature(*v.table));
  }
  auto pairs = LshCandidatePairs(sigs, 16, 2);
  std::set<std::pair<int, int>> set(pairs.begin(), pairs.end());
  int covered = 0;
  int total = 0;
  for (int v = 1; v < static_cast<int>(repo.versions.size()); ++v) {
    int p = repo.true_parents[v][0];
    ++total;
    if (set.count({std::min(p, v), std::max(p, v)})) ++covered;
  }
  EXPECT_GE(covered, total * 9 / 10);
  // And far fewer pairs than all-pairs.
  size_t n = repo.versions.size();
  EXPECT_LT(pairs.size(), n * (n - 1) / 2);
}

TEST(InferenceTest, ScoreEdgesMath) {
  InferredGraph g;
  g.parent = {-1, 0, 0, 1};
  g.score = {0, 1, 1, 1};
  std::vector<std::vector<int>> truth = {{}, {0}, {1}, {1}};
  EdgeQuality q = ScoreEdges(g, truth);
  EXPECT_EQ(q.inferred, 3);
  EXPECT_EQ(q.correct, 2);  // edges into 1 and 3 correct, into 2 wrong
  EXPECT_EQ(q.actual, 3);
  EXPECT_NEAR(q.precision, 2.0 / 3, 1e-9);
  EXPECT_NEAR(q.recall, 2.0 / 3, 1e-9);
}

}  // namespace
}  // namespace orpheus::provenance
