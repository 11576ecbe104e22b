// Ground-truth tests for the compressed version-membership index: every
// data model and the partitioned store must check out exactly the records
// and payloads the generated dataset defines, whichever representation
// (plain i64 or compressed RidSet cell) each rid list ended up in; and
// the bytes that reach disk must not depend on that representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchdata/generator.h"
#include "common/ridset.h"
#include "common/thread_pool.h"
#include "common/validation.h"
#include "core/data_models.h"
#include "core/lyresplit.h"
#include "core/partition_store.h"
#include "storage/format.h"

namespace orpheus::core {
namespace {

struct Fixture {
  benchdata::VersionedDataset ds;
  DatasetAccessor accessor;
  VersionGraph graph;

  explicit Fixture(int versions = 40, int ops = 15)
      : ds(benchdata::VersionedDataset::Generate(
            benchdata::SciConfig("S", versions, 5, ops))) {
    accessor.num_versions = ds.num_versions();
    accessor.num_attributes = ds.num_attributes();
    accessor.records_of = [this](int v) -> const std::vector<RecordId>& {
      return ds.version(v).records;
    };
    accessor.payload_of = [this](RecordId rid, std::vector<int64_t>* out) {
      *out = ds.RecordPayload(rid);
    };
    for (int v = 0; v < ds.num_versions(); ++v) {
      const auto& spec = ds.version(v);
      std::vector<int64_t> w;
      for (int p : spec.parents) w.push_back(ds.CommonRecords(p, v));
      graph.AddVersion(spec.parents, w,
                       static_cast<int64_t>(spec.records.size()));
    }
  }
};

std::vector<int64_t> Flatten(const minidb::Table& t) {
  std::vector<int64_t> out;
  out.reserve(t.num_rows() * t.num_columns());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      out.push_back(t.column(static_cast<int>(c)).GetInt(r));
    }
  }
  return out;
}

/// A checked-out table as (rid, payload...) rows in rid order.
std::vector<std::vector<int64_t>> SortedRows(const minidb::Table& t) {
  std::vector<std::vector<int64_t>> rows(t.num_rows());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r].push_back(t.column(static_cast<int>(c)).GetInt(r));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The representation-free reference: version `v` as the dataset defines
/// it, (rid, payload...) rows in rid order.
std::vector<std::vector<int64_t>> ExpectedRows(
    const benchdata::VersionedDataset& ds, int v) {
  std::vector<std::vector<int64_t>> rows;
  for (RecordId rid : ds.version(v).records) {
    std::vector<int64_t> row{rid};
    for (int64_t x : ds.RecordPayload(rid)) row.push_back(x);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

minidb::Row PayloadRow(const benchdata::VersionedDataset& ds, RecordId rid) {
  minidb::Row row;
  for (int64_t v : ds.RecordPayload(rid)) row.emplace_back(v);
  return row;
}

std::unique_ptr<DataModelBackend> BuildBackend(
    DataModelType type, const benchdata::VersionedDataset& ds) {
  std::vector<minidb::ColumnDef> cols;
  for (int a = 0; a < ds.num_attributes(); ++a) {
    cols.push_back({"a" + std::to_string(a), minidb::ValueType::kInt64});
  }
  auto backend =
      DataModelBackend::Create(type, minidb::Schema(std::move(cols)));
  std::vector<char> seen(ds.num_distinct_records(), 0);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    std::vector<NewRecord> fresh;
    for (RecordId rid : spec.records) {
      if (!seen[rid]) {
        seen[rid] = 1;
        fresh.push_back({rid, PayloadRow(ds, rid)});
      }
    }
    Status s = backend->AddVersion(v, spec.records, fresh, spec.parents);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return backend;
}

const DataModelType kAllModels[] = {
    DataModelType::kATablePerVersion, DataModelType::kCombinedTable,
    DataModelType::kSplitByVlist, DataModelType::kSplitByRlist,
    DataModelType::kDeltaBased,
};

TEST(RidSetDifferential, BackendCheckoutMatchesDataset) {
  Fixture f;
  for (DataModelType model : kAllModels) {
    auto backend = BuildBackend(model, f.ds);
    for (int v = 0; v < f.ds.num_versions(); ++v) {
      auto t = backend->Checkout(v, "out");
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(SortedRows(*t), ExpectedRows(f.ds, v))
          << DataModelTypeName(model) << " v" << v;
      // VersionRecords (the commit/diff membership source) must agree too.
      auto rids = backend->VersionRecords(v);
      ASSERT_TRUE(rids.ok()) << rids.status().ToString();
      EXPECT_EQ(rids.ValueOrDie(), f.ds.version(v).records)
          << DataModelTypeName(model) << " v" << v;
    }
  }
}

TEST(RidSetDifferential, PositionalSelectMatchesJoin) {
  // Split-by-rlist selects a version's rows positionally when data-table
  // row r holds rid r, and joins otherwise: both must give the join's rows.
  for (RecordId first_rid : {RecordId{0}, RecordId{5}}) {
    SplitByRlistBackend backend(
        minidb::Schema({{"a", minidb::ValueType::kInt64}}));
    std::vector<RecordId> all;
    std::vector<NewRecord> fresh;
    for (RecordId rid = first_rid; rid < first_rid + 3000; ++rid) {
      all.push_back(rid);
      fresh.push_back({rid, {minidb::Value(rid * 3)}});
    }
    ASSERT_TRUE(backend.AddVersion(0, all, fresh, {}).ok());
    std::vector<RecordId> some;
    for (RecordId rid : all) {
      if (rid % 3 != 0) some.push_back(rid);
    }
    ASSERT_TRUE(backend.AddVersion(1, some, {}, {0}).ok());
    ASSERT_TRUE(backend.AddVersion(2, {all[1], all[4]}, {}, {1}).ok());
    for (int v = 0; v < 3; ++v) {
      auto sel = backend.Select(v);
      ASSERT_TRUE(sel.ok()) << sel.status().ToString();
      const auto rids = backend.VersionRecords(v).MoveValueOrDie();
      EXPECT_EQ(sel->rows,
                minidb::JoinRids(backend.data_table(), 0, rids,
                                 minidb::JoinAlgorithm::kHashJoin, true))
          << "first rid " << first_rid << ", v" << v;
    }
  }
}

TEST(RidSetDifferential, PartitionedStoreCheckoutMatchesDataset) {
  Fixture f;
  Partitioning plan =
      LyreSplitForBudget(
          f.graph, 2 * static_cast<uint64_t>(f.ds.num_distinct_records()))
          .partitioning;
  PartitionedStore store = PartitionedStore::Build(f.accessor, plan);
  for (int v = 0; v < f.ds.num_versions(); ++v) {
    auto t = store.Checkout(v);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(SortedRows(*t), ExpectedRows(f.ds, v)) << "v" << v;
  }
}

TEST(RidSetDifferential, CheckoutDeterministicAcrossPoolDegrees) {
  Fixture f;
  Partitioning plan =
      LyreSplitForBudget(
          f.graph, 2 * static_cast<uint64_t>(f.ds.num_distinct_records()))
          .partitioning;
  PartitionedStore store = PartitionedStore::Build(f.accessor, plan);
  for (int v : {0, 11, f.ds.num_versions() - 1}) {
    ThreadPool::Global().SetDegree(1);
    auto serial = store.Checkout(v);
    ThreadPool::Global().SetDegree(8);
    auto fanned = store.Checkout(v);
    ThreadPool::Global().SetDegree(1);
    ASSERT_TRUE(serial.ok() && fanned.ok());
    EXPECT_EQ(Flatten(*serial), Flatten(*fanned)) << "v" << v;
  }
}

TEST(RidSetDifferential, EncodedValueBytesIndependentOfRepresentation) {
  // A versioning cell holding the same rid list, stored compressed and
  // plain, must serialize to identical bytes: snapshots and WAL records
  // cannot depend on the in-memory representation.
  std::vector<int64_t> rids;
  for (int i = 0; i < 10000; ++i) rids.push_back(i * 3 + 100);

  minidb::Value plain(rids);
  auto set = RidSet::TryFromVector(rids);
  ASSERT_NE(set, nullptr);
  minidb::Value compressed(set);

  storage::Encoder enc_plain;
  storage::EncodeValue(plain, &enc_plain);
  storage::Encoder enc_set;
  storage::EncodeValue(compressed, &enc_set);
  EXPECT_EQ(enc_plain.data(), enc_set.data());

  // The packed blob decodes straight to a compressed cell.
  storage::Decoder dec(enc_plain.data());
  auto back = storage::DecodeValue(&dec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_NE(back.ValueOrDie().TryRidSet(), nullptr);
  EXPECT_EQ(back.ValueOrDie().AsIntArray(), rids);
  EXPECT_TRUE(dec.AtEnd());

  // Short or unsorted lists take the raw encoding and roundtrip too.
  for (const std::vector<int64_t>& raw :
       {std::vector<int64_t>{5, 3, 9}, std::vector<int64_t>{1, 2, 3}}) {
    storage::Encoder enc;
    storage::EncodeValue(minidb::Value(raw), &enc);
    storage::Decoder dec(enc.data());
    auto back = storage::DecodeValue(&dec);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie().AsIntArray(), raw);
  }
}

TEST(RidSetDifferential, EncodedRidListRoundTrip) {
  for (const std::vector<int64_t>& rids :
       {std::vector<int64_t>{}, std::vector<int64_t>{1, 2, 3},
        std::vector<int64_t>{9, 1, 4},  // unsorted stays raw
        [] {
          std::vector<int64_t> v;
          for (int i = 0; i < 5000; ++i) v.push_back(i * i);
          return v;
        }()}) {
    storage::Encoder enc;
    storage::EncodeRidList(rids, &enc);
    storage::Decoder dec(enc.data());
    auto back = storage::DecodeRidList(&dec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie(), rids);
    EXPECT_TRUE(dec.AtEnd());
  }
}

// Regression: rlist sortedness is established once when versions are
// inserted (or migrated), not re-derived per checkout — an unsorted rlist
// reaching AppendVersionRecords must still check out correctly via the
// hash-join fallback instead of tripping the merge join.
TEST(RidSetDifferential, UnsortedPlainRlistStillCheckoutCorrect) {
  // Unsorted rlists violate the store's documented invariant, and
  // ORPHEUS_VALIDATE=1 builds reject such a store at Build() time (which is
  // also correct behavior). This test covers the other half of the defense:
  // without the validator, the cached rlists_sorted=false must route
  // checkout to the hash join so the answer stays right.
  if (orpheus::ValidationEnabled()) {
    GTEST_SKIP() << "validate mode rejects unsorted rlists at build time";
  }
  // Unsorted lists stay plain (RidSet::TryFromVector refuses them), so
  // AddVersion keeps whatever order the accessor hands out; the store must
  // remember that sortedness was broken.
  Fixture f;
  // Accessor that reverses every rlist (sorted ascending -> descending).
  std::vector<std::vector<RecordId>> reversed(f.ds.num_versions());
  for (int v = 0; v < f.ds.num_versions(); ++v) {
    reversed[v] = f.ds.version(v).records;
    std::reverse(reversed[v].begin(), reversed[v].end());
  }
  DatasetAccessor rev = f.accessor;
  rev.records_of = [&reversed](int v) -> const std::vector<RecordId>& {
    return reversed[v];
  };

  Partitioning plan = Partitioning::SinglePartition(f.ds.num_versions());
  PartitionedStore store = PartitionedStore::Build(rev, plan);
  for (int v : {0, f.ds.num_versions() - 1}) {
    auto t = store.Checkout(v);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    std::vector<RecordId> rids(t->column(0).int_data().begin(),
                               t->column(0).int_data().end());
    std::sort(rids.begin(), rids.end());
    EXPECT_EQ(rids, f.ds.version(v).records) << "v" << v;
  }
}

}  // namespace
}  // namespace orpheus::core
