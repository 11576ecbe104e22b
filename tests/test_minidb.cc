#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/random.h"
#include "minidb/database.h"
#include "minidb/join.h"
#include "minidb/table.h"

namespace orpheus::minidb {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", ValueType::kInt64}, {"score", ValueType::kInt64}});
}

Table MakeSmallTable() {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 10; ++i) {
    t.AppendIntRowUnchecked({i, i * 10});
  }
  return t;
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{4}).AsInt(), 4);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(std::vector<int64_t>{1, 2}).AsIntArray().size(), 2u);
}

TEST(ValueTest, NumericComparison) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(2.5));
  EXPECT_TRUE(Value(2.0) == Value(2.0));
  EXPECT_FALSE(Value(int64_t{2}) == Value(2.0));  // different types
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value(std::vector<int64_t>{1, 2, 3}).ToString(), "{1,2,3}");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ColumnTest, IntAppendAndGet) {
  Column c(ValueType::kInt64);
  c.AppendInt(5);
  c.AppendInt(-1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetInt(0), 5);
  EXPECT_EQ(c.GetValue(1).AsInt(), -1);
}

TEST(ColumnTest, NullTracking) {
  Column c(ValueType::kInt64);
  c.AppendInt(1);
  c.AppendNull();
  c.AppendInt(3);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(2).AsInt(), 3);
}

TEST(ColumnTest, WidenIntToDouble) {
  Column c(ValueType::kInt64);
  c.AppendInt(3);
  c.AppendInt(4);
  ASSERT_TRUE(c.Widen(ValueType::kDouble).ok());
  EXPECT_EQ(c.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 3.0);
  EXPECT_DOUBLE_EQ(c.GetValue(1).AsDouble(), 4.0);
}

TEST(ColumnTest, WidenToStringAndUnsupported) {
  Column c(ValueType::kInt64);
  c.AppendInt(3);
  ASSERT_TRUE(c.Widen(ValueType::kString).ok());
  EXPECT_EQ(c.GetString(0), "3");
  Column arr(ValueType::kIntArray);
  EXPECT_FALSE(arr.Widen(ValueType::kString).ok());
}

TEST(ColumnTest, StorageBytesAccounting) {
  Column ints(ValueType::kInt64);
  ints.AppendInt(1);
  ints.AppendInt(2);
  EXPECT_EQ(ints.StorageBytes(), 16u);
  Column arr(ValueType::kIntArray);
  arr.AppendIntArray({1, 2, 3});
  EXPECT_EQ(arr.StorageBytes(), 3 * 8 + 16u);
}

// The boxed key identity that Column::KeyEquals/KeyHash replaced, kept as
// their reference.
bool RefKeyEquals(const Value& a, const Value& b) {
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a == b;
}

size_t RefKeyHash(const Value& v) {
  const size_t type_seed =
      static_cast<size_t>(v.type()) * 0x9E3779B97F4A7C15ULL;
  switch (v.type()) {
    case ValueType::kNull:
      return type_seed;
    case ValueType::kInt64:
      return type_seed ^ std::hash<int64_t>()(v.AsInt());
    case ValueType::kDouble: {
      const double x = v.AsDouble();
      if (std::isnan(x)) return type_seed ^ 1;
      return type_seed ^ std::hash<double>()(x == 0.0 ? 0.0 : x);
    }
    case ValueType::kString:
      return type_seed ^ std::hash<std::string>()(v.AsString());
    case ValueType::kIntArray: {
      size_t h = type_seed;
      for (int64_t x : v.AsIntArray()) {
        h = (h ^ std::hash<int64_t>()(x)) * 0x100000001B3ULL;
      }
      return h;
    }
  }
  return type_seed;
}

// One column per type, each with cells that are easy to confuse: NULL and
// "NULL", NaN, -0.0 and 0.0, int 1 and double 1.0, and NULL cells whose
// physical slot still holds a value (SetNull keeps it).
std::vector<Column> KeyCells() {
  const double nan = std::nan("");
  std::vector<Column> cols;
  cols.reserve(5);  // the references below stay valid
  Column& ints = cols.emplace_back(ValueType::kInt64);
  for (int64_t v : {1, 0, 7, 5, 7, 1, -1}) ints.AppendInt(v);
  ints.SetNull(3);  // stale 5
  ints.SetNull(4);  // stale 7
  ints.AppendNull();
  Column& doubles = cols.emplace_back(ValueType::kDouble);
  for (double v : {1.0, 0.0, -0.0, nan, -nan, 0.1234561, 0.1234562, 1.0, nan,
                   -0.0, 7.0}) {
    doubles.AppendDouble(v);
  }
  doubles.SetNull(7);  // stale 1.0
  doubles.SetNull(8);  // stale NaN
  doubles.SetNull(9);  // stale -0.0
  Column& strings = cols.emplace_back(ValueType::kString);
  for (const char* v : {"NULL", "", "7", "1", "NULL", "x", "1"}) {
    strings.AppendString(v);
  }
  strings.SetNull(4);  // stale "NULL"
  strings.SetNull(5);  // stale "x"
  Column& arrays = cols.emplace_back(ValueType::kIntArray);
  std::vector<int64_t> ten(10);
  std::iota(ten.begin(), ten.end(), 0);
  arrays.AppendIntArray({1, 2});
  arrays.AppendIntArray(ten);  // compressed
  arrays.AppendIntArray(ten);  // compressed, another set
  arrays.AppendIntArray(ten);
  arrays.MutableIntArray(3);  // the same content, plain
  arrays.AppendIntArray({});
  arrays.AppendIntArray({1, 2});
  arrays.SetNull(5);  // stale {1, 2}
  EXPECT_NE(arrays.GetRidSet(1), nullptr);
  EXPECT_EQ(arrays.GetRidSet(3), nullptr);
  Column& nulls = cols.emplace_back(ValueType::kNull);
  nulls.AppendNull();
  return cols;
}

TEST(ColumnKeyTest, KeyEqualsAndKeyHashMatchTheBoxedReference) {
  const std::vector<Column> cols = KeyCells();
  for (const Column& a : cols) {
    for (size_t i = 0; i < a.size(); ++i) {
      const Value va = a.GetValue(i);
      for (const Column& b : cols) {
        for (size_t j = 0; j < b.size(); ++j) {
          const Value vb = b.GetValue(j);
          SCOPED_TRACE(std::string(ValueTypeName(a.type())) + "[" +
                       std::to_string(i) + "] vs " + ValueTypeName(b.type()) +
                       "[" + std::to_string(j) + "]");
          EXPECT_EQ(a.KeyEquals(i, b, j), RefKeyEquals(va, vb));
          // Both hashes split the cells into the same classes.
          EXPECT_EQ(a.KeyHash(i) == b.KeyHash(j),
                    RefKeyHash(va) == RefKeyHash(vb));
        }
      }
    }
  }
}

TEST(ColumnKeyTest, SpecialCells) {
  const std::vector<Column> cols = KeyCells();
  const Column& ints = cols[0];
  const Column& doubles = cols[1];
  const Column& strings = cols[2];
  EXPECT_TRUE(doubles.KeyEquals(1, doubles, 2));    // 0.0 = -0.0
  EXPECT_TRUE(doubles.KeyEquals(3, doubles, 4));    // NaN = NaN
  EXPECT_FALSE(doubles.KeyEquals(5, doubles, 6));   // "%g" alike, distinct
  EXPECT_FALSE(ints.KeyEquals(0, doubles, 0));      // int 1 vs double 1.0
  EXPECT_FALSE(ints.KeyEquals(2, strings, 2));      // int 7 vs "7"
  EXPECT_FALSE(strings.KeyEquals(0, strings, 4));   // "NULL" vs NULL
  EXPECT_TRUE(ints.KeyEquals(3, ints, 4));          // NULL = NULL, stale 5/7
  EXPECT_TRUE(ints.KeyEquals(3, strings, 4));       // of any type
  EXPECT_FALSE(ints.KeyEquals(4, ints, 2));         // NULL (stale 7) vs 7
  EXPECT_EQ(ints.KeyHash(3), ints.KeyHash(4));
  EXPECT_EQ(doubles.KeyHash(1), doubles.KeyHash(2));
  EXPECT_EQ(doubles.KeyHash(3), doubles.KeyHash(4));
}

TEST(ColumnKeyTest, KeyColumnsCombineAttributes) {
  const std::vector<Column> cols = KeyCells();
  const Column& ints = cols[0];
  const Column& strings = cols[2];
  Column nulls(ValueType::kString);
  for (size_t i = 0; i < strings.size(); ++i) nulls.AppendNull();
  // (int, string) keys; the second attribute NULL throughout on the right.
  const KeyColumns both{{&ints, &strings}};
  const KeyColumns no_string{{&ints, &nulls}};
  EXPECT_TRUE(both.Equals(0, both, 0));
  EXPECT_FALSE(both.Equals(0, both, 6));       // (1,"NULL") vs (-1,"1")
  EXPECT_FALSE(both.Equals(0, both, 5));       // (1,"NULL") vs (1,NULL)
  EXPECT_FALSE(both.Equals(0, no_string, 0));  // (1,"NULL") vs (1,NULL)
  EXPECT_TRUE(both.Equals(5, no_string, 0));   // (1,NULL) vs (1,NULL)
  EXPECT_TRUE(both.Equals(4, no_string, 3));   // NULLs over stale slots
  EXPECT_TRUE(no_string.Equals(3, both, 4));
  EXPECT_EQ(both.Hash(5), no_string.Hash(0));
  EXPECT_EQ(both.Hash(4), no_string.Hash(3));
}

TEST(ColumnKeyTest, KeySetKeepsOneRowPerKey) {
  const std::vector<Column> cols = KeyCells();
  const std::vector<KeyColumns> keys = {KeyColumns{{&cols[1]}}};
  KeySet set(keys, cols[1].size());
  // 1.0, 0.0, -0.0, NaN, -NaN, 0.1234561, 0.1234562, NULL, NULL, NULL, 7.0
  std::vector<bool> added;
  for (uint32_t r = 0; r < cols[1].size(); ++r) {
    added.push_back(!set.Has(0, r, true));
  }
  EXPECT_EQ(added, (std::vector<bool>{true, true, false, true, false, true,
                                      true, true, false, false, true}));
  EXPECT_TRUE(set.Has(0, 2, false));
}

TEST(TableTest, InsertRowValidates) {
  Table t("t", TwoColSchema());
  EXPECT_TRUE(t.InsertRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_TRUE(t.InsertRow({Value(int64_t{1})}).IsInvalidArgument());
  EXPECT_TRUE(
      t.InsertRow({Value("nope"), Value(int64_t{2})}).IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, UniqueIndexLookupAndViolation) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_EQ(*t.LookupUniqueInt(0, 7), 7u);
  EXPECT_FALSE(t.LookupUniqueInt(0, 99).has_value());
  // Appends maintain the index.
  t.AppendIntRowUnchecked({100, 0});
  EXPECT_EQ(*t.LookupUniqueInt(0, 100), 10u);
  // Duplicate keys are rejected at build time.
  Table dup("dup", TwoColSchema());
  dup.AppendIntRowUnchecked({1, 0});
  dup.AppendIntRowUnchecked({1, 0});
  EXPECT_TRUE(dup.BuildUniqueIntIndex(0).IsConstraintViolation());
}

TEST(TableTest, SelectRowsPredicate) {
  Table t = MakeSmallTable();
  auto rows = t.SelectRows([](const Table& tb, uint32_t r) {
    return tb.column(1).GetInt(r) >= 50;
  });
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front(), 5u);
}

TEST(TableTest, ArrayContainsScan) {
  Table t("t", Schema({{"rid", ValueType::kInt64},
                       {"vlist", ValueType::kIntArray}}));
  t.AppendRowUnchecked({Value(int64_t{1}), Value(std::vector<int64_t>{1, 3})});
  t.AppendRowUnchecked({Value(int64_t{2}), Value(std::vector<int64_t>{2})});
  t.AppendRowUnchecked({Value(int64_t{3}), Value(std::vector<int64_t>{1, 2, 3})});
  auto rows = t.SelectRowsArrayContains(1, 3);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 2u);
}

TEST(TableTest, CopyAndProjectRows) {
  Table t = MakeSmallTable();
  Table copy = t.CopyRows({1, 3}, "copy");
  EXPECT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.column(1).GetInt(1), 30);
  Table proj = t.ProjectRows({0, 2}, {1}, "proj");
  EXPECT_EQ(proj.num_columns(), 1u);
  EXPECT_EQ(proj.schema().column(0).name, "score");
  EXPECT_EQ(proj.column(0).GetInt(1), 20);
}

TEST(TableTest, SortByIntColumnReclusters) {
  Table t("t", TwoColSchema());
  t.AppendIntRowUnchecked({3, 30});
  t.AppendIntRowUnchecked({1, 10});
  t.AppendIntRowUnchecked({2, 20});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.SortByIntColumn(0);
  EXPECT_EQ(t.column(0).GetInt(0), 1);
  EXPECT_EQ(t.column(0).GetInt(2), 3);
  // Index rebuilt after physical reorder.
  EXPECT_EQ(*t.LookupUniqueInt(0, 3), 2u);
}

TEST(TableTest, AddColumnFillsNulls) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.AddColumn({"extra", ValueType::kString}).ok());
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_TRUE(t.GetValue(0, 2).is_null());
  EXPECT_TRUE(t.AddColumn({"extra", ValueType::kString}).IsAlreadyExists());
}

TEST(TableTest, RewriteRowAppendToArray) {
  Table t("t", Schema({{"rid", ValueType::kInt64},
                       {"vlist", ValueType::kIntArray}}));
  t.AppendRowUnchecked({Value(int64_t{9}), Value(std::vector<int64_t>{1})});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.RewriteRowAppendToArray(0, 1, 5);
  const auto& arr = t.column(1).GetIntArray(0);
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[1], 5);
  EXPECT_EQ(*t.LookupUniqueInt(0, 9), 0u);
}

TEST(TableTest, DeleteRowsCompacts) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  t.DeleteRows({0, 5, 9});
  EXPECT_EQ(t.num_rows(), 7u);
  // Deleted keys are gone; survivors remain reachable through the index
  // (row order is not preserved — DeleteRows swap-removes).
  for (int64_t gone : {0, 5, 9}) {
    EXPECT_FALSE(t.LookupUniqueInt(0, gone).has_value());
  }
  for (int64_t kept : {1, 2, 3, 4, 6, 7, 8}) {
    auto row = t.LookupUniqueInt(0, kept);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(t.column(0).GetInt(*row), kept);
    EXPECT_EQ(t.column(1).GetInt(*row), kept * 10);
  }
}

TEST(TableTest, DeleteAllRows) {
  Table t = MakeSmallTable();
  std::vector<uint32_t> all(t.num_rows());
  std::iota(all.begin(), all.end(), 0u);
  t.DeleteRows(all);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, WidenColumn) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.WidenColumn(1, ValueType::kDouble).ok());
  EXPECT_EQ(t.schema().column(1).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(t.column(1).GetDouble(3), 30.0);
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_TRUE(t.WidenColumn(0, ValueType::kDouble).code() ==
              orpheus::StatusCode::kNotSupported);
}

TEST(TableTest, StorageBytes) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.DataBytes(), 10u * 2 * 8);
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_EQ(t.IndexBytes(), 10u * 16);
  EXPECT_EQ(t.StorageBytes(), t.DataBytes() + t.IndexBytes());
}

// ---------------------------------------------------------------------------
// Checkout tracking: a stamped table records its own edits
// ---------------------------------------------------------------------------

// A checkout-shaped table: _rid, then `serial` (the test's own row
// identity, never reused), then two data columns. Row i holds rid
// 100 + 3 * i and serial i.
Table TrackedTable(size_t rows) {
  Table t("w", Schema({{"_rid", ValueType::kInt64},
                       {"serial", ValueType::kInt64},
                       {"n", ValueType::kInt64},
                       {"s", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    t.AppendRowUnchecked({Value(100 + 3 * v), Value(v), Value(v % 7),
                          Value("s" + std::to_string(v))});
  }
  return t;
}

TEST(TableTrackingTest, StampMakesEveryRowCleanAndCopiesAreUntracked) {
  for (size_t rows : {0, 1, 63, 64, 65, 130}) {
    Table t = TrackedTable(rows);
    EXPECT_EQ(t.checkout_id(), 0u);
    const uint64_t id = t.StampCheckout();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(t.checkout_id(), id);
    const Table::Edits edits = t.GetEdits();
    EXPECT_TRUE(edits.changed.empty()) << rows;
    EXPECT_TRUE(edits.dropped.empty()) << rows;
    // Appended rows are changed, across the word boundary too.
    t.AppendRowUnchecked({Value::Null(), Value(int64_t{-1}),
                          Value(int64_t{0}), Value("new")});
    EXPECT_EQ(t.GetEdits().changed, std::vector<uint32_t>{
                                        static_cast<uint32_t>(rows)});
    EXPECT_EQ(t.CopyRows({0}, "c").checkout_id(), 0u);
    EXPECT_EQ(t.Clone("c").checkout_id(), 0u);
    EXPECT_EQ(t.ProjectRows({0}, {0, 1}, "c").checkout_id(), 0u);
    // Moving keeps the stamp.
    Table moved = std::move(t);
    EXPECT_EQ(moved.checkout_id(), id);
  }
  Table a = TrackedTable(3);
  Table b = TrackedTable(3);
  EXPECT_NE(a.StampCheckout(), b.StampCheckout());
}

TEST(TableTrackingTest, SetRowChangesTheRowEvenToTheSameValues) {
  Table t = TrackedTable(70);
  t.StampCheckout();
  t.SetRow(2, t.GetRow(2));  // identical values
  Row row = t.GetRow(66);
  row[0] = Value(int64_t{9999});  // the rid itself
  t.SetRow(66, row);
  t.SetRow(66, t.GetRow(66));  // already changed: nothing new dropped
  const Table::Edits edits = t.GetEdits();
  EXPECT_EQ(edits.changed, (std::vector<uint32_t>{2, 66}));
  EXPECT_EQ(edits.dropped, (std::vector<int64_t>{106, 298}));
}

TEST(TableTrackingTest, RewriteRowAppendToArrayChangesTheRow) {
  Table t("w", Schema({{"_rid", ValueType::kInt64},
                       {"vlist", ValueType::kIntArray}}));
  t.AppendRowUnchecked({Value(int64_t{5}), Value(std::vector<int64_t>{1})});
  t.AppendRowUnchecked({Value(int64_t{6}), Value(std::vector<int64_t>{1})});
  t.StampCheckout();
  t.RewriteRowAppendToArray(1, 1, 2);
  EXPECT_EQ(t.GetEdits().changed, std::vector<uint32_t>{1});
  EXPECT_EQ(t.GetEdits().dropped, std::vector<int64_t>{6});
}

TEST(TableTrackingTest, DeleteRowsMovesTheBitsWithTheRows) {
  Table t = TrackedTable(130);
  t.StampCheckout();
  t.SetRow(129, t.GetRow(129));  // the last row, changed
  // Row 129 moves into row 1's place, and row 128 into row 0's.
  t.DeleteRows({0, 1});
  Table::Edits edits = t.GetEdits();
  EXPECT_EQ(edits.changed, std::vector<uint32_t>{1});
  EXPECT_EQ(edits.dropped, (std::vector<int64_t>{100, 103, 487}));
  EXPECT_EQ(t.GetValue(0, 1).AsInt(), 128);
  // A row appended where a deleted row's bit was is changed.
  t.DeleteRows({static_cast<uint32_t>(t.num_rows() - 1)});
  t.AppendRowUnchecked(
      {Value::Null(), Value(int64_t{-1}), Value(int64_t{0}), Value("x")});
  edits = t.GetEdits();
  const uint32_t appended = static_cast<uint32_t>(t.num_rows() - 1);
  EXPECT_EQ(edits.changed, (std::vector<uint32_t>{1, appended}));
  // Delete-all drops every clean rid.
  std::vector<uint32_t> all(t.num_rows());
  std::iota(all.begin(), all.end(), 0u);
  t.DeleteRows(all);
  EXPECT_TRUE(t.GetEdits().changed.empty());
  EXPECT_EQ(t.GetEdits().dropped.size(), 130u);
}

TEST(TableTrackingTest, SchemaChangesChangeEveryRow) {
  for (int change = 0; change < 2; ++change) {
    Table t = TrackedTable(5);
    t.StampCheckout();
    t.SetRow(1, t.GetRow(1));
    if (change == 0) {
      ASSERT_TRUE(t.AddColumn({"extra", ValueType::kDouble}).ok());
      EXPECT_TRUE(t.AddColumn({"extra", ValueType::kDouble}).IsAlreadyExists());
    } else {
      ASSERT_TRUE(t.WidenColumn(2, ValueType::kInt64).ok());  // no-op
      EXPECT_EQ(t.GetEdits().changed, std::vector<uint32_t>{1});
      ASSERT_TRUE(t.WidenColumn(2, ValueType::kDouble).ok());
    }
    const Table::Edits edits = t.GetEdits();
    EXPECT_EQ(edits.changed, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(edits.dropped, (std::vector<int64_t>{100, 103, 106, 109, 112}));
  }
}

TEST(TableTrackingTest, ChangedRowRepeatingACleanRidChangesThatRow) {
  Table t = TrackedTable(6);
  t.StampCheckout();
  t.SortByIntColumn(2);  // n = i % 7: the order stays, the bits follow
  Row row = t.GetRow(4);
  t.AppendRowUnchecked(row);  // rid 112 twice
  row[0] = Value(int64_t{5000});  // a rid the checkout never held
  t.AppendRowUnchecked(row);
  const Table::Edits edits = t.GetEdits();
  EXPECT_EQ(edits.changed, (std::vector<uint32_t>{4, 6, 7}));
  EXPECT_EQ(edits.dropped, std::vector<int64_t>{112});
}

// Random in-place scripts against a model that knows each row only by its
// serial: a row is clean iff it still holds a serial it was checked out
// with and no schema change happened; the dropped rids are the checkout
// rids whose serial no clean row holds.
TEST(TableTrackingTest, RandomScriptsMatchTheSerialModel) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xorshift rng(seed);
    const size_t n = rng.Uniform(150);
    Table t = TrackedTable(n);
    t.StampCheckout();
    int64_t next_serial = static_cast<int64_t>(n);
    bool schema_changed = false;
    for (int step = 0; step < 40; ++step) {
      auto fresh_row = [&] {
        const uint32_t any = static_cast<uint32_t>(rng.Uniform(t.num_rows() + 1));
        Row row = any < t.num_rows() ? t.GetRow(any)
                                     : Row(t.num_columns(), Value::Null());
        row[0] = rng.Uniform(2) == 0 ? Value::Null()
                                     : Value(int64_t{1000000} + next_serial);
        row[1] = Value(next_serial++);
        return row;
      };
      switch (rng.Uniform(8)) {
        case 0:
        case 1:
          if (t.num_rows() > 0) {
            const uint32_t r = static_cast<uint32_t>(rng.Uniform(t.num_rows()));
            Row row = t.GetRow(r);
            row[1] = Value(next_serial++);
            if (rng.Uniform(3) == 0) row[0] = Value(int64_t{2000000} + step);
            t.SetRow(r, row);
          }
          break;
        case 2:
        case 3: {
          std::vector<uint32_t> doomed;
          const uint64_t odds = rng.Uniform(4) == 0 ? 1 : 6;
          for (uint32_t r = 0; r < t.num_rows(); ++r) {
            if (rng.Uniform(odds) == 0) doomed.push_back(r);
          }
          t.DeleteRows(doomed);
          break;
        }
        case 4:
          ASSERT_TRUE(t.InsertRow(fresh_row()).ok());
          break;
        case 5: {
          Table src("src", t.schema());
          src.AppendRowUnchecked(fresh_row());
          src.AppendRowUnchecked(fresh_row());
          t.AppendFrom(src, {1, 0});
          break;
        }
        case 6:
          t.SortByIntColumn(
              rng.Uniform(2) == 0 || t.column(2).type() != ValueType::kInt64
                  ? 1
                  : 2);
          break;
        case 7:
          if (rng.Uniform(4) == 0) {
            schema_changed = true;
            if (t.schema().FindColumn("extra") < 0) {
              ASSERT_TRUE(t.AddColumn({"extra", ValueType::kString}).ok());
            } else {
              ASSERT_TRUE(t.WidenColumn(2, ValueType::kDouble).ok());
            }
          }
          break;
      }
    }
    std::vector<uint32_t> changed;
    std::vector<bool> clean_serial(n, false);
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      const int64_t serial = t.GetValue(r, 1).AsInt();
      if (!schema_changed && serial < static_cast<int64_t>(n)) {
        clean_serial[serial] = true;
      } else {
        changed.push_back(r);
      }
    }
    std::vector<int64_t> dropped;
    for (size_t i = 0; i < n; ++i) {
      if (!clean_serial[i]) dropped.push_back(100 + 3 * int64_t(i));
    }
    const Table::Edits edits = t.GetEdits();
    EXPECT_EQ(edits.changed, changed);
    EXPECT_EQ(edits.dropped, dropped);
  }
}


class JoinTest : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinTest, FindsExactlyMatchingRids) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 100; ++i) t.AppendIntRowUnchecked({i * 2, i});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  std::vector<int64_t> rlist = {0, 10, 11, 50, 198, 200};
  auto rows = JoinRids(t, 0, rlist, GetParam(), /*clustered_on_rid=*/true);
  std::vector<int64_t> found;
  for (uint32_t r : rows) found.push_back(t.column(0).GetInt(r));
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<int64_t>{0, 10, 50, 198}));
}

TEST_P(JoinTest, EmptyRlist) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  EXPECT_TRUE(JoinRids(t, 0, {}, GetParam(), true).empty());
}

TEST_P(JoinTest, UnclusteredDataSide) {
  Table t("t", TwoColSchema());
  // rids intentionally out of order.
  for (int64_t i = 0; i < 50; ++i) t.AppendIntRowUnchecked({(i * 37) % 101, i});
  ASSERT_TRUE(t.BuildUniqueIntIndex(0).ok());
  std::vector<int64_t> rlist = {1, 2, 3, 99, 100};
  auto rows = JoinRids(t, 0, rlist, GetParam(), /*clustered_on_rid=*/false);
  std::vector<int64_t> found;
  for (uint32_t r : rows) found.push_back(t.column(0).GetInt(r));
  std::sort(found.begin(), found.end());
  // Values present in the table among the probes:
  std::vector<int64_t> expect;
  for (int64_t probe : rlist) {
    for (int64_t i = 0; i < 50; ++i) {
      if ((i * 37) % 101 == probe) expect.push_back(probe);
    }
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(found, expect);
}

INSTANTIATE_TEST_SUITE_P(AllJoins, JoinTest,
                         ::testing::Values(JoinAlgorithm::kHashJoin,
                                           JoinAlgorithm::kMergeJoin,
                                           JoinAlgorithm::kIndexNestedLoop),
                         [](const auto& info) {
                           switch (info.param) {
                             case JoinAlgorithm::kHashJoin: return "Hash";
                             case JoinAlgorithm::kMergeJoin: return "Merge";
                             case JoinAlgorithm::kIndexNestedLoop: return "Inl";
                           }
                           return "Unknown";
                         });

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("a", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("a"));
  EXPECT_TRUE(db.CreateTable("a", TwoColSchema()).status().IsAlreadyExists());
  EXPECT_NE(db.GetTable("a"), nullptr);
  EXPECT_EQ(db.GetTable("b"), nullptr);
  EXPECT_TRUE(db.DropTable("a").ok());
  EXPECT_TRUE(db.DropTable("a").IsNotFound());
}

TEST(DatabaseTest, AdoptAndTotals) {
  Database db;
  Table t = MakeSmallTable();
  uint64_t bytes = t.StorageBytes();
  ASSERT_TRUE(db.AdoptTable(std::move(t)).ok());
  EXPECT_EQ(db.TotalStorageBytes(), bytes);
  EXPECT_EQ(db.ListTables(), std::vector<std::string>{"t"});
}

}  // namespace
}  // namespace orpheus::minidb
