#include "minidb/table.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "common/metrics.h"
#include "common/ridset.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace orpheus::minidb {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
}

Result<Table> Table::FromColumns(std::string name, Schema schema,
                                 std::vector<Column> columns) {
  if (columns.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("%zu columns for a %zu-column schema", columns.size(),
                  schema.num_columns()));
  }
  const size_t num_rows = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].type() != schema.column(c).type ||
        columns[c].size() != num_rows) {
      return Status::InvalidArgument(StrFormat(
          "column %s does not fit the schema (%s, %zu rows)",
          schema.column(c).name.c_str(), ValueTypeName(columns[c].type()),
          columns[c].size()));
    }
  }
  Table table(std::move(name), std::move(schema));
  table.columns_ = std::move(columns);
  table.num_rows_ = num_rows;
  ORPHEUS_COUNTER_ADD("minidb.rows_appended", num_rows);
  return table;
}

Status Table::InsertRow(const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu != schema arity %zu in table %s", row.size(),
                  schema_.num_columns(), name_.c_str()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    ValueType want = schema_.column(i).type;
    ValueType got = row[i].type();
    bool numeric_ok = (want == ValueType::kInt64 || want == ValueType::kDouble) &&
                      (got == ValueType::kInt64 || got == ValueType::kDouble);
    if (got != want && !numeric_ok) {
      return Status::InvalidArgument(
          StrFormat("column %s expects %s, got %s",
                    schema_.column(i).name.c_str(), ValueTypeName(want),
                    ValueTypeName(got)));
    }
  }
  AppendRowUnchecked(row);
  return Status::OK();
}

void Table::AppendRowUnchecked(const Row& row) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
  ++num_rows_;
  MaintainIndexesOnAppend(static_cast<uint32_t>(num_rows_ - 1));
  ORPHEUS_COUNTER_ADD("minidb.rows_appended", 1);
}

void Table::AppendIntRowUnchecked(const std::vector<int64_t>& vals) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendInt(vals[i]);
  }
  ++num_rows_;
  MaintainIndexesOnAppend(static_cast<uint32_t>(num_rows_ - 1));
  ORPHEUS_COUNTER_ADD("minidb.rows_appended", 1);
}

void Table::AppendIntRows(const int64_t* rows, size_t nrows) {
  const size_t ncols = columns_.size();
  ParallelFor(0, ncols, 1, [this, rows, nrows, ncols](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      for (size_t r = 0; r < nrows; ++r) {
        columns_[c].AppendInt(rows[r * ncols + c]);
      }
    }
  });
  const size_t first_new = num_rows_;
  num_rows_ += nrows;
  if (!indexes_.empty()) {
    for (size_t r = first_new; r < num_rows_; ++r) {
      MaintainIndexesOnAppend(static_cast<uint32_t>(r));
    }
  }
  ORPHEUS_COUNTER_ADD("minidb.rows_appended", nrows);
}

Row Table::GetRow(uint32_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

Status Table::BuildUniqueIntIndex(int col) {
  if (col < 0 || static_cast<size_t>(col) >= columns_.size()) {
    return Status::InvalidArgument("index column out of range");
  }
  if (columns_[col].type() != ValueType::kInt64) {
    return Status::InvalidArgument("unique index requires an int64 column");
  }
  std::unordered_map<int64_t, uint32_t> idx;
  idx.reserve(num_rows_ * 2);
  const auto& data = columns_[col].int_data();
  for (uint32_t r = 0; r < num_rows_; ++r) {
    auto [it, inserted] = idx.emplace(data[r], r);
    if (!inserted) {
      return Status::ConstraintViolation(
          StrFormat("duplicate key %lld in unique index on column %d",
                    static_cast<long long>(data[r]), col));
    }
  }
  indexes_[col] = std::move(idx);
  ORPHEUS_COUNTER_ADD("minidb.index_builds", 1);
  return Status::OK();
}

std::optional<uint32_t> Table::LookupUniqueInt(int col, int64_t key) const {
  ORPHEUS_COUNTER_ADD("minidb.index_lookups", 1);
  auto it = indexes_.find(col);
  if (it == indexes_.end()) return std::nullopt;
  auto hit = it->second.find(key);
  if (hit == it->second.end()) return std::nullopt;
  return hit->second;
}

std::vector<uint32_t> Table::SelectRows(
    const std::function<bool(const Table&, uint32_t)>& pred) const {
  std::vector<uint32_t> out;
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (pred(*this, r)) out.push_back(r);
  }
  return out;
}

std::vector<uint32_t> Table::SelectRowsArrayContains(int array_col,
                                                     int64_t needle) const {
  const Column& col = columns_[array_col];
  // Still a full-table scan (the combined-table checkout plan), but the
  // per-row membership tests fan out across the pool; chunk outputs are
  // stitched in row order so the result matches the serial scan exactly.
  // Compressed cells are probed in place; plain cells binary-search.
  return ParallelCollect<uint32_t>(
      num_rows_, 1 << 13,
      [&col, needle](size_t lo, size_t hi, std::vector<uint32_t>* out) {
        size_t hint = 0;
        for (size_t r = lo; r < hi; ++r) {
          const auto& set = col.GetRidSet(r);
          bool hit;
          if (set) {
            hit = set->ContainsHint(needle, &hint);
          } else {
            const auto& arr = col.GetIntArray(r);
            hit = std::binary_search(arr.begin(), arr.end(), needle);
          }
          if (hit) out->push_back(static_cast<uint32_t>(r));
        }
      });
}

Table Table::CopyRows(const std::vector<uint32_t>& rows,
                      std::string new_name) const {
  Table out(std::move(new_name), schema_);
  out.AppendFrom(*this, rows);
  return out;
}

Table Table::ProjectRows(const std::vector<uint32_t>& rows,
                         const std::vector<int>& cols,
                         std::string new_name) const {
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (int c : cols) defs.push_back(schema_.column(c));
  Table out(std::move(new_name), Schema(std::move(defs)));
  out.AppendFrom(*this, rows, &cols);
  return out;
}

void Table::AppendFrom(const Table& src, const std::vector<uint32_t>& rows,
                       const std::vector<int>* src_cols) {
  // Column fills are independent, so materialization (the copy half of a
  // checkout) parallelizes across columns. Row order within each column is
  // preserved, so the result is layout-identical to the serial fill.
  const size_t ncols = columns_.size();
  auto fill_column = [this, &src, &rows, src_cols](size_t c) {
    columns_[c].AppendRows(src.columns_[src_cols ? (*src_cols)[c] : c],
                           rows.data(), rows.size());
  };
  if (rows.size() >= 4096 && ncols > 1) {
    ParallelFor(0, ncols, 1, [&fill_column](size_t lo, size_t hi) {
      for (size_t c = lo; c < hi; ++c) fill_column(c);
    });
  } else {
    for (size_t c = 0; c < ncols; ++c) fill_column(c);
  }
  size_t first_new = num_rows_;
  num_rows_ += rows.size();
  if (!indexes_.empty()) {
    for (size_t r = first_new; r < num_rows_; ++r) {
      MaintainIndexesOnAppend(static_cast<uint32_t>(r));
    }
  }
  ORPHEUS_COUNTER_ADD("minidb.rows_copied", rows.size());
}

Table Table::Clone(std::string new_name) const {
  std::vector<uint32_t> all(num_rows_);
  std::iota(all.begin(), all.end(), 0u);
  Table out = CopyRows(all, std::move(new_name));
  for (const auto& [col, idx] : indexes_) {
    // Clone of a valid unique index cannot find duplicates.
    ORPHEUS_CHECK_OK(out.BuildUniqueIntIndex(col));
  }
  return out;
}

void Table::SortByIntColumn(int col) {
  ORPHEUS_COUNTER_ADD("minidb.sorts", 1);
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0u);
  const auto& keys = columns_[col].int_data();
  std::sort(order.begin(), order.end(),
            [&keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  Table sorted = CopyRows(order, name_);
  columns_ = std::move(sorted.columns_);
  if (checkout_id_ != 0) {
    std::vector<uint64_t> clean((num_rows_ + 63) / 64, 0);
    for (size_t r = 0; r < num_rows_; ++r) {
      if (IsClean(order[r])) clean[r / 64] |= uint64_t{1} << (r % 64);
    }
    clean_ = std::move(clean);
  }
  for (auto& [icol, idx] : indexes_) {
    (void)idx;
    // Re-clustering permutes rows but keeps keys unique.
    ORPHEUS_CHECK_OK(BuildUniqueIntIndex(icol));
  }
}

Status Table::AddColumn(ColumnDef def) {
  if (schema_.FindColumn(def.name) >= 0) {
    return Status::AlreadyExists(
        StrFormat("column %s already exists", def.name.c_str()));
  }
  Column col(def.type);
  for (size_t r = 0; r < num_rows_; ++r) col.AppendNull();
  schema_.AddColumn(std::move(def));
  columns_.push_back(std::move(col));
  if (checkout_id_ != 0) DropAllClean();
  return Status::OK();
}

void Table::DeleteRows(const std::vector<uint32_t>& rows) {
  if (rows.empty()) return;
  ORPHEUS_COUNTER_ADD("minidb.rows_deleted", rows.size());
  // Swap-remove each doomed row, highest index first, so the cost is
  // proportional to the number of deleted rows (like marking tuples dead),
  // not to the table size. Physical row order is not preserved.
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    uint32_t r = *it;
    uint32_t last = static_cast<uint32_t>(num_rows_ - 1);
    if (checkout_id_ != 0) {  // `last` moves down, its bit with it
      if (IsClean(r)) DropClean(r);
      if (IsClean(last)) {
        clean_[r / 64] |= uint64_t{1} << (r % 64);
        clean_[last / 64] &= ~(uint64_t{1} << (last % 64));
      }
    }
    for (auto& [col, idx] : indexes_) {
      idx.erase(columns_[col].GetInt(r));
      if (r != last) {
        // The row moving down keeps its key but changes position.
        auto moved = idx.find(columns_[col].GetInt(last));
        if (moved != idx.end()) moved->second = r;
      }
    }
    for (auto& col : columns_) col.SwapRemove(r);
    --num_rows_;
  }
}

Status Table::WidenColumn(int col, ValueType to) {
  if (col < 0 || static_cast<size_t>(col) >= columns_.size()) {
    return Status::InvalidArgument("column out of range");
  }
  if (indexes_.count(col)) {
    return Status::NotSupported("cannot widen an indexed column");
  }
  if (columns_[col].type() == to) return Status::OK();
  if (checkout_id_ != 0) DropAllClean();  // while `_rid` is still int64
  ORPHEUS_RETURN_NOT_OK(columns_[col].Widen(to));
  schema_.SetColumnType(static_cast<size_t>(col), to);
  return Status::OK();
}

void Table::SetRow(uint32_t row, const Row& vals) {
  if (checkout_id_ != 0 && IsClean(row)) DropClean(row);
  for (size_t c = 0; c < columns_.size(); ++c) {
    // Maintain any unique index whose key cell changes.
    auto it = indexes_.find(static_cast<int>(c));
    if (it != indexes_.end() && !vals[c].is_null() &&
        columns_[c].GetInt(row) != vals[c].AsInt()) {
      it->second.erase(columns_[c].GetInt(row));
      it->second.emplace(vals[c].AsInt(), row);
    }
    columns_[c].SetValue(row, vals[c]);
  }
}

void Table::RewriteRowAppendToArray(uint32_t row, int array_col,
                                    int64_t value) {
  // Read the full tuple out (PostgreSQL forms the new tuple from the old).
  Row tuple = GetRow(row);
  if (const auto* set = tuple[array_col].TryRidSet()) {
    // Compressed cell: extend the set in place of the decompress-append
    // cycle (touches one container instead of the whole list).
    tuple[array_col] = Value(std::make_shared<const orpheus::RidSet>(
        (*set)->WithAppended(value)));
  } else {
    auto& arr = tuple[array_col].MutableIntArray();
    arr.push_back(value);  // arrays are append-ordered, hence stay sorted
  }
  // Index maintenance: an UPDATE re-enters the tuple in every index.
  for (auto& [col, idx] : indexes_) {
    auto it = idx.find(columns_[col].GetInt(row));
    if (it != idx.end()) {
      int64_t key = it->first;
      idx.erase(it);
      idx.emplace(key, row);
    }
  }
  // Write the full tuple back.
  SetRow(row, tuple);
}

uint64_t Table::StampCheckout() {
  static std::atomic<uint64_t> next_checkout_id{1};
  checkout_id_ = next_checkout_id.fetch_add(1, std::memory_order_relaxed);
  clean_.assign((num_rows_ + 63) / 64, ~uint64_t{0});
  if (num_rows_ % 64 != 0) clean_.back() >>= 64 - num_rows_ % 64;
  dropped_.clear();
  return checkout_id_;
}

Table::Edits Table::GetEdits() const {
  Edits out;
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (!IsClean(r)) out.changed.push_back(r);
  }
  out.dropped = dropped_;
  std::sort(out.dropped.begin(), out.dropped.end());
  // A changed row may repeat a clean row's rid (one not dropped); then a
  // commit would both carry the record and match that row against it.
  std::vector<int64_t> repeated;
  for (uint32_t r : out.changed) {
    if (out.changed.size() < num_rows_ && !columns_[0].IsNull(r) &&
        !std::binary_search(out.dropped.begin(), out.dropped.end(),
                            columns_[0].GetInt(r))) {
      repeated.push_back(columns_[0].GetInt(r));
    }
  }
  if (repeated.empty()) return out;
  std::sort(repeated.begin(), repeated.end());
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (IsClean(r) && std::binary_search(repeated.begin(), repeated.end(),
                                         columns_[0].GetInt(r))) {
      out.changed.push_back(r);
      out.dropped.push_back(columns_[0].GetInt(r));
    }
  }
  std::sort(out.changed.begin(), out.changed.end());
  std::sort(out.dropped.begin(), out.dropped.end());
  return out;
}

void Table::DropClean(uint32_t row) {
  dropped_.push_back(columns_[0].GetInt(row));
  clean_[row / 64] &= ~(uint64_t{1} << (row % 64));
}

void Table::DropAllClean() {
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (IsClean(r)) dropped_.push_back(columns_[0].GetInt(r));
  }
  clean_.clear();
}

void Table::ValidateIndexes(ValidationReport* report) const {
  for (const auto& [col, idx] : indexes_) {
    const std::string ctx = StrFormat("table %s col %d", name_.c_str(), col);
    if (idx.size() != num_rows_) {
      report->Add("minidb.index", ctx,
                  StrFormat("index holds %zu entries for %zu rows",
                            idx.size(), num_rows_));
    }
    for (uint32_t r = 0; r < num_rows_; ++r) {
      if (columns_[col].IsNull(r)) {
        report->Add("minidb.index", ctx,
                    StrFormat("row %u has NULL in a uniquely indexed column",
                              r));
        continue;
      }
      auto it = idx.find(columns_[col].GetInt(r));
      if (it == idx.end()) {
        report->Add("minidb.index", ctx,
                    StrFormat("row %u key %lld missing from the index", r,
                              static_cast<long long>(columns_[col].GetInt(r))));
      } else if (it->second != r) {
        report->Add("minidb.index", ctx,
                    StrFormat("key %lld resolves to row %u, expected row %u "
                              "(index/payload disagreement)",
                              static_cast<long long>(it->first), it->second,
                              r));
      }
    }
  }
}

uint64_t Table::DataBytes() const {
  uint64_t bytes = 0;
  for (const auto& col : columns_) bytes += col.StorageBytes();
  return bytes;
}

uint64_t Table::IndexBytes() const {
  uint64_t bytes = 0;
  for (const auto& [col, idx] : indexes_) {
    (void)col;
    bytes += idx.size() * 16;
  }
  return bytes;
}

void Table::MaintainIndexesOnAppend(uint32_t new_row) {
  if (indexes_.empty()) return;
  for (auto& [col, idx] : indexes_) {
    idx.emplace(columns_[col].GetInt(new_row), new_row);
  }
}

}  // namespace orpheus::minidb
