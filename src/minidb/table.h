#ifndef ORPHEUS_MINIDB_TABLE_H_
#define ORPHEUS_MINIDB_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/validation.h"
#include "minidb/column.h"
#include "minidb/schema.h"

namespace orpheus::minidb {

/// A columnar, in-memory table with optional unique integer indexes.
///
/// This is the storage substrate beneath OrpheusDB's CVDs; it plays the role
/// PostgreSQL played in the paper. It supports exactly the physical
/// operations the paper's plans rely on: sequential scans with arbitrary
/// predicates, array-containment filters, unique-index point lookups, and
/// physical re-clustering on a column (Sec. 5.5.5).
///
/// A checkout's table is stamped (StampCheckout) and records its own edits
/// through every mutator (GetEdits). Copies (CopyRows, Clone, ProjectRows,
/// FromColumns) are unstamped, and pay one branch per mutator call for it.
class Table {
 public:
  Table(std::string name, Schema schema);

  /// A table over already-filled columns, one per schema column with its
  /// type and all of one length (the bulk path of decoders). InvalidArgument
  /// when they do not fit the schema.
  static Result<Table> FromColumns(std::string name, Schema schema,
                                   std::vector<Column> columns);

  // Movable, not copyable (copies are explicit via CopyRows/Clone).
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Append a row after validating arity and cell types.
  Status InsertRow(const Row& row);

  /// Append a row without validation; caller guarantees schema conformance.
  void AppendRowUnchecked(const Row& row);

  /// Fast path: append a row whose cells are all int64 (wide benchmark
  /// tables). `vals` must have exactly num_columns() entries.
  void AppendIntRowUnchecked(const std::vector<int64_t>& vals);

  /// Bulk append of `nrows` all-int64 rows laid out row-major in `rows`
  /// (nrows * num_columns() values). Column fills run in parallel on the
  /// global thread pool; index maintenance is serial and in row order, so
  /// the result is identical to nrows AppendIntRowUnchecked calls.
  void AppendIntRows(const int64_t* rows, size_t nrows);

  Value GetValue(uint32_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }
  Row GetRow(uint32_t row) const;

  /// Build (or rebuild) a unique hash index on integer column `col`.
  /// Subsequent appends maintain the index. Duplicate keys are an error.
  Status BuildUniqueIntIndex(int col);

  /// True if a unique index exists on `col`.
  bool HasUniqueIntIndex(int col) const {
    return indexes_.find(col) != indexes_.end();
  }

  /// Point lookup on a unique integer index; nullopt if key absent.
  /// Requires the index to exist.
  std::optional<uint32_t> LookupUniqueInt(int col, int64_t key) const;

  /// Row ids satisfying `pred` in physical order. `pred` receives the table
  /// and a row id.
  std::vector<uint32_t> SelectRows(
      const std::function<bool(const Table&, uint32_t)>& pred) const;

  /// Row ids whose int-array column `array_col` contains `needle`
  /// (PostgreSQL's `ARRAY[needle] <@ col`). Arrays are kept sorted, so this
  /// is a binary search per row — but still a full-table scan, matching the
  /// combined-table checkout plan.
  std::vector<uint32_t> SelectRowsArrayContains(int array_col,
                                                int64_t needle) const;

  /// Materialize the given rows into a new table with the same schema.
  Table CopyRows(const std::vector<uint32_t>& rows,
                 std::string new_name) const;

  /// Materialize the given rows, keeping only the columns in `cols` (in
  /// that order).
  Table ProjectRows(const std::vector<uint32_t>& rows,
                    const std::vector<int>& cols,
                    std::string new_name) const;

  /// Append the given rows of `src` to this table. `src_cols` maps each of
  /// this table's columns to the source column it is fed from; it defaults
  /// to the identity (schemas must then have equal arity and types).
  void AppendFrom(const Table& src, const std::vector<uint32_t>& rows,
                  const std::vector<int>* src_cols = nullptr);

  /// Full copy.
  Table Clone(std::string new_name) const;

  /// Physically re-cluster the table by ascending values of integer column
  /// `col`; rebuilds any indexes.
  void SortByIntColumn(int col);

  /// Add a column, filling existing rows with NULL (paper Sec. 4.3 single
  /// pool schema evolution).
  Status AddColumn(ColumnDef def);

  /// Widen a column's type (ALTER COLUMN ... TYPE). See Column::Widen.
  Status WidenColumn(int col, ValueType to);

  /// Delete the given rows (sorted, unique) and compact the table; any
  /// indexes are rebuilt. Cost is proportional to the table size, like a
  /// DELETE followed by VACUUM.
  void DeleteRows(const std::vector<uint32_t>& rows);

  /// Overwrite every cell of `row` with the values in `vals` (arity must
  /// match). Models an UPDATE: the whole tuple is rewritten and any indexes
  /// on changed key columns are maintained.
  void SetRow(uint32_t row, const Row& vals);

  /// Emulates PostgreSQL's `SET vlist = vlist + v` UPDATE (Table 4.1): the
  /// entire tuple is read, copied, the array column extended, and the tuple
  /// written back with index maintenance — the write amplification that
  /// makes combined-table/split-by-vlist commits expensive (Fig. 4.1b).
  void RewriteRowAppendToArray(uint32_t row, int array_col, int64_t value);

  /// Stamp the table, whose column 0 is a `_rid` in every row, as a fresh
  /// checkout with every row unchanged; returns the checkout id (unique in
  /// the process, never 0). O(rows / 8).
  uint64_t StampCheckout();
  /// The stamp's checkout id, or 0.
  uint64_t checkout_id() const { return checkout_id_; }

  /// A stamped table's edits. A row is changed unless it is an untouched
  /// checkout row: SetRow changes it even to the same values, a schema
  /// change (AddColumn, WidenColumn) every row, and a changed row that
  /// repeats an unchanged row's rid that row too.
  struct Edits {
    std::vector<uint32_t> changed;  // ascending
    std::vector<int64_t> dropped;   // checkout rids no unchanged row holds
  };
  Edits GetEdits() const;

  /// Check every unique index against the column data: the index holds
  /// exactly one entry per row, each row's key resolves back to that row,
  /// and no phantom entries remain. Appends violations to `report`.
  void ValidateIndexes(ValidationReport* report) const;

  /// Bytes of table data (all columns), mirroring on-disk accounting.
  uint64_t DataBytes() const;
  /// Bytes of index structures (16 bytes per indexed row, roughly a btree
  /// entry: 8-byte key + 8-byte TID).
  uint64_t IndexBytes() const;
  /// DataBytes() + IndexBytes(); this is what Figure 4.1(a) plots.
  uint64_t StorageBytes() const { return DataBytes() + IndexBytes(); }

 private:
  /// Test-only backdoor for the validator tests: corrupts internal state to
  /// verify that ValidateIndexes detects the damage. Defined in the tests.
  friend struct TableTestAccess;

  void MaintainIndexesOnAppend(uint32_t new_row);

  bool IsClean(size_t row) const {
    return row / 64 < clean_.size() && (clean_[row / 64] >> (row % 64) & 1);
  }
  void DropClean(uint32_t row);  // drop the clean row's rid, clear its bit
  void DropAllClean();

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  // col -> (key -> row id)
  std::map<int, std::unordered_map<int64_t, uint32_t>> indexes_;
  // The stamp: a bit per unchanged ("clean") row, 0 past num_rows_, so
  // appends need no upkeep; and the rids of rows no longer clean.
  uint64_t checkout_id_ = 0;
  std::vector<uint64_t> clean_;
  std::vector<int64_t> dropped_;
};

}  // namespace orpheus::minidb

#endif  // ORPHEUS_MINIDB_TABLE_H_
