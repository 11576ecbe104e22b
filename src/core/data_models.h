#ifndef ORPHEUS_CORE_DATA_MODELS_H_
#define ORPHEUS_CORE_DATA_MODELS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/types.h"
#include "minidb/join.h"
#include "minidb/table.h"

namespace orpheus::core {

/// The five candidate physical representations for a CVD (Chapter 4).
enum class DataModelType {
  kATablePerVersion,  // Approach 4.5
  kCombinedTable,     // Approach 4.1
  kSplitByVlist,      // Approach 4.2
  kSplitByRlist,      // Approach 4.3 — OrpheusDB's chosen model
  kDeltaBased,        // Approach 4.4
};

const char* DataModelTypeName(DataModelType t);

/// A record whose payload is not yet stored in the CVD: its freshly assigned
/// rid plus the data-attribute values (no rid column).
struct NewRecord {
  RecordId rid;
  minidb::Row data;
};

/// A checkout as rows of one physical table (DESIGN.md §11.3): output row i
/// is source row `rows[i]`, and output column j — `_rid`, then the data
/// attributes — is source column `cols[j]`.
///
/// The source is either borrowed from the backend or owned by the
/// selection (`owned`, for models that assemble a version from several
/// tables). A borrowed selection reads the backend's live tables: it is
/// valid only until the CVD is next mutated, so a concurrent reader must
/// hold the session layer's reader lock for as long as it uses one.
struct RowSelection {
  const minidb::Table* table = nullptr;
  std::vector<uint32_t> rows;
  std::vector<int> cols;
  std::unique_ptr<minidb::Table> owned;  // non-null: `table` points here

  /// Rows `rows` of every column of `table`, borrowed.
  static RowSelection Of(const minidb::Table& table,
                         std::vector<uint32_t> rows);
  /// Every row and column of `table`, borrowed.
  static RowSelection All(const minidb::Table& table);
  /// Every row and column of `table`, owned.
  static RowSelection Own(minidb::Table table);

  /// Schema of the selected columns ([_rid, data attributes...]).
  minidb::Schema schema() const;
  /// Rids of the selected rows, sorted.
  std::vector<RecordId> SortedRids() const;
  /// Copy the selected rows into a free-standing table named `name` (an
  /// owned table that is already the whole selection is moved out).
  minidb::Table Materialize(std::string name) &&;
};

/// Physical storage backend for one CVD. Versions are dense indices assigned
/// by the caller in commit order; rids are assigned by the record manager.
///
/// All backends expose the same logical operations so Chapter 4's comparison
/// (Fig. 4.1) is an apples-to-apples sweep over this interface.
class DataModelBackend {
 public:
  virtual ~DataModelBackend() = default;

  virtual DataModelType type() const = 0;
  const char* name() const { return DataModelTypeName(type()); }

  /// Current data-attribute schema (no rid column).
  const minidb::Schema& data_schema() const { return data_schema_; }
  int num_versions() const { return num_versions_; }

  /// Register version `vid` == num_versions() with sorted record membership
  /// `rids`, the payloads of records never stored before (`new_records`,
  /// sorted by rid; every new rid must appear in `rids`), and its parent
  /// version indices.
  virtual Status AddVersion(int vid, const std::vector<RecordId>& rids,
                            const std::vector<NewRecord>& new_records,
                            const std::vector<int>& parents) = 0;

  /// Sorted rids of version `vid`.
  virtual Result<std::vector<RecordId>> VersionRecords(int vid) const = 0;

  /// The rows of version `vid` (see RowSelection for how long a borrowed
  /// selection stays valid).
  virtual Result<RowSelection> Select(int vid) const = 0;

  /// Materialize version `vid` as a table named `out` with schema
  /// [_rid, data attributes...]: Select, then copy.
  Result<minidb::Table> Checkout(int vid, const std::string& out) const;

  /// Where stored record `rid` lives: row `row` of `table`, whose data
  /// attribute k sits at column PayloadColumn(k). Every physical table is
  /// widened and extended in place by WidenAttribute/AddAttribute, so a
  /// located record reads at the current schema (attributes added after it
  /// was stored read NULL).
  struct RecordLocation {
    const minidb::Table* table;
    uint32_t row;
  };

  /// Find stored record `rid` (nullopt if none). `version_hint` is a
  /// version known to contain the rid (or a good starting point). Commit's
  /// modification detection compares staged cells against the located
  /// record in place; the session reconcile fetches changed records here.
  virtual std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const = 0;

  /// Column of data attribute `attr` within a located record's table.
  virtual int PayloadColumn(int attr) const { return attr + 1; }

  /// The payload of a single record by rid: its data attributes at the
  /// current schema width (LocateRecord, copied out).
  Result<minidb::Row> GetRecordPayload(RecordId rid, int version_hint) const;

  /// Bytes of physical storage (data + versioning info + indexes); what
  /// Fig. 4.1(a) plots.
  virtual uint64_t StorageBytes() const = 0;

  /// Schema evolution: add a data attribute (single-pool model, Sec. 4.3).
  virtual Status AddAttribute(const minidb::ColumnDef& def) = 0;

  /// Schema evolution: widen data attribute `attr_idx` to a more general
  /// type (e.g. int64 -> double, Sec. 4.3's integer -> decimal).
  virtual Status WidenAttribute(int attr_idx, minidb::ValueType to) = 0;

  static std::unique_ptr<DataModelBackend> Create(DataModelType type,
                                                  minidb::Schema data_schema);

 protected:
  explicit DataModelBackend(minidb::Schema data_schema)
      : data_schema_(std::move(data_schema)) {}

  /// Schema of a materialized table: [_rid, data attributes...].
  minidb::Schema MaterializedSchema() const;

  minidb::Schema data_schema_;
  int num_versions_ = 0;
};

// ---------------------------------------------------------------------------
// Approach 4.5: one full table per version.
// ---------------------------------------------------------------------------
class ATablePerVersionBackend final : public DataModelBackend {
 public:
  explicit ATablePerVersionBackend(minidb::Schema data_schema)
      : DataModelBackend(std::move(data_schema)) {}

  DataModelType type() const override {
    return DataModelType::kATablePerVersion;
  }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<RowSelection> Select(int vid) const override;
  std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

 private:
  std::vector<minidb::Table> version_tables_;
};

// ---------------------------------------------------------------------------
// Approach 4.1: a single combined table with a vlist array column.
// ---------------------------------------------------------------------------
class CombinedTableBackend final : public DataModelBackend {
 public:
  explicit CombinedTableBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kCombinedTable; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<RowSelection> Select(int vid) const override;
  std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  // Physical position of data attribute k: attributes added after creation
  // land beyond the vlist column (minidb appends columns at the end).
  int PayloadColumn(int k) const override {
    return k + 1 < vlist_col_ ? k + 1 : k + 2;
  }

 private:
  minidb::Table combined_;  // [_rid, attrs..., vlist, late attrs...]
  int vlist_col_;
};

// ---------------------------------------------------------------------------
// Approach 4.2: data table + versioning table keyed by rid (vlist arrays).
// ---------------------------------------------------------------------------
class SplitByVlistBackend final : public DataModelBackend {
 public:
  explicit SplitByVlistBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kSplitByVlist; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<RowSelection> Select(int vid) const override;
  std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

 private:
  minidb::Table data_;        // [_rid, attrs...]
  minidb::Table versioning_;  // [_rid, vlist]
};

// ---------------------------------------------------------------------------
// Approach 4.3: data table + versioning table keyed by vid (rlist arrays).
// This is the model OrpheusDB adopts.
// ---------------------------------------------------------------------------
class SplitByRlistBackend final : public DataModelBackend {
 public:
  explicit SplitByRlistBackend(minidb::Schema data_schema);

  DataModelType type() const override { return DataModelType::kSplitByRlist; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<RowSelection> Select(int vid) const override;
  std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

  /// The join strategy used by Select; hash-join by default (Sec. 5.5.5).
  void set_join_algorithm(minidb::JoinAlgorithm algo) { join_algo_ = algo; }

  /// Direct access for the partition optimizer.
  const minidb::Table& data_table() const { return data_; }

 private:
  minidb::Table data_;        // [_rid, attrs...]
  minidb::Table versioning_;  // [vid, rlist]
  /// True when data-table row r holds rid r (O(1): the rids ascend, are
  /// unique under the index, and run from 0 to num_rows - 1), so a
  /// version's rids are its rows.
  bool RidIsRow() const;

  minidb::JoinAlgorithm join_algo_ = minidb::JoinAlgorithm::kHashJoin;
  /// True while the data table's rid column is an ascending run (commits
  /// append fresh increasing rids, so this holds in the common case);
  /// lets the compressed-rlist checkout use the serial merge kernel.
  bool data_rid_ascending_ = true;
};

// ---------------------------------------------------------------------------
// Approach 4.4: delta-based — each version stores modifications from a
// single base (precedent) version.
// ---------------------------------------------------------------------------
class DeltaBasedBackend final : public DataModelBackend {
 public:
  explicit DeltaBasedBackend(minidb::Schema data_schema)
      : DataModelBackend(std::move(data_schema)) {}

  DataModelType type() const override { return DataModelType::kDeltaBased; }
  Status AddVersion(int vid, const std::vector<RecordId>& rids,
                    const std::vector<NewRecord>& new_records,
                    const std::vector<int>& parents) override;
  Result<std::vector<RecordId>> VersionRecords(int vid) const override;
  Result<RowSelection> Select(int vid) const override;
  std::optional<RecordLocation> LocateRecord(
      RecordId rid, int version_hint) const override;
  uint64_t StorageBytes() const override;
  Status AddAttribute(const minidb::ColumnDef& def) override;
  Status WidenAttribute(int attr_idx, minidb::ValueType to) override;

 private:
  struct Delta {
    int base = -1;                  // precedent version (-1 = root)
    minidb::Table inserts;          // [_rid, attrs...] records added vs base
    std::vector<RecordId> deletes;  // rids removed vs base (tombstones)
    Delta(minidb::Schema schema, const std::string& name)
        : inserts(name, std::move(schema)) {}
  };

  std::vector<Delta> deltas_;
  // Membership cache: rebuilt-on-restart index, not counted as storage
  // (the paper's delta model stores only the deltas + precedent table).
  std::vector<std::vector<RecordId>> membership_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_DATA_MODELS_H_
