#include "core/data_models.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

#include "common/ridset.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace orpheus::core {

using minidb::Column;
using minidb::ColumnDef;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

const char* DataModelTypeName(DataModelType t) {
  switch (t) {
    case DataModelType::kATablePerVersion: return "a-table-per-version";
    case DataModelType::kCombinedTable: return "combined-table";
    case DataModelType::kSplitByVlist: return "split-by-vlist";
    case DataModelType::kSplitByRlist: return "split-by-rlist";
    case DataModelType::kDeltaBased: return "delta-based";
  }
  return "?";
}

Schema DataModelBackend::MaterializedSchema() const {
  std::vector<ColumnDef> cols;
  cols.reserve(data_schema_.num_columns() + 1);
  cols.push_back({"_rid", ValueType::kInt64});
  for (const auto& def : data_schema_.columns()) cols.push_back(def);
  return Schema(std::move(cols));
}

Result<minidb::Row> DataModelBackend::GetRecordPayload(RecordId rid,
                                                      int version_hint) const {
  std::optional<RecordLocation> at = LocateRecord(rid, version_hint);
  if (!at) {
    return Status::NotFound(StrFormat("rid %lld", static_cast<long long>(rid)));
  }
  Row out;
  out.reserve(data_schema_.num_columns());
  for (size_t k = 0; k < data_schema_.num_columns(); ++k) {
    out.push_back(
        at->table->GetValue(at->row, PayloadColumn(static_cast<int>(k))));
  }
  return out;
}

RowSelection RowSelection::Of(const Table& table,
                              std::vector<uint32_t> rows) {
  RowSelection sel;
  sel.table = &table;
  sel.rows = std::move(rows);
  sel.cols.resize(table.num_columns());
  std::iota(sel.cols.begin(), sel.cols.end(), 0);
  return sel;
}

RowSelection RowSelection::All(const Table& table) {
  std::vector<uint32_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return Of(table, std::move(rows));
}

RowSelection RowSelection::Own(Table table) {
  auto owned = std::make_unique<Table>(std::move(table));
  RowSelection sel = All(*owned);
  sel.owned = std::move(owned);
  return sel;
}

Schema RowSelection::schema() const {
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (int c : cols) defs.push_back(table->schema().column(c));
  return Schema(std::move(defs));
}

std::vector<RecordId> RowSelection::SortedRids() const {
  // Column 0 of a checkout is `_rid`, never NULL.
  const std::vector<int64_t>& ids = table->column(cols[0]).int_data();
  std::vector<RecordId> rids;
  rids.reserve(rows.size());
  for (uint32_t r : rows) rids.push_back(ids[r]);
  if (!std::is_sorted(rids.begin(), rids.end())) {
    std::sort(rids.begin(), rids.end());
  }
  return rids;
}

Table RowSelection::Materialize(std::string name) && {
  auto is_iota = [](const auto& v) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (static_cast<size_t>(v[i]) != i) return false;
    }
    return true;
  };
  if (owned != nullptr && rows.size() == owned->num_rows() &&
      cols.size() == owned->num_columns() && is_iota(rows) && is_iota(cols)) {
    Table out = std::move(*owned);
    out.set_name(std::move(name));
    return out;
  }
  return table->ProjectRows(rows, cols, std::move(name));
}

Result<Table> DataModelBackend::Checkout(int vid,
                                         const std::string& out) const {
  ORPHEUS_ASSIGN_OR_RETURN(RowSelection sel, Select(vid));
  return std::move(sel).Materialize(out);
}

std::unique_ptr<DataModelBackend> DataModelBackend::Create(
    DataModelType type, Schema data_schema) {
  switch (type) {
    case DataModelType::kATablePerVersion:
      return std::make_unique<ATablePerVersionBackend>(std::move(data_schema));
    case DataModelType::kCombinedTable:
      return std::make_unique<CombinedTableBackend>(std::move(data_schema));
    case DataModelType::kSplitByVlist:
      return std::make_unique<SplitByVlistBackend>(std::move(data_schema));
    case DataModelType::kSplitByRlist:
      return std::make_unique<SplitByRlistBackend>(std::move(data_schema));
    case DataModelType::kDeltaBased:
      return std::make_unique<DeltaBasedBackend>(std::move(data_schema));
  }
  return nullptr;
}

namespace {

// Append {rid, data...} to a materialized-schema table.
void AppendRidRow(Table* table, RecordId rid, const Row& data) {
  Row full;
  full.reserve(data.size() + 1);
  full.emplace_back(static_cast<int64_t>(rid));
  for (const auto& v : data) full.push_back(v);
  table->AppendRowUnchecked(full);
}

Status BadVersion(int vid) {
  return Status::NotFound(StrFormat("version %d not registered", vid));
}

}  // namespace

// ---------------------------------------------------------------------------
// ATablePerVersionBackend
// ---------------------------------------------------------------------------

Status ATablePerVersionBackend::AddVersion(
    int vid, const std::vector<RecordId>& rids,
    const std::vector<NewRecord>& new_records,
    const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  Table vtab(StrFormat("v%d", vid), MaterializedSchema());

  // Records inherited from parents are bulk-copied; new payloads appended.
  std::unordered_set<RecordId> fresh;
  fresh.reserve(new_records.size() * 2);
  for (const auto& nr : new_records) fresh.insert(nr.rid);

  std::unordered_set<RecordId> remaining;
  remaining.reserve(rids.size() * 2);
  for (RecordId rid : rids) {
    if (!fresh.count(rid)) remaining.insert(rid);
  }
  for (int p : parents) {
    if (remaining.empty()) break;
    const Table& ptab = version_tables_[p];
    std::vector<uint32_t> rows;
    rows.reserve(remaining.size());
    const auto& prids = ptab.column(0).int_data();
    for (uint32_t r = 0; r < ptab.num_rows(); ++r) {
      auto it = remaining.find(prids[r]);
      if (it != remaining.end()) {
        rows.push_back(r);
        remaining.erase(it);
      }
    }
    vtab.AppendFrom(ptab, rows);
  }
  // A stored rid a commit kept from outside its parents is copied from the
  // version that stores it (rid order keeps the layout deterministic).
  for (RecordId rid : rids) {
    if (remaining.count(rid) == 0) continue;
    std::optional<RecordLocation> at = LocateRecord(rid, -1);
    if (!at) {
      return Status::Corruption(StrFormat(
          "record %lld of v%d not found in any version or new records",
          static_cast<long long>(rid), vid));
    }
    vtab.AppendFrom(*at->table, {at->row});
  }
  for (const auto& nr : new_records) AppendRidRow(&vtab, nr.rid, nr.data);
  ORPHEUS_RETURN_NOT_OK(vtab.BuildUniqueIntIndex(0));
  version_tables_.push_back(std::move(vtab));
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> ATablePerVersionBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  const auto& rids = version_tables_[vid].column(0).int_data();
  std::vector<RecordId> out(rids.begin(), rids.end());
  std::sort(out.begin(), out.end());
  return out;
}

Result<RowSelection> ATablePerVersionBackend::Select(int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // The version's table is the version, read out in full.
  return RowSelection::All(version_tables_[vid]);
}

std::optional<DataModelBackend::RecordLocation>
ATablePerVersionBackend::LocateRecord(RecordId rid, int version_hint) const {
  auto find = [this, rid](int v) -> std::optional<RecordLocation> {
    auto hit = version_tables_[v].LookupUniqueInt(0, rid);
    if (!hit) return std::nullopt;
    return RecordLocation{&version_tables_[v], *hit};
  };
  if (version_hint >= 0 && version_hint < num_versions_) {
    if (auto at = find(version_hint)) return at;
  }
  for (int v = num_versions_ - 1; v >= 0; --v) {
    if (auto at = find(v)) return at;
  }
  return std::nullopt;
}

uint64_t ATablePerVersionBackend::StorageBytes() const {
  uint64_t bytes = 0;
  for (const auto& t : version_tables_) bytes += t.StorageBytes();
  return bytes;
}

Status ATablePerVersionBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  for (auto& t : version_tables_) {
    ORPHEUS_RETURN_NOT_OK(t.AddColumn(def));
  }
  return Status::OK();
}

Status ATablePerVersionBackend::WidenAttribute(int attr_idx, ValueType to) {
  for (auto& t : version_tables_) {
    ORPHEUS_RETURN_NOT_OK(t.WidenColumn(attr_idx + 1, to));
  }
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CombinedTableBackend
// ---------------------------------------------------------------------------

namespace {

Schema CombinedSchema(const Schema& data_schema) {
  std::vector<ColumnDef> cols;
  cols.push_back({"_rid", ValueType::kInt64});
  for (const auto& def : data_schema.columns()) cols.push_back(def);
  cols.push_back({"vlist", ValueType::kIntArray});
  return Schema(std::move(cols));
}

}  // namespace

CombinedTableBackend::CombinedTableBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      combined_("combined", CombinedSchema(data_schema_)),
      vlist_col_(static_cast<int>(data_schema_.num_columns()) + 1) {
  // A fresh empty table cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(combined_.BuildUniqueIntIndex(0));
}

Status CombinedTableBackend::AddVersion(
    int vid, const std::vector<RecordId>& rids,
    const std::vector<NewRecord>& new_records,
    const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  std::unordered_set<RecordId> fresh;
  for (const auto& nr : new_records) fresh.insert(nr.rid);
  // Existing records: `UPDATE combined SET vlist = vlist + vid WHERE rid IN
  // (...)` — per-tuple rewrite, the expensive path of Fig. 4.1(b).
  for (RecordId rid : rids) {
    if (fresh.count(rid)) continue;
    auto row = combined_.LookupUniqueInt(0, rid);
    if (!row) return Status::Corruption("rid missing from combined table");
    combined_.RewriteRowAppendToArray(*row, vlist_col_, vid);
  }
  // New records are inserted with vlist = {vid}. Attributes added after
  // table creation live physically beyond the vlist column.
  const size_t n0 = static_cast<size_t>(vlist_col_) - 1;
  for (const auto& nr : new_records) {
    Row full;
    full.reserve(nr.data.size() + 2);
    full.emplace_back(static_cast<int64_t>(nr.rid));
    for (size_t k = 0; k < n0; ++k) full.push_back(nr.data[k]);
    full.emplace_back(std::vector<int64_t>{vid});
    for (size_t k = n0; k < nr.data.size(); ++k) full.push_back(nr.data[k]);
    combined_.AppendRowUnchecked(full);
  }
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> CombinedTableBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  std::vector<uint32_t> rows = combined_.SelectRowsArrayContains(vlist_col_, vid);
  std::vector<RecordId> out;
  out.reserve(rows.size());
  const auto& rids = combined_.column(0).int_data();
  for (uint32_t r : rows) out.push_back(rids[r]);
  std::sort(out.begin(), out.end());
  return out;
}

Result<RowSelection> CombinedTableBackend::Select(int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // One full scan with the array-containment filter (Table 4.1 checkout).
  RowSelection sel;
  sel.table = &combined_;
  sel.rows = combined_.SelectRowsArrayContains(vlist_col_, vid);
  sel.cols.reserve(data_schema_.num_columns() + 1);
  sel.cols.push_back(0);  // _rid
  for (size_t k = 0; k < data_schema_.num_columns(); ++k) {
    sel.cols.push_back(PayloadColumn(static_cast<int>(k)));
  }
  return sel;
}

std::optional<DataModelBackend::RecordLocation>
CombinedTableBackend::LocateRecord(RecordId rid, int /*version_hint*/) const {
  auto row = combined_.LookupUniqueInt(0, rid);
  if (!row) return std::nullopt;
  return RecordLocation{&combined_, *row};
}

uint64_t CombinedTableBackend::StorageBytes() const {
  return combined_.StorageBytes();
}

Status CombinedTableBackend::AddAttribute(const ColumnDef& def) {
  // Insert before the trailing vlist column: minidb appends only, so we
  // record the attribute at the end of the data schema and remember vlist's
  // position separately.
  data_schema_.AddColumn(def);
  ORPHEUS_RETURN_NOT_OK(combined_.AddColumn(def));
  return Status::OK();
}

Status CombinedTableBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(combined_.WidenColumn(PayloadColumn(attr_idx), to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SplitByVlistBackend
// ---------------------------------------------------------------------------

SplitByVlistBackend::SplitByVlistBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      data_("data", MaterializedSchema()),
      versioning_("versioning",
                  Schema({{"_rid", ValueType::kInt64},
                          {"vlist", ValueType::kIntArray}})) {
  // Fresh empty tables cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(data_.BuildUniqueIntIndex(0));
  ORPHEUS_CHECK_OK(versioning_.BuildUniqueIntIndex(0));
}

Status SplitByVlistBackend::AddVersion(int vid,
                                       const std::vector<RecordId>& rids,
                                       const std::vector<NewRecord>& new_records,
                                       const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  std::unordered_set<RecordId> fresh;
  for (const auto& nr : new_records) fresh.insert(nr.rid);
  // Existing records: append vid to the versioning table's vlist — still a
  // per-tuple UPDATE, but on a narrow table (cheaper than combined-table,
  // still far costlier than split-by-rlist).
  for (RecordId rid : rids) {
    if (fresh.count(rid)) continue;
    auto row = versioning_.LookupUniqueInt(0, rid);
    if (!row) return Status::Corruption("rid missing from versioning table");
    versioning_.RewriteRowAppendToArray(*row, 1, vid);
  }
  for (const auto& nr : new_records) {
    AppendRidRow(&data_, nr.rid, nr.data);
    Row vrow;
    vrow.emplace_back(static_cast<int64_t>(nr.rid));
    vrow.emplace_back(std::vector<int64_t>{vid});
    versioning_.AppendRowUnchecked(vrow);
  }
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> SplitByVlistBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  std::vector<uint32_t> rows = versioning_.SelectRowsArrayContains(1, vid);
  std::vector<RecordId> out;
  out.reserve(rows.size());
  const auto& rids = versioning_.column(0).int_data();
  for (uint32_t r : rows) out.push_back(rids[r]);
  std::sort(out.begin(), out.end());
  return out;
}

Result<RowSelection> SplitByVlistBackend::Select(int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // Scan the versioning table for rids in the version...
  std::vector<uint32_t> vrows = versioning_.SelectRowsArrayContains(1, vid);
  std::vector<int64_t> rlist;
  rlist.reserve(vrows.size());
  const auto& rids = versioning_.column(0).int_data();
  for (uint32_t r : vrows) rlist.push_back(rids[r]);
  // ... then hash-join with the data table.
  return RowSelection::Of(
      data_, minidb::JoinRids(data_, 0, rlist, minidb::JoinAlgorithm::kHashJoin,
                              /*clustered_on_rid=*/true));
}

std::optional<DataModelBackend::RecordLocation>
SplitByVlistBackend::LocateRecord(RecordId rid, int /*version_hint*/) const {
  auto row = data_.LookupUniqueInt(0, rid);
  if (!row) return std::nullopt;
  return RecordLocation{&data_, *row};
}

uint64_t SplitByVlistBackend::StorageBytes() const {
  return data_.StorageBytes() + versioning_.StorageBytes();
}

Status SplitByVlistBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  return data_.AddColumn(def);
}

Status SplitByVlistBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(data_.WidenColumn(attr_idx + 1, to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SplitByRlistBackend
// ---------------------------------------------------------------------------

SplitByRlistBackend::SplitByRlistBackend(Schema data_schema)
    : DataModelBackend(std::move(data_schema)),
      data_("data", MaterializedSchema()),
      versioning_("versioning", Schema({{"vid", ValueType::kInt64},
                                        {"rlist", ValueType::kIntArray}})) {
  // Fresh empty tables cannot contain duplicate keys.
  ORPHEUS_CHECK_OK(data_.BuildUniqueIntIndex(0));
  ORPHEUS_CHECK_OK(versioning_.BuildUniqueIntIndex(0));
}

Status SplitByRlistBackend::AddVersion(int vid,
                                       const std::vector<RecordId>& rids,
                                       const std::vector<NewRecord>& new_records,
                                       const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  // New records go to the data table; the commit then adds exactly one
  // versioning tuple — no array-append UPDATEs at all (Approach 4.3).
  for (const auto& nr : new_records) {
    const auto& drids = data_.column(0).int_data();
    if (!drids.empty() && nr.rid <= drids.back()) {
      data_rid_ascending_ = false;
    }
    AppendRidRow(&data_, nr.rid, nr.data);
  }
  Row vrow;
  vrow.emplace_back(static_cast<int64_t>(vid));
  vrow.emplace_back(std::vector<int64_t>(rids.begin(), rids.end()));
  versioning_.AppendRowUnchecked(vrow);
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> SplitByRlistBackend::VersionRecords(
    int vid) const {
  auto row = versioning_.LookupUniqueInt(0, vid);
  if (!row) return BadVersion(vid);
  const auto& rlist = versioning_.column(1).GetIntArray(*row);
  return std::vector<RecordId>(rlist.begin(), rlist.end());
}

bool SplitByRlistBackend::RidIsRow() const {
  const auto& rids = data_.column(0).int_data();
  return data_rid_ascending_ &&
         (rids.empty() ||
          (rids.front() == 0 &&
           rids.back() == static_cast<int64_t>(rids.size()) - 1));
}

Result<RowSelection> SplitByRlistBackend::Select(int vid) const {
  // Primary-key index lookup on vid, unnest(rlist)...
  auto row = versioning_.LookupUniqueInt(0, vid);
  if (!row) return BadVersion(vid);
  const auto& rlist_set = versioning_.column(1).GetRidSet(*row);
  if (join_algo_ == minidb::JoinAlgorithm::kHashJoin && RidIsRow()) {
    // Commits append fresh ascending rids from 0, so row r holds rid r and
    // the rlist names the rows itself: no join at all, O(|R_k|).
    const int64_t n = static_cast<int64_t>(data_.num_rows());
    std::vector<uint32_t> rows;
    if (rlist_set) {
      rlist_set->ValuesAsRows(n, &rows);
    } else {
      for (int64_t rid : versioning_.column(1).GetIntArray(*row)) {
        if (rid >= 0 && rid < n) rows.push_back(static_cast<uint32_t>(rid));
      }
    }
    return RowSelection::Of(data_, std::move(rows));
  }
  // Compressed rlists skip unnesting entirely: the containment join runs
  // against the packed containers (IntersectToRows when the data table is
  // rid-ascending, a parallel probe scan otherwise). An explicitly chosen
  // non-default join algorithm (the Sec. 5.5.5 ablation) still runs its
  // requested plan over the materialized rlist.
  if (rlist_set && join_algo_ == minidb::JoinAlgorithm::kHashJoin) {
    return RowSelection::Of(
        data_, minidb::JoinRidSet(data_, 0, *rlist_set, data_rid_ascending_));
  }
  const auto& rlist = versioning_.column(1).GetIntArray(*row);
  // ... then join rids with the data table (hash-join by default).
  return RowSelection::Of(
      data_, minidb::JoinRids(data_, 0, rlist, join_algo_,
                              /*clustered_on_rid=*/true));
}

std::optional<DataModelBackend::RecordLocation>
SplitByRlistBackend::LocateRecord(RecordId rid, int /*version_hint*/) const {
  auto row = data_.LookupUniqueInt(0, rid);
  if (!row) return std::nullopt;
  return RecordLocation{&data_, *row};
}

uint64_t SplitByRlistBackend::StorageBytes() const {
  return data_.StorageBytes() + versioning_.StorageBytes();
}

Status SplitByRlistBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  return data_.AddColumn(def);
}

Status SplitByRlistBackend::WidenAttribute(int attr_idx, ValueType to) {
  ORPHEUS_RETURN_NOT_OK(data_.WidenColumn(attr_idx + 1, to));
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DeltaBasedBackend
// ---------------------------------------------------------------------------

Status DeltaBasedBackend::AddVersion(int vid, const std::vector<RecordId>& rids,
                                     const std::vector<NewRecord>& new_records,
                                     const std::vector<int>& parents) {
  if (vid != num_versions_) {
    return Status::InvalidArgument("versions must be added in order");
  }
  Delta delta(MaterializedSchema(), StrFormat("delta_v%d", vid));

  // Pick the base: the parent sharing the most records (Approach 4.4).
  int base = -1;
  int64_t best_shared = -1;
  for (int p : parents) {
    const auto& prids = membership_[p];
    int64_t shared = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < rids.size() && j < prids.size()) {
      if (rids[i] < prids[j]) {
        ++i;
      } else if (rids[i] > prids[j]) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    if (shared > best_shared) {
      best_shared = shared;
      base = p;
    }
  }
  delta.base = base;

  std::unordered_map<RecordId, const Row*> fresh;
  for (const auto& nr : new_records) fresh.emplace(nr.rid, &nr.data);

  const std::vector<RecordId> empty;
  const std::vector<RecordId>& base_rids =
      base >= 0 ? membership_[base] : empty;

  // inserts = rids \ base; deletes = base \ rids.
  size_t i = 0;
  size_t j = 0;
  std::vector<RecordId> inserted;
  while (i < rids.size() || j < base_rids.size()) {
    if (j >= base_rids.size() || (i < rids.size() && rids[i] < base_rids[j])) {
      inserted.push_back(rids[i]);
      ++i;
    } else if (i >= rids.size() || rids[i] > base_rids[j]) {
      delta.deletes.push_back(base_rids[j]);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  for (RecordId rid : inserted) {
    auto it = fresh.find(rid);
    if (it != fresh.end()) {
      AppendRidRow(&delta.inserts, rid, *it->second);
      continue;
    }
    // The record is stored outside the base's chain (a merge parent's, or
    // a stored rid a commit kept from another version): locate it, trying
    // a non-base parent's chain first.
    int hint = -1;
    for (int p : parents) {
      if (p != base) {
        hint = p;
        break;
      }
    }
    auto payload = GetRecordPayload(rid, hint);
    if (!payload.ok()) {
      return Status::Corruption(
          StrFormat("payload for rid %lld unavailable",
                    static_cast<long long>(rid)));
    }
    AppendRidRow(&delta.inserts, rid, *payload);
  }
  ORPHEUS_RETURN_NOT_OK(delta.inserts.BuildUniqueIntIndex(0));
  deltas_.push_back(std::move(delta));
  membership_.push_back(rids);
  ++num_versions_;
  return Status::OK();
}

Result<std::vector<RecordId>> DeltaBasedBackend::VersionRecords(
    int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  return membership_[vid];
}

Result<RowSelection> DeltaBasedBackend::Select(int vid) const {
  if (vid < 0 || vid >= num_versions_) return BadVersion(vid);
  // Trace the version lineage back to the root via `base` links, probing
  // each delta table for still-needed records (newer occurrences win).
  Table result("delta_checkout", MaterializedSchema());
  std::unordered_set<RecordId> needed(membership_[vid].begin(),
                                      membership_[vid].end());
  int v = vid;
  while (v >= 0 && !needed.empty()) {
    const Delta& d = deltas_[v];
    const auto& rids = d.inserts.column(0).int_data();
    // Parallel hash probe of this delta's rid column against the needed
    // set (read-only during the scan; rids are unique within a delta, so
    // deferring the erasures cannot double-match). Chunks stitch in row
    // order — identical to the serial probe.
    std::vector<uint32_t> rows = ParallelCollect<uint32_t>(
        d.inserts.num_rows(), 1 << 15,
        [&needed, &rids](size_t lo, size_t hi, std::vector<uint32_t>* hit) {
          for (size_t r = lo; r < hi; ++r) {
            if (needed.count(rids[r])) {
              hit->push_back(static_cast<uint32_t>(r));
            }
          }
        });
    for (uint32_t r : rows) needed.erase(rids[r]);
    result.AppendFrom(d.inserts, rows);
    v = d.base;
  }
  if (!needed.empty()) {
    return Status::Corruption("delta chain did not cover the version");
  }
  return RowSelection::Own(std::move(result));
}

std::optional<DataModelBackend::RecordLocation>
DeltaBasedBackend::LocateRecord(RecordId rid, int version_hint) const {
  auto find = [this, rid](int v) -> std::optional<RecordLocation> {
    auto hit = deltas_[v].inserts.LookupUniqueInt(0, rid);
    if (!hit) return std::nullopt;
    return RecordLocation{&deltas_[v].inserts, *hit};
  };
  int v = version_hint >= 0 && version_hint < num_versions_
              ? version_hint
              : num_versions_ - 1;
  for (; v >= 0; v = deltas_[v].base) {
    if (auto at = find(v)) return at;
  }
  // Not on the hinted chain: fall back to scanning all deltas.
  for (int d = num_versions_ - 1; d >= 0; --d) {
    if (auto at = find(d)) return at;
  }
  return std::nullopt;
}

uint64_t DeltaBasedBackend::StorageBytes() const {
  uint64_t bytes = 0;
  for (const auto& d : deltas_) {
    bytes += d.inserts.StorageBytes();
    bytes += d.deletes.size() * 8;
    bytes += 16;  // precedent metadata tuple (vid, base)
  }
  return bytes;
}

Status DeltaBasedBackend::AddAttribute(const ColumnDef& def) {
  data_schema_.AddColumn(def);
  for (auto& d : deltas_) {
    ORPHEUS_RETURN_NOT_OK(d.inserts.AddColumn(def));
  }
  return Status::OK();
}

Status DeltaBasedBackend::WidenAttribute(int attr_idx, ValueType to) {
  for (auto& d : deltas_) {
    ORPHEUS_RETURN_NOT_OK(d.inserts.WidenColumn(attr_idx + 1, to));
  }
  data_schema_.SetColumnType(static_cast<size_t>(attr_idx), to);
  return Status::OK();
}

}  // namespace orpheus::core
