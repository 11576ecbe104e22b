#include "core/cvd.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/validate.h"

namespace orpheus::core {

using minidb::ColumnDef;
using minidb::Row;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

namespace {

// Rank types by generality for single-pool widening (int < double < string).
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return 1;
    case ValueType::kDouble: return 2;
    case ValueType::kString: return 3;
    default: return 4;
  }
}

Value CoerceValue(const Value& v, ValueType to) {
  if (v.is_null() || v.type() == to) return v;
  if (to == ValueType::kDouble &&
      (v.type() == ValueType::kInt64)) {
    return Value(static_cast<double>(v.AsInt()));
  }
  if (to == ValueType::kString) {
    return Value(v.ToString());
  }
  return v;
}

// What a stored value becomes when its column is widened to `to`. Must
// mirror minidb::Column::Widen exactly (NOT CoerceValue: Column::Widen
// stringifies doubles with std::to_string, CoerceValue with %g), because
// commit planning compares staged payloads against stored records as if
// the planned widenings had already been applied.
Value WidenStoredValue(const Value& v, ValueType to) {
  if (v.is_null() || v.type() == to) return v;
  if (v.type() == ValueType::kInt64 && to == ValueType::kDouble) {
    return Value(static_cast<double>(v.AsInt()));
  }
  if (to == ValueType::kString) {
    if (v.type() == ValueType::kInt64) return Value(std::to_string(v.AsInt()));
    if (v.type() == ValueType::kDouble) {
      return Value(std::to_string(v.AsDouble()));
    }
  }
  return v;
}

// The key of the stored records in `table`: its primary-key payload columns.
minidb::KeyColumns StoredKey(const DataModelBackend& backend,
                             const std::vector<int>& pk_attrs,
                             const Table& table) {
  minidb::KeyColumns key;
  for (int k : pk_attrs) {
    key.cols.push_back(&table.column(backend.PayloadColumn(k)));
  }
  return key;
}

// With ORPHEUS_VALIDATE set, re-check the CVD's invariants after a mutating
// operation and abort on damage (see core/validate.h).
void MaybeValidate(const Cvd& cvd, const char* op) {
  if (!ValidationEnabled()) return;
  ValidationReport report;
  ValidateCvd(cvd, &report);
  DieIfViolations(report, op);
}

}  // namespace

Cvd::Cvd(std::string name, Options options, Schema data_schema)
    : name_(std::move(name)),
      options_(std::move(options)),
      backend_(DataModelBackend::Create(options_.model, data_schema)) {
  for (const auto& def : data_schema.columns()) {
    RegisterAttribute(def.name, def.type);
  }
}

void Cvd::RegisterAttribute(const std::string& attr_name, ValueType type) {
  AttributeInfo info;
  info.attr_id = static_cast<int>(attributes_.size());
  info.name = attr_name;
  info.type = type;
  attributes_.push_back(info);
  // The most recent registration for a position becomes current; callers
  // update current_attr_ids_ explicitly for widenings.
  current_attr_ids_.push_back(info.attr_id);
}

Result<std::unique_ptr<Cvd>> Cvd::Init(const std::string& name,
                                       const Table& initial,
                                       const Options& options) {
  // Validate the PK attributes exist.
  Schema data_schema = initial.schema();
  bool has_rid = data_schema.num_columns() > 0 &&
                 data_schema.column(0).name == "_rid";
  if (has_rid) {
    std::vector<ColumnDef> cols(data_schema.columns().begin() + 1,
                                data_schema.columns().end());
    data_schema = Schema(std::move(cols));
  }
  for (const auto& pk : options.primary_key) {
    if (data_schema.FindColumn(pk) < 0) {
      return Status::InvalidArgument(
          StrFormat("primary key attribute %s not in schema", pk.c_str()));
    }
  }
  std::unique_ptr<Cvd> cvd(new Cvd(name, options, data_schema));
  auto vid = cvd->CommitTable(initial, {}, "init " + name);
  if (!vid.ok()) return vid.status();
  return cvd;
}

Status Cvd::ValidateVersion(VersionId vid) const {
  if (vid < 1 || vid > num_versions()) {
    return Status::NotFound(StrFormat("version %d does not exist", vid));
  }
  return Status::OK();
}

Result<RowSelection> Cvd::Select(const std::vector<VersionId>& vids) const {
  if (vids.empty()) {
    return Status::InvalidArgument("checkout requires at least one version");
  }
  for (VersionId vid : vids) ORPHEUS_RETURN_NOT_OK(ValidateVersion(vid));

  ORPHEUS_TRACE_SPAN("cvd.select");
  ORPHEUS_COUNTER_ADD("cvd.checkout.versions_merged", vids.size());

  // The first (highest-precedence) version.
  ORPHEUS_ASSIGN_OR_RETURN(RowSelection merged,
                           backend_->Select(DenseId(vids[0])));
  if (vids.size() > 1) {
    // Precedence merge on the primary key: a record whose PK was already
    // added is omitted (Sec. 3.3.1). Without a PK, rid identity is used.
    // Keys compare typed; every version selects at the same schema.
    ORPHEUS_TRACE_SPAN("cvd.merge");
    std::vector<RowSelection> parts;
    parts.push_back(std::move(merged));
    for (size_t i = 1; i < vids.size(); ++i) {
      ORPHEUS_ASSIGN_OR_RETURN(RowSelection next,
                               backend_->Select(DenseId(vids[i])));
      parts.push_back(std::move(next));
    }
    std::vector<int> key_cols = PrimaryKeyAttrs();
    for (int& c : key_cols) ++c;
    if (key_cols.empty()) key_cols.push_back(0);
    std::vector<minidb::KeyColumns> keys(parts.size());
    size_t scanned = 0;
    bool shared = true;
    for (size_t i = 0; i < parts.size(); ++i) {
      const RowSelection& part = parts[i];
      scanned += part.rows.size();
      shared = shared && part.table == parts[0].table &&
               part.cols == parts[0].cols;
      for (int c : key_cols) {
        keys[i].cols.push_back(&part.table->column(part.cols[c]));
      }
    }
    // A later version keeps each row whose key no kept row has. Its keys
    // are distinct, so its kept rows join the seen set once all chosen.
    std::vector<std::vector<uint32_t>> kept(parts.size());
    minidb::KeySet seen(keys, scanned);
    for (uint32_t r : parts[0].rows) seen.Has(0, r, true);
    for (size_t i = 1; i < parts.size(); ++i) {
      for (uint32_t r : parts[i].rows) {
        if (!seen.Has(i, r, false)) kept[i].push_back(r);
      }
      for (uint32_t r : kept[i]) seen.Has(i, r, true);
    }
    // Versions selected from one table merge as a row selection; otherwise
    // (a-table-per-version, delta-based) the first is copied out and the
    // kept rows of the others are appended to it.
    if (shared) {
      merged = std::move(parts[0]);
      for (size_t i = 1; i < parts.size(); ++i) {
        merged.rows.insert(merged.rows.end(), kept[i].begin(), kept[i].end());
      }
    } else {
      Table out = std::move(parts[0]).Materialize("merge");
      for (size_t i = 1; i < parts.size(); ++i) {
        out.AppendFrom(*parts[i].table, kept[i], &parts[i].cols);
      }
      merged = RowSelection::Own(std::move(out));
    }
    ORPHEUS_COUNTER_ADD("cvd.merge.rows_scanned", scanned);
    ORPHEUS_COUNTER_ADD("cvd.merge.rows_deduped",
                        scanned - merged.rows.size());
  }

  ORPHEUS_COUNTER_ADD("cvd.checkout.records_materialized", merged.rows.size());
  return merged;
}

Result<minidb::Table> Cvd::Materialize(const std::vector<VersionId>& vids,
                                       const std::string& table_name) const {
  ORPHEUS_TRACE_SPAN("cvd.checkout");
  ORPHEUS_ASSIGN_OR_RETURN(RowSelection sel, Select(vids));
  return std::move(sel).Materialize(table_name);
}

Status Cvd::Checkout(const std::vector<VersionId>& vids,
                     const std::string& table_name,
                     minidb::Database* staging) {
  if (staging->HasTable(table_name)) {
    return Status::AlreadyExists(
        StrFormat("staging table %s already exists", table_name.c_str()));
  }
  ORPHEUS_TRACE_SPAN("cvd.checkout");
  ORPHEUS_ASSIGN_OR_RETURN(RowSelection sel, Select(vids));
  StagingInfo info{vids, 0, sel.SortedRids(), 0};
  Table table = std::move(sel).Materialize(table_name);
  info.checkout_id = table.StampCheckout();
  ORPHEUS_RETURN_NOT_OK(staging->AdoptTable(std::move(table)).status());
  logical_clock_ += 1;
  info.checkout_time = logical_clock_;
  staging_[table_name] = std::move(info);
  MaybeValidate(*this, "Cvd::Checkout");
  return Status::OK();
}

Status Cvd::PlanSchema(const Table& table, bool has_rid_col, SchemaPlan* plan,
                       std::vector<int>* staging_col_of_attr) const {
  const Schema& tschema = table.schema();
  const size_t first_data_col = has_rid_col ? 1 : 0;

  plan->schema_after = backend_->data_schema().columns();
  plan->new_attributes.clear();
  plan->current_attr_ids = current_attr_ids_;
  int next_attr_id = static_cast<int>(attributes_.size());
  auto find_planned = [plan](const std::string& name) {
    for (size_t k = 0; k < plan->schema_after.size(); ++k) {
      if (plan->schema_after[k].name == name) return static_cast<int>(k);
    }
    return -1;
  };

  // Pass 1: new attributes and type widenings, recorded in the plan only —
  // the backend is untouched until the commit record has been made durable.
  for (size_t c = first_data_col; c < tschema.num_columns(); ++c) {
    const ColumnDef& def = tschema.column(c);
    int attr = find_planned(def.name);
    if (attr < 0) {
      // New attribute: extend the CVD (ALTER ... ADD COLUMN, NULLs for old
      // records) and log it in the attribute table.
      AttributeInfo info;
      info.attr_id = next_attr_id++;
      info.name = def.name;
      info.type = def.type;
      plan->schema_after.push_back(def);
      plan->new_attributes.push_back(info);
      plan->current_attr_ids.push_back(info.attr_id);
      continue;
    }
    ValueType have = plan->schema_after[attr].type;
    if (def.type != have && TypeRank(def.type) > TypeRank(have)) {
      // Widen to the more general type; a fresh attribute entry records the
      // change (Fig. 4.3: cooccurrence integer -> decimal => new attr id).
      AttributeInfo info;
      info.attr_id = next_attr_id++;
      info.name = def.name;
      info.type = def.type;
      plan->schema_after[attr].type = def.type;
      plan->new_attributes.push_back(info);
      plan->current_attr_ids[attr] = info.attr_id;
    }
  }

  // Pass 2: mapping from planned attribute position -> staging column.
  staging_col_of_attr->assign(plan->schema_after.size(), -1);
  for (size_t k = 0; k < plan->schema_after.size(); ++k) {
    int c = tschema.FindColumn(plan->schema_after[k].name);
    if (c >= 0 && (!has_rid_col || c != 0)) {
      (*staging_col_of_attr)[k] = c;
    }
  }
  return Status::OK();
}

Result<VersionId> Cvd::CommitTable(const Table& table,
                                   const std::vector<VersionId>& parents,
                                   const std::string& message,
                                   const std::string& author,
                                   LogicalTime checkout_time,
                                   const std::vector<RecordId>& carried) {
  for (VersionId p : parents) ORPHEUS_RETURN_NOT_OK(ValidateVersion(p));
  for (size_t i = 0; i < carried.size(); ++i) {
    if (carried[i] < 0 || carried[i] >= next_rid_ ||
        (i > 0 && carried[i] <= carried[i - 1])) {
      return Status::InvalidArgument(StrFormat(
          "commit to %s carries an unknown, repeated or unsorted record %lld",
          name_.c_str(), static_cast<long long>(carried[i])));
    }
  }

  ORPHEUS_TRACE_SPAN("cvd.commit");
  ORPHEUS_COUNTER_ADD("cvd.commit.rows_scanned", table.num_rows());

  // Phase 1 — plan. Everything below is a pure read of the current state:
  // the planned schema evolution, record membership, fresh rids, weights,
  // and metadata are computed into a CvdCommitRecord without mutating the
  // backend, the graph, or the counters.
  const bool has_rid_col = table.schema().num_columns() > 0 &&
                           table.schema().column(0).name == "_rid";
  SchemaPlan plan;
  std::vector<int> col_of_attr;
  ORPHEUS_RETURN_NOT_OK(PlanSchema(table, has_rid_col, &plan, &col_of_attr));

  const size_t num_attrs = plan.schema_after.size();
  const int parent_hint = parents.empty() ? -1 : DenseId(parents[0]);

  // The primary key's staging columns, keyed as the record will store them:
  // a missing column reads NULL, and one of another type is coerced once,
  // whole (CoerceValue).
  const std::vector<int> pk_attrs = PrimaryKeyAttrs();
  std::vector<minidb::Column> coerced;
  coerced.reserve(pk_attrs.size());
  std::vector<minidb::KeyColumns> staged_key(1);
  minidb::KeyColumns& pk = staged_key[0];
  for (int k : pk_attrs) {
    const int c = col_of_attr[k];
    const ValueType want = plan.schema_after[k].type;
    const minidb::Column* staged = c < 0 ? nullptr : &table.column(c);
    if (staged == nullptr || staged->type() != want) {
      minidb::Column& column = coerced.emplace_back(want);
      for (uint32_t r = 0; r < table.num_rows(); ++r) {
        column.AppendValue(staged ? CoerceValue(staged->GetValue(r), want)
                                  : Value::Null());
      }
      staged = &column;
    }
    pk.cols.push_back(staged);
  }
  minidb::KeySet pk_seen(staged_key, pk_attrs.empty() ? 0 : table.num_rows());

  // Shipped keys must also differ from every carried record's key. The key
  // index hashes stored keys at their current type, so a changeset may not
  // widen a key attribute (a legitimate client ships the whole table, and
  // so carries nothing, whenever its schema differs from its checkout's).
  const bool probe_carried = !pk_attrs.empty() && !carried.empty();
  if (probe_carried) {
    for (int k : pk_attrs) {
      if (plan.schema_after[k].type != backend_->data_schema().column(k).type) {
        return Status::InvalidArgument(StrFormat(
            "commit to %s widens primary-key attribute %s while carrying "
            "records; ship every row instead",
            name_.c_str(), plan.schema_after[k].name.c_str()));
      }
    }
    ORPHEUS_RETURN_NOT_OK(EnsureKeyIndex());
  }
  auto carries_key = [&](uint32_t r) {
    ORPHEUS_COUNTER_ADD("cvd.commit.key_index.probes", 1);
    auto bucket = key_index_.find(pk.Hash(r));
    if (bucket == key_index_.end()) return false;
    for (RecordId rid : bucket->second) {
      if (!std::binary_search(carried.begin(), carried.end(), rid)) continue;
      auto at = backend_->LocateRecord(rid, parent_hint);
      if (at && pk.Equals(r, StoredKey(*backend_, pk_attrs, *at->table),
                          at->row)) {
        return true;
      }
    }
    return false;
  };

  // Stored records compare against staged rows in place. A column whose
  // staged and stored cells already have the planned type compares typed
  // without boxing, by key identity (so NaN equals NaN); one under a
  // coercion or a planned widening compares as if the widening had
  // already converted the stored value.
  const size_t stored_width = backend_->data_schema().num_columns();
  std::vector<bool> in_place(num_attrs, false);
  for (size_t k = 0; k < stored_width; ++k) {
    const ValueType want = plan.schema_after[k].type;
    in_place[k] = backend_->data_schema().column(k).type == want &&
                  (col_of_attr[k] < 0 ||
                   table.column(col_of_attr[k]).type() == want);
  }
  auto matches_stored = [&](uint32_t r,
                            const DataModelBackend::RecordLocation& at) {
    for (size_t k = 0; k < num_attrs; ++k) {
      const int c = col_of_attr[k];
      if (k >= stored_width) {
        // Attributes beyond the stored arity must be NULL for a match.
        if (c >= 0 && !table.column(c).IsNull(r)) return false;
        continue;
      }
      const minidb::Column& stored =
          at.table->column(backend_->PayloadColumn(static_cast<int>(k)));
      if (c < 0) {
        if (!stored.IsNull(at.row)) return false;
      } else if (in_place[k]) {
        if (!table.column(c).KeyEquals(r, stored, at.row)) return false;
      } else {
        const ValueType want = plan.schema_after[k].type;
        if (CoerceValue(table.GetValue(r, c), want) !=
            WidenStoredValue(stored.GetValue(at.row), want)) {
          return false;
        }
      }
    }
    return true;
  };

  std::vector<RecordId> rids;
  rids.reserve(table.num_rows());
  std::vector<NewRecord> new_records;
  RecordId next_rid = next_rid_;
  // Stored rids kept from shipped rows: one bit per stored record, so the
  // check stays a load even when every row of a large table is kept.
  std::vector<bool> kept(static_cast<size_t>(next_rid_), false);

  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    // Primary-key constraint within the committed version.
    if (!pk_attrs.empty() &&
        (pk_seen.Has(0, r, true) ||
         (probe_carried && carries_key(r)))) {
      Row key;
      for (const minidb::Column* col : pk.cols) key.push_back(col->GetValue(r));
      return Status::ConstraintViolation(StrFormat(
          "duplicate primary key in commit of %s: %s", table.name().c_str(),
          minidb::RenderKey(key).c_str()));
    }
    // Modification detection (no cross-version diff rule): a row carrying a
    // rid is kept iff its payload still matches the stored record; anything
    // else becomes a new immutable record. A version holds a stored record
    // at most once, so a repeat of a kept or carried rid is new as well.
    RecordId rid = -1;
    if (has_rid_col && !table.column(0).IsNull(r)) {
      rid = table.column(0).GetInt(r);
    }
    if (rid >= 0 && rid < next_rid_ && !kept[rid] &&
        !std::binary_search(carried.begin(), carried.end(), rid)) {
      auto at = backend_->LocateRecord(rid, parent_hint);
      if (at && matches_stored(r, *at)) {
        rids.push_back(rid);
        kept[rid] = true;
        continue;
      }
    }
    // Project the staging row into the planned CVD attribute space.
    Row payload(num_attrs);
    for (size_t k = 0; k < num_attrs; ++k) {
      if (col_of_attr[k] >= 0) {
        payload[k] =
            CoerceValue(table.GetValue(r, static_cast<size_t>(col_of_attr[k])),
                        plan.schema_after[k].type);
      }
    }
    RecordId fresh = next_rid++;
    rids.push_back(fresh);
    new_records.push_back(NewRecord{fresh, std::move(payload)});
  }

  std::sort(rids.begin(), rids.end());
  if (!carried.empty()) {
    std::vector<RecordId> all(rids.size() + carried.size());
    std::merge(rids.begin(), rids.end(), carried.begin(), carried.end(),
               all.begin());
    rids = std::move(all);
  }
  // new_records were assigned increasing rids in row order => sorted already.
  ORPHEUS_COUNTER_ADD("cvd.commit.records_new", new_records.size());
  ORPHEUS_COUNTER_ADD("cvd.commit.records_kept",
                      rids.size() - new_records.size());

  CvdCommitRecord record;
  record.parents = parents;
  record.rids = std::move(rids);
  record.new_records = std::move(new_records);
  record.new_attributes = std::move(plan.new_attributes);
  record.current_attr_ids = std::move(plan.current_attr_ids);
  record.schema_after = std::move(plan.schema_after);
  record.next_rid_after = next_rid;
  return FinishCommit(std::move(record), message, author, checkout_time);
}

std::vector<int> Cvd::PrimaryKeyAttrs() const {
  std::vector<int> attrs;
  for (const auto& pk : options_.primary_key) {
    const int k = backend_->data_schema().FindColumn(pk);
    if (k >= 0) attrs.push_back(k);
  }
  return attrs;
}

Status Cvd::EnsureKeyIndex() {
  if (key_index_built_) return Status::OK();
  ORPHEUS_TRACE_SPAN("cvd.key_index.build");
  const std::vector<int> pk_attrs = PrimaryKeyAttrs();
  // Every stored record belongs to at least one version; visit each once,
  // located in a version that holds it.
  std::vector<bool> seen(static_cast<size_t>(next_rid_), false);
  uint64_t indexed = 0;
  for (int v = 0; v < backend_->num_versions(); ++v) {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                             backend_->VersionRecords(v));
    for (RecordId rid : rids) {
      if (seen[rid]) continue;
      seen[rid] = true;
      ORPHEUS_RETURN_NOT_OK(IndexRecord(rid, v, pk_attrs));
      ++indexed;
    }
  }
  ORPHEUS_COUNTER_ADD("cvd.key_index.records_indexed", indexed);
  key_index_built_ = true;
  return Status::OK();
}

Status Cvd::IndexRecord(RecordId rid, int version,
                        const std::vector<int>& pk) {
  auto at = backend_->LocateRecord(rid, version);
  if (!at) {
    return Status::Corruption(StrFormat(
        "record %lld of version %d of CVD %s is not stored",
        static_cast<long long>(rid), PublicId(version), name_.c_str()));
  }
  key_index_[StoredKey(*backend_, pk, *at->table).Hash(at->row)].push_back(rid);
  return Status::OK();
}

Result<VersionId> Cvd::FinishCommit(CvdCommitRecord record,
                                    const std::string& message,
                                    const std::string& author,
                                    LogicalTime checkout_time) {
  // Phase 1, tail: parent edge weights and version metadata.
  const std::vector<RecordId>& rids = record.rids;
  for (VersionId p : record.parents) {
    auto prids = backend_->VersionRecords(DenseId(p));
    if (!prids.ok()) return prids.status();
    // Shared records = |parent ∩ new| via sorted merge.
    const auto& pv = *prids;
    int64_t shared = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < rids.size() && j < pv.size()) {
      if (rids[i] < pv[j]) {
        ++i;
      } else if (rids[i] > pv[j]) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    record.parent_weights.push_back(shared);
  }

  record.vid = PublicId(backend_->num_versions());
  record.metadata.vid = record.vid;
  record.metadata.parents = record.parents;
  record.metadata.checkout_time = checkout_time;
  record.metadata.commit_time = logical_clock_ + 1;
  record.metadata.message = message;
  record.metadata.author = author;
  record.metadata.attributes = record.current_attr_ids;
  record.metadata.num_records = static_cast<int64_t>(record.rids.size());
  record.logical_clock_after = logical_clock_ + 1;

  // Phase 2 — make it durable. On failure nothing was mutated: the failed
  // commit leaves no checkoutable version behind (DESIGN.md §10.4).
  if (commit_observer_) {
    ORPHEUS_RETURN_NOT_OK(commit_observer_(record));
  }

  // Phase 3 — apply. Infallible short of an internal invariant bug; if it
  // fails anyway the WAL is ahead of memory, which reopening repairs.
  ORPHEUS_RETURN_NOT_OK(ApplyCommitRecord(record));
  return record.vid;
}

Result<minidb::Row> Cvd::RecordPayload(RecordId rid, VersionId in) const {
  ORPHEUS_RETURN_NOT_OK(ValidateVersion(in));
  return backend_->GetRecordPayload(rid, DenseId(in));
}

Result<VersionId> Cvd::Commit(const std::string& table_name,
                              minidb::Database* staging,
                              const std::string& message,
                              const std::string& author) {
  auto it = staging_.find(table_name);
  if (it == staging_.end()) {
    return Status::NotFound(
        StrFormat("table %s was not checked out from CVD %s",
                  table_name.c_str(), name_.c_str()));
  }
  const Table* table = staging->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(
        StrFormat("staging table %s missing", table_name.c_str()));
  }
  const StagingInfo& info = it->second;
  std::optional<Table> changed;
  std::vector<RecordId> carried;
  if (info.checkout_id != 0 && table->checkout_id() == info.checkout_id) {
    const Table::Edits edits = table->GetEdits();
    changed = table->CopyRows(edits.changed, table_name);
    std::set_difference(info.rids.begin(), info.rids.end(),
                        edits.dropped.begin(), edits.dropped.end(),
                        std::back_inserter(carried));
  }
  auto vid = CommitTable(changed ? *changed : *table, info.parents, message,
                         author, info.checkout_time, carried);
  if (!vid.ok()) return vid.status();
  // Cleanup: the record manager removes the table from the staging area.
  ORPHEUS_RETURN_NOT_OK(staging->DropTable(table_name));
  staging_.erase(it);
  MaybeValidate(*this, "Cvd::Commit");
  return vid;
}

Result<minidb::Table> Cvd::Diff(VersionId a, VersionId b) const {
  ORPHEUS_RETURN_NOT_OK(ValidateVersion(a));
  ORPHEUS_RETURN_NOT_OK(ValidateVersion(b));
  ORPHEUS_TRACE_SPAN("cvd.diff");
  auto only = VDiff(a, b);
  if (!only.ok()) return only.status();
  std::unordered_set<RecordId> keep(only->begin(), only->end());
  ORPHEUS_ASSIGN_OR_RETURN(RowSelection sel, backend_->Select(DenseId(a)));
  const auto& rids = sel.table->column(sel.cols[0]).int_data();
  std::vector<uint32_t> rows;
  for (uint32_t r : sel.rows) {
    if (keep.count(rids[r])) rows.push_back(r);
  }
  ORPHEUS_COUNTER_ADD("cvd.diff.rows_scanned", sel.rows.size());
  ORPHEUS_COUNTER_ADD("cvd.diff.rows_out", rows.size());
  sel.rows = std::move(rows);
  return std::move(sel).Materialize(StrFormat("diff_%d_%d", a, b));
}

Result<std::vector<RecordId>> Cvd::VersionRecords(VersionId vid) const {
  ORPHEUS_RETURN_NOT_OK(ValidateVersion(vid));
  return backend_->VersionRecords(DenseId(vid));
}

std::vector<VersionId> Cvd::Ancestors(VersionId vid) const {
  std::vector<VersionId> out;
  for (int v : graph_.Ancestors(DenseId(vid))) out.push_back(PublicId(v));
  return out;
}

std::vector<VersionId> Cvd::Descendants(VersionId vid) const {
  std::vector<VersionId> out;
  for (int v : graph_.Descendants(DenseId(vid))) out.push_back(PublicId(v));
  return out;
}

std::vector<VersionId> Cvd::Parents(VersionId vid) const {
  std::vector<VersionId> out;
  for (int v : graph_.parents(DenseId(vid))) out.push_back(PublicId(v));
  return out;
}

Result<std::vector<RecordId>> Cvd::VIntersect(
    const std::vector<VersionId>& vids) const {
  if (vids.empty()) return std::vector<RecordId>{};
  auto acc = VersionRecords(vids[0]);
  if (!acc.ok()) return acc.status();
  std::vector<RecordId> cur = acc.MoveValueOrDie();
  uint64_t scanned = cur.size();
  for (size_t i = 1; i < vids.size(); ++i) {
    auto next = VersionRecords(vids[i]);
    if (!next.ok()) return next.status();
    scanned += next->size();
    std::vector<RecordId> merged;
    std::set_intersection(cur.begin(), cur.end(), next->begin(), next->end(),
                          std::back_inserter(merged));
    cur = std::move(merged);
  }
  ORPHEUS_COUNTER_ADD("cvd.setop.records_scanned", scanned);
  return cur;
}

Result<std::vector<RecordId>> Cvd::VDiff(VersionId a, VersionId b) const {
  auto ra = VersionRecords(a);
  if (!ra.ok()) return ra.status();
  auto rb = VersionRecords(b);
  if (!rb.ok()) return rb.status();
  std::vector<RecordId> out;
  std::set_difference(ra->begin(), ra->end(), rb->begin(), rb->end(),
                      std::back_inserter(out));
  ORPHEUS_COUNTER_ADD("cvd.setop.records_scanned", ra->size() + rb->size());
  return out;
}

std::vector<VersionId> Cvd::StagingParents(
    const std::string& table_name) const {
  auto it = staging_.find(table_name);
  return it == staging_.end() ? std::vector<VersionId>{} : it->second.parents;
}

Status Cvd::ForgetStaging(const std::string& table_name) {
  if (staging_.erase(table_name) == 0) {
    return Status::NotFound(
        StrFormat("table %s is not staged", table_name.c_str()));
  }
  return Status::OK();
}

Result<CvdState> Cvd::ExportState() const {
  CvdState state;
  state.name = name_;
  state.model = options_.model;
  state.primary_key = options_.primary_key;
  state.data_schema = backend_->data_schema().columns();
  state.attributes = attributes_;
  state.current_attr_ids = current_attr_ids_;
  state.next_rid = next_rid_;
  state.logical_clock = logical_clock_;
  state.metadata = metadata_;

  const size_t width = state.data_schema.size();
  const int n = backend_->num_versions();
  std::unordered_set<RecordId> seen;
  for (int v = 0; v < n; ++v) {
    auto rids = backend_->VersionRecords(v);
    if (!rids.ok()) return rids.status();
    const std::vector<int>& parents = graph_.parents(v);
    std::vector<int64_t> weights;
    weights.reserve(parents.size());
    for (int p : parents) weights.push_back(graph_.EdgeWeight(p, v));
    std::vector<NewRecord> fresh;
    for (RecordId rid : *rids) {
      if (!seen.insert(rid).second) continue;
      auto payload = backend_->GetRecordPayload(rid, v);
      if (!payload.ok()) return payload.status();
      Row row = payload.MoveValueOrDie();
      // Records stored before a schema evolution may be narrower than the
      // final schema; pad with NULLs (the single-pool semantics).
      if (row.size() < width) row.resize(width);
      if (row.size() > width) {
        return Status::Corruption(StrFormat(
            "record %lld payload wider (%zu) than schema (%zu) in CVD %s",
            static_cast<long long>(rid), row.size(), width, name_.c_str()));
      }
      fresh.push_back(NewRecord{rid, std::move(row)});
    }
    state.version_parents.push_back(parents);
    state.version_weights.push_back(std::move(weights));
    state.version_rids.push_back(rids.MoveValueOrDie());
    state.version_new_records.push_back(std::move(fresh));
  }
  return state;
}

Result<std::unique_ptr<Cvd>> Cvd::FromState(const CvdState& state) {
  const size_t n = state.version_rids.size();
  if (state.version_parents.size() != n || state.version_weights.size() != n ||
      state.version_new_records.size() != n || state.metadata.size() != n) {
    return Status::DataLoss(StrFormat(
        "inconsistent CVD state for %s: %zu versions but %zu parent lists, "
        "%zu weight lists, %zu record lists, %zu metadata entries",
        state.name.c_str(), n, state.version_parents.size(),
        state.version_weights.size(), state.version_new_records.size(),
        state.metadata.size()));
  }
  Options options;
  options.model = state.model;
  options.primary_key = state.primary_key;
  // The backend is created directly at the final schema; replayed payloads
  // are already padded to that width, so no AddAttribute replay is needed.
  std::unique_ptr<Cvd> cvd(
      new Cvd(state.name, options, Schema(state.data_schema)));
  cvd->attributes_ = state.attributes;  // overwrite ctor registrations
  cvd->current_attr_ids_ = state.current_attr_ids;
  for (size_t v = 0; v < n; ++v) {
    ORPHEUS_RETURN_NOT_OK(cvd->backend_->AddVersion(
        static_cast<int>(v), state.version_rids[v],
        state.version_new_records[v], state.version_parents[v]));
    cvd->graph_.AddVersion(state.version_parents[v], state.version_weights[v],
                           static_cast<int64_t>(state.version_rids[v].size()));
  }
  cvd->metadata_ = state.metadata;
  cvd->next_rid_ = state.next_rid;
  cvd->logical_clock_ = state.logical_clock;
  MaybeValidate(*cvd, "Cvd::FromState");
  return cvd;
}

Status Cvd::ApplyCommitRecord(const CvdCommitRecord& record) {
  if (record.vid != num_versions() + 1) {
    return Status::DataLoss(StrFormat(
        "commit record for version %d of CVD %s cannot apply at %d versions",
        record.vid, name_.c_str(), num_versions()));
  }
  if (record.parents.size() != record.parent_weights.size()) {
    return Status::DataLoss(StrFormat(
        "commit record for version %d of CVD %s: %zu parents, %zu weights",
        record.vid, name_.c_str(), record.parents.size(),
        record.parent_weights.size()));
  }
  // Replay this commit's schema evolution: widen changed types, append new
  // attributes (schema_after is authoritative).
  const size_t have = backend_->data_schema().num_columns();
  if (record.schema_after.size() < have) {
    return Status::DataLoss(StrFormat(
        "commit record for version %d of CVD %s narrows the schema",
        record.vid, name_.c_str()));
  }
  for (int k : PrimaryKeyAttrs()) {
    if (key_index_built_ &&
        record.schema_after[k].type != backend_->data_schema().column(k).type) {
      // A widened key attribute changes every stored key's type: rebuild
      // lazily at the next probe.
      key_index_.clear();
      key_index_built_ = false;
    }
  }
  for (size_t k = 0; k < have; ++k) {
    const ColumnDef& want = record.schema_after[k];
    if (backend_->data_schema().column(k).type != want.type) {
      ORPHEUS_RETURN_NOT_OK(
          backend_->WidenAttribute(static_cast<int>(k), want.type));
    }
  }
  for (size_t k = have; k < record.schema_after.size(); ++k) {
    ORPHEUS_RETURN_NOT_OK(backend_->AddAttribute(record.schema_after[k]));
  }

  std::vector<int> dense_parents;
  dense_parents.reserve(record.parents.size());
  for (VersionId p : record.parents) {
    ORPHEUS_RETURN_NOT_OK(ValidateVersion(p));
    dense_parents.push_back(DenseId(p));
  }
  const int dense = backend_->num_versions();
  ORPHEUS_RETURN_NOT_OK(backend_->AddVersion(dense, record.rids,
                                             record.new_records,
                                             dense_parents));
  graph_.AddVersion(dense_parents, record.parent_weights,
                    static_cast<int64_t>(record.rids.size()));
  metadata_.push_back(record.metadata);
  attributes_.insert(attributes_.end(), record.new_attributes.begin(),
                     record.new_attributes.end());
  current_attr_ids_ = record.current_attr_ids;
  next_rid_ = record.next_rid_after;
  logical_clock_ = record.logical_clock_after;
  if (key_index_built_) {
    const std::vector<int> pk_attrs = PrimaryKeyAttrs();
    for (const NewRecord& fresh : record.new_records) {
      ORPHEUS_RETURN_NOT_OK(IndexRecord(fresh.rid, dense, pk_attrs));
    }
  }
  MaybeValidate(*this, "Cvd::ApplyCommitRecord");
  return Status::OK();
}

std::vector<std::string> Cvd::StagedTables() const {
  std::vector<std::string> out;
  out.reserve(staging_.size());
  for (const auto& [name, info] : staging_) {
    (void)info;
    out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace orpheus::core
