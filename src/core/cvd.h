#ifndef ORPHEUS_CORE_CVD_H_
#define ORPHEUS_CORE_CVD_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/data_models.h"
#include "core/types.h"
#include "core/version_graph.h"
#include "minidb/database.h"

namespace orpheus::core {

/// Attribute-table row (Fig. 4.3b): any change to an attribute's properties
/// creates a new entry.
struct AttributeInfo {
  int attr_id = 0;
  std::string name;
  minidb::ValueType type = minidb::ValueType::kInt64;
};

/// Logical snapshot of a whole CVD: everything needed to reconstruct an
/// equivalent Cvd (bit-identical checkouts, identical future commits) by
/// replaying AddVersion against a fresh backend. This is what the durable
/// repository (src/storage/) serializes; staging registrations are
/// deliberately transient and not captured.
struct CvdState {
  std::string name;
  DataModelType model = DataModelType::kSplitByRlist;
  std::vector<std::string> primary_key;
  /// Final data-attribute schema; record payloads below are padded to this
  /// width (trailing NULLs stand in for attributes added after a record
  /// was stored — exactly the single-pool evolution semantics of Sec. 4.3).
  std::vector<minidb::ColumnDef> data_schema;
  std::vector<AttributeInfo> attributes;
  std::vector<int> current_attr_ids;
  RecordId next_rid = 0;
  LogicalTime logical_clock = 0;
  std::vector<VersionMetadata> metadata;
  /// Per dense version: parents (dense ids), per-parent shared-record edge
  /// weights, sorted record membership, and the payloads of records whose
  /// first appearance is in that version.
  std::vector<std::vector<int>> version_parents;
  std::vector<std::vector<int64_t>> version_weights;
  std::vector<std::vector<RecordId>> version_rids;
  std::vector<std::vector<NewRecord>> version_new_records;
};

/// Everything a single CommitTable call decided, captured by the planning
/// phase before any in-memory state changes. Replaying the record with
/// Cvd::ApplyCommitRecord against the pre-commit state reproduces the
/// post-commit state exactly — this is the WAL record the durable
/// repository logs per commit, and also how CommitTable itself applies the
/// commit after the observer has made it durable.
struct CvdCommitRecord {
  VersionId vid = kInvalidVersion;
  std::vector<VersionId> parents;       // public ids
  std::vector<int64_t> parent_weights;  // aligned with parents
  std::vector<RecordId> rids;           // sorted membership of the version
  std::vector<NewRecord> new_records;   // payloads first stored here
  VersionMetadata metadata;
  /// Attribute-table entries appended by this commit's schema
  /// reconciliation, plus the full post-commit snapshots of the pieces a
  /// replay cannot derive.
  std::vector<AttributeInfo> new_attributes;
  std::vector<int> current_attr_ids;
  std::vector<minidb::ColumnDef> schema_after;
  RecordId next_rid_after = 0;
  LogicalTime logical_clock_after = 0;
};

/// A Collaborative Versioned Dataset (Sec. 3.1): one relation with many
/// implicit versions, a version graph, version metadata, and a pluggable
/// physical data model (Chapter 4).
///
/// Public version ids are 1-based, in commit order; internally they map to
/// dense 0-based backend indices.
class Cvd {
 public:
  struct Options {
    DataModelType model = DataModelType::kSplitByRlist;
    /// Names of the primary-key attributes (may be empty: no PK enforced).
    std::vector<std::string> primary_key;
  };

  /// `init`: register an existing table (data attributes only) as a new CVD
  /// whose version 1 holds the table's records.
  static Result<std::unique_ptr<Cvd>> Init(const std::string& name,
                                           const minidb::Table& initial,
                                           const Options& options);

  const std::string& name() const { return name_; }
  DataModelBackend* backend() { return backend_.get(); }
  const DataModelBackend* backend() const { return backend_.get(); }

  int num_versions() const { return graph_.num_versions(); }
  VersionId latest() const { return num_versions(); }
  const VersionGraph& graph() const { return graph_; }
  const std::vector<VersionMetadata>& metadata() const { return metadata_; }
  const VersionMetadata& version_metadata(VersionId vid) const {
    return metadata_[vid - 1];
  }
  const std::vector<AttributeInfo>& attribute_table() const {
    return attributes_;
  }
  /// Names of the primary-key attributes (empty: no PK enforced). The
  /// session layer's reconciliation keys its three-way merge on these.
  const std::vector<std::string>& primary_key() const {
    return options_.primary_key;
  }

  /// `checkout [cvd] -v vid... -t table`: materialize one or more versions
  /// into `staging` as `table_name`, stamped. With multiple versions,
  /// records are merged in precedence order: a record whose primary key was
  /// already added by an earlier version is omitted (Sec. 3.3.1).
  Status Checkout(const std::vector<VersionId>& vids,
                  const std::string& table_name, minidb::Database* staging);

  /// The rows of one or more versions with the same precedence merge, as a
  /// selection over the backend's tables (column 0 is `_rid`): no copy,
  /// no staging table, no logical-clock tick. A borrowed selection is valid
  /// only until the CVD is next mutated (RowSelection). Const — safe to
  /// call concurrently with other const reads; the session layer runs it
  /// under a shared (reader) lock and uses the result under that lock.
  Result<RowSelection> Select(const std::vector<VersionId>& vids) const;

  /// The read-only core of Checkout: Select, then copy the rows into a
  /// free-standing table named `table_name`.
  Result<minidb::Table> Materialize(const std::vector<VersionId>& vids,
                                    const std::string& table_name) const;

  /// `commit -t table -m msg`: commit the staging table's recorded edits
  /// (any other table of that name whole) against its parent versions, and
  /// drop it. The table must have been produced by Checkout (OrpheusDB
  /// tracks its parent versions).
  Result<VersionId> Commit(const std::string& table_name,
                           minidb::Database* staging,
                           const std::string& message,
                           const std::string& author = "");

  /// Commit a free-standing materialized table (schema: data attributes,
  /// optionally preceded by a `_rid` column) with explicit parent versions.
  /// Used by `init`-style imports, the session layer and the bench
  /// harnesses. `checkout_time` is recorded in the version metadata (0 =
  /// unknown; Commit passes the staged checkout timestamp).
  ///
  /// `carried` (sorted, unique, stored rids) are records the version keeps
  /// without shipping them: the rows a changeset left out because they are
  /// unchanged, or the records a reconcile merge carries forward. They are
  /// included without being scanned, so `table` holds only the rows that
  /// changed or are new, and the commit record is the one a full-table
  /// commit of the carried rows plus `table` would log. Primary-key checks
  /// touch the shipped keys only: unique among themselves, and none equal
  /// to a carried record's key (answered by the key index).
  Result<VersionId> CommitTable(const minidb::Table& table,
                                const std::vector<VersionId>& parents,
                                const std::string& message,
                                const std::string& author = "",
                                LogicalTime checkout_time = 0,
                                const std::vector<RecordId>& carried = {});

  /// Payload of stored record `rid` (data attributes at the current schema
  /// width), looked up from version `in`, which should contain it.
  Result<minidb::Row> RecordPayload(RecordId rid, VersionId in) const;

  // --- Durability hooks (src/storage/, DESIGN.md §10) ---

  /// Observer invoked with the full commit record after planning but
  /// BEFORE the commit is applied in memory (log-before-apply). The
  /// durable repository appends the record to its WAL here; a non-OK
  /// return aborts the commit with no in-memory state change, so a failed
  /// WAL append can never leave a checkoutable version that the log does
  /// not know about. If the observer succeeds, the subsequent in-memory
  /// apply is infallible short of an internal invariant bug; should it
  /// fail anyway, the WAL is ahead of memory — the safe direction, since
  /// reopening replays the logged commit.
  using CommitObserver = std::function<Status(const CvdCommitRecord&)>;
  void set_commit_observer(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  /// Export the full logical state (snapshot serialization).
  Result<CvdState> ExportState() const;

  /// Reconstruct a CVD from an exported state by replaying AddVersion
  /// against a fresh backend. Checkouts of the result are bit-identical to
  /// the original's.
  static Result<std::unique_ptr<Cvd>> FromState(const CvdState& state);

  /// Replay one logged commit (WAL recovery). The record must be the next
  /// version in sequence.
  Status ApplyCommitRecord(const CvdCommitRecord& record);

  /// `diff`: records present in version `a` but not in version `b`,
  /// materialized with schema [_rid, attrs...].
  Result<minidb::Table> Diff(VersionId a, VersionId b) const;

  /// Sorted rids of a version (not user-visible in OrpheusDB proper, but
  /// needed by the partition optimizer and tests).
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) const;

  // --- Functional primitives usable as query predicates (Sec. 3.3.2) ---

  /// ancestor(vid): all ancestors in the version graph.
  std::vector<VersionId> Ancestors(VersionId vid) const;
  /// descendant(vid).
  std::vector<VersionId> Descendants(VersionId vid) const;
  /// parent(vid).
  std::vector<VersionId> Parents(VersionId vid) const;
  /// v_intersect(ARRAY[vids]): rids present in all the given versions.
  Result<std::vector<RecordId>> VIntersect(
      const std::vector<VersionId>& vids) const;
  /// v_diff(a, b) at the rid level.
  Result<std::vector<RecordId>> VDiff(VersionId a, VersionId b) const;

  /// Total backend storage (Fig. 4.1a).
  uint64_t StorageBytes() const { return backend_->StorageBytes(); }

  /// Staging tables currently tracked by the provenance manager.
  std::vector<std::string> StagedTables() const;

  /// Parent versions recorded for a staged table (empty if unknown).
  std::vector<VersionId> StagingParents(const std::string& table_name) const;

  /// Forget a staging registration without committing (used when a
  /// checkout is exported to a CSV file and the table is dropped).
  Status ForgetStaging(const std::string& table_name);

 private:
  Cvd(std::string name, Options options, minidb::Schema data_schema);

  int DenseId(VersionId vid) const { return vid - 1; }
  VersionId PublicId(int dense) const { return dense + 1; }
  Status ValidateVersion(VersionId vid) const;

  /// Commit planning (Sec. 4.3): align the staging table's columns with
  /// the CVD schema WITHOUT mutating anything, recording the planned
  /// schema evolution (widenings + new attributes) into `plan`. Outputs,
  /// for each planned CVD data attribute, the staging column feeding it
  /// (-1 => NULL). Const — the plan is applied only after the commit
  /// observer has made the record durable.
  struct SchemaPlan {
    std::vector<minidb::ColumnDef> schema_after;
    std::vector<AttributeInfo> new_attributes;
    std::vector<int> current_attr_ids;
  };
  Status PlanSchema(const minidb::Table& table, bool has_rid_col,
                    SchemaPlan* plan,
                    std::vector<int>* staging_col_of_attr) const;

  /// Finish a planned commit whose parents, membership, new records and
  /// schema snapshot are filled in: add parent weights and metadata, hand
  /// the record to the commit observer (phase 2), then apply it (phase 3).
  Result<VersionId> FinishCommit(CvdCommitRecord record,
                                 const std::string& message,
                                 const std::string& author,
                                 LogicalTime checkout_time);

  void RegisterAttribute(const std::string& attr_name, minidb::ValueType type);

  /// Positions of the primary-key attributes in the data schema.
  std::vector<int> PrimaryKeyAttrs() const;
  /// Build the key index over every stored record, if not built yet.
  Status EnsureKeyIndex();
  /// Add stored record `rid`, located from `version`, to the key index.
  Status IndexRecord(RecordId rid, int version, const std::vector<int>& pk);

  std::string name_;
  Options options_;
  std::unique_ptr<DataModelBackend> backend_;
  VersionGraph graph_;
  std::vector<VersionMetadata> metadata_;
  std::vector<AttributeInfo> attributes_;
  // Current attribute ids (indexes into attributes_) per data column.
  std::vector<int> current_attr_ids_;
  RecordId next_rid_ = 0;
  LogicalTime logical_clock_ = 0;
  // Provenance manager state: staging table -> parent versions + checkout
  // timestamp (Sec. 3.2), sorted rids and the staged table's checkout id.
  struct StagingInfo {
    std::vector<VersionId> parents;
    LogicalTime checkout_time = 0;
    std::vector<RecordId> rids;
    uint64_t checkout_id = 0;
  };
  std::unordered_map<std::string, StagingInfo> staging_;
  CommitObserver commit_observer_;
  // Primary-key index over every stored record: minidb::KeyColumns hash
  // -> rids with that hash (candidates; a probe verifies each with
  // KeyColumns::Equals). Built on the first commit that carries records,
  // kept in step by ApplyCommitRecord, and dropped when a primary-key
  // attribute is widened (the stored keys change type).
  bool key_index_built_ = false;
  std::unordered_map<size_t, std::vector<RecordId>> key_index_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_CVD_H_
