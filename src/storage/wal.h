#ifndef ORPHEUS_STORAGE_WAL_H_
#define ORPHEUS_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/file_util.h"
#include "common/result.h"
#include "common/status.h"
#include "core/cvd.h"
#include "storage/format.h"

namespace orpheus::storage {

/// Write-ahead log (DESIGN.md §10.4). One WAL file per checkpoint epoch:
///   24-byte header: magic "ORPHWAL1" | u32 format version (exactly
///   kFormatVersion) | u32 header CRC32C | u64 checkpoint sequence (must
///   match the live snapshot's)
///   zero or more frames, each one durable record:
///     kWalCreate: CvdState of a freshly initialized CVD
///     kWalCommit: cvd name + CvdCommitRecord
///     kWalDrop:   cvd name
/// Appends are fsync'd before the commit returns. Concurrent committers go
/// through AppendBatch: the repository's group-commit leader concatenates
/// every queued record into one write and one fsync (DESIGN.md §13.3).
///
/// On replay, a final frame that is truncated or checksum-bad is a torn
/// tail — the record was never acknowledged, so it is safely truncated
/// away. A bad frame with more frames after it is DataLoss.

inline constexpr char kWalMagic[] = "ORPHWAL1";  // 8 bytes, no NUL

struct WalCreateRecord {
  core::CvdState state;
};
struct WalCommitRecord {
  std::string cvd;
  core::CvdCommitRecord record;
};
struct WalDropRecord {
  std::string cvd;
};
using WalRecord = std::variant<WalCreateRecord, WalCommitRecord, WalDropRecord>;

struct WalContents {
  uint64_t seq = 0;
  std::vector<WalRecord> records;
  /// True when the final frame was interrupted mid-append; `valid_bytes`
  /// is the prefix length holding only whole, verified frames — the caller
  /// truncates the file there before appending again.
  bool torn_tail = false;
  uint64_t valid_bytes = 0;
};

/// Parse and verify a WAL file. Torn tails are reported, not errors;
/// mid-file corruption is DataLoss naming `path` and the byte offset.
Result<WalContents> ReadWal(const std::string& path);

/// Appender over one WAL file. Not thread-safe (the repository serializes
/// commits through it).
class WalWriter {
 public:
  /// Create a fresh WAL for checkpoint epoch `seq` (header written+synced).
  static Result<WalWriter> Create(const std::string& path, uint64_t seq);
  /// Reopen an existing WAL for appending at `offset` (bytes past it — a
  /// torn tail found by ReadWal — are truncated away first).
  static Result<WalWriter> Open(const std::string& path, uint64_t offset);

  /// Serialize, append, and fsync one record. On failure the WAL's durable
  /// contents are unchanged or hold a torn tail that replay truncates —
  /// the commit was never applied in memory (log-before-apply), but the
  /// repository still degrades because this writer's file position may no
  /// longer match the file.
  Status Append(const WalRecord& record);

  /// Group commit: append every record as consecutive frames with a single
  /// write and a single fsync. All-or-nothing durability per batch: on
  /// failure none of the records is acknowledged (a torn tail inside the
  /// batch is truncated on replay, exactly like a torn single append).
  Status AppendBatch(const std::vector<WalRecord>& records);

  Status Sync() { return file_.Sync(); }
  Status Close() { return file_.Close(); }
  uint64_t offset() const { return file_.offset(); }
  const std::string& path() const { return file_.path(); }

 private:
  explicit WalWriter(FileWriter file) : file_(std::move(file)) {}

  FileWriter file_;
};

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_WAL_H_
