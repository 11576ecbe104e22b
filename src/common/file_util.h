#ifndef ORPHEUS_COMMON_FILE_UTIL_H_
#define ORPHEUS_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace orpheus {

/// Crash-safe POSIX file primitives. Every durable write in the engine
/// goes through this module (tools/lint.py bans raw std::ofstream/fopen
/// writes elsewhere under src/): each operation reports failures as
/// Status instead of silently succeeding on a full disk, and each is a
/// fault-injection site (common/failpoint.h) so the crash matrix can kill
/// or fail any write/fsync/rename mid-flight.
///
/// Failpoint sites: io.open, io.write, io.write.partial (writes half the
/// buffer, then fires), io.sync, io.close, io.rename, io.dirsync,
/// io.truncate, io.remove.

/// Buffered-nothing sequential file writer over a raw fd.
class FileWriter {
 public:
  /// Create (or truncate) `path`.
  static Result<FileWriter> Create(const std::string& path);
  /// Open `path` for appending at `offset` (the file is truncated to
  /// `offset` first — WAL recovery uses this to drop a torn tail).
  static Result<FileWriter> OpenAt(const std::string& path, uint64_t offset);

  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&& other) noexcept;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  /// Closing via destructor ignores errors; call Close() on paths that
  /// must observe them.
  ~FileWriter();

  Status Append(std::string_view data);
  /// fsync. A sync failure poisons the writer: later appends fail too
  /// (post-fsync-error page-cache state is unknowable — see PostgreSQL's
  /// fsyncgate — so the only safe reaction is to stop writing).
  Status Sync();
  Status Close();

  uint64_t offset() const { return offset_; }
  const std::string& path() const { return path_; }

 private:
  FileWriter(int fd, std::string path, uint64_t offset)
      : fd_(fd), path_(std::move(path)), offset_(offset) {}

  int fd_ = -1;
  std::string path_;
  uint64_t offset_ = 0;
  bool poisoned_ = false;
};

/// Entire file -> string. NotFound when missing, Internal on read errors.
Result<std::string> ReadFileToString(const std::string& path);

/// Durable atomic replacement: write `path`.tmp, fsync it, rename over
/// `path`, fsync the parent directory. Readers never observe a partial
/// file. With `sync` false the fsyncs are skipped (fast path for
/// non-critical exports where atomicity still matters but durability is
/// left to the OS).
Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync = true);

/// fsync a directory so a rename/create/unlink inside it is durable.
Status SyncDir(const std::string& dir);

/// rename(2) + fsync of the destination's parent directory.
Status AtomicRename(const std::string& from, const std::string& to);

Status RemoveFile(const std::string& path);     // NotFound when missing
bool FileExists(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);

/// Truncate `path` to `size` bytes and fsync it (WAL torn-tail repair).
Status TruncateFile(const std::string& path, uint64_t size);

/// mkdir -p. OK if the directory already exists.
Status CreateDirs(const std::string& path);

/// Sorted names of regular files directly inside `dir`.
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// "/a/b/c" -> "/a/b"; "c" -> ".".
std::string DirName(const std::string& path);

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_FILE_UTIL_H_
