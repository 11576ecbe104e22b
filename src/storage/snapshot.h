#ifndef ORPHEUS_STORAGE_SNAPSHOT_H_
#define ORPHEUS_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/cvd.h"

namespace orpheus::storage {

/// Snapshot file (DESIGN.md §10.3): the full logical state of every CVD in
/// the repository at checkpoint sequence `seq`.
///
/// Layout:
///   24-byte header: magic "ORPHSNP1" | u32 format version (exactly
///   kFormatVersion) | u32 header CRC32C | u64 checkpoint sequence number
///   one kCvdState frame per CVD
///   one kFooter frame: u32 CVD count (detects a truncated frame sequence
///   that happens to end on a frame boundary)
///
/// Snapshots are written to `<path>.tmp` and atomically renamed into place
/// (fsync file, rename, fsync directory), so a crash mid-write never leaves
/// a partial snapshot under the live name.

inline constexpr char kSnapshotMagic[] = "ORPHSNP1";  // 8 bytes, no NUL

struct SnapshotContents {
  uint64_t seq = 0;
  std::vector<core::CvdState> cvds;
};

/// Serialize + durably write the snapshot to `path` via temp-file + rename.
Status WriteSnapshot(const std::string& path, uint64_t seq,
                     const std::vector<core::CvdState>& cvds);

/// Read and verify a snapshot. Any corruption — bad magic, bad version,
/// frame checksum failure, truncation, trailing garbage, footer/count
/// mismatch — returns DataLoss naming `path` and the byte offset.
Result<SnapshotContents> ReadSnapshot(const std::string& path);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_SNAPSHOT_H_
