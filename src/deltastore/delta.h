#ifndef ORPHEUS_DELTASTORE_DELTA_H_
#define ORPHEUS_DELTASTORE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace orpheus::deltastore {

/// A dataset version of arbitrary structure, modeled as a sequence of text
/// lines (Chapter 7 is format-agnostic: "our proposed algorithm is based on
/// delta-encoding, which is generic and can work with any data format").
struct FileContent {
  std::vector<std::string> lines;

  /// Bytes when stored in full (line payloads + newline separators).
  uint64_t SizeBytes() const {
    uint64_t bytes = 0;
    for (const auto& l : lines) bytes += l.size() + 1;
    return bytes;
  }

  bool operator==(const FileContent& o) const { return lines == o.lines; }
};

/// A one-way (directed) line-level delta: a program of copy-from-source and
/// insert-literal operations that rebuilds the target from the source
/// (UNIX-diff style, Sec. 7.2.1's "delta variants").
struct LineDelta {
  struct Op {
    enum class Kind { kCopy, kInsert };
    Kind kind = Kind::kCopy;
    // kCopy: [src_begin, src_begin + src_len) lines of the source.
    size_t src_begin = 0;
    size_t src_len = 0;
    // kInsert: literal lines.
    std::vector<std::string> lines;
  };
  std::vector<Op> ops;

  /// ∆: bytes needed to persist this delta (literal payloads + op headers).
  uint64_t StorageBytes() const;
};

/// Compute a delta that transforms `from` into `to`, using a greedy
/// hash-anchored matcher: runs of lines present in the source are emitted
/// as copies, everything else as literals.
LineDelta ComputeLineDelta(const FileContent& from, const FileContent& to);

/// Apply a delta. The result always satisfies
/// ApplyLineDelta(from, ComputeLineDelta(from, to)) == to.
FileContent ApplyLineDelta(const FileContent& from, const LineDelta& delta);

}  // namespace orpheus::deltastore

#endif  // ORPHEUS_DELTASTORE_DELTA_H_
