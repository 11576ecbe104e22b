#ifndef ORPHEUS_COMMON_RIDSET_H_
#define ORPHEUS_COMMON_RIDSET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace orpheus {

/// RidSet: a compressed, immutable, sorted set of int64 record/version ids —
/// the canonical representation for the paper's rlist/vlist versioning
/// attributes (Sec. 4). Values are partitioned into 64K-value chunks keyed by
/// `value >> 16`; each chunk stores its low 16 bits in one of three
/// roaring-style containers, whichever is smallest:
///
///   kArray   sorted uint16 values, bit-width-adaptively packed on disk
///            (2 bytes/value in memory; ceil(width/8) on disk)
///   kBitmap  1024 x uint64 words (8192 bytes, dense chunks)
///   kRun     sorted (start, last) uint16 interval pairs (4 bytes/run)
///
/// Container choice is deterministic from the chunk contents (promotion
/// thresholds in MakeCanonical), so two RidSets holding the same values are
/// structurally identical and operator== is a cheap representation compare.
///
/// Instances are immutable after construction; share them via
/// std::shared_ptr<const RidSet>. Mutation happens by building a new set
/// (WithAppended, Intersect, ...). Materialized() lazily caches a plain
/// std::vector<int64_t> view for legacy callers.
class RidSet {
 public:
  enum class ContainerType : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

  /// One 64K-value chunk. Exactly one payload vector is populated, matching
  /// `type`. Never empty (cardinality >= 1) when stored in a RidSet.
  struct Container {
    int64_t key = 0;  // value >> 16 (arithmetic shift; negative keys valid)
    ContainerType type = ContainerType::kArray;
    uint32_t cardinality = 0;
    std::vector<uint16_t> u16;     // kArray: values; kRun: (start,last) pairs
    std::vector<uint64_t> words;   // kBitmap: exactly 1024 words

    bool operator==(const Container& o) const = default;
  };

  RidSet() = default;

  /// Build from a strictly ascending (sorted, duplicate-free) value list.
  /// Precondition checked with assert in debug builds.
  static RidSet FromSorted(const std::vector<int64_t>& sorted_unique);

  /// Build a shared compressed set from `v` iff it is strictly ascending
  /// and has at least `min_size` elements; nullptr otherwise (caller keeps
  /// the plain vector). `min_size` defaults to the break-even point below
  /// which the container header overhead exceeds the raw encoding.
  static std::shared_ptr<const RidSet> TryFromVector(
      const std::vector<int64_t>& v, size_t min_size = kMinCompressElems);

  /// Below this many elements a plain vector is smaller than any container.
  static constexpr size_t kMinCompressElems = 8;

  /// Assemble a set from ready-made canonical containers (ascending by key,
  /// none empty). Used by the set-algebra kernels; callers elsewhere should
  /// go through FromSorted.
  static RidSet FromContainers(std::vector<Container> containers);

  size_t size() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }

  /// O(log #chunks + log chunk-card) membership test.
  bool Contains(int64_t v) const;

  /// Membership test with a caller-held container-index hint; scans that
  /// probe runs of nearby values skip the chunk binary search. `*hint` is
  /// updated to the container consulted. Thread-safe as long as each thread
  /// owns its hint.
  bool ContainsHint(int64_t v, size_t* hint) const;

  RidSet Intersect(const RidSet& other) const;
  RidSet Union(const RidSet& other) const;
  RidSet Difference(const RidSet& other) const;

  /// Copy of this set with `v` added (no-op copy if already present).
  RidSet WithAppended(int64_t v) const;

  /// Checkout kernel: `rids[0..n)` is an ascending rid column; append to
  /// `rows_out` every index r (plus `base_row`) with rids[r] in this set, in
  /// ascending order. Works container-at-a-time: bitmap chunks test bits,
  /// sparse array chunks gallop via binary search, run chunks bulk-emit
  /// contiguous index ranges — no decompression.
  void IntersectToRows(const int64_t* rids, size_t n,
                       std::vector<uint32_t>* rows_out,
                       uint32_t base_row = 0) const;

  /// Positional checkout kernel, for a rid column that holds rid r at row r
  /// for every r in [0, n): append every value in [0, n) to `rows_out` as a
  /// row index, ascending. O(size()), and scans no rid column.
  void ValuesAsRows(int64_t n, std::vector<uint32_t>* rows_out) const;

  /// Decompress to a fresh ascending vector.
  std::vector<int64_t> ToVector() const;

  /// Lazily materialized plain view for legacy callers; built once under a
  /// lock, immutable afterwards.
  const std::vector<int64_t>& Materialized() const;

  /// In-memory footprint mirroring StorageBytes accounting: per-container
  /// header plus payload bytes.
  uint64_t SizeBytes() const;

  /// Structural self-check: chunk keys strictly ascending, no empty
  /// containers, payload shape/cardinality agreement, arrays strictly
  /// sorted, runs sorted/disjoint/non-adjacent, canonical container choice.
  Status Validate() const;

  /// Canonical form makes structural equality == set equality.
  bool operator==(const RidSet& o) const { return containers_ == o.containers_; }
  bool operator!=(const RidSet& o) const { return !(*this == o); }

  const std::vector<Container>& containers() const { return containers_; }

  /// Serialize to the on-disk chunk layout (DESIGN.md Sec. 11): u32 chunk
  /// count, then per chunk i64 key, u8 type, u32 cardinality and a payload —
  /// arrays bit-packed at the chunk's adaptive width, bitmaps raw 8192
  /// bytes, runs raw u16 pairs. Little-endian throughout.
  std::string SerializeBlob() const;
  static Result<RidSet> DeserializeBlob(std::string_view blob);

 private:
  friend class RidSetTestAccess;

  std::vector<Container> containers_;  // strictly ascending by key
  size_t cardinality_ = 0;
  // Lazy Materialized() cache; guarded by a global mutex in ridset.cc.
  mutable std::shared_ptr<const std::vector<int64_t>> materialized_;
};

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_RIDSET_H_
