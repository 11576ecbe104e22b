#ifndef ORPHEUS_MINIDB_COLUMN_H_
#define ORPHEUS_MINIDB_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ridset.h"
#include "common/status.h"
#include "minidb/value.h"

namespace orpheus::minidb {

/// A typed column vector. Tables are stored columnar (Arrow-style) so that
/// wide integer benchmark tables cost 8 bytes per cell rather than a boxed
/// variant, which keeps paper-scale workloads in memory.
///
/// kIntArray cells (the rlist/vlist versioning attributes) hold either a
/// plain vector or a shared compressed RidSet (common/ridset.h), chosen by
/// the contents alone: appends of sorted-unique arrays compress; callers
/// on the checkout hot path use GetRidSet() to operate on the compressed
/// form directly, while GetIntArray() transparently materializes for legacy
/// code.
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  void AppendInt(int64_t v) {
    assert(type_ == ValueType::kInt64);
    ints_.push_back(v);
    NoteValidAppend();
  }
  void AppendDouble(double v) {
    assert(type_ == ValueType::kDouble);
    doubles_.push_back(v);
    NoteValidAppend();
  }
  void AppendString(std::string v) {
    assert(type_ == ValueType::kString);
    strings_.push_back(std::move(v));
    NoteValidAppend();
  }
  void AppendIntArray(std::vector<int64_t> v) {
    assert(type_ == ValueType::kIntArray);
    arrays_.push_back(MakeArrayCell(std::move(v)));
    NoteValidAppend();
  }
  /// Append an already-compressed set cell (must be non-null).
  void AppendRidSet(std::shared_ptr<const orpheus::RidSet> set) {
    assert(type_ == ValueType::kIntArray && set != nullptr);
    arrays_.push_back(ArrayCell{{}, std::move(set)});
    NoteValidAppend();
  }

  /// Bulk-append `n` int64 (or double) cells copied from `src`, which holds
  /// them in native byte order and need not be aligned.
  void AppendInts(const void* src, size_t n) {
    assert(type_ == ValueType::kInt64);
    AppendRaw(&ints_, src, n);
  }
  void AppendDoubles(const void* src, size_t n) {
    assert(type_ == ValueType::kDouble);
    AppendRaw(&doubles_, src, n);
  }

  /// Reserve room for `n` more cells.
  void Reserve(size_t n);

  /// Append cells `rows[0..n)` of `src`, in order. A NULL source cell
  /// appends a NULL; when `src` has no NULLs and the types match, numeric
  /// cells are copied by one gather loop.
  void AppendRows(const Column& src, const uint32_t* rows, size_t n);

  /// Append a NULL cell (records a validity hole; the physical slot holds a
  /// zero value).
  void AppendNull();

  /// Mark cell `i` NULL (its physical slot keeps its value).
  void SetNull(size_t i) {
    EnsureValidity();
    valid_[i] = 0;
  }

  /// Append `v`, which must match the column type or be null.
  void AppendValue(const Value& v);

  bool IsNull(size_t i) const {
    return !valid_.empty() && valid_[i] == 0;
  }

  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }
  const std::vector<int64_t>& GetIntArray(size_t i) const {
    const ArrayCell& cell = arrays_[i];
    return cell.set ? cell.set->Materialized() : cell.plain;
  }
  std::vector<int64_t>& MutableIntArray(size_t i) {
    ArrayCell& cell = arrays_[i];
    if (cell.set) {  // demote to plain; the caller is about to mutate
      cell.plain = cell.set->ToVector();
      cell.set = nullptr;
    }
    return cell.plain;
  }

  /// The compressed payload of cell `i`, or nullptr when the cell is stored
  /// as a plain vector.
  const std::shared_ptr<const orpheus::RidSet>& GetRidSet(size_t i) const {
    return arrays_[i].set;
  }

  /// Boxed accessor (respects nulls).
  Value GetValue(size_t i) const;

  /// Key identity — primary keys, the multi-version checkout's precedence
  /// merge, the commit key index, and whether a committed row still equals
  /// its stored record — read straight from storage: NULL equals
  /// only NULL (a NULL cell's physical slot is never read), NaN equals NaN,
  /// -0.0 equals 0.0, and cells of different types never match. KeyHash is
  /// consistent with it. Never compare keys through Value::ToString(): "%g"
  /// folds distinct doubles and NULL renders as "NULL".
  bool KeyEquals(size_t i, const Column& other, size_t j) const;
  size_t KeyHash(size_t i) const;

  /// Overwrite cell `i` with `v` (type must match; null allowed).
  void SetValue(size_t i, const Value& v);

  /// Approximate heap bytes used by this column's data, mirroring on-disk
  /// accounting (8 bytes per numeric, string payload + length header,
  /// 8 bytes per array element + array header; compressed set cells count
  /// their packed chunk bytes).
  uint64_t StorageBytes() const;

  /// Direct access to the numeric payloads for tight loops.
  const std::vector<int64_t>& int_data() const { return ints_; }
  const std::vector<double>& double_data() const { return doubles_; }

  /// Widen the column to a more general type (paper Sec. 4.3: e.g. integer
  /// -> decimal). Supported: int64 -> double, int64/double -> string.
  Status Widen(ValueType to);

  /// Remove cell `i` by moving the last cell into its place (O(1); row
  /// order is not preserved).
  void SwapRemove(size_t i);

 private:
  /// One kIntArray cell: compressed when `set` is non-null, else `plain`.
  struct ArrayCell {
    std::vector<int64_t> plain;
    std::shared_ptr<const orpheus::RidSet> set;
  };

  /// Compress at insert time whenever RidSet::TryFromVector accepts the
  /// contents (sorted, unique, at least 8 elements).
  static ArrayCell MakeArrayCell(std::vector<int64_t> v) {
    if (auto set = orpheus::RidSet::TryFromVector(v)) {
      return ArrayCell{{}, std::move(set)};
    }
    return ArrayCell{std::move(v), nullptr};
  }

  void EnsureValidity();

  template <typename T>
  void AppendRaw(std::vector<T>* data, const void* src, size_t n) {
    const size_t old = data->size();
    data->resize(old + n);
    if (n > 0) std::memcpy(data->data() + old, src, n * sizeof(T));
    size_ += n;
    if (!valid_.empty()) valid_.resize(size_, 1);
  }

  // Keep the lazily-allocated validity bitmap in sync on non-null appends.
  void NoteValidAppend() {
    ++size_;
    if (!valid_.empty()) valid_.push_back(1);
  }

  ValueType type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<ArrayCell> arrays_;
  // Validity bitmap, allocated lazily on the first null; empty => all valid.
  std::vector<uint8_t> valid_;
};

/// The key of a table's rows: one column per key attribute. Hash and
/// Equals combine Column::KeyHash and Column::KeyEquals over them.
struct KeyColumns {
  std::vector<const Column*> cols;

  size_t Hash(size_t row) const;
  bool Equals(size_t row, const KeyColumns& other, size_t other_row) const;
};

/// Rows of the tables keyed by `keys`, addressed (index into `keys`, row),
/// no two with equal keys; open addressing, sized for `max_rows` rows.
class KeySet {
 public:
  KeySet(const std::vector<KeyColumns>& keys, size_t max_rows);

  /// The (table, row) in the set with the row's key, if any; if there is
  /// none and `add`, adds the row.
  std::optional<std::pair<uint32_t, uint32_t>> Find(uint32_t table,
                                                    uint32_t row, bool add);
  /// Whether a row with the row's key is in; if not and `add`, adds it.
  bool Has(uint32_t table, uint32_t row, bool add) {
    return Find(table, row, add).has_value();
  }

 private:
  const std::vector<KeyColumns>& keys_;
  std::vector<uint64_t> slots_;  // (table << 32 | row) + 1, or 0 if free
  int shift_ = 60;               // 64 - log2(slots_.size())
};

}  // namespace orpheus::minidb

#endif  // ORPHEUS_MINIDB_COLUMN_H_
