#ifndef ORPHEUS_MINIDB_VALUE_H_
#define ORPHEUS_MINIDB_VALUE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace orpheus {
class RidSet;
}  // namespace orpheus

namespace orpheus::minidb {

/// Column data types supported by the engine. kIntArray backs the
/// `vlist`/`rlist` versioning attributes of Chapter 4 (PostgreSQL's int[]).
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  kIntArray,
};

const char* ValueTypeName(ValueType t);

/// A dynamically-typed cell value. Tables store data in typed column vectors
/// (see column.h); Value is the boundary type used for row-at-a-time APIs,
/// predicates, and query results.
///
/// kIntArray cells have two physical representations: a plain
/// std::vector<int64_t>, or a shared compressed RidSet (the canonical form
/// for sorted rlist/vlist sets — see common/ridset.h). Both report
/// ValueType::kIntArray and compare equal by content; AsIntArray() lazily
/// materializes the compressed form for legacy callers.
class Value {
 public:
  Value() : var_(std::monostate{}) {}
  explicit Value(int64_t v) : var_(v) {}
  explicit Value(double v) : var_(v) {}
  explicit Value(std::string v) : var_(std::move(v)) {}
  explicit Value(const char* v) : var_(std::string(v)) {}
  explicit Value(std::vector<int64_t> v) : var_(std::move(v)) {}
  explicit Value(std::shared_ptr<const RidSet> v) : var_(std::move(v)) {
    assert(std::get<std::shared_ptr<const RidSet>>(var_) != nullptr);
  }

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (var_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInt64;
      case 2: return ValueType::kDouble;
      case 3: return ValueType::kString;
      case 4: return ValueType::kIntArray;
      case 5: return ValueType::kIntArray;  // compressed representation
    }
    return ValueType::kNull;
  }

  bool is_null() const { return var_.index() == 0; }
  int64_t AsInt() const { return std::get<int64_t>(var_); }
  double AsDouble() const { return std::get<double>(var_); }
  const std::string& AsString() const { return std::get<std::string>(var_); }

  /// Plain int-array view; materializes (and caches) the compressed
  /// representation when needed.
  const std::vector<int64_t>& AsIntArray() const;

  /// Mutable int-array view; demotes a compressed cell to a plain vector in
  /// place first.
  std::vector<int64_t>& MutableIntArray();

  /// The compressed payload, or nullptr when this is not a compressed
  /// int-array cell.
  const std::shared_ptr<const RidSet>* TryRidSet() const {
    return std::get_if<std::shared_ptr<const RidSet>>(&var_);
  }

  /// Numeric view: int64 and double both compare as double.
  double NumericValue() const {
    if (var_.index() == 1) return static_cast<double>(AsInt());
    return AsDouble();
  }

  /// Content equality: kIntArray compares element-wise across both physical
  /// representations.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total ordering within a type; null sorts first, cross-numeric compares
  /// numerically.
  bool operator<(const Value& other) const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string,
               std::vector<int64_t>, std::shared_ptr<const RidSet>>
      var_;
};

/// A materialized row: one Value per column.
using Row = std::vector<Value>;

/// Key order for the reconcile's ordered key slots: a total order
/// consistent with Column::KeyEquals (NULL first, NaN last among doubles,
/// -0.0 equal to 0.0; different types order by type, never compare).
bool KeyLess(const Value& a, const Value& b);

/// Lexicographic KeyLess over equal-length key tuples (ordered-map keys).
struct KeyTupleLess {
  bool operator()(const Row& a, const Row& b) const;
};

/// Comma-joined display of a key tuple ("1,b"): for messages and conflict
/// reports only, never for identity.
std::string RenderKey(const Row& key);

}  // namespace orpheus::minidb

#endif  // ORPHEUS_MINIDB_VALUE_H_
