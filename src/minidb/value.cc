#include "minidb/value.h"

#include <cmath>

#include "common/ridset.h"
#include "common/string_util.h"

namespace orpheus::minidb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt64: return "int64";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kIntArray: return "int[]";
  }
  return "?";
}

const std::vector<int64_t>& Value::AsIntArray() const {
  if (const auto* set = std::get_if<std::shared_ptr<const RidSet>>(&var_)) {
    return (*set)->Materialized();
  }
  return std::get<std::vector<int64_t>>(var_);
}

std::vector<int64_t>& Value::MutableIntArray() {
  if (const auto* set = std::get_if<std::shared_ptr<const RidSet>>(&var_)) {
    var_ = (*set)->ToVector();
  }
  return std::get<std::vector<int64_t>>(var_);
}

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) return false;
  if (type() != ValueType::kIntArray) return var_ == other.var_;
  const auto* a = TryRidSet();
  const auto* b = other.TryRidSet();
  // Compressed sets are canonical, so same-representation equality is a
  // cheap structural compare; mixed representations compare element-wise.
  if (a && b) return (*a == *b) || (**a == **b);
  return AsIntArray() == other.AsIntArray();
}

bool Value::operator<(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Nulls first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    return a == ValueType::kNull && b != ValueType::kNull;
  }
  bool a_num = a == ValueType::kInt64 || a == ValueType::kDouble;
  bool b_num = b == ValueType::kInt64 || b == ValueType::kDouble;
  if (a_num && b_num) return NumericValue() < other.NumericValue();
  if (a != b) return static_cast<int>(a) < static_cast<int>(b);
  if (a == ValueType::kString) return AsString() < other.AsString();
  if (a == ValueType::kIntArray) return AsIntArray() < other.AsIntArray();
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return StrFormat("%g", AsDouble());
    case ValueType::kString:
      return AsString();
    case ValueType::kIntArray: {
      std::string out = "{";
      const auto& arr = AsIntArray();
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(arr[i]);
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

bool KeyLess(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type();
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return a.AsInt() < b.AsInt();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      if (std::isnan(x) || std::isnan(y)) return !std::isnan(x);
      return x < y;
    }
    case ValueType::kString:
      return a.AsString() < b.AsString();
    case ValueType::kIntArray:
      return a.AsIntArray() < b.AsIntArray();
  }
  return false;
}

bool KeyTupleLess::operator()(const Row& a, const Row& b) const {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (KeyLess(a[i], b[i])) return true;
    if (KeyLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

std::string RenderKey(const Row& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(key[i].ToString());
  }
  return out;
}

}  // namespace orpheus::minidb
