#include "minidb/column.h"

#include <cmath>
#include <functional>

namespace orpheus::minidb {

void Column::EnsureValidity() {
  if (valid_.empty()) valid_.assign(size_, 1);
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(ints_.size() + n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(doubles_.size() + n);
      break;
    case ValueType::kString:
      strings_.reserve(strings_.size() + n);
      break;
    case ValueType::kIntArray:
      arrays_.reserve(arrays_.size() + n);
      break;
    case ValueType::kNull:
      break;
  }
}

namespace {

template <typename T>
void Gather(std::vector<T>* out, const std::vector<T>& in,
            const uint32_t* rows, size_t n) {
  const size_t old = out->size();
  out->resize(old + n);
  T* dst = out->data() + old;
  for (size_t i = 0; i < n; ++i) dst[i] = in[rows[i]];
}

}  // namespace

void Column::AppendRows(const Column& src, const uint32_t* rows, size_t n) {
  // Reserving exactly on every call would reallocate on each of many small
  // appends (a delta-chain checkout appends once per delta); a fresh
  // column is the copy a checkout fills in one call.
  if (size_ == 0) Reserve(n);
  if (type_ == src.type_ && src.valid_.empty() &&
      (type_ == ValueType::kInt64 || type_ == ValueType::kDouble)) {
    if (type_ == ValueType::kInt64) {
      Gather(&ints_, src.ints_, rows, n);
    } else {
      Gather(&doubles_, src.doubles_, rows, n);
    }
    size_ += n;
    if (!valid_.empty()) valid_.resize(size_, 1);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    if (src.IsNull(r)) {
      AppendNull();
    } else if (type_ != src.type_) {
      AppendValue(src.GetValue(r));
    } else if (type_ == ValueType::kInt64) {
      AppendInt(src.ints_[r]);
    } else if (type_ == ValueType::kDouble) {
      AppendDouble(src.doubles_[r]);
    } else if (type_ == ValueType::kString) {
      AppendString(src.strings_[r]);
    } else {
      AppendValue(src.GetValue(r));
    }
  }
}

void Column::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    case ValueType::kIntArray:
      arrays_.emplace_back();
      break;
    case ValueType::kNull:
      break;
  }
  valid_.push_back(0);
  ++size_;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      // Accept doubles that arrive after a type widen (paper Sec. 4.3 widens
      // the other way; this keeps the engine forgiving in tests).
      if (v.type() == ValueType::kDouble) {
        AppendInt(static_cast<int64_t>(v.AsDouble()));
      } else {
        AppendInt(v.AsInt());
      }
      break;
    case ValueType::kDouble:
      AppendDouble(v.NumericValue());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
    case ValueType::kIntArray:
      // A compressed payload flows through as a cheap shared_ptr copy.
      if (const auto* set = v.TryRidSet()) {
        AppendRidSet(*set);
      } else {
        AppendIntArray(v.AsIntArray());
      }
      break;
    case ValueType::kNull:
      AppendNull();
      break;
  }
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[i]);
    case ValueType::kDouble:
      return Value(doubles_[i]);
    case ValueType::kString:
      return Value(strings_[i]);
    case ValueType::kIntArray:
      return arrays_[i].set ? Value(arrays_[i].set) : Value(arrays_[i].plain);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::SetValue(size_t i, const Value& v) {
  if (v.is_null()) {
    SetNull(i);
    return;
  }
  if (!valid_.empty()) valid_[i] = 1;
  switch (type_) {
    case ValueType::kInt64:
      ints_[i] = v.type() == ValueType::kDouble
                     ? static_cast<int64_t>(v.AsDouble())
                     : v.AsInt();
      break;
    case ValueType::kDouble:
      doubles_[i] = v.NumericValue();
      break;
    case ValueType::kString:
      strings_[i] = v.AsString();
      break;
    case ValueType::kIntArray:
      if (const auto* set = v.TryRidSet()) {
        arrays_[i] = ArrayCell{{}, *set};
      } else {
        arrays_[i] = MakeArrayCell(v.AsIntArray());
      }
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::SwapRemove(size_t i) {
  switch (type_) {
    case ValueType::kInt64:
      ints_[i] = ints_.back();
      ints_.pop_back();
      break;
    case ValueType::kDouble:
      doubles_[i] = doubles_.back();
      doubles_.pop_back();
      break;
    case ValueType::kString:
      strings_[i] = std::move(strings_.back());
      strings_.pop_back();
      break;
    case ValueType::kIntArray:
      arrays_[i] = std::move(arrays_.back());
      arrays_.pop_back();
      break;
    case ValueType::kNull:
      break;
  }
  if (!valid_.empty()) {
    valid_[i] = valid_.back();
    valid_.pop_back();
  }
  --size_;
}

bool Column::KeyEquals(size_t i, const Column& other, size_t j) const {
  const bool null_i = IsNull(i);
  const bool null_j = other.IsNull(j);
  if (null_i || null_j) return null_i && null_j;
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kInt64:
      return ints_[i] == other.ints_[j];
    case ValueType::kDouble: {
      const double x = doubles_[i];
      const double y = other.doubles_[j];
      return x == y || (std::isnan(x) && std::isnan(y));
    }
    case ValueType::kString:
      return strings_[i] == other.strings_[j];
    default:
      return GetValue(i) == other.GetValue(j);
  }
}

size_t Column::KeyHash(size_t i) const {
  if (IsNull(i)) return 0;  // the kNull type seed
  const size_t seed = static_cast<size_t>(type_) * 0x9E3779B97F4A7C15ULL;
  switch (type_) {
    case ValueType::kInt64:
      return seed ^ std::hash<int64_t>()(ints_[i]);
    case ValueType::kDouble: {
      // Every NaN hashes alike, and -0.0 as 0.0: they are equal keys.
      if (std::isnan(doubles_[i])) return seed ^ 1;
      const double x = doubles_[i] == 0.0 ? 0.0 : doubles_[i];
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      return seed ^ std::hash<uint64_t>()(bits);
    }
    case ValueType::kString:
      return seed ^ std::hash<std::string>()(strings_[i]);
    default:  // int arrays, which render by content
      return seed ^ std::hash<std::string>()(GetValue(i).ToString());
  }
}

Status Column::Widen(ValueType to) {
  if (to == type_) return Status::OK();
  if (type_ == ValueType::kInt64 && to == ValueType::kDouble) {
    doubles_.reserve(ints_.size());
    for (int64_t v : ints_) doubles_.push_back(static_cast<double>(v));
    ints_.clear();
    ints_.shrink_to_fit();
    type_ = to;
    return Status::OK();
  }
  if ((type_ == ValueType::kInt64 || type_ == ValueType::kDouble) &&
      to == ValueType::kString) {
    strings_.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      strings_.push_back(type_ == ValueType::kInt64
                             ? std::to_string(ints_[i])
                             : std::to_string(doubles_[i]));
    }
    ints_.clear();
    ints_.shrink_to_fit();
    doubles_.clear();
    doubles_.shrink_to_fit();
    type_ = to;
    return Status::OK();
  }
  return Status::NotSupported("unsupported column widening");
}

uint64_t Column::StorageBytes() const {
  uint64_t bytes = 0;
  switch (type_) {
    case ValueType::kInt64:
      bytes = ints_.size() * 8;
      break;
    case ValueType::kDouble:
      bytes = doubles_.size() * 8;
      break;
    case ValueType::kString:
      for (const auto& s : strings_) bytes += s.size() + 4;
      break;
    case ValueType::kIntArray:
      for (const auto& a : arrays_) {
        bytes += a.set ? a.set->SizeBytes() + 16 : a.plain.size() * 8 + 16;
      }
      break;
    case ValueType::kNull:
      break;
  }
  bytes += valid_.size();
  return bytes;
}

size_t KeyColumns::Hash(size_t row) const {
  size_t h = 0;
  for (const Column* col : cols) h = (h * 0x100000001B3ULL) ^ col->KeyHash(row);
  return h;
}

bool KeyColumns::Equals(size_t row, const KeyColumns& other,
                        size_t other_row) const {
  for (size_t k = 0; k < cols.size(); ++k) {
    if (!cols[k]->KeyEquals(row, *other.cols[k], other_row)) return false;
  }
  return true;
}

KeySet::KeySet(const std::vector<KeyColumns>& keys, size_t max_rows)
    : keys_(keys) {
  size_t size = 16;  // at most half full, so probes stay short
  for (; size < 2 * max_rows; size *= 2) --shift_;
  slots_.resize(size);
}

std::optional<std::pair<uint32_t, uint32_t>> KeySet::Find(uint32_t table,
                                                          uint32_t row,
                                                          bool add) {
  // Fibonacci hashing spreads the keys' weak low bits over the slots.
  const size_t mask = slots_.size() - 1;
  size_t i = (keys_[table].Hash(row) * 0x9E3779B97F4A7C15ULL) >> shift_;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const auto in = std::make_pair(static_cast<uint32_t>((slots_[i] - 1) >> 32),
                                   static_cast<uint32_t>(slots_[i] - 1));
    if (keys_[in.first].Equals(in.second, keys_[table], row)) return in;
  }
  if (add) slots_[i] = (uint64_t{table} << 32 | row) + 1;
  return std::nullopt;
}

}  // namespace orpheus::minidb
