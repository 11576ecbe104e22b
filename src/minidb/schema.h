#ifndef ORPHEUS_MINIDB_SCHEMA_H_
#define ORPHEUS_MINIDB_SCHEMA_H_

#include <string>
#include <vector>

#include "minidb/value.h"

namespace orpheus::minidb {

/// A named, typed column.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;

  bool operator==(const ColumnDef& o) const {
    return name == o.name && type == o.type;
  }
};

/// An ordered list of columns. Schemas are value types; copying is cheap
/// relative to table data.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> cols) : cols_(std::move(cols)) {}

  size_t num_columns() const { return cols_.size(); }
  const ColumnDef& column(size_t i) const { return cols_[i]; }
  const std::vector<ColumnDef>& columns() const { return cols_; }

  /// Index of the column named `name`, or -1 if absent.
  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Where each of this schema's columns sits in `other`, when the two hold
  /// the same named, typed columns in any order; empty when they differ in
  /// anything else (a column added, dropped, renamed, retyped or repeated).
  std::vector<int> ColumnOrderIn(const Schema& other) const {
    if (cols_.empty() || cols_.size() != other.num_columns()) return {};
    std::vector<int> order;
    std::vector<bool> taken(cols_.size(), false);
    for (const ColumnDef& col : cols_) {
      const int at = other.FindColumn(col.name);
      if (at < 0 || taken[at] || !(other.column(at) == col)) return {};
      taken[at] = true;
      order.push_back(at);
    }
    return order;
  }

  void AddColumn(ColumnDef col) { cols_.push_back(std::move(col)); }

  void SetColumnType(size_t i, ValueType type) { cols_[i].type = type; }

  bool operator==(const Schema& o) const { return cols_ == o.cols_; }

  std::string ToString() const {
    std::string out = "(";
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (i) out += ", ";
      out += cols_[i].name;
      out += " ";
      out += ValueTypeName(cols_[i].type);
    }
    out += ")";
    return out;
  }

 private:
  std::vector<ColumnDef> cols_;
};

}  // namespace orpheus::minidb

#endif  // ORPHEUS_MINIDB_SCHEMA_H_
