#include "provenance/explanation.h"

#include <algorithm>
#include <set>
#include <vector>

namespace orpheus::provenance {

const char* OperationName(Operation op) {
  switch (op) {
    case Operation::kIdentity: return "identity";
    case Operation::kProjection: return "projection";
    case Operation::kColumnAddition: return "column-addition";
    case Operation::kSelection: return "selection";
    case Operation::kAppend: return "append";
    case Operation::kUpdate: return "update";
    case Operation::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

using minidb::Column;
using minidb::KeyColumns;
using minidb::Table;
using minidb::ValueType;

// Columns `cols` of `t` as a typed key. A column whose counterpart in
// `other_cols` of `other` has a more general type (int < double < string)
// is widened to it once, whole (Column::Widen, into `widened`, which must
// not reallocate), so int 7 matches double 7.0; NULL stays NULL.
KeyColumns CommonKey(const Table& t, const std::vector<int>& cols,
                     const Table& other, const std::vector<int>& other_cols,
                     std::vector<Column>* widened) {
  KeyColumns key;
  for (size_t i = 0; i < cols.size(); ++i) {
    const Column* col = &t.column(cols[i]);
    const ValueType from = col->type();
    const ValueType to = other.column(other_cols[i]).type();
    if ((from == ValueType::kInt64 && to == ValueType::kDouble) ||
        (from != ValueType::kString && to == ValueType::kString)) {
      Column& wide = widened->emplace_back(*col);
      if (wide.Widen(to).ok()) col = &wide;
    }
    key.cols.push_back(col);
  }
  return key;
}

}  // namespace

Explanation ExplainDerivation(const minidb::Table& parent,
                              const minidb::Table& child,
                              const std::string& key_column) {
  Explanation ex;

  // Schema comparison.
  std::set<std::string> pcols;
  std::set<std::string> ccols;
  for (const auto& def : parent.schema().columns()) pcols.insert(def.name);
  for (const auto& def : child.schema().columns()) ccols.insert(def.name);
  for (const auto& c : ccols) {
    if (!pcols.count(c)) ex.columns_added.push_back(c);
  }
  for (const auto& c : pcols) {
    if (!ccols.count(c)) ex.columns_removed.push_back(c);
  }

  // Common columns, in child order, mapped to positions in both tables.
  std::vector<int> p_common;
  std::vector<int> c_common;
  for (const auto& def : child.schema().columns()) {
    int pc = parent.schema().FindColumn(def.name);
    if (pc >= 0) {
      p_common.push_back(pc);
      c_common.push_back(child.schema().FindColumn(def.name));
    }
  }

  // Row comparison over the common columns, typed: NULL equals only NULL
  // and doubles compare exactly. Each distinct parent row counts its
  // copies at its first row.
  std::vector<Column> widened;
  widened.reserve(p_common.size() + 1);  // one per compared pair at most
  const std::vector<KeyColumns> rows = {
      CommonKey(parent, p_common, child, c_common, &widened),
      CommonKey(child, c_common, parent, p_common, &widened)};
  minidb::KeySet row_set(rows, parent.num_rows());
  std::vector<int> copies(parent.num_rows(), 0);
  for (uint32_t r = 0; r < parent.num_rows(); ++r) {
    const auto first = row_set.Find(0, r, true);
    ++copies[first ? first->second : r];
  }
  int common_rows = 0;
  for (uint32_t r = 0; r < child.num_rows(); ++r) {
    const auto match = row_set.Find(1, r, false);
    if (match && copies[match->second] > 0) {
      --copies[match->second];
      ++common_rows;
    } else {
      ++ex.rows_added;
    }
  }
  ex.rows_removed = static_cast<int>(parent.num_rows()) - common_rows;

  // Update detection on the key column: a child row matching no parent
  // row whose key some parent row has.
  if (!key_column.empty()) {
    const int pk = parent.schema().FindColumn(key_column);
    const int ck = child.schema().FindColumn(key_column);
    if (pk >= 0 && ck >= 0) {
      const std::vector<KeyColumns> keys = {
          CommonKey(parent, {pk}, child, {ck}, &widened),
          CommonKey(child, {ck}, parent, {pk}, &widened)};
      minidb::KeySet parent_keys(keys, parent.num_rows());
      for (uint32_t r = 0; r < parent.num_rows(); ++r) {
        parent_keys.Has(0, r, true);
      }
      for (uint32_t r = 0; r < child.num_rows(); ++r) {
        if (row_set.Find(1, r, false)) continue;
        if (parent_keys.Has(1, r, false)) ++ex.rows_modified;
      }
    }
  }

  // Classify. Row-preserving schema changes first (Sec. 8.5's emphasis).
  const bool rows_preserved = ex.rows_added == 0 && ex.rows_removed == 0;
  const bool cols_same = ex.columns_added.empty() && ex.columns_removed.empty();
  const double total_rows =
      std::max<double>(1.0, std::max(parent.num_rows(), child.num_rows()));

  if (rows_preserved && cols_same) {
    ex.op = Operation::kIdentity;
    ex.confidence = 1.0;
  } else if (rows_preserved && !ex.columns_removed.empty() &&
             ex.columns_added.empty()) {
    ex.op = Operation::kProjection;
    ex.confidence = 1.0;
  } else if (rows_preserved && !ex.columns_added.empty() &&
             ex.columns_removed.empty()) {
    ex.op = Operation::kColumnAddition;
    ex.confidence = 1.0;
  } else if (cols_same && ex.rows_modified > 0 &&
             ex.rows_modified >= ex.rows_added - ex.rows_modified &&
             ex.rows_modified >= ex.rows_removed - ex.rows_modified) {
    ex.op = Operation::kUpdate;
    ex.confidence = 1.0 - static_cast<double>(std::max(
                              ex.rows_added - ex.rows_modified,
                              ex.rows_removed - ex.rows_modified)) /
                              total_rows;
  } else if (cols_same && ex.rows_added == 0 && ex.rows_removed > 0) {
    ex.op = Operation::kSelection;
    ex.confidence = 1.0;
  } else if (cols_same && ex.rows_removed == 0 && ex.rows_added > 0) {
    ex.op = Operation::kAppend;
    ex.confidence = 1.0;
  } else {
    ex.op = Operation::kUnknown;
    ex.confidence = 0.0;
  }
  return ex;
}

}  // namespace orpheus::provenance
