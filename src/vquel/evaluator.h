#ifndef ORPHEUS_VQUEL_EVALUATOR_H_
#define ORPHEUS_VQUEL_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "vquel/ast.h"
#include "vquel/store.h"

namespace orpheus::vquel {

/// Rows produced by a retrieve statement.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// A VQuel session over one VersionStore. Range declarations persist across
/// retrieves within a program, and `retrieve into T (...)` results become
/// queryable sets named T (used by e.g. Query 6.11).
class Session {
 public:
  explicit Session(const VersionStore* store) : store_(store) {}

  /// Parse and execute a whole program; returns one QueryResult per
  /// retrieve statement.
  Result<std::vector<QueryResult>> Execute(const std::string& program);

  /// Execute a single parsed query.
  Result<QueryResult> ExecuteQuery(const Query& query);

 private:
  const VersionStore* store_;
  std::map<std::string, QueryResult> named_results_;
};

}  // namespace orpheus::vquel

#endif  // ORPHEUS_VQUEL_EVALUATOR_H_
