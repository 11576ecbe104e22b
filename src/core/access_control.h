#ifndef ORPHEUS_CORE_ACCESS_CONTROL_H_
#define ORPHEUS_CORE_ACCESS_CONTROL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace orpheus::core {

/// The access controller of Fig. 3.1: it tracks registered users, the
/// logged-in user, and which user owns each materialized staging table —
/// "only the user who performed the checkout operation is permitted access
/// to the materialized table" (Sec. 3.3.1).
class AccessController {
 public:
  /// `create_user`: register a user name.
  Status CreateUser(const std::string& name);

  /// `config`: log in as a registered user.
  Status Login(const std::string& name);

  /// `whoami`: the current user ("" when not logged in).
  const std::string& current_user() const { return current_; }

  std::vector<std::string> Users() const {
    return {users_.begin(), users_.end()};
  }

  /// Record that the current user owns `table` (called on checkout).
  void GrantTable(const std::string& table);

  /// Verify the current user may touch `table`; owners only.
  Status CheckTableAccess(const std::string& table) const;

  /// Drop ownership bookkeeping (called when the table is committed or
  /// dropped).
  void RevokeTable(const std::string& table);

 private:
  std::set<std::string> users_;
  std::string current_;
  std::map<std::string, std::string> table_owner_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ACCESS_CONTROL_H_
