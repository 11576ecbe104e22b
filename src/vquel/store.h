#ifndef ORPHEUS_VQUEL_STORE_H_
#define ORPHEUS_VQUEL_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "minidb/value.h"

namespace orpheus::vquel {

using minidb::Value;

/// The conceptual data model of Fig. 6.1 that VQuel queries run against:
/// versions containing relations containing records, a version graph, and
/// optional record-level provenance. This model is deliberately independent
/// of the physical CVD representation (Chapter 6 removes the SQL/relational
/// assumption).
class VersionStore {
 public:
  struct Record {
    int64_t id = -1;  // globally unique across the store
    std::map<std::string, Value> fields;
    std::vector<int64_t> parents;  // record-level provenance (Sec. 6.3.5)
  };

  struct Relation {
    std::string name;
    bool changed = false;  // derived: differs from the parent version's copy
    std::vector<Record> tuples;
  };

  struct Version {
    std::string commit_id;
    std::string commit_msg;
    double creation_ts = 0.0;
    std::string author_name;
    std::string author_email;
    std::vector<int> parents;   // version indices
    std::vector<int> children;  // filled by AddVersion
    std::vector<Relation> relations;
  };

  /// Append a version; parents must already exist. `changed` flags are
  /// derived automatically against the first parent. Returns the index.
  int AddVersion(Version version);

  int num_versions() const { return static_cast<int>(versions_.size()); }
  const Version& version(int v) const { return versions_[v]; }

  /// Index of the version with this commit id, or -1.
  int FindVersion(const std::string& commit_id) const;

  /// Record lookup by global id (for provenance walks); nullptr if absent.
  /// Returns the first occurrence (records are immutable, so any is fine).
  const Record* FindRecord(int64_t id) const;

  /// Ancestors within `hops` (-1 = unbounded), excluding v (VQuel's P()).
  std::vector<int> Ancestors(int v, int hops = -1) const;
  /// Descendants (VQuel's D()).
  std::vector<int> Descendants(int v, int hops = -1) const;
  /// Undirected neighborhood within `hops` (VQuel's N()).
  std::vector<int> Neighborhood(int v, int hops) const;

 private:
  std::vector<Version> versions_;
  std::map<int64_t, std::pair<int, int>> record_index_;  // id -> (v, rel)
};

}  // namespace orpheus::vquel

#endif  // ORPHEUS_VQUEL_STORE_H_
