#ifndef ORPHEUS_BENCHDATA_GENERATOR_H_
#define ORPHEUS_BENCHDATA_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace orpheus::benchdata {

/// Parameters of the versioning benchmark of Maddox et al. [31], as used in
/// Sec. 5.5.1 (Table 5.2). SCI simulates data scientists branching from an
/// evolving mainline (version graph is a tree); CUR simulates curators who
/// branch from a canonical dataset and periodically merge back (a DAG).
struct GeneratorConfig {
  std::string name = "SCI";
  int num_versions = 1000;        // |V|
  int num_branches = 100;         // B
  int ops_per_version = 1000;     // I: inserts/updates from parent version(s)
  int num_attributes = 20;        // data attributes per record (paper: 100)
  bool curated = false;           // false => SCI (tree), true => CUR (DAG)
  double merge_prob = 0.35;       // CUR: chance a branch step merges back
  // Op mix within a commit. The benchmark favors updates/inserts over
  // deletes (Sec. 4.2 notes "only a few deleted tuples").
  double update_frac = 0.88;
  double insert_frac = 0.07;
  double delete_frac = 0.05;
  // Base version holds base_multiplier * I records. CUR versions are ~3x
  // larger on average than SCI in Table 5.2, so CUR configs use a larger
  // multiplier.
  int base_multiplier = 10;
  uint64_t seed = 42;
};

/// One version: its parent version ids (empty for the root) and the sorted
/// list of record ids it contains.
struct VersionSpec {
  std::vector<int> parents;
  std::vector<int64_t> records;  // sorted rids
};

/// A generated versioned dataset: the version graph plus, for each version,
/// its full record membership, and a deterministic rid -> payload mapping so
/// the data table can be materialized on demand.
class VersionedDataset {
 public:
  static VersionedDataset Generate(const GeneratorConfig& config);

  const GeneratorConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }

  int num_versions() const { return static_cast<int>(versions_.size()); }
  const VersionSpec& version(int i) const { return versions_[i]; }
  const std::vector<VersionSpec>& versions() const { return versions_; }

  /// Total distinct records |R| across all versions.
  int64_t num_distinct_records() const { return next_rid_; }

  /// |E| of the version-record bipartite graph: sum of version sizes.
  uint64_t num_bipartite_edges() const;

  int num_attributes() const { return config_.num_attributes; }

  /// Primary key value of record `rid`. Updates reuse the PK of the record
  /// they replace, so within one version PKs are unique while the same PK
  /// maps to different rids across versions (paper Sec. 3.1).
  int64_t PrimaryKeyOf(int64_t rid) const { return pk_of_rid_[rid]; }

  /// Deterministic data-attribute payload for `rid`: num_attributes values,
  /// the first being the primary key.
  std::vector<int64_t> RecordPayload(int64_t rid) const;

  /// Number of records shared by versions a and b (edge weight w(a,b) of the
  /// version graph). Linear merge over the sorted membership vectors.
  int64_t CommonRecords(int a, int b) const;

 private:
  GeneratorConfig config_;
  std::vector<VersionSpec> versions_;
  std::vector<int64_t> pk_of_rid_;
  int64_t next_rid_ = 0;
  int64_t next_pk_ = 0;
};

/// The scaled-down counterparts of the Table 5.2 datasets used throughout
/// the bench harnesses. `scale` in (0, 1] shrinks I (and thus |R| and |E|)
/// linearly; scale=1.0 reproduces paper-sized inputs.
GeneratorConfig SciConfig(const std::string& name, int num_versions,
                          int num_branches, int ops_per_version,
                          uint64_t seed = 42);
GeneratorConfig CurConfig(const std::string& name, int num_versions,
                          int num_branches, int ops_per_version,
                          uint64_t seed = 42);

}  // namespace orpheus::benchdata

#endif  // ORPHEUS_BENCHDATA_GENERATOR_H_
