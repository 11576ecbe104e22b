#ifndef ORPHEUS_CORE_ONLINE_H_
#define ORPHEUS_CORE_ONLINE_H_

#include <cstdint>
#include <vector>

#include "core/lyresplit.h"
#include "core/partitioning.h"
#include "core/version_graph.h"

namespace orpheus::core {

/// Online maintenance of a LyreSplit partitioning while versions stream in
/// (Sec. 5.4). The maintainer places each new version either into the
/// partition of its best parent or into a fresh partition, tracks the
/// current (estimated) checkout cost C_avg against the best cost C*_avg
/// LyreSplit could achieve, and reports when the tolerance factor µ is
/// exceeded so the migration engine can be invoked.
class OnlineMaintainer {
 public:
  struct Options {
    double mu = 1.5;            // tolerance factor on C_avg / C*_avg
    double gamma_factor = 2.0;  // storage threshold γ = factor * |R|
    /// Recompute C*_avg via LyreSplit every `replan_every` commits (the
    /// paper notes LyreSplit is cheap enough to run after every commit;
    /// this knob merely bounds bench time).
    int replan_every = 1;
  };

  /// `graph` must outlive the maintainer and is observed as it grows.
  OnlineMaintainer(const VersionGraph* graph, const Options& options);

  /// Seed with an initial partitioning covering graph versions
  /// [0, initial_versions).
  void Bootstrap(const LyreSplitResult& initial);

  /// Observe that version `v` (== versions_seen()) was committed; place it.
  /// Returns the partition chosen (possibly a new one), and sets
  /// `migration_needed` when C_avg > µ C*_avg.
  int OnCommit(int v, bool* migration_needed);

  /// Adopt the result of a migration: the current partitioning becomes the
  /// last LyreSplit plan.
  void OnMigrated();

  int versions_seen() const { return versions_seen_; }
  const Partitioning& current() const { return current_; }
  /// Current estimated average checkout cost (records).
  double current_checkout_cost() const;
  double best_checkout_cost() const {
    return best_plan_.estimated.checkout_avg;
  }
  uint64_t current_storage() const { return storage_; }

 private:
  void Replan();

  const VersionGraph* graph_;
  Options options_;
  Partitioning current_;
  LyreSplitResult best_plan_;
  double delta_star_ = 0.5;  // δ* from the last LyreSplit invocation
  int versions_seen_ = 0;
  // Per-partition estimated record/version counts for incremental C_avg.
  std::vector<uint64_t> part_records_;
  std::vector<uint64_t> part_versions_;
  uint64_t storage_ = 0;
  uint64_t total_records_ = 0;  // |R| estimate (new records seen)
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ONLINE_H_
