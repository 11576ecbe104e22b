// Shared pieces of the end-to-end benchmark: workload table, history import,
// the served repository fixture, remote client loops, checksums, counters and
// span recording. main.cc runs the untraced end-to-end measurement; traced.cc
// runs the per-layer replay.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "benchdata/generator.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/cvd.h"
#include "minidb/table.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/repository.h"

namespace perfbench {

using orpheus::Result;
using orpheus::Status;
using orpheus::benchdata::VersionedDataset;
using orpheus::core::VersionId;

inline constexpr const char* kCvdName = "data";

/// One workload: the generated history and the client mix that drives it.
struct WorkloadSpec {
  const char* name;
  bool curated;  // CUR DAG with merges, else SCI tree
  int versions;  // V
  int branches;  // B
  int ops;       // I
  int readers;   // clients checking out imported versions, no commits
  bool pair_reads;  // readers check out two versions (-v a,b) per call
  int writers;   // clients running the edit loop beside the readers
  /// One writer commits alone after the read phase (sci-read only), so the
  /// commit metrics exist without disturbing the measured reads.
  bool trailing_writer;
};

const WorkloadSpec* FindWorkload(std::string_view name);
orpheus::benchdata::GeneratorConfig ConfigFor(const WorkloadSpec& spec,
                                              uint64_t seed);

// ---------------------------------------------------------------------------
// Statistics and host measurements
// ---------------------------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
/// Operations per second from their completion times `done_s`: the median
/// rate over spans of consecutive operations, about a second each (as many
/// spans as `window_s` has whole seconds). Falls back to the count ÷
/// `window_s` when there are too few operations for two spans.
double MedianRate(std::vector<double> done_s, double window_s);
/// The highest of p50/p90/p99/p99.9 that has at least ten samples above it.
double ReadablePercentile(size_t n);

/// VmHWM of this process in KiB (0 if /proc is unreadable).
int64_t PeakRssKb();

/// Restrict this thread, and every thread it starts later, to the last
/// `count` CPUs it may run on. Returns the CPUs chosen, ascending; empty if
/// the affinity could not be read or set.
std::vector<int> PinToLastCpus(int count);

/// CPU time and minor page faults of this process so far.
struct ProcessUsage {
  double cpu_s = 0;  // user + system
  int64_t minor_faults = 0;

  static ProcessUsage Now();
  ProcessUsage operator-(const ProcessUsage& earlier) const {
    return {cpu_s - earlier.cpu_s, minor_faults - earlier.minor_faults};
  }
};

/// Wall time of a fixed CPU-only loop: a host-speed diagnostic.
double HostProbeMs();

// ---------------------------------------------------------------------------
// History import and table helpers
// ---------------------------------------------------------------------------

/// Import every generated version into a fresh in-memory CVD (primary key
/// a0): version 1 through Cvd::Init, the rest through CommitTable with the
/// generator's parents. Records shared with a parent are shipped with their
/// CVD rid, so the CVD stores each distinct record of the versions once;
/// their number goes to `*distinct_records`.
Result<std::unique_ptr<orpheus::core::Cvd>> ImportHistory(
    const VersionedDataset& ds, int64_t* distinct_records = nullptr);

/// Order-independent checksum of a table's data attributes (`_rid` is
/// skipped): sum of per-row hashes.
uint64_t TableChecksum(const orpheus::minidb::Table& table);

/// The checksum a checkout of `vids` must have, computed from the generator
/// alone: records of the first version, then records of later versions
/// whose primary key is not yet present (precedence merge).
uint64_t OracleChecksum(const VersionedDataset& ds,
                        const std::vector<VersionId>& vids);

/// The version writers start from: the tip (a version without children)
/// whose record count is nearest the median version's. The last version's
/// size varies by about 10% between seeds; the edited tables should have the
/// history's typical size instead. Later writer iterations check out the
/// latest version, which descends from this one and has its row count.
VersionId WriterStartVersion(const VersionedDataset& ds);

/// The edit a writer makes: rewrite one attribute on ~1% of the rows whose
/// primary key it owns (pk mod `owners` == `owner`). Deterministic in
/// (seed, owner, iteration) and the table's contents. Returns rows edited.
int EditOwnedRows(orpheus::minidb::Table* table, int owner, int owners,
                  uint64_t seed, int iteration);

/// The version lists reader `reader` checks out, drawn uniformly from the
/// imported history with a seed of its own: the read sequence does not
/// depend on timing.
class ReadSequence {
 public:
  ReadSequence(const WorkloadSpec& spec, uint64_t seed, int reader);
  std::vector<VersionId> Next();

 private:
  int versions_;
  bool pairs_;
  orpheus::Xorshift rng_;
};

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

/// Removes its directory tree on destruction (error paths included).
class ScopedDir {
 public:
  explicit ScopedDir(std::string path);
  ~ScopedDir();
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Bytes of the snapshot and WAL files in a repository directory.
uint64_t RepoBytes(const std::string& dir);
Status CopyDir(const std::string& from, const std::string& to);

// ---------------------------------------------------------------------------
// The served repository
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0;       // empty directory -> server accepting
  double import_s = 0;      // Cvd::Init + CommitTable loop
  double checkpoint_s = 0;  // first Repository::Checkpoint
};

/// A durable repository holding the imported history, served over a unix
/// socket by an in-process SessionServer.
class ServedRepo {
 public:
  static Result<std::unique_ptr<ServedRepo>> SetUp(const VersionedDataset& ds,
                                                   const std::string& dir,
                                                   const std::string& socket,
                                                   SetupTimes* times);
  /// Stops the server and drops the repository WITHOUT Close, so the WAL
  /// keeps every commit of the run (as after a crash).
  ~ServedRepo();
  ServedRepo(const ServedRepo&) = delete;
  ServedRepo& operator=(const ServedRepo&) = delete;

  void Shutdown();
  const std::string& dir() const { return dir_; }
  const std::string& address() const { return address_; }
  /// User records the import stored (distinct across all versions).
  int64_t distinct_records() const { return distinct_records_; }

 private:
  ServedRepo() = default;
  std::string dir_;
  int64_t distinct_records_ = 0;
  std::string address_;
  std::unique_ptr<orpheus::storage::Repository> repo_;
  std::unique_ptr<orpheus::net::SessionServer> server_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span log of the traced run: one span per call the benchmark
/// makes into a layer. Written out once, at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = none
    int64_t op = 0;
    double duration_ms() const { return end_ms - start_ms; }
  };
  /// Milliseconds since the log was created.
  double Now() const { return epoch_.ElapsedMillis(); }
  int64_t Record(std::string name, double start_ms, double end_ms,
                 int64_t parent, int64_t op);
  /// Per span name: count, median duration and median self time (duration
  /// minus the durations of the spans that name it as parent).
  std::string Summary() const;
  Status WriteJsonl(const std::string& path) const;

 private:
  orpheus::Timer epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Remote clients
// ---------------------------------------------------------------------------

Result<std::unique_ptr<orpheus::net::Client>> ConnectClient(
    const std::string& address, const std::string& uuid);

/// One pass of the writer loop: refresh -> check out `base`, or the latest
/// durable version when `base` is 0 -> edit owned rows -> commit.
struct WriterStep {
  double refresh_ms = 0;
  double checkout_ms = 0;
  double commit_ms = 0;
  double checkout_start_ms = 0;  // on the caller's clock
  double commit_start_ms = 0;
  bool reconciled = false;
  size_t conflicts = 0;
  VersionId vid = 0;
  VersionId merged_vid = 0;
  uint64_t shipped_checksum = 0;
};
Status RunWriterStep(orpheus::net::Client* client, uint64_t sid,
                     VersionId base, int owner, int owners, uint64_t seed,
                     int iteration,
                     const orpheus::Timer& clock, WriterStep* step);

/// Registry counter values, for before/after deltas.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  uint64_t Get(std::string_view name) const;
  /// this - earlier, for one counter.
  int64_t Delta(const CounterSnapshot& earlier, std::string_view name) const;

 private:
  std::map<std::string, uint64_t, std::less<>> values_;
};

// ---------------------------------------------------------------------------
// Report, gates and recovery
// ---------------------------------------------------------------------------

/// Metrics by name with their units, plus the operation and gate tally the
/// result line carries.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A correctness gate: counts as one attempted operation, and as a
  /// failed one when `ok` is false.
  void Gate(const std::string& name, bool ok, const std::string& detail);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return gates_failed_ == 0 && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// One "name value unit" line per metric.
  std::string Text() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t gates_failed_ = 0;
};

/// What the clients were told: the versions the repository must hold.
struct Ledger {
  int imported = 0;
  int64_t commits = 0;
  int64_t merges = 0;
  /// (version, checksum of the table shipped for it), checked after reopen.
  std::vector<std::pair<VersionId, uint64_t>> shipped;
  int64_t expected_versions() const { return imported + commits + merges; }
};

struct RecoveryResult {
  int64_t replayed_records = 0;  // WAL records replayed by the reopen
  double storage_bytes_per_user_byte = 0;  // of the reopened CVD
};

/// Runs after the server is gone and the repository was dropped without
/// Close: Fsck the directory, then reopen a copy of it (under `scratch`,
/// removed afterwards) and gate the ledger and the shipped tables on it.
Status Recover(const std::string& dir, const std::string& scratch,
               const Ledger& ledger, int num_attributes, Report* report,
               RecoveryResult* out);

/// Seconds of Repository::Open + TakeCvds on each of `reopens` fresh copies
/// of repository directory `dir`. With `checkpoint_first`, `dir` is first
/// copied, opened and closed (Close checkpoints), so the timed copies have
/// an empty WAL.
Result<std::vector<double>> TimeReopens(const std::string& dir,
                                        const std::string& scratch,
                                        int reopens, bool checkpoint_first);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
