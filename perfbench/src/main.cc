// End-to-end benchmark of orpheusd: remote checkout and commit latency,
// throughput, set-up, recovery, storage and memory on one generated history.
//
//   orpheus_perfbench --workload <sci-read|sci-edit|cur-mixed> --seed <n>
//                     --seconds <s> --trace <0|1> --work-dir <dir>
//                     [--out-dir <dir>]
//
// One run imports the seeded history into a durable repository under
// --work-dir (set-up, repeated and timed), serves it with an in-process
// SessionServer over a unix socket, and drives it with closed-loop
// net::Client threads. --trace 0 measures the end-to-end metrics with no
// span recording; --trace 1 replays a fixed sample of the workload's
// operations layer by layer instead (traced.cc). Both finish with the
// correctness gates and the recovery measurements, print every metric by
// name with its unit, and end with one JSON result line. The exit code is
// non-zero when any gate or operation failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/traced.h"

namespace perfbench {
namespace {

using orpheus::DedicatedThread;
using orpheus::StrFormat;
using orpheus::ThreadPool;
using orpheus::Timer;

constexpr int kSetups = 5;          // set-ups per run; setup_s is their median
constexpr int kReopens = 21;        // recovery_s is the median of these
// The metrics that depend on how much a run wrote are read when the run's
// kSnapshotAtCommit'th commit is acknowledged, not at its end: how many
// commits fit into --seconds depends on the host's speed.
constexpr int64_t kSnapshotAtCommit = 100;
constexpr double kWarmupSeconds = 1.0;
constexpr int kTrailingWarmup = 10;  // sci-read commits left out of the stats
// sci-read spends this share of --seconds on reads, the rest on commits.
constexpr double kReadShare = 0.5;
constexpr int kGateSamples = 8;      // remote checkouts checked against oracle

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// What one client thread saw.
struct ClientLog {
  std::vector<double> checkout_ms;  // measured checkouts
  std::vector<double> commit_ms;    // measured commits
  // When each measured operation completed, in seconds since its phase began.
  std::vector<double> checkout_done_s;
  std::vector<double> commit_done_s;
  int64_t commits_reconciled = 0;   // among the measured commits
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t conflicts = 0;
  uint64_t retries = 0;
  int64_t commits = 0;  // every acknowledged commit (ledger)
  int64_t merges = 0;   // reconciliation merge versions (ledger)
  VersionId last_vid = 0;
  uint64_t last_checksum = 0;
  std::string error;

  void Fail(const Status& s) {
    ++failed;
    if (error.empty()) error = s.ToString();
  }
};

/// Shared by the client threads of one end-to-end run.
struct RunState {
  Timer clock;  // the clock every client stamps its operations with
  std::atomic<double> measure_start_s{0};  // on clock, when kMeasure began
  std::atomic<int> phase{kWarmup};
  std::atomic<int> ready{0};
  std::atomic<int64_t> acked{0};
  std::string repo_dir;
  std::string crash_image_dir;
  int64_t user_records_base = 0;  // distinct records after import
  uint64_t records_new_base = 0;  // cvd.commit.records_new after set-up
  int num_attributes = 0;
  // Taken by whichever writer receives the kSnapshotAtCommit'th ack.
  double repo_bytes_per_user_byte = 0;
  int64_t peak_rss_kb = 0;
  Status crash_image;

  void OnAck() {
    if (acked.fetch_add(1) + 1 != kSnapshotAtCommit) return;
    const uint64_t records_new =
        CounterSnapshot::Take().Get("cvd.commit.records_new");
    const double user_bytes =
        static_cast<double>(user_records_base +
                            static_cast<int64_t>(records_new -
                                                 records_new_base)) *
        num_attributes * 8.0;
    repo_bytes_per_user_byte =
        static_cast<double>(RepoBytes(repo_dir)) / user_bytes;
    peak_rss_kb = PeakRssKb();
    // The directory as a crash at this instant would leave it: every
    // acknowledged commit is in the WAL (another writer's batch may be
    // half-written, which recovery truncates).
    crash_image = CopyDir(repo_dir, crash_image_dir);
  }
};

/// `start_s` is when the step's measured phase began, on the run's clock.
void RecordWriterStep(const WriterStep& step, bool measured,
                      bool gated_checkouts, double start_s, ClientLog* log) {
  ++log->commits;
  if (step.merged_vid != 0) ++log->merges;
  log->conflicts += step.conflicts;
  log->last_vid = step.vid;
  log->last_checksum = step.shipped_checksum;
  if (!measured) return;
  if (gated_checkouts) {
    log->checkout_ms.push_back(step.checkout_ms);
    log->checkout_done_s.push_back(
        (step.checkout_start_ms + step.checkout_ms) / 1e3 - start_s);
  }
  log->commit_ms.push_back(step.commit_ms);
  log->commit_done_s.push_back((step.commit_start_ms + step.commit_ms) / 1e3 -
                               start_s);
  if (step.reconciled) ++log->commits_reconciled;
}

/// Closed-loop reader: checkouts of its own seeded version sequence.
void ReaderLoop(const WorkloadSpec& spec, uint64_t seed, int reader,
                const std::string& address, RunState* state, ClientLog* log) {
  auto connected = ConnectClient(address, StrFormat("reader-%d", reader));
  Result<orpheus::net::Client::OpenResult> opened =
      Status::Unavailable("not connected");
  if (connected.ok()) opened = (*connected)->Open(kCvdName);
  state->ready.fetch_add(1);
  if (!opened.ok()) {
    log->Fail(opened.status());
    return;
  }
  orpheus::net::Client* client = connected->get();
  ReadSequence reads(spec, seed, reader);
  while (state->phase.load() != kStop) {
    const bool measured = state->phase.load() == kMeasure;
    const std::vector<VersionId> vids = reads.Next();
    Timer timer;
    auto table = client->Checkout(opened->sid, vids, "read");
    const double ms = timer.ElapsedMillis();
    ++log->attempted;
    if (!table.ok()) {
      log->Fail(table.status());
      continue;
    }
    if (measured) {
      log->checkout_ms.push_back(ms);
      log->checkout_done_s.push_back(state->clock.ElapsedSeconds() -
                                     state->measure_start_s.load());
    }
  }
  log->retries = client->stats().retries;
}

/// Closed-loop writer: refresh -> checkout latest -> edit -> commit.
void WriterLoop(uint64_t seed, VersionId start, int owner, int owners,
                bool gated_checkouts, const std::string& address,
                RunState* state, ClientLog* log) {
  auto connected = ConnectClient(address, StrFormat("writer-%d", owner));
  Result<orpheus::net::Client::OpenResult> opened =
      Status::Unavailable("not connected");
  if (connected.ok()) opened = (*connected)->Open(kCvdName);
  state->ready.fetch_add(1);
  if (!opened.ok()) {
    log->Fail(opened.status());
    return;
  }
  orpheus::net::Client* client = connected->get();
  for (int it = 0; state->phase.load() != kStop; ++it) {
    const bool measured = state->phase.load() == kMeasure;
    WriterStep step;
    Status s = RunWriterStep(client, opened->sid, it == 0 ? start : 0, owner,
                             owners, seed, it, state->clock, &step);
    log->attempted += 3;
    if (!s.ok()) {
      log->Fail(s);
      continue;
    }
    RecordWriterStep(step, measured, gated_checkouts,
                     state->measure_start_s.load(), log);
    state->OnAck();
  }
  log->retries = client->stats().retries;
}

/// sci-read's commit phase: one writer alone, after the reads. It measures
/// for `seconds`, and on until the crash image has been taken. `window_s`
/// and `usage` cover the measured commits.
void TrailingCommits(uint64_t seed, VersionId start, double seconds,
                     const std::string& address, RunState* state,
                     ClientLog* log, double* window_s, ProcessUsage* usage) {
  auto connected = ConnectClient(address, "trailing-writer");
  if (!connected.ok()) {
    log->Fail(connected.status());
    return;
  }
  orpheus::net::Client* client = connected->get();
  auto opened = client->Open(kCvdName);
  if (!opened.ok()) {
    log->Fail(opened.status());
    return;
  }
  double start_s = 0;
  ProcessUsage before;
  for (int it = 0;; ++it) {
    if (it == kTrailingWarmup) {
      start_s = state->clock.ElapsedSeconds();
      before = ProcessUsage::Now();
    }
    if (it > kTrailingWarmup &&
        state->clock.ElapsedSeconds() - start_s >= seconds &&
        state->acked.load() >= kSnapshotAtCommit) {
      break;
    }
    WriterStep step;
    Status s = RunWriterStep(client, opened->sid, it == 0 ? start : 0, 0, 1,
                             seed, it, state->clock, &step);
    log->attempted += 3;
    if (!s.ok()) {
      log->Fail(s);
      if (it >= kTrailingWarmup + kSnapshotAtCommit) break;
      continue;
    }
    RecordWriterStep(step, it >= kTrailingWarmup, /*gated_checkouts=*/false,
                     start_s, log);
    state->OnAck();
  }
  *window_s = state->clock.ElapsedSeconds() - start_s;
  *usage = ProcessUsage::Now() - before;
  log->retries = client->stats().retries;
}

/// Remote checkouts of imported versions against the generator's oracle.
void GateCheckouts(const WorkloadSpec& spec, const VersionedDataset& ds,
                   uint64_t seed, const std::string& address, Report* report) {
  int mismatched = 0;
  std::string error;
  auto connected = ConnectClient(address, "gate");
  if (connected.ok()) {
    auto opened = (*connected)->Open(kCvdName);
    ReadSequence reads(spec, seed, /*reader=*/1000);
    for (int i = 0; opened.ok() && i < kGateSamples; ++i) {
      const std::vector<VersionId> vids = reads.Next();
      auto table = (*connected)->Checkout(opened->sid, vids, "gate");
      if (!table.ok() || TableChecksum(*table) != OracleChecksum(ds, vids)) {
        ++mismatched;
      }
    }
    if (!opened.ok()) error = opened.status().ToString();
  } else {
    error = connected.status().ToString();
  }
  report->Gate("remote_checkout_checksums", error.empty() && mismatched == 0,
               error.empty() ? StrFormat("%d checked, %d mismatched",
                                         kGateSamples, mismatched)
                             : error);
}

/// Sample count, p50, p90 and the highest readable percentile, then the p50
/// of each tenth of the samples in time order (drift within the run).
void PrintLatency(const char* what, const std::vector<double>& ms) {
  const double q = ReadablePercentile(ms.size());
  std::printf("%-22s n=%-6zu p50=%8.3f ms  p90=%8.3f ms  p%g=%8.3f ms\n",
              what, ms.size(), Percentile(ms, 0.5), Percentile(ms, 0.9),
              q * 100, Percentile(ms, q));
  if (ms.size() < 10) return;
  std::printf("%-22s p50 by tenth:", what);
  for (size_t t = 0; t < 10; ++t) {
    std::printf(" %.2f", Median(std::vector<double>(
                             ms.begin() + ms.size() * t / 10,
                             ms.begin() + ms.size() * (t + 1) / 10)));
  }
  std::printf("\n");
}

Status RunEndToEnd(const WorkloadSpec& spec, const VersionedDataset& ds,
                   const Args& args, ServedRepo* served, Ledger* ledger,
                   Report* report) {
  RunState state;
  state.repo_dir = served->dir();
  state.crash_image_dir = args.work_dir + "/crash-image";
  state.user_records_base = served->distinct_records();
  state.records_new_base =
      CounterSnapshot::Take().Get("cvd.commit.records_new");
  state.num_attributes = ds.num_attributes();

  const VersionId start = WriterStartVersion(ds);
  const int clients = spec.readers + spec.writers;
  const double read_s =
      spec.trailing_writer ? args.seconds * kReadShare : args.seconds;
  std::vector<ClientLog> logs(clients);
  double window_s = 0;
  ProcessUsage read_usage;  // of the whole process in the measured window
  {
    std::vector<DedicatedThread> threads;
    for (int r = 0; r < spec.readers; ++r) {
      threads.emplace_back(StrFormat("reader-%d", r), [&, r] {
        ReaderLoop(spec, args.seed, r, served->address(), &state, &logs[r]);
      });
    }
    for (int w = 0; w < spec.writers; ++w) {
      ClientLog* log = &logs[spec.readers + w];
      const bool gated_checkouts = spec.readers == 0;
      threads.emplace_back(
          StrFormat("writer-%d", w), [&, w, log, gated_checkouts] {
            WriterLoop(args.seed, start, w, spec.writers, gated_checkouts,
                       served->address(), &state, log);
          });
    }
    while (state.ready.load() < clients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kWarmupSeconds));
    const ProcessUsage before = ProcessUsage::Now();
    state.measure_start_s.store(state.clock.ElapsedSeconds());
    state.phase.store(kMeasure);
    std::this_thread::sleep_for(std::chrono::duration<double>(read_s));
    state.phase.store(kStop);
    window_s = state.clock.ElapsedSeconds() - state.measure_start_s.load();
    read_usage = ProcessUsage::Now() - before;
    for (DedicatedThread& t : threads) t.Join();
  }
  double commit_window_s = window_s;
  ProcessUsage commit_usage = read_usage;
  if (spec.trailing_writer) {
    logs.emplace_back();
    TrailingCommits(args.seed, start, args.seconds - read_s, served->address(),
                    &state, &logs.back(), &commit_window_s, &commit_usage);
  }

  std::vector<double> checkout_ms;
  std::vector<double> commit_ms;
  std::vector<double> checkout_done_s;
  std::vector<double> commit_done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t conflicts = 0;
  uint64_t retries = 0;
  int64_t reconciled = 0;
  ledger->imported = ds.num_versions();
  for (const ClientLog& log : logs) {
    checkout_ms.insert(checkout_ms.end(), log.checkout_ms.begin(),
                       log.checkout_ms.end());
    commit_ms.insert(commit_ms.end(), log.commit_ms.begin(),
                     log.commit_ms.end());
    checkout_done_s.insert(checkout_done_s.end(), log.checkout_done_s.begin(),
                           log.checkout_done_s.end());
    commit_done_s.insert(commit_done_s.end(), log.commit_done_s.begin(),
                         log.commit_done_s.end());
    attempted += log.attempted;
    failed += log.failed;
    conflicts += log.conflicts;
    retries += log.retries;
    reconciled += log.commits_reconciled;
    ledger->commits += log.commits;
    ledger->merges += log.merges;
    if (log.last_vid != 0) {
      ledger->shipped.emplace_back(log.last_vid, log.last_checksum);
    }
    if (!log.error.empty()) {
      std::printf("client error: %s\n", log.error.c_str());
    }
  }
  report->CountOps(attempted, failed);
  report->Gate("zero_merge_conflicts", conflicts == 0,
               StrFormat("%llu conflicts",
                         static_cast<unsigned long long>(conflicts)));
  report->Gate("zero_client_retries", retries == 0,
               StrFormat("%llu retries",
                         static_cast<unsigned long long>(retries)));
  report->Gate("commit_metrics_sampled", !commit_ms.empty(),
               StrFormat("%zu measured commits", commit_ms.size()));
  report->Gate("snapshot_at_commit_taken",
               state.repo_bytes_per_user_byte > 0 && state.crash_image.ok(),
               StrFormat("%lld commits acknowledged, crash image: %s",
                         static_cast<long long>(state.acked.load()),
                         state.crash_image.ToString().c_str()));
  GateCheckouts(spec, ds, args.seed, served->address(), report);

  // Where the latencies moved between runs while the CPU time per
  // operation did not, the host made the process wait.
  auto print_usage = [](const char* what, double wall_s,
                        const ProcessUsage& usage, size_t ops,
                        const char* op) {
    std::printf("%-22s %.3f s wall, %.3f s CPU, %lld minor faults; per "
                "measured %s %.3f CPU ms, %.1f faults\n",
                what, wall_s, usage.cpu_s,
                static_cast<long long>(usage.minor_faults), op,
                ops ? usage.cpu_s * 1e3 / ops : 0.0,
                ops ? static_cast<double>(usage.minor_faults) / ops : 0.0);
  };
  if (spec.writers == 0) {
    print_usage("read window", window_s, read_usage, checkout_ms.size(),
                "checkout");
  } else {
    print_usage("measured window", window_s, read_usage, commit_ms.size(),
                "commit");
  }
  if (spec.trailing_writer) {
    print_usage("commit window", commit_window_s, commit_usage,
                commit_ms.size(), "commit");
  }
  PrintLatency("checkout", checkout_ms);
  PrintLatency("commit", commit_ms);
  std::printf("reconciled commits     %lld of %zu measured\n",
              static_cast<long long>(reconciled), commit_ms.size());
  std::printf("failed_ops_share       %.6f (%llu of %llu)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  served->Shutdown();
  RecoveryResult recovery;
  ORPHEUS_RETURN_NOT_OK(Recover(served->dir(), args.work_dir, *ledger,
                                ds.num_attributes(), report, &recovery));
  std::vector<double> recovery_s;
  if (state.crash_image.ok() && state.peak_rss_kb > 0) {
    ORPHEUS_ASSIGN_OR_RETURN(
        recovery_s, TimeReopens(state.crash_image_dir, args.work_dir, kReopens,
                                /*checkpoint_first=*/false));
  }

  report->Set("checkout_p50_ms", Percentile(checkout_ms, 0.5), "ms");
  report->Set("commit_p50_ms", Percentile(commit_ms, 0.5), "ms");
  report->Set("checkouts_per_s", MedianRate(checkout_done_s, window_s), "1/s");
  report->Set("commits_per_s", MedianRate(commit_done_s, commit_window_s),
              "1/s");
  report->Set("recovery_s", Median(recovery_s), "s");
  report->Set("repo_bytes_per_user_byte", state.repo_bytes_per_user_byte,
              "B/B");
  report->Set("peak_rss_mb", state.peak_rss_kb / 1024.0, "MB");
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0 && !args->work_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <sci-read|sci-edit|cur-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  // Keep freed memory in the process instead of handing it back to the
  // kernel. The set-ups and reopens allocate and free hundreds of MB; on a
  // guest whose freed pages go back to the host, touching them again costs
  // host page faults whose price varies with the host's load.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  // One CPU per client, before any thread starts. Each closed-loop client and
  // the server thread answering it take turns, so they need one CPU between
  // them; spread over more, every hand-off wakes an idle virtual CPU, whose
  // delay on a shared host varied the latencies by 20-30% from run to run.
  const int clients = std::max(1, spec.readers + spec.writers);
  const std::vector<int> cpus = PinToLastCpus(clients);
  ThreadPool::Global().SetDegree(cpus.empty() ? clients
                                              : static_cast<int>(cpus.size()));
  std::string cpu_list;
  for (int c : cpus) {
    cpu_list += StrFormat("%s%d", cpu_list.empty() ? "" : ",", c);
  }
  if (cpus.empty()) cpu_list = "unpinned";
  ScopedDir work(args.work_dir);
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(HostProbeMs());

  Timer gen;
  const VersionedDataset ds =
      VersionedDataset::Generate(ConfigFor(spec, args.seed));
  const VersionId start = WriterStartVersion(ds);
  std::printf("workload %s seed %llu: %d versions, generated in %.3f s; "
              "writers start from v%d with %zu records; CPUs %s, pool "
              "degree %d\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              ds.num_versions(), gen.ElapsedSeconds(), start,
              ds.version(start - 1).records.size(), cpu_list.c_str(),
              ThreadPool::Global().degree());

  Report report;
  std::vector<double> setup_s;
  std::vector<double> import_s;
  std::vector<double> checkpoint_s;
  std::unique_ptr<ServedRepo> served;
  for (int i = 0; i < kSetups; ++i) {
    if (served != nullptr) {
      const std::string old_dir = served->dir();
      served.reset();
      std::error_code ec;
      std::filesystem::remove_all(old_dir, ec);
    }
    SetupTimes times;
    auto set_up = ServedRepo::SetUp(
        ds, StrFormat("%s/repo-%d", args.work_dir.c_str(), i),
        StrFormat("%s/s%d", args.work_dir.c_str(), i), &times);
    if (!set_up.ok()) {
      std::printf("set-up failed: %s\n", set_up.status().ToString().c_str());
      return 1;
    }
    served = set_up.MoveValueOrDie();
    setup_s.push_back(times.total_s);
    import_s.push_back(times.import_s);
    checkpoint_s.push_back(times.checkpoint_s);
  }

  Ledger ledger;
  Status run = args.trace
                   ? RunTraced(spec, ds, args, served.get(), &ledger, &report)
                   : RunEndToEnd(spec, ds, args, served.get(), &ledger,
                                 &report);
  served.reset();
  report.Gate("run_completed", run.ok(), run.ok() ? "" : run.ToString());
  for (int i = 0; i < 3; ++i) probes.push_back(HostProbeMs());

  if (args.trace) {
    report.Set("core.import_s", Median(import_s), "s");
    report.Set("storage.checkpoint_s", Median(checkpoint_s), "s");
    report.Set("host_probe_ms", Median(probes), "ms");
  } else {
    report.Set("setup_s", Median(setup_s), "s");
  }
  std::printf("setup_s per set-up:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("  (import median %.4f s, checkpoint median %.4f s)\n",
              Median(import_s), Median(checkpoint_s));
  std::printf("host_probe_ms before %.3f %.3f %.3f, after %.3f %.3f %.3f\n",
              probes[0], probes[1], probes[2], probes[3], probes[4],
              probes[5]);
  std::printf("VmHWM at exit %.1f MB\n", PeakRssKb() / 1024.0);
  std::printf("metrics (%s run):\n%s", args.trace ? "traced" : "end-to-end",
              report.Text().c_str());
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
