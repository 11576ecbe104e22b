// The traced run. Each layer is measured from outside, at its public entry
// point, on the same operations:
//
//   1. net::Client::Checkout / Commit against the served repository (the
//      end-to-end call), alternately untraced and traced, which gives the
//      tracing overhead;
//   2. Session::Checkout / Commit on a local SessionManager over a replica
//      imported from the same seed (no repository: no durability wait);
//   3. Cvd::Materialize / CommitTable on that replica, with an observer
//      capturing the commit records;
//   4. net::EncodeTable + DecodeTable of the checked-out and committed tables;
//   5. Repository::LogCommit of the captured records into a scratch
//      repository.
//
// Every call is one span (name, start, end, parent, operation id). A replayed
// call names the call it stands in for as its parent, so a span's self time
// is its duration minus the durations of the replays below it. Registry
// counters are read before and after each remote phase. The checkout phase
// makes checkouts only. The writer phase also refreshes and checks out, so
// its net bytes are corrected by the measured bytes of those calls; the
// cvd.commit.* and storage.wal.* counters only commits move.

#include "perfbench/src/traced.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "net/wire.h"
#include "session/session.h"
#include "storage/format.h"

namespace perfbench {
namespace {

using orpheus::DedicatedThread;
using orpheus::StrFormat;
using orpheus::Timer;
using orpheus::core::Cvd;
using orpheus::minidb::Table;

constexpr int kCheckoutSample = 60;  // checkouts replayed at every layer
constexpr int kPrefixSample = 4;     // refresh + checkout pairs, for bytes
constexpr int kWriterIterations = 24;   // traced, per writer; as many untraced
constexpr int kCommitIterations = 20;   // replayed commit rounds per layer
constexpr int kMaterializeSample = 40;  // when the workload lacks an arity
constexpr int kReopens = 3;

/// Registry counters a checkout moves, reported per checkout.
constexpr const char* kCheckoutCounters[] = {
    "cvd.checkout.records_materialized", "cvd.merge.rows_scanned",
    "minidb.rows_copied", "ridset.intersect_rows.scanned"};
/// Registry counters only commits move, reported per commit.
constexpr const char* kCommitCounters[] = {"cvd.commit.rows_scanned",
                                           "cvd.commit.records_new"};

int64_t NetBytes(const CounterSnapshot& after, const CounterSnapshot& before) {
  return after.Delta(before, "net.bytes_sent") +
         after.Delta(before, "net.bytes_recv");
}

double PerOp(int64_t total, size_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(total) / ops;
}

/// The checkouts the workload's clients make: its first reader's sequence,
/// or (no readers) the writers' version, as sci-edit's writers check out. An
/// empty list stands for the latter.
std::vector<std::vector<VersionId>> CheckoutSample(const WorkloadSpec& spec,
                                                   uint64_t seed) {
  std::vector<std::vector<VersionId>> sample;
  ReadSequence reads(spec, seed, /*reader=*/0);
  for (int i = 0; i < kCheckoutSample; ++i) {
    sample.push_back(spec.readers > 0 ? reads.Next()
                                      : std::vector<VersionId>{});
  }
  return sample;
}

struct RemoteCheckouts {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<int64_t> span_ids;    // traced client.checkout span per op
  std::vector<uint64_t> checksums;  // of each traced result
  size_t calls = 0;                 // checkouts inside the counter window
  CounterSnapshot before;
  CounterSnapshot after;
};

/// Phase 1a: the checkout sample from one client. Each operation runs twice
/// in a row, untraced and then traced, so drift of the host hits both alike.
/// An empty version list means "refresh, then check out `writer_start`".
Status RemoteCheckoutPhase(const std::vector<std::vector<VersionId>>& sample,
                           VersionId writer_start, const std::string& address,
                           SpanLog* spans, RemoteCheckouts* out,
                           uint64_t* retries) {
  ORPHEUS_ASSIGN_OR_RETURN(auto client, ConnectClient(address, "trace-read"));
  ORPHEUS_ASSIGN_OR_RETURN(auto opened, client->Open(kCvdName));
  out->before = CounterSnapshot::Take();
  for (size_t i = 0; i < sample.size(); ++i) {
    const int64_t op = static_cast<int64_t>(i) + 1;
    for (bool traced : {false, true}) {
      std::vector<VersionId> vids = sample[i];
      if (vids.empty()) {
        const double start = spans->Now();
        ORPHEUS_RETURN_NOT_OK(client->Refresh(opened.sid).status());
        if (traced) spans->Record("client.refresh", start, spans->Now(), 0, op);
        vids = {writer_start};
      }
      const double start = spans->Now();
      ORPHEUS_ASSIGN_OR_RETURN(Table table,
                               client->Checkout(opened.sid, vids, "read"));
      const double end = spans->Now();
      ++out->calls;
      if (!traced) {
        out->untraced_ms.push_back(end - start);
        continue;
      }
      out->traced_ms.push_back(end - start);
      out->span_ids.push_back(
          spans->Record("client.checkout", start, end, 0, op));
      out->checksums.push_back(TableChecksum(table));
    }
  }
  out->after = CounterSnapshot::Take();
  *retries += client->stats().retries;
  return Status::OK();
}

/// Net bytes of one refresh + checkout of the writers' version: the part of
/// a writer iteration that is not its commit. Every version a writer checks
/// out descends from `writer_start` by edits only, so has its row count.
Result<double> WriterCheckoutBytes(VersionId writer_start,
                                   const std::string& address,
                                   uint64_t* retries) {
  ORPHEUS_ASSIGN_OR_RETURN(auto client, ConnectClient(address, "trace-prefix"));
  ORPHEUS_ASSIGN_OR_RETURN(auto opened, client->Open(kCvdName));
  const CounterSnapshot before = CounterSnapshot::Take();
  for (int i = 0; i < kPrefixSample; ++i) {
    ORPHEUS_RETURN_NOT_OK(client->Refresh(opened.sid).status());
    ORPHEUS_RETURN_NOT_OK(
        client->Checkout(opened.sid, {writer_start}, "work").status());
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  *retries += client->stats().retries;
  return PerOp(NetBytes(after, before), kPrefixSample);
}

struct RemoteCommits {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<int64_t> span_ids;  // traced client.commit spans
  int64_t commits = 0;            // inside the counter window
  CounterSnapshot before;
  CounterSnapshot after;
};

/// Phase 1b: the workload's writers (sci-read: its one trailing writer),
/// concurrently, 2 x kWriterIterations each; odd iterations are traced.
Status RemoteCommitPhase(const WorkloadSpec& spec, uint64_t seed,
                         VersionId writer_start, const std::string& address,
                         SpanLog* spans, Ledger* ledger, RemoteCommits* out,
                         uint64_t* retries, uint64_t* conflicts) {
  const int writers = std::max(1, spec.writers);
  struct WriterLog {
    std::vector<WriterStep> steps;
    std::vector<int64_t> span_ids;
    uint64_t retries = 0;
    Status status;
  };
  std::vector<WriterLog> logs(writers);
  out->before = CounterSnapshot::Take();
  {
    std::vector<DedicatedThread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back(StrFormat("trace-writer-%d", w), [&, w] {
        WriterLog& log = logs[w];
        auto client = ConnectClient(address, StrFormat("trace-writer-%d", w));
        if (!client.ok()) {
          log.status = client.status();
          return;
        }
        auto opened = (*client)->Open(kCvdName);
        if (!opened.ok()) {
          log.status = opened.status();
          return;
        }
        Timer clock;
        for (int it = 0; it < 2 * kWriterIterations; ++it) {
          const double origin = spans->Now() - clock.ElapsedMillis();
          WriterStep step;
          log.status = RunWriterStep(client->get(), opened->sid,
                                     it == 0 ? writer_start : 0, w, writers,
                                     seed, it, clock, &step);
          if (!log.status.ok()) return;
          log.steps.push_back(step);
          if (it % 2 == 0) continue;
          const int64_t op = it + 1;
          const double checkout_start = origin + step.checkout_start_ms;
          spans->Record("client.refresh", checkout_start - step.refresh_ms,
                        checkout_start, 0, op);
          spans->Record("client.checkout", checkout_start,
                        checkout_start + step.checkout_ms, 0, op);
          const double commit_start = origin + step.commit_start_ms;
          log.span_ids.push_back(spans->Record("client.commit", commit_start,
                                               commit_start + step.commit_ms,
                                               0, op));
        }
        log.retries = (*client)->stats().retries;
      });
    }
    for (DedicatedThread& t : threads) t.Join();
  }
  out->after = CounterSnapshot::Take();
  for (WriterLog& log : logs) {
    ORPHEUS_RETURN_NOT_OK(log.status);
    *retries += log.retries;
    for (size_t it = 0; it < log.steps.size(); ++it) {
      const WriterStep& step = log.steps[it];
      ++ledger->commits;
      if (step.merged_vid != 0) ++ledger->merges;
      *conflicts += step.conflicts;
      (it % 2 ? out->traced_ms : out->untraced_ms).push_back(step.commit_ms);
    }
    out->commits += static_cast<int64_t>(log.steps.size());
    if (!log.steps.empty()) {
      ledger->shipped.emplace_back(log.steps.back().vid,
                                   log.steps.back().shipped_checksum);
    }
    out->span_ids.insert(out->span_ids.end(), log.span_ids.begin(),
                         log.span_ids.end());
  }
  return Status::OK();
}

double CodecMs(const Table& table) {
  Timer timer;
  orpheus::storage::Encoder enc;
  orpheus::net::EncodeTable(table, &enc);
  orpheus::storage::Decoder dec(enc.data());
  auto decoded = orpheus::net::DecodeTable(&dec);
  const double ms = timer.ElapsedMillis();
  return decoded.ok() && decoded->num_rows() == table.num_rows() ? ms : -1.0;
}

/// Layer times of the replayed operations, on the replica.
struct LayerTimes {
  std::vector<double> session_checkout_ms;
  std::vector<double> session_commit_ms;     // base still the tip
  std::vector<double> session_overtaken_ms;  // base overtaken: reconciles
  std::vector<double> sample_ms;             // Materialize of the sample
  std::vector<double> materialize_ms;        // one version
  std::vector<double> materialize2_ms;       // two versions
  std::vector<double> commit_table_ms;
  std::vector<double> codec_checkout_ms;
  std::vector<double> codec_commit_ms;
  std::vector<orpheus::core::CvdCommitRecord> records;
  int not_reconciled = 0;  // overtaken session commits that did not
  int checksum_mismatches = 0;
  int codec_failures = 0;
};

void TimeCodec(const Table& table, std::vector<double>* ms, int* failures) {
  const double elapsed = CodecMs(table);
  if (elapsed < 0) ++*failures;
  ms->push_back(elapsed);
}

/// Phases 2-4 for checkouts. Per sampled operation: Session::Checkout on a
/// local manager over the replica, then Cvd::Materialize of the same
/// versions (through ReadCvd, so both see the same state), then the codec.
Status CheckoutLayers(const WorkloadSpec& spec,
                      const std::vector<std::vector<VersionId>>& sample,
                      VersionId writer_start, const RemoteCheckouts& remote,
                      uint64_t seed,
                      std::unique_ptr<Cvd>* replica, SpanLog* spans,
                      LayerTimes* out) {
  orpheus::session::SessionManager manager(std::move(*replica), nullptr);
  std::unique_ptr<orpheus::session::Session> session = manager.Open();
  for (size_t i = 0; i < sample.size(); ++i) {
    const int64_t op = static_cast<int64_t>(i) + 1;
    const std::vector<VersionId> vids =
        sample[i].empty() ? std::vector<VersionId>{writer_start} : sample[i];
    double start = spans->Now();
    ORPHEUS_RETURN_NOT_OK(session->Checkout(vids, "read"));
    double end = spans->Now();
    out->session_checkout_ms.push_back(end - start);
    const int64_t session_span = spans->Record(
        "session.checkout", start, end, remote.span_ids[i], op);
    ORPHEUS_RETURN_NOT_OK(session->DiscardStaging("read"));
    ORPHEUS_RETURN_NOT_OK(manager.ReadCvd([&](const Cvd& cvd) -> Status {
      start = spans->Now();
      ORPHEUS_ASSIGN_OR_RETURN(Table table, cvd.Materialize(vids, "read"));
      end = spans->Now();
      out->sample_ms.push_back(end - start);
      (vids.size() == 1 ? out->materialize_ms : out->materialize2_ms)
          .push_back(end - start);
      spans->Record("cvd.materialize", start, end, session_span, op);
      if (TableChecksum(table) != remote.checksums[i]) {
        ++out->checksum_mismatches;
      }
      start = spans->Now();
      TimeCodec(table, &out->codec_checkout_ms, &out->codec_failures);
      spans->Record("net.codec", start, spans->Now(), remote.span_ids[i], op);
      return Status::OK();
    }));
  }
  // The arity the workload does not check out, from uniform draws.
  WorkloadSpec other = spec;
  other.pair_reads = !(spec.readers > 0 && spec.pair_reads);
  std::vector<double>* fill =
      other.pair_reads ? &out->materialize2_ms : &out->materialize_ms;
  ReadSequence reads(other, seed, /*reader=*/2000);
  ORPHEUS_RETURN_NOT_OK(manager.ReadCvd([&](const Cvd& cvd) -> Status {
    for (int i = 0; i < kMaterializeSample; ++i) {
      const std::vector<VersionId> vids = reads.Next();
      Timer timer;
      ORPHEUS_ASSIGN_OR_RETURN(Table table, cvd.Materialize(vids, "read"));
      fill->push_back(timer.ElapsedMillis());
    }
    return Status::OK();
  }));
  session.reset();
  *replica = manager.Release();
  return Status::OK();
}

/// Phases 2-4 for commits, interleaved per iteration so every layer sees
/// the same replica size: a plain and an overtaken Session::Commit on a
/// local manager, then (manager released) the codec and Cvd::CommitTable of
/// an edited latest version, whose record an observer captures.
Status CommitLayers(const WorkloadSpec& spec, VersionId writer_start,
                    const RemoteCommits& remote_commits, uint64_t seed,
                    std::unique_ptr<Cvd>* replica, SpanLog* spans,
                    LayerTimes* out) {
  auto parent_commit = [&](int it) -> int64_t {
    const auto& ids = remote_commits.span_ids;
    return ids.empty() ? 0 : ids[it % ids.size()];
  };
  const int writers = std::max(1, spec.writers);
  for (int it = 0; it < kCommitIterations; ++it) {
    const int64_t op = it + 1;
    const int iteration = 1000 + 3 * it;
    {
      orpheus::session::SessionManager manager(std::move(*replica), nullptr);
      std::unique_ptr<orpheus::session::Session> s1 = manager.Open();
      std::unique_ptr<orpheus::session::Session> s2 = manager.Open();
      // Base still the tip. Like the remote writers, the chain of edits
      // starts from writer_start.
      ORPHEUS_RETURN_NOT_OK(
          s1->Checkout({it == 0 ? writer_start : s1->watermark()}, "work"));
      EditOwnedRows(s1->table("work"), 0, 2, seed, iteration);
      double start = spans->Now();
      ORPHEUS_ASSIGN_OR_RETURN(auto plain, s1->Commit("work", "edit"));
      double end = spans->Now();
      (void)plain;
      out->session_commit_ms.push_back(end - start);
      const int64_t session_span =
          spans->Record("session.commit", start, end, parent_commit(it), op);
      // Base overtaken by a concurrent session's commit.
      ORPHEUS_RETURN_NOT_OK(s2->Refresh());
      const VersionId base = s2->watermark();
      ORPHEUS_RETURN_NOT_OK(s1->Checkout({base}, "work"));
      ORPHEUS_RETURN_NOT_OK(s2->Checkout({base}, "work"));
      EditOwnedRows(s2->table("work"), 1, 2, seed, iteration + 1);
      ORPHEUS_ASSIGN_OR_RETURN(auto first, s2->Commit("work", "edit"));
      (void)first;
      EditOwnedRows(s1->table("work"), 0, 2, seed, iteration + 2);
      start = spans->Now();
      ORPHEUS_ASSIGN_OR_RETURN(auto overtaken, s1->Commit("work", "edit"));
      end = spans->Now();
      out->session_overtaken_ms.push_back(end - start);
      spans->Record("session.commit_overtaken", start, end, 0, op);
      if (!overtaken.reconciled || !overtaken.conflicts.empty()) {
        ++out->not_reconciled;
      }
      s1.reset();
      s2.reset();
      *replica = manager.Release();

      Cvd* cvd = replica->get();
      const VersionId latest = cvd->latest();
      ORPHEUS_ASSIGN_OR_RETURN(Table table, cvd->Materialize({latest}, "work"));
      EditOwnedRows(&table, 0, writers, seed, iteration);
      start = spans->Now();
      TimeCodec(table, &out->codec_commit_ms, &out->codec_failures);
      spans->Record("net.codec_commit", start, spans->Now(), parent_commit(it),
                    op);
      cvd->set_commit_observer(
          [out](const orpheus::core::CvdCommitRecord& record) {
            out->records.push_back(record);
            return Status::OK();
          });
      start = spans->Now();
      auto vid = cvd->CommitTable(table, {latest}, "edit");
      end = spans->Now();
      cvd->set_commit_observer(nullptr);
      ORPHEUS_RETURN_NOT_OK(vid.status());
      out->commit_table_ms.push_back(end - start);
      spans->Record("cvd.commit_table", start, end, session_span, op);
    }
  }
  return Status::OK();
}

/// Phase 5: LogCommit of the captured records into a scratch repository.
Status StoragePhase(const std::vector<orpheus::core::CvdCommitRecord>& records,
                    const std::string& dir, SpanLog* spans,
                    std::vector<double>* log_commit_ms) {
  ScopedDir scratch(dir);
  ORPHEUS_ASSIGN_OR_RETURN(auto repo,
                           orpheus::storage::Repository::Open(dir + "/repo"));
  for (size_t i = 0; i < records.size(); ++i) {
    const double start = spans->Now();
    ORPHEUS_RETURN_NOT_OK(repo->LogCommit(kCvdName, records[i]));
    const double end = spans->Now();
    log_commit_ms->push_back(end - start);
    spans->Record("storage.log_commit", start, end, 0,
                  static_cast<int64_t>(i) + 1);
  }
  return Status::OK();
}

double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

}  // namespace

Status RunTraced(const WorkloadSpec& spec, const VersionedDataset& ds,
                 const Args& args, ServedRepo* served, Ledger* ledger,
                 Report* report) {
  Timer replica_timer;
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Cvd> replica, ImportHistory(ds));
  std::printf("replica imported in %.3f s\n", replica_timer.ElapsedSeconds());
  ledger->imported = ds.num_versions();

  SpanLog spans;
  uint64_t retries = 0;
  uint64_t conflicts = 0;
  const auto sample = CheckoutSample(spec, args.seed);
  RemoteCheckouts checkouts;
  const VersionId writer_start = WriterStartVersion(ds);
  ORPHEUS_RETURN_NOT_OK(RemoteCheckoutPhase(sample, writer_start,
                                            served->address(), &spans,
                                            &checkouts, &retries));
  ORPHEUS_ASSIGN_OR_RETURN(double prefix_bytes,
                           WriterCheckoutBytes(writer_start, served->address(),
                                               &retries));
  RemoteCommits commits;
  ORPHEUS_RETURN_NOT_OK(RemoteCommitPhase(spec, args.seed, writer_start,
                                          served->address(), &spans, ledger,
                                          &commits, &retries, &conflicts));
  LayerTimes layers;
  ORPHEUS_RETURN_NOT_OK(CheckoutLayers(spec, sample, writer_start, checkouts,
                                       args.seed, &replica, &spans, &layers));
  ORPHEUS_RETURN_NOT_OK(CommitLayers(spec, writer_start, commits, args.seed,
                                     &replica, &spans, &layers));
  std::vector<double> log_commit_ms;
  ORPHEUS_RETURN_NOT_OK(StoragePhase(layers.records,
                                     args.work_dir + "/logcommit", &spans,
                                     &log_commit_ms));
  replica.reset();

  report->CountOps(checkouts.untraced_ms.size() + checkouts.traced_ms.size() +
                       commits.untraced_ms.size() + commits.traced_ms.size(),
                   0);
  report->Gate("zero_merge_conflicts", conflicts == 0,
               StrFormat("%llu conflicts",
                         static_cast<unsigned long long>(conflicts)));
  report->Gate("zero_client_retries", retries == 0,
               StrFormat("%llu retries",
                         static_cast<unsigned long long>(retries)));
  report->Gate("remote_checkout_checksums", layers.checksum_mismatches == 0,
               StrFormat("%zu remote checkouts vs Cvd::Materialize, %d "
                         "mismatched",
                         sample.size(), layers.checksum_mismatches));
  report->Gate("codec_round_trip", layers.codec_failures == 0,
               StrFormat("%d failures", layers.codec_failures));
  report->Gate("session_overtaken_reconciled", layers.not_reconciled == 0,
               StrFormat("%d of %d did not reconcile", layers.not_reconciled,
                         kCommitIterations));

  std::printf("spans (self = duration - replayed children):\n%s",
              spans.Summary().c_str());
  if (!args.out_dir.empty()) {
    const std::string path =
        StrFormat("%s/spans-%s-seed%llu.jsonl", args.out_dir.c_str(),
                  spec.name, static_cast<unsigned long long>(args.seed));
    Status written = spans.WriteJsonl(path);
    std::printf("spans written to %s: %s\n", path.c_str(),
                written.ToString().c_str());
  }

  served->Shutdown();
  RecoveryResult recovery;
  ORPHEUS_RETURN_NOT_OK(Recover(served->dir(), args.work_dir, *ledger,
                                ds.num_attributes(), report, &recovery));
  ORPHEUS_ASSIGN_OR_RETURN(
      std::vector<double> snapshot_open_s,
      TimeReopens(served->dir(), args.work_dir, kReopens,
                  /*checkpoint_first=*/true));

  // Per-operation counters.
  const size_t n_checkouts = checkouts.calls;
  const size_t n_commits = static_cast<size_t>(commits.commits);
  const CounterSnapshot& cb = checkouts.before;
  const CounterSnapshot& ca = checkouts.after;
  const CounterSnapshot& mb = commits.before;
  const CounterSnapshot& ma = commits.after;
  const double bytes_per_checkout = PerOp(NetBytes(ca, cb), n_checkouts);
  const double bytes_per_commit =
      PerOp(NetBytes(ma, mb) -
                static_cast<int64_t>(prefix_bytes * commits.commits),
            n_commits);
  const double reconciled_share =
      PerOp(ma.Delta(mb, "session.commit.reconciled"), n_commits);

  // Layer times (medians).
  const double checkout_traced = Median(checkouts.traced_ms);
  const double checkout_untraced = Median(checkouts.untraced_ms);
  const double commit_traced = Median(commits.traced_ms);
  const double commit_untraced = Median(commits.untraced_ms);
  const double session_checkout = Median(layers.session_checkout_ms);
  const double session_commit = Median(layers.session_commit_ms);
  const double session_reconcile =
      Median(layers.session_overtaken_ms) - session_commit;
  const double core_sample = Median(layers.sample_ms);
  const double core_commit = Median(layers.commit_table_ms);
  const double codec_checkout = Median(layers.codec_checkout_ms);
  const double codec_commit = Median(layers.codec_commit_ms);
  const double log_commit = Median(log_commit_ms);
  const double rest_checkout =
      checkout_traced - session_checkout - codec_checkout;
  const double session_commit_total =
      session_commit + reconciled_share * session_reconcile;
  const double rest_commit =
      commit_traced - session_commit_total - codec_commit - log_commit;

  report->Set("net.codec_ms_per_checkout", codec_checkout, "ms");
  report->Set("net.codec_ms_per_commit", codec_commit, "ms");
  report->Set("net.rest_ms_per_checkout", rest_checkout, "ms");
  report->Set("net.rest_ms_per_commit", rest_commit, "ms");
  report->Set("net.bytes_per_checkout", bytes_per_checkout, "B");
  report->Set("net.bytes_per_commit", bytes_per_commit, "B");
  report->Set("net.client.retries", static_cast<double>(retries), "count");
  report->Set("session.checkout_ms", session_checkout, "ms");
  report->Set("session.commit_ms", session_commit, "ms");
  report->Set("session.reconcile_ms", session_reconcile, "ms");
  report->Set("session.reconciled_share", reconciled_share, "1");
  report->Set("core.materialize_ms", Median(layers.materialize_ms), "ms");
  report->Set("core.materialize2_ms", Median(layers.materialize2_ms), "ms");
  report->Set("core.commit_table_ms", core_commit, "ms");
  for (const char* name : kCheckoutCounters) {
    report->Set(name, PerOp(ca.Delta(cb, name), n_checkouts), "count");
  }
  for (const char* name : kCommitCounters) {
    report->Set(name, PerOp(ma.Delta(mb, name), n_commits), "count");
  }
  report->Set("core.storage_bytes_per_user_byte",
              recovery.storage_bytes_per_user_byte, "B/B");
  report->Set("storage.log_commit_ms", log_commit, "ms");
  report->Set("storage.wal.syncs_per_commit",
              PerOp(ma.Delta(mb, "storage.wal.syncs"), n_commits), "count");
  report->Set("storage.wal.append_bytes_per_commit",
              PerOp(ma.Delta(mb, "storage.wal.append_bytes"), n_commits), "B");
  report->Set("storage.snapshot_open_s", Median(snapshot_open_s),
              "s");
  report->Set("storage.wal.replayed_records",
              static_cast<double>(recovery.replayed_records), "count");
  report->Set("checkout.traced_p50_ms", checkout_traced, "ms");
  report->Set("checkout.untraced_p50_ms", checkout_untraced, "ms");
  report->Set("checkout.trace_overhead",
              checkout_traced / checkout_untraced - 1, "1");
  report->Set("commit.traced_p50_ms", commit_traced, "ms");
  report->Set("commit.untraced_p50_ms", commit_untraced, "ms");
  report->Set("commit.trace_overhead", commit_traced / commit_untraced - 1,
              "1");
  report->Set("checkout.share.core", Share(core_sample, checkout_traced), "1");
  report->Set("checkout.share.session_self",
              Share(session_checkout - core_sample, checkout_traced), "1");
  report->Set("checkout.share.net_codec",
              Share(codec_checkout, checkout_traced), "1");
  report->Set("checkout.share.net_rest", Share(rest_checkout, checkout_traced),
              "1");
  report->Set("commit.share.core", Share(core_commit, commit_traced), "1");
  report->Set("commit.share.session_self",
              Share(session_commit_total - core_commit, commit_traced), "1");
  report->Set("commit.share.net_codec", Share(codec_commit, commit_traced),
              "1");
  report->Set("commit.share.storage", Share(log_commit, commit_traced), "1");
  report->Set("commit.share.net_rest", Share(rest_commit, commit_traced), "1");
  return Status::OK();
}

}  // namespace perfbench
