// Benchmarks the network session layer (DESIGN.md §14): N remote clients
// drive commit loops against one orpheusd-style SessionServer over a unix
// socket, backed by a durable repository. Two modes per degree (1/4/8
// clients):
//
//   - clean: a healthy network — measures pure wire + session overhead;
//   - fault5: every net.* failpoint site misfires with ~5% probability
//     (deterministically seeded) — measures what retry/backoff and the
//     exactly-once stamp machinery cost under sustained packet loss.
//
// After every run the version ledger is audited: the CVD must hold exactly
// 1 + sum(1 + reconciled) versions — a fault mix that produced a phantom
// or duplicate commit fails the bench, not just a test.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/cvd.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::bench {
namespace {

using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

constexpr const char* kFaultSpec =
    "net.server.recv=error:p0.05;net.server.send=error:p0.05;"
    "net.client.send=error:p0.05;net.client.recv=error:p0.05;"
    "net.server.drop_before_send=error:p0.03;"
    "net.server.drop_after_read=error:p0.03;"
    "net.server.send.partial=error:p0.02;"
    "net.client.send.partial=error:p0.02";

std::string MakeTempDir() {
  std::string tmpl = "/tmp/orpheus_bench_net_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::cerr << "mkdtemp failed for " << tmpl << "\n";
    std::exit(1);
  }
  return tmpl;
}

/// Set the name attribute of the row whose id is `id` (checked-out schema:
/// _rid, id, name). The seed is tiny, so a scan is fine.
void SetName(Table* t, int64_t id, const std::string& name) {
  for (uint32_t r = 0; r < t->num_rows(); ++r) {
    if (t->GetValue(r, 1).AsInt() == id) {
      minidb::Row vals = t->GetRow(r);
      vals[2] = Value(name);
      t->SetRow(r, vals);
      return;
    }
  }
  std::cerr << "no row with id " << id << "\n";
  std::exit(1);
}

struct DegreeResult {
  int degree = 0;
  bool faulty = false;
  uint64_t commits = 0;
  uint64_t reconciled = 0;
  uint64_t client_retries = 0;
  uint64_t reconnects = 0;
  uint64_t replayed = 0;
  uint64_t resumed = 0;
  double seconds = 0.0;
};

/// DeadlineExceeded / Unavailable = outcome unknown, retry (a commit's
/// stamp stays pinned, so the retry resolves it); anything else is a
/// definitive verdict.
bool Unknown(const Status& s) {
  return s.IsDeadlineExceeded() || s.IsUnavailable();
}

DegreeResult RunDegree(int degree, int iters, bool faulty, int seed_rows) {
  const std::string dir = MakeTempDir();
  auto repo_or = storage::Repository::Open(dir + "/repo");
  if (!repo_or.ok()) {
    std::cerr << "open failed: " << repo_or.status().ToString() << "\n";
    std::exit(1);
  }
  auto repo = repo_or.MoveValueOrDie();

  Table seed("seed", Schema({{"id", ValueType::kInt64},
                             {"name", ValueType::kString}}));
  for (int i = 0; i < seed_rows; ++i) {
    ORPHEUS_CHECK_OK(seed.InsertRow(
        {Value(static_cast<int64_t>(i + 1)), Value("r" + std::to_string(i))}));
  }
  core::Cvd::Options cvd_opts;
  cvd_opts.primary_key = {"id"};
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(
      core::Cvd::Init("t", std::move(seed), cvd_opts).MoveValueOrDie());
  ORPHEUS_CHECK_OK(repo->LogCreate(*cvds[0]));

  net::ServerOptions server_opts;
  server_opts.listen = "unix:" + dir + "/sock";
  auto started =
      net::SessionServer::Start(repo.get(), std::move(cvds), server_opts);
  ORPHEUS_CHECK_OK(started.status());
  net::SessionServer* server = started.ValueOrDie().get();

  if (faulty) {
    failpoint::Reseed(777);
    ORPHEUS_CHECK_OK(failpoint::ArmFromSpec(kFaultSpec));
  }

  std::vector<uint64_t> retries(degree, 0);
  std::vector<uint64_t> reconnects(degree, 0);
  std::vector<uint64_t> reconciled(degree, 0);
  std::vector<uint64_t> confirmed(degree, 0);
  Timer timer;
  ThreadPool pool(degree);
  {
    ThreadPool::TaskGroup group(&pool);
    for (int w = 0; w < degree; ++w) {
      group.Submit([&, w] {
        net::ClientOptions copts;
        copts.client_uuid = "bench-" + std::to_string(w);
        copts.jitter_seed = 1000 + w;
        copts.call_deadline_ms = 8000;
        copts.max_attempts = 12;
        copts.backoff_base_ms = 2;
        copts.backoff_cap_ms = 100;
        auto connected = net::Client::Connect(server->address(), copts);
        for (int tries = 0; !connected.ok() && tries < 10; ++tries) {
          connected = net::Client::Connect(server->address(), copts);
        }
        ORPHEUS_CHECK_OK(connected.status());
        net::Client* c = connected.ValueOrDie().get();
        auto opened = c->Open("t");
        ORPHEUS_CHECK_OK(opened.status());
        const uint64_t sid = opened.ValueOrDie().sid;
        for (int it = 0; it < iters; ++it) {
          // Refresh -> checkout the watermark -> update the worker's own
          // key -> commit, retrying every unknown outcome to resolution.
          Result<core::VersionId> watermark =
              Status::Unavailable("not tried");
          for (int tries = 0; tries < 10; ++tries) {
            watermark = c->Refresh(sid);
            if (watermark.ok() || !Unknown(watermark.status())) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          ORPHEUS_CHECK_OK(watermark.status());
          Result<Table> checked = Status::Unavailable("not tried");
          for (int tries = 0; tries < 10; ++tries) {
            checked = c->Checkout(sid, {watermark.ValueOrDie()}, "work");
            if (checked.ok() || !Unknown(checked.status())) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          ORPHEUS_CHECK_OK(checked.status());
          Table table = checked.MoveValueOrDie();
          SetName(&table, w + 1,
                  "w" + std::to_string(w) + "_" + std::to_string(it));
          bool resolved = false;
          for (int tries = 0; tries < 10; ++tries) {
            auto outcome = c->Commit(sid, table, "bench", "bench");
            if (outcome.ok()) {
              ++confirmed[w];
              if (outcome.ValueOrDie().reconciled) ++reconciled[w];
              resolved = true;
              break;
            }
            if (!Unknown(outcome.status())) {
              std::cerr << "definitive commit error: "
                        << outcome.status().ToString() << "\n";
              std::exit(1);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          if (!resolved) {
            std::cerr << "commit outcome never resolved at degree "
                      << degree << "\n";
            std::exit(1);
          }
        }
        ORPHEUS_IGNORE_ERROR(c->CloseSession(sid));
        retries[w] = c->stats().retries;
        reconnects[w] = c->stats().reconnects;
      });
    }
    group.Wait();
  }

  DegreeResult result;
  result.degree = degree;
  result.faulty = faulty;
  result.seconds = timer.ElapsedSeconds();
  for (int w = 0; w < degree; ++w) {
    result.commits += confirmed[w];
    result.reconciled += reconciled[w];
    result.client_retries += retries[w];
    result.reconnects += reconnects[w];
  }
  if (faulty) failpoint::DisarmAll();

  // Audit the ledger over the wire: exactly one version per confirmed
  // commit plus one per reconciliation merge — no phantoms, no duplicates.
  const uint64_t expected_versions = 1 + result.commits + result.reconciled;
  {
    auto auditor = net::Client::Connect(server->address());
    ORPHEUS_CHECK_OK(auditor.status());
    auto listing = auditor.ValueOrDie()->Ls();
    ORPHEUS_CHECK_OK(listing.status());
    if (listing.ValueOrDie().size() != 1 ||
        listing.ValueOrDie()[0].num_versions !=
            static_cast<int64_t>(expected_versions)) {
      std::cerr << "version accounting broken at degree " << degree
                << " (faulty=" << faulty << "): expected "
                << expected_versions << "\n";
      std::exit(1);
    }
    if (listing.ValueOrDie()[0].failed) {
      std::cerr << "repository degraded at degree " << degree << "\n";
      std::exit(1);
    }
  }

  const auto stats = server->stats();
  result.replayed = stats.commits_replayed;
  result.resumed = stats.commits_resumed;
  if (stats.commits != result.commits) {
    std::cerr << "server executed " << stats.commits << " commits but "
              << result.commits << " were confirmed — exactly-once broken\n";
    std::exit(1);
  }
  server->Stop();
  auto released = started.ValueOrDie()->ReleaseCvds();
  std::vector<const core::Cvd*> ptrs;
  for (const auto& cvd : released) ptrs.push_back(cvd.get());
  ORPHEUS_CHECK_OK(repo->Close(ptrs));
  return result;
}

/// Remote checkout latency: one client checks out the same `rows`-record
/// version `count` times from an in-memory server (no commits compete).
/// Returns the per-checkout wall times in microseconds, sorted.
std::vector<double> RunCheckouts(int rows, int count) {
  Table seed("seed", Schema({{"id", ValueType::kInt64},
                             {"score", ValueType::kDouble},
                             {"name", ValueType::kString}}));
  for (int i = 0; i < rows; ++i) {
    ORPHEUS_CHECK_OK(seed.InsertRow({Value(static_cast<int64_t>(i + 1)),
                                     Value(i * 0.25),
                                     Value("r" + std::to_string(i))}));
  }
  core::Cvd::Options cvd_opts;
  cvd_opts.primary_key = {"id"};
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(core::Cvd::Init("t", seed, cvd_opts).MoveValueOrDie());
  net::ServerOptions server_opts;
  server_opts.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = net::SessionServer::Start(nullptr, std::move(cvds),
                                          server_opts)
                    .MoveValueOrDie();
  auto client = net::Client::Connect(server->address()).MoveValueOrDie();
  const uint64_t sid = client->Open("t").MoveValueOrDie().sid;
  std::vector<double> us;
  us.reserve(count);
  for (int i = 0; i < count; ++i) {
    Timer timer;
    ORPHEUS_CHECK_OK(client->Checkout(sid, {1}, "read").status());
    us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  server->Stop();
  std::sort(us.begin(), us.end());
  return us;
}

void Run(int argc, char** argv) {
  const int scale = ParseScale(argc, argv);
  const int iters = 10 * scale;
  const int seed_rows = 16;

  TablePrinter table({"mode", "clients", "commits", "reconciled", "retries",
                      "replayed", "resumed", "wall", "commits/s"});
  auto& reg = MetricsRegistry::Global();
  std::vector<bool> modes = {false};
#if ORPHEUS_FAILPOINTS_ENABLED
  modes.push_back(true);
#else
  std::cerr << "failpoints compiled out: skipping the fault5 rows\n";
#endif
  for (const bool faulty : modes) {
    for (int degree : {1, 4, 8}) {
      DegreeResult r = RunDegree(degree, iters, faulty, seed_rows);
      const double per_sec = r.commits / std::max(1e-9, r.seconds);
      const std::string mode = faulty ? "fault5" : "clean";
      table.AddRow({mode, std::to_string(r.degree),
                    std::to_string(r.commits), std::to_string(r.reconciled),
                    std::to_string(r.client_retries),
                    std::to_string(r.replayed), std::to_string(r.resumed),
                    HumanSeconds(r.seconds), StrFormat("%.0f", per_sec)});
      const std::string prefix =
          StrFormat("bench.net_session.%s.d%d", mode.c_str(), r.degree);
      reg.gauge(prefix + ".commits").Set(static_cast<int64_t>(r.commits));
      reg.gauge(prefix + ".reconciled")
          .Set(static_cast<int64_t>(r.reconciled));
      reg.gauge(prefix + ".client_retries")
          .Set(static_cast<int64_t>(r.client_retries));
      reg.gauge(prefix + ".reconnects")
          .Set(static_cast<int64_t>(r.reconnects));
      reg.gauge(prefix + ".commits_replayed")
          .Set(static_cast<int64_t>(r.replayed));
      reg.gauge(prefix + ".commits_resumed")
          .Set(static_cast<int64_t>(r.resumed));
      reg.gauge(prefix + ".commits_per_sec")
          .Set(static_cast<int64_t>(per_sec));
    }
  }
  std::cout << "\n=== Remote sessions: wire-protocol commits, clean vs "
               "~5%-fault network (exactly-once audited) ===\n";
  table.Print(std::cout);

  // 1000 samples leave ten beyond the p99.
  const int checkout_rows = 5000;
  const int checkouts = 1000;
  const std::vector<double> us = RunCheckouts(checkout_rows, checkouts);
  const double p50 = us[us.size() / 2];
  const double p99 = us[us.size() * 99 / 100];
  reg.gauge("bench.net_session.checkout.p50_us").Set(static_cast<int64_t>(p50));
  reg.gauge("bench.net_session.checkout.p99_us").Set(static_cast<int64_t>(p99));
  std::cout << "\n=== Remote checkout of one " << checkout_rows
            << "-record version (" << checkouts << " checkouts) ===\n"
            << StrFormat("p50 %.0f us, p99 %.0f us\n", p50, p99);
}

}  // namespace
}  // namespace orpheus::bench

int main(int argc, char** argv) {
  orpheus::bench::MaybeStartTrace(argc, argv);
  orpheus::bench::Run(argc, argv);
  orpheus::bench::ExportMetrics(argc, argv);
  orpheus::bench::ExportTrace(argc, argv);
}
