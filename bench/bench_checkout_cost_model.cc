// Reproduces Figure 5.7 (checkout cost model validation, Sec. 5.5.5):
// checkout time vs number of records in the partition |R_k|, for
// hash-join, merge-join and index-nested-loop-join, with the data table
// physically clustered on rid or on the relation primary key.
//
// Expected shape: hash-join grows linearly in |R_k| regardless of layout;
// merge-join is linear when clustered on rid and pays a sort otherwise;
// index-nested-loop is flat in |R_k| for small |rlist| (point lookups) and
// converges to the scan behaviour as |rlist| approaches |R_k|.

#include <algorithm>
#include <iostream>
#include <thread>

#include "bench/bench_util.h"
#include "common/ridset.h"
#include "common/thread_pool.h"
#include "minidb/join.h"

namespace orpheus::bench {
namespace {

using minidb::JoinAlgorithm;
using minidb::Table;

constexpr int kAttrs = 20;

Table BuildDataTable(int64_t rows, bool clustered_on_rid, uint64_t seed) {
  std::vector<minidb::ColumnDef> cols = {{"_rid", minidb::ValueType::kInt64}};
  for (int a = 0; a < kAttrs; ++a) {
    cols.push_back({StrFormat("a%d", a), minidb::ValueType::kInt64});
  }
  Table t("data", minidb::Schema(std::move(cols)));
  Xorshift rng(seed);
  std::vector<int64_t> row(kAttrs + 1);
  for (int64_t r = 0; r < rows; ++r) {
    row[0] = r;
    for (int a = 1; a <= kAttrs; ++a) {
      row[a] = static_cast<int64_t>(rng.Next() % 1000000);
    }
    t.AppendIntRowUnchecked(row);
  }
  if (!clustered_on_rid) {
    // Re-cluster on the "primary key" (first payload attribute): rids end
    // up scattered, like a table clustered on <protein1, protein2>.
    t.SortByIntColumn(1);
  }
  Status s = t.BuildUniqueIntIndex(0);
  if (!s.ok()) {
    std::cerr << s.ToString() << "\n";
    std::exit(1);
  }
  return t;
}

double TimeCheckout(const Table& data, const std::vector<int64_t>& rlist,
                    JoinAlgorithm algo, bool clustered) {
  // A checkout = join rids against the data table, then materialize.
  Timer timer;
  auto rows = minidb::JoinRids(data, 0, rlist, algo, clustered);
  Table result = data.CopyRows(rows, "checkout");
  double elapsed = timer.ElapsedSeconds();
  if (result.num_rows() != rlist.size()) {
    std::cerr << "join lost rows\n";
    std::exit(1);
  }
  return elapsed;
}

void Run(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  std::vector<int64_t> rk_sizes = {125000, 250000, 500000, 1000000};
  std::vector<int64_t> rlist_sizes = {1000, 10000, 50000, 125000};
  for (auto& v : rk_sizes) v *= scale;
  for (auto& v : rlist_sizes) v *= scale;

  struct Variant {
    JoinAlgorithm algo;
    bool clustered;
    const char* figure;
  };
  const Variant kVariants[] = {
      {JoinAlgorithm::kHashJoin, true, "5.7(a) hash-join (clustered on rid)"},
      {JoinAlgorithm::kMergeJoin, true, "5.7(b) merge-join (clustered on rid)"},
      {JoinAlgorithm::kIndexNestedLoop, true,
       "5.7(c) index-nested-loop-join (clustered on rid)"},
      {JoinAlgorithm::kHashJoin, false, "5.7(d) hash-join (clustered on PK)"},
      {JoinAlgorithm::kMergeJoin, false,
       "5.7(e) merge-join (clustered on PK)"},
      {JoinAlgorithm::kIndexNestedLoop, false,
       "5.7(f) index-nested-loop-join (clustered on PK)"},
  };

  // Pre-build the largest tables once per clustering mode.
  for (bool clustered : {true, false}) {
    std::vector<Table> tables;
    for (int64_t rk : rk_sizes) {
      std::cerr << "building data table |Rk|=" << rk
                << (clustered ? " (rid-clustered)" : " (PK-clustered)")
                << "\n";
      tables.push_back(BuildDataTable(rk, clustered, 17));
    }
    for (const auto& variant : kVariants) {
      if (variant.clustered != clustered) continue;
      std::vector<std::string> header = {"|Rk|"};
      for (int64_t rl : rlist_sizes) {
        header.push_back(StrFormat("|rlist|=%lldK",
                                   static_cast<long long>(rl / 1000)));
      }
      TablePrinter table(header);
      for (size_t i = 0; i < rk_sizes.size(); ++i) {
        std::vector<std::string> row = {
            StrFormat("%.2fM", rk_sizes[i] / 1e6)};
        for (int64_t rl : rlist_sizes) {
          if (rl > rk_sizes[i]) {
            row.push_back("-");
            continue;
          }
          Xorshift rng(41);
          auto sample = rng.SampleWithoutReplacement(
              static_cast<uint64_t>(rk_sizes[i]), static_cast<uint64_t>(rl));
          std::vector<int64_t> rlist(sample.begin(), sample.end());
          std::sort(rlist.begin(), rlist.end());
          row.push_back(HumanSeconds(
              TimeCheckout(tables[i], rlist, variant.algo, clustered)));
        }
        table.AddRow(row);
      }
      std::cout << "\n=== Figure " << variant.figure << " ===\n";
      table.Print(std::cout);
    }
  }

  // Thread-scaling section: the hash-join probe and the materialization
  // copy both fan out across the pool, so the same checkout is timed at
  // degree 1 and degree N (outputs are byte-identical — see
  // test_determinism).
  const int n_threads = std::max(
      2, static_cast<int>(std::thread::hardware_concurrency()));
  const int64_t rk = rk_sizes.back();
  std::cerr << "building data table |Rk|=" << rk
            << " (rid-clustered, thread scaling)\n";
  Table data = BuildDataTable(rk, /*clustered_on_rid=*/true, 17);
  TablePrinter scaling({"|rlist|", "threads=1",
                        StrFormat("threads=%d", n_threads), "speedup"});
  for (int64_t rl : rlist_sizes) {
    Xorshift rng(41);
    auto sample = rng.SampleWithoutReplacement(static_cast<uint64_t>(rk),
                                               static_cast<uint64_t>(rl));
    std::vector<int64_t> rlist(sample.begin(), sample.end());
    std::sort(rlist.begin(), rlist.end());
    double secs[2];
    for (int mode = 0; mode < 2; ++mode) {
      ThreadPool::Global().SetDegree(mode == 0 ? 1 : n_threads);
      secs[mode] =
          TimeCheckout(data, rlist, JoinAlgorithm::kHashJoin, true);
    }
    ThreadPool::Global().SetDegree(1);
    scaling.AddRow({StrFormat("%lldK", static_cast<long long>(rl / 1000)),
                    HumanSeconds(secs[0]), HumanSeconds(secs[1]),
                    StrFormat("%.2fx", secs[0] / std::max(1e-9, secs[1]))});
  }
  std::cout << "\n=== Hash-join checkout, threads=1 vs threads=" << n_threads
            << " (|Rk|=" << StrFormat("%.2fM", rk / 1e6) << ") ===\n";
  scaling.Print(std::cout);

  // Compressed membership index: the same checkout with the rlist held as
  // a plain i64 vector joined by hash (the kernel split-by-vlist and the
  // Sec. 5.5.5 ablation run) vs as a compressed RidSet probed in place
  // (JoinRidSet: container-at-a-time IntersectToRows, the split-by-rlist
  // checkout). Production builds the set once at commit time, so
  // construction stays outside the timer. The gauges keep their historical
  // off/on names: off = plain hash join, on = JoinRidSet.
  ThreadPool::Global().SetDegree(n_threads);
  auto median3 = [](auto&& fn) {
    double a = fn();
    double b = fn();
    double c = fn();
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };
  TablePrinter ridset_table(
      {"|rlist|", "plain rlist (hash)", "ridset (JoinRidSet)", "speedup"});
  for (int64_t rl : rlist_sizes) {
    Xorshift rng(41);
    auto sample = rng.SampleWithoutReplacement(static_cast<uint64_t>(rk),
                                               static_cast<uint64_t>(rl));
    std::vector<int64_t> rlist(sample.begin(), sample.end());
    std::sort(rlist.begin(), rlist.end());
    const RidSet set = RidSet::FromSorted(rlist);
    double off_secs = median3([&]() {
      return TimeCheckout(data, rlist, JoinAlgorithm::kHashJoin, true);
    });
    double on_secs = median3([&]() {
      Timer timer;
      auto rows = minidb::JoinRidSet(data, 0, set, /*clustered_on_rid=*/true);
      Table result = data.CopyRows(rows, "checkout");
      double elapsed = timer.ElapsedSeconds();
      if (result.num_rows() != rlist.size()) {
        std::cerr << "ridset join lost rows\n";
        std::exit(1);
      }
      return elapsed;
    });
    double speedup = off_secs / std::max(1e-9, on_secs);
    ridset_table.AddRow({StrFormat("%lldK", static_cast<long long>(rl / 1000)),
                         HumanSeconds(off_secs), HumanSeconds(on_secs),
                         StrFormat("%.2fx", speedup)});
    // Dynamic names: direct registry handles instead of the literal-name
    // macros.
    auto& reg = MetricsRegistry::Global();
    const std::string prefix =
        StrFormat("bench.ridset.checkout.rl%lldk",
                  static_cast<long long>(rl / 1000));
    reg.gauge(prefix + ".off_us").Set(static_cast<int64_t>(off_secs * 1e6));
    reg.gauge(prefix + ".on_us").Set(static_cast<int64_t>(on_secs * 1e6));
    reg.gauge(prefix + ".speedup_x100")
        .Set(static_cast<int64_t>(speedup * 100));
  }
  std::cout << "\n=== Checkout with compressed membership index "
               "(plain-rlist hash join vs JoinRidSet, |Rk|="
            << StrFormat("%.2fM", rk / 1e6) << ", rid-clustered) ===\n";
  ridset_table.Print(std::cout);
}

}  // namespace
}  // namespace orpheus::bench

int main(int argc, char** argv) {
  orpheus::bench::MaybeStartTrace(argc, argv);
  orpheus::bench::Run(argc, argv);
  orpheus::bench::ExportMetrics(argc, argv);
  orpheus::bench::ExportTrace(argc, argv);
}
