// Reproduces Figure 5.8 (storage size vs checkout time trade-off curves for
// LyreSplit vs Agglo vs KMeans on SCI_* and CUR_*) and Figures 5.20/5.21
// (the same trade-off in estimated record units).
//
// Expected shape: all three algorithms trade storage for checkout time;
// LyreSplit dominates — at equal storage it reaches a lower checkout time,
// especially at small budgets.

#include <iostream>

#include "bench/bench_util.h"
#include "core/baselines.h"
#include "core/lyresplit.h"

namespace orpheus::bench {
namespace {

using core::Partitioning;

void SweepDataset(const NamedConfig& named, int checkout_samples) {
  std::cerr << "generating " << named.paper_name << "...\n";
  auto ds = benchdata::VersionedDataset::Generate(named.config);
  auto graph = GraphOf(ds);
  auto view = ViewOf(ds);
  auto accessor = AccessorOf(ds);

  TablePrinter table({"scheme", "param", "partitions", "storage",
                      "versioning", "checkout time", "storage (records)",
                      "checkout cost (records)"});

  auto add_point = [&](const std::string& scheme, const std::string& param,
                       const Partitioning& p) {
    auto costs = core::ComputeExactCosts(view, p);
    auto store = core::PartitionedStore::Build(accessor, p);
    double secs = AvgCheckoutSeconds(store, checkout_samples);
    table.AddRow({scheme, param, StrFormat("%d", p.num_partitions),
                  HumanBytes(store.StorageBytes()),
                  HumanBytes(store.VersioningBytes()), HumanSeconds(secs),
                  StrFormat("%.2fM", costs.storage / 1e6),
                  StrFormat("%.3fM", costs.checkout_avg / 1e6)});
  };

  // LyreSplit: sweep delta.
  for (double delta : {0.05, 0.1, 0.2, 0.35, 0.5, 0.8}) {
    auto r = core::LyreSplitWithDelta(graph, delta);
    add_point("LyreSplit", StrFormat("d=%.2f", delta), r.partitioning);
  }

  // Agglo: sweep the partition capacity BC.
  uint64_t total = static_cast<uint64_t>(ds.num_distinct_records());
  for (double frac : {0.1, 0.25, 0.5, 1.0}) {
    core::AggloOptions opt;
    opt.capacity = static_cast<uint64_t>(frac * static_cast<double>(total));
    auto p = core::AggloPartition(view, opt);
    add_point("Agglo", StrFormat("BC=%.2f|R|", frac), p);
  }

  // KMeans: sweep K. The paper caps KMeans runs at 10 hours; we mirror the
  // cutoff by limiting K on the large datasets.
  bool large = ds.num_bipartite_edges() > 3u * 1000 * 1000;
  std::vector<int> ks = large ? std::vector<int>{5, 10}
                              : std::vector<int>{4, 8, 16, 32};
  for (int k : ks) {
    core::KmeansOptions opt;
    opt.k = k;
    auto p = core::KmeansPartition(view, opt);
    add_point("KMeans", StrFormat("K=%d", k), p);
  }

  std::cout << "\n=== Figures 5.8 / 5.20 / 5.21 — " << named.paper_name
            << " (|V|=" << ds.num_versions()
            << ", |R|=" << ds.num_distinct_records()
            << ", |E|=" << ds.num_bipartite_edges() << ") ===\n";
  table.Print(std::cout);
}

void Run(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  int samples = HasFlag(argc, argv, "--quick") ? 10 : 40;
  for (const auto& named : Table52Configs(scale)) {
    if (named.paper_name == "SCI_2M" || named.paper_name == "SCI_8M") {
      continue;  // the paper's Figure 5.8 uses the 1M/5M/10M variants
    }
    SweepDataset(named, samples);
  }
}

}  // namespace
}  // namespace orpheus::bench

int main(int argc, char** argv) {
  orpheus::bench::MaybeStartTrace(argc, argv);
  orpheus::bench::Run(argc, argv);
  orpheus::bench::ExportMetrics(argc, argv);
  orpheus::bench::ExportTrace(argc, argv);
}
