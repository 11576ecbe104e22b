// Reproduces Figure 4.1 (a,b,c): storage size, commit time and checkout
// time for the five CVD data models of Chapter 4, on the SCI versioning
// benchmark at four sizes. Also reproduces the Sec. 4.2 commentary
// experiment (delta-based vs split-by-rlist commit with 30% modified
// records).
//
// Expected shape (paper): a-table-per-version ~10x storage of the split
// models; combined-table and split-by-vlist commits are orders of magnitude
// slower than split-by-rlist; delta-based checkout degrades on long chains
// while a-table-per-version checkout is fastest.

#include <iostream>
#include <memory>
#include <unordered_set>

#include "bench/bench_util.h"
#include "core/data_models.h"

namespace orpheus::bench {
namespace {

using core::DataModelBackend;
using core::DataModelType;
using core::NewRecord;
using core::RecordId;

const DataModelType kModels[] = {
    DataModelType::kATablePerVersion, DataModelType::kCombinedTable,
    DataModelType::kSplitByVlist, DataModelType::kSplitByRlist,
    DataModelType::kDeltaBased,
};

minidb::Schema AttrSchema(int num_attributes) {
  std::vector<minidb::ColumnDef> cols;
  for (int a = 0; a < num_attributes; ++a) {
    cols.push_back({StrFormat("a%d", a), minidb::ValueType::kInt64});
  }
  return minidb::Schema(std::move(cols));
}

minidb::Row PayloadRow(const benchdata::VersionedDataset& ds, RecordId rid) {
  minidb::Row row;
  for (int64_t v : ds.RecordPayload(rid)) row.emplace_back(v);
  return row;
}

std::unique_ptr<DataModelBackend> BuildBackend(
    DataModelType type, const benchdata::VersionedDataset& ds) {
  auto backend =
      DataModelBackend::Create(type, AttrSchema(ds.num_attributes()));
  std::vector<char> seen(ds.num_distinct_records(), 0);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    std::vector<NewRecord> fresh;
    for (RecordId rid : spec.records) {
      if (!seen[rid]) {
        seen[rid] = 1;
        fresh.push_back({rid, PayloadRow(ds, rid)});
      }
    }
    Status s = backend->AddVersion(v, spec.records, fresh, spec.parents);
    if (!s.ok()) {
      std::cerr << "AddVersion failed: " << s.ToString() << "\n";
      std::exit(1);
    }
  }
  return backend;
}

struct Measurement {
  uint64_t storage_bytes = 0;
  double commit_seconds = 0.0;
  double checkout_seconds = 0.0;
};

// Median of three trials — the paper's protocol repeats each experiment,
// discards the extremes and averages the rest (Sec. 5.5.1); median-of-3 is
// the equivalent at our repeat count.
template <typename Fn>
double MedianOf3(Fn&& fn) {
  double a = fn();
  double b = fn();
  double c = fn();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

Measurement Measure(DataModelType type, const benchdata::VersionedDataset& ds) {
  auto backend = BuildBackend(type, ds);
  Measurement m;
  const int latest = ds.num_versions() - 1;
  m.storage_bytes = backend->StorageBytes();

  // Checkout the latest version (Sec. 4.2's protocol).
  m.checkout_seconds = MedianOf3([&]() {
    Timer checkout;
    auto table = backend->Checkout(latest, "t_prime");
    double secs = checkout.ElapsedSeconds();
    if (!table.ok()) {
      std::cerr << "checkout failed: " << table.status().ToString() << "\n";
      std::exit(1);
    }
    return secs;
  });

  // Commit T' straight back as a new, unchanged version (each trial adds a
  // fresh version id; the work per commit is identical).
  const auto& rids = ds.version(latest).records;
  m.commit_seconds = MedianOf3([&]() {
    Timer commit;
    Status s = backend->AddVersion(backend->num_versions(), rids, {},
                                   {latest});
    double secs = commit.ElapsedSeconds();
    if (!s.ok()) {
      std::cerr << "commit failed: " << s.ToString() << "\n";
      std::exit(1);
    }
    return secs;
  });
  return m;
}

// The Sec. 4.2 modified-commit comparison: commit a version whose records
// are `modified_frac` new.
double ModifiedCommitSeconds(DataModelType type,
                             const benchdata::VersionedDataset& ds,
                             double modified_frac) {
  auto backend = BuildBackend(type, ds);
  const int latest = ds.num_versions() - 1;
  std::vector<RecordId> rids = ds.version(latest).records;
  Xorshift rng(5);
  std::vector<NewRecord> fresh;
  RecordId next = ds.num_distinct_records();
  for (auto& rid : rids) {
    if (rng.NextDouble() < modified_frac) {
      rid = next++;
      fresh.push_back({rid, PayloadRow(ds, rid % ds.num_distinct_records())});
    }
  }
  std::sort(rids.begin(), rids.end());
  std::sort(fresh.begin(), fresh.end(),
            [](const NewRecord& a, const NewRecord& b) { return a.rid < b.rid; });
  Timer commit;
  Status s = backend->AddVersion(ds.num_versions(), rids, fresh, {latest});
  double elapsed = commit.ElapsedSeconds();
  if (!s.ok()) {
    std::cerr << "modified commit failed: " << s.ToString() << "\n";
    std::exit(1);
  }
  return elapsed;
}

void Run(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  auto configs = Table52Configs(scale, /*include_large=*/false);
  configs.resize(4);  // SCI_1M, SCI_2M, SCI_5M, SCI_8M

  std::vector<std::string> header = {"dataset"};
  for (auto model : kModels) header.push_back(core::DataModelTypeName(model));
  TablePrinter storage(header);
  TablePrinter commit(header);
  TablePrinter checkout(header);

  for (const auto& named : configs) {
    std::cerr << "generating " << named.paper_name << "...\n";
    auto ds = benchdata::VersionedDataset::Generate(named.config);
    std::vector<std::string> srow = {named.paper_name};
    std::vector<std::string> mrow = {named.paper_name};
    std::vector<std::string> crow = {named.paper_name};
    for (auto model : kModels) {
      std::cerr << "  " << core::DataModelTypeName(model) << "\n";
      Measurement m = Measure(model, ds);
      // Exact bytes, so a snapshot diff shows any change to Figure 4.1(a).
      MetricsRegistry::Global()
          .gauge(StrFormat("bench.storage_bytes.%s.%s",
                           named.paper_name.c_str(),
                           core::DataModelTypeName(model)))
          .Set(static_cast<int64_t>(m.storage_bytes));
      srow.push_back(HumanBytes(m.storage_bytes));
      mrow.push_back(HumanSeconds(m.commit_seconds));
      crow.push_back(HumanSeconds(m.checkout_seconds));
    }
    storage.AddRow(srow);
    commit.AddRow(mrow);
    checkout.AddRow(crow);
  }

  std::cout << "\n=== Figure 4.1(a): storage size comparison ===\n";
  storage.Print(std::cout);
  std::cout << "\n=== Figure 4.1(b): commit time comparison "
               "(checkout latest, commit unchanged) ===\n";
  commit.Print(std::cout);
  std::cout << "\n=== Figure 4.1(c): checkout time comparison ===\n";
  checkout.Print(std::cout);

  // Sec. 4.2 commentary: 30%-modified commit, delta-based vs split-by-rlist.
  auto ds = benchdata::VersionedDataset::Generate(
      benchdata::SciConfig("SCI_MOD", 400, 40, 25 * scale));
  TablePrinter mod({"model", "commit (30% modified)"});
  for (auto model :
       {DataModelType::kDeltaBased, DataModelType::kSplitByRlist}) {
    mod.AddRow({core::DataModelTypeName(model),
                HumanSeconds(ModifiedCommitSeconds(model, ds, 0.3))});
  }
  std::cout << "\n=== Sec. 4.2: commit with 30% modified records ===\n";
  mod.Print(std::cout);
}

}  // namespace
}  // namespace orpheus::bench

int main(int argc, char** argv) {
  orpheus::bench::MaybeStartTrace(argc, argv);
  orpheus::bench::Run(argc, argv);
  orpheus::bench::ExportMetrics(argc, argv);
  orpheus::bench::ExportTrace(argc, argv);
}
