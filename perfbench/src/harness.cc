#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <sched.h>
#include <sys/resource.h>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "minidb/schema.h"
#include "minidb/value.h"

namespace perfbench {

namespace fs = std::filesystem;
using orpheus::StrFormat;
using orpheus::Timer;
using orpheus::Xorshift;
using orpheus::core::Cvd;
using orpheus::minidb::ColumnDef;
using orpheus::minidb::Schema;
using orpheus::minidb::Table;
using orpheus::minidb::ValueType;

namespace {

volatile uint64_t probe_sink = 0;

// Workload table. See perfbench/README.md for why each one exists.
constexpr WorkloadSpec kWorkloads[] = {
    {"sci-read", false, 200, 20, 500, 1, false, 0, true},
    {"sci-edit", false, 200, 20, 200, 0, false, 2, false},
    {"cur-mixed", true, 200, 20, 200, 2, true, 1, false},
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

uint64_t RowHash(const int64_t* values, size_t n) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < n; ++i) h = Mix(h, static_cast<uint64_t>(values[i]));
  return h;
}

Schema ImportSchema(int num_attributes) {
  std::vector<ColumnDef> cols;
  cols.push_back({"_rid", ValueType::kInt64});
  for (int a = 0; a < num_attributes; ++a) {
    cols.push_back({StrFormat("a%d", a), ValueType::kInt64});
  }
  return Schema(std::move(cols));
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

orpheus::benchdata::GeneratorConfig ConfigFor(const WorkloadSpec& spec,
                                              uint64_t seed) {
  return spec.curated
             ? orpheus::benchdata::CurConfig(spec.name, spec.versions,
                                             spec.branches, spec.ops, seed)
             : orpheus::benchdata::SciConfig(spec.name, spec.versions,
                                             spec.branches, spec.ops, seed);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double MedianRate(std::vector<double> done_s, double window_s) {
  const size_t spans = static_cast<size_t>(window_s);
  const size_t per_span = spans == 0 ? 0 : done_s.size() / spans;
  if (spans < 2 || per_span < 1) return done_s.size() / window_s;
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  for (size_t i = 0; i + per_span < done_s.size(); i += per_span) {
    const double span_s = done_s[i + per_span] - done_s[i];
    if (span_s > 0) rates.push_back(per_span / span_s);
  }
  return rates.empty() ? done_s.size() / window_s : Median(std::move(rates));
}

std::vector<int> PinToLastCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int c = CPU_SETSIZE - 1;
       c >= 0 && static_cast<int>(cpus.size()) < count; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpus.push_back(c);
    CPU_SET(c, &chosen);
  }
  if (cpus.empty() || sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return {};
  }
  std::sort(cpus.begin(), cpus.end());
  return cpus;
}

ProcessUsage ProcessUsage::Now() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return {};
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime), usage.ru_minflt};
}

double ReadablePercentile(size_t n) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

double HostProbeMs() {
  Timer timer;
  uint64_t acc = 0;
  Xorshift rng(12345);
  for (int i = 0; i < (1 << 23); ++i) acc = Mix(acc, rng.Next());
  const double ms = timer.ElapsedMillis();
  probe_sink = acc;  // keeps the loop from being optimized away
  return ms;
}

Result<std::unique_ptr<Cvd>> ImportHistory(const VersionedDataset& ds,
                                           int64_t* distinct_records) {
  const uint64_t records_new_before =
      CounterSnapshot::Take().Get("cvd.commit.records_new");
  const int attrs = ds.num_attributes();
  const size_t width = static_cast<size_t>(attrs) + 1;
  // Generator rid -> CVD rid. CommitTable hands fresh rids out in row
  // order, so the mapping of a version's new records is known up front.
  std::vector<int64_t> cvd_rid(ds.num_distinct_records(), -1);
  int64_t next_rid = 0;
  std::unique_ptr<Cvd> cvd;
  std::vector<int64_t> rows;
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    rows.clear();
    rows.reserve(spec.records.size() * width);
    for (int64_t rid : spec.records) {
      rows.push_back(cvd_rid[rid]);
      if (cvd_rid[rid] < 0) cvd_rid[rid] = next_rid++;
      for (int64_t x : ds.RecordPayload(rid)) rows.push_back(x);
    }
    Table table("import", ImportSchema(attrs));
    table.AppendIntRows(rows.data(), spec.records.size());
    if (v == 0) {
      Cvd::Options options;
      options.primary_key = {"a0"};
      ORPHEUS_ASSIGN_OR_RETURN(cvd, Cvd::Init(kCvdName, table, options));
      continue;
    }
    std::vector<VersionId> parents;
    for (int p : spec.parents) parents.push_back(p + 1);
    ORPHEUS_ASSIGN_OR_RETURN(VersionId vid,
                             cvd->CommitTable(table, parents, "import"));
    if (vid != v + 1) {
      return Status::Internal(
          StrFormat("import of version %d landed as v%d", v + 1, vid));
    }
  }
  // Every record the versions share must have been recognised as kept.
  const int64_t stored = static_cast<int64_t>(
      CounterSnapshot::Take().Get("cvd.commit.records_new") -
      records_new_before);
  if (stored != next_rid) {
    return Status::Internal(StrFormat(
        "import stored %lld records, the versions hold %lld distinct ones",
        static_cast<long long>(stored), static_cast<long long>(next_rid)));
  }
  if (distinct_records != nullptr) *distinct_records = next_rid;
  return cvd;
}

uint64_t TableChecksum(const Table& table) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).name != "_rid") cols.push_back(c);
  }
  std::vector<int64_t> row(cols.size());
  uint64_t sum = 0;
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const auto& col = table.column(cols[k]);
      row[k] = col.IsNull(r) ? INT64_MIN : col.GetInt(r);
    }
    sum += RowHash(row.data(), row.size());
  }
  return sum;
}

uint64_t OracleChecksum(const VersionedDataset& ds,
                        const std::vector<VersionId>& vids) {
  std::unordered_set<int64_t> pks;
  uint64_t sum = 0;
  for (VersionId vid : vids) {
    for (int64_t rid : ds.version(vid - 1).records) {
      if (!pks.insert(ds.PrimaryKeyOf(rid)).second) continue;
      std::vector<int64_t> payload = ds.RecordPayload(rid);
      sum += RowHash(payload.data(), payload.size());
    }
  }
  return sum;
}

VersionId WriterStartVersion(const VersionedDataset& ds) {
  std::vector<char> has_child(ds.num_versions(), 0);
  std::vector<size_t> sizes;
  for (const auto& spec : ds.versions()) {
    for (int p : spec.parents) has_child[p] = 1;
    sizes.push_back(spec.records.size());
  }
  std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                   sizes.end());
  const int64_t median = static_cast<int64_t>(sizes[sizes.size() / 2]);
  int best = ds.num_versions() - 1;
  int64_t best_gap = INT64_MAX;
  for (int v = ds.num_versions() - 1; v >= 0; --v) {
    const int64_t gap = std::abs(
        static_cast<int64_t>(ds.version(v).records.size()) - median);
    if (!has_child[v] && gap < best_gap) {
      best = v;
      best_gap = gap;
    }
  }
  return best + 1;
}

int EditOwnedRows(Table* table, int owner, int owners, uint64_t seed,
                  int iteration) {
  const int pk_col = table->schema().FindColumn("a0");
  const int first_attr = pk_col + 1;
  const int num_attrs = static_cast<int>(table->num_columns()) - first_attr;
  if (pk_col < 0 || num_attrs < 1) return 0;
  std::vector<uint32_t> owned;
  for (uint32_t r = 0; r < table->num_rows(); ++r) {
    if (table->column(pk_col).GetInt(r) % owners == owner) owned.push_back(r);
  }
  Xorshift rng(seed * 0x100000001B3ULL + static_cast<uint64_t>(owner) * 7919 +
               static_cast<uint64_t>(iteration) * 104729);
  const size_t edits = std::max<size_t>(1, owned.size() / 100);
  const int col = first_attr + iteration % num_attrs;
  for (size_t i = 0; i < edits && i < owned.size(); ++i) {
    std::swap(owned[i], owned[i + rng.Uniform(owned.size() - i)]);
    orpheus::minidb::Row row = table->GetRow(owned[i]);
    row[col] = orpheus::minidb::Value(
        static_cast<int64_t>(rng.Uniform(1000000000)));
    table->SetRow(owned[i], row);
  }
  return static_cast<int>(std::min(edits, owned.size()));
}

ReadSequence::ReadSequence(const WorkloadSpec& spec, uint64_t seed, int reader)
    : versions_(spec.versions),
      pairs_(spec.pair_reads),
      rng_(seed * 1000003ULL + static_cast<uint64_t>(reader) + 17) {}

std::vector<VersionId> ReadSequence::Next() {
  const VersionId a = 1 + static_cast<VersionId>(rng_.Uniform(versions_));
  if (!pairs_) return {a};
  VersionId b = 1 + static_cast<VersionId>(rng_.Uniform(versions_ - 1));
  if (b >= a) ++b;
  return {a, b};
}

ScopedDir::ScopedDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  fs::create_directories(path_, ec);
}

ScopedDir::~ScopedDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

uint64_t RepoBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 || name.rfind("wal-", 0) == 0) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) {
    return Status::Internal(StrFormat("copy %s -> %s: %s", from.c_str(),
                                     to.c_str(), ec.message().c_str()));
  }
  return Status::OK();
}

Result<std::unique_ptr<ServedRepo>> ServedRepo::SetUp(
    const VersionedDataset& ds, const std::string& dir,
    const std::string& socket, SetupTimes* times) {
  std::unique_ptr<ServedRepo> served(new ServedRepo());
  served->dir_ = dir;
  Timer total;
  ORPHEUS_ASSIGN_OR_RETURN(served->repo_,
                           orpheus::storage::Repository::Open(dir));
  Timer import;
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Cvd> cvd,
                           ImportHistory(ds, &served->distinct_records_));
  times->import_s = import.ElapsedSeconds();
  ORPHEUS_RETURN_NOT_OK(served->repo_->LogCreate(*cvd));
  Timer checkpoint;
  ORPHEUS_RETURN_NOT_OK(served->repo_->Checkpoint({cvd.get()}));
  times->checkpoint_s = checkpoint.ElapsedSeconds();
  orpheus::net::ServerOptions options;
  options.listen = "unix:" + socket;
  options.lease_ms = 3600 * 1000;
  options.commit_deadline_ms = 60 * 1000;
  std::vector<std::unique_ptr<Cvd>> cvds;
  cvds.push_back(std::move(cvd));
  ORPHEUS_ASSIGN_OR_RETURN(
      served->server_,
      orpheus::net::SessionServer::Start(served->repo_.get(), std::move(cvds),
                                         options));
  times->total_s = total.ElapsedSeconds();
  served->address_ = served->server_->address();
  return served;
}

ServedRepo::~ServedRepo() { Shutdown(); }

void ServedRepo::Shutdown() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();  // owns the CVDs; holds a raw pointer to the repository
  repo_.reset();
}

int64_t SpanLog::Record(std::string name, double start_ms, double end_ms,
                        int64_t parent, int64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back({std::move(name), start_ms, end_ms, id, parent, op});
  return id;
}

std::string SpanLog::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.duration_ms();
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const Span& s : spans_) {
    auto& entry = by_name[s.name];
    entry.first.push_back(s.duration_ms());
    auto it = child_ms.find(s.id);
    entry.second.push_back(s.duration_ms() -
                           (it == child_ms.end() ? 0.0 : it->second));
  }
  std::ostringstream out;
  for (auto& [name, times] : by_name) {
    out << StrFormat("  span %-24s n=%-5zu p50=%9.3f ms  self p50=%9.3f ms\n",
                     name.c_str(), times.first.size(), Median(times.first),
                     Median(times.second));
  }
  return out.str();
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << StrFormat(
        "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"id\":%lld,"
        "\"parent\":%lld,\"op\":%lld}\n",
        s.name.c_str(), s.start_ms, s.end_ms, static_cast<long long>(s.id),
        static_cast<long long>(s.parent), static_cast<long long>(s.op));
  }
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

Result<std::unique_ptr<orpheus::net::Client>> ConnectClient(
    const std::string& address, const std::string& uuid) {
  orpheus::net::ClientOptions options;
  options.call_deadline_ms = 60 * 1000;
  options.client_uuid = uuid;
  options.jitter_seed = 1;
  return orpheus::net::Client::Connect(address, options);
}

Status RunWriterStep(orpheus::net::Client* client, uint64_t sid,
                     VersionId base, int owner, int owners, uint64_t seed,
                     int iteration, const Timer& clock, WriterStep* step) {
  Timer timer;
  ORPHEUS_ASSIGN_OR_RETURN(VersionId latest, client->Refresh(sid));
  step->refresh_ms = timer.ElapsedMillis();
  step->checkout_start_ms = clock.ElapsedMillis();
  timer.Restart();
  ORPHEUS_ASSIGN_OR_RETURN(
      Table table, client->Checkout(sid, {base != 0 ? base : latest}, "work"));
  step->checkout_ms = timer.ElapsedMillis();
  EditOwnedRows(&table, owner, owners, seed, iteration);
  step->shipped_checksum = TableChecksum(table);
  step->commit_start_ms = clock.ElapsedMillis();
  timer.Restart();
  ORPHEUS_ASSIGN_OR_RETURN(
      orpheus::session::CommitOutcome outcome,
      client->Commit(sid, table, "edit", StrFormat("writer%d", owner)));
  step->commit_ms = timer.ElapsedMillis();
  step->reconciled = outcome.reconciled;
  step->conflicts = outcome.conflicts.size();
  step->vid = outcome.vid;
  step->merged_vid = outcome.merged_vid;
  return Status::OK();
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (auto& [name, value] :
       orpheus::MetricsRegistry::Global().TakeSnapshot().counters) {
    snap.values_.emplace(name, value);
  }
  return snap;
}

uint64_t CounterSnapshot::Get(std::string_view name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

int64_t CounterSnapshot::Delta(const CounterSnapshot& earlier,
                               std::string_view name) const {
  return static_cast<int64_t>(Get(name)) -
         static_cast<int64_t>(earlier.Get(name));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Gate(const std::string& name, bool ok, const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++gates_failed_;
  }
  std::printf("gate %-28s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
}

std::string Report::Text() const {
  std::ostringstream out;
  for (const Entry& e : metrics_) {
    out << StrFormat("  %-40s %16.6f %s\n", e.name.c_str(), e.value,
                     e.unit.c_str());
  }
  return out.str();
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
        << StrFormat("%.9g", value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Status Recover(const std::string& dir, const std::string& scratch,
               const Ledger& ledger, int num_attributes, Report* report,
               RecoveryResult* out) {
  using orpheus::storage::Repository;
  auto fsck = Repository::Fsck(dir);
  report->Gate("fsck_clean", fsck.ok(),
               fsck.ok() ? "" : fsck.status().ToString());
  ScopedDir copy(scratch + "/reopen");
  ORPHEUS_RETURN_NOT_OK(CopyDir(dir, copy.path() + "/repo"));
  const CounterSnapshot before = CounterSnapshot::Take();
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Repository> repo,
                           Repository::Open(copy.path() + "/repo"));
  std::vector<std::unique_ptr<Cvd>> cvds = repo->TakeCvds();
  out->replayed_records = CounterSnapshot::Take().Delta(
      before, "storage.wal.replayed_records");
  const bool one = cvds.size() == 1;
  report->Gate("reopen_one_cvd", one, "");
  if (!one) return Status::OK();
  const Cvd& cvd = *cvds[0];
  report->Gate("ledger_versions",
               cvd.num_versions() == ledger.expected_versions(),
               StrFormat("recovered %d, expected %lld = %d imported + %lld "
                         "commits + %lld merges",
                         cvd.num_versions(),
                         static_cast<long long>(ledger.expected_versions()),
                         ledger.imported,
                         static_cast<long long>(ledger.commits),
                         static_cast<long long>(ledger.merges)));
  int mismatched = 0;
  for (const auto& [vid, checksum] : ledger.shipped) {
    auto table = cvd.Materialize({vid}, "verify");
    if (!table.ok() || TableChecksum(*table) != checksum) ++mismatched;
  }
  report->Gate("acked_versions_recovered", mismatched == 0,
               StrFormat("%zu checked, %d mismatched", ledger.shipped.size(),
                         mismatched));
  ORPHEUS_ASSIGN_OR_RETURN(orpheus::core::CvdState state, cvd.ExportState());
  out->storage_bytes_per_user_byte =
      static_cast<double>(cvd.StorageBytes()) /
      (static_cast<double>(state.next_rid) * num_attributes * 8.0);
  return Status::OK();
}

Result<std::vector<double>> TimeReopens(const std::string& dir,
                                        const std::string& scratch,
                                        int reopens, bool checkpoint_first) {
  using orpheus::storage::Repository;
  ScopedDir base(scratch + "/reopen-base");
  ORPHEUS_RETURN_NOT_OK(CopyDir(dir, base.path() + "/repo"));
  if (checkpoint_first) {
    ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Repository> repo,
                             Repository::Open(base.path() + "/repo"));
    std::vector<std::unique_ptr<Cvd>> cvds = repo->TakeCvds();
    std::vector<const Cvd*> views;
    for (const auto& cvd : cvds) views.push_back(cvd.get());
    ORPHEUS_RETURN_NOT_OK(repo->Close(views));
  }
  std::vector<double> seconds;
  for (int i = 0; i < reopens; ++i) {
    ScopedDir copy(StrFormat("%s/reopen-%d", scratch.c_str(), i));
    ORPHEUS_RETURN_NOT_OK(
        CopyDir(base.path() + "/repo", copy.path() + "/repo"));
    Timer timer;
    ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<Repository> repo,
                             Repository::Open(copy.path() + "/repo"));
    std::vector<std::unique_ptr<Cvd>> cvds = repo->TakeCvds();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return seconds;
}

}  // namespace perfbench
