#include "benchdata/generator.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace orpheus::benchdata {

namespace {

// Deterministic 64-bit mix for record payloads.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

VersionedDataset VersionedDataset::Generate(const GeneratorConfig& config) {
  VersionedDataset ds;
  ds.config_ = config;
  Xorshift rng(config.seed);

  const int kV = config.num_versions;
  const int kI = config.ops_per_version;

  auto new_record = [&ds](int64_t pk) -> int64_t {
    int64_t rid = ds.next_rid_++;
    ds.pk_of_rid_.push_back(pk);
    return rid;
  };

  // Root version: base_multiplier * I fresh records.
  VersionSpec root;
  const int base_size = std::max(1, config.base_multiplier * kI);
  root.records.reserve(base_size);
  for (int i = 0; i < base_size; ++i) {
    root.records.push_back(new_record(ds.next_pk_++));
  }
  ds.versions_.push_back(std::move(root));

  // Apply one commit's worth of operations to a copy of `parent_records`.
  auto apply_ops = [&](const std::vector<int64_t>& parent_records)
      -> std::vector<int64_t> {
    std::vector<int64_t> recs = parent_records;
    for (int op = 0; op < kI; ++op) {
      double dice = rng.NextDouble();
      if (dice < config.update_frac && !recs.empty()) {
        // Update: replace a record with a new rid carrying the same PK.
        size_t pos = rng.Uniform(recs.size());
        recs[pos] = new_record(ds.pk_of_rid_[recs[pos]]);
      } else if (dice < config.update_frac + config.insert_frac ||
                 recs.empty()) {
        recs.push_back(new_record(ds.next_pk_++));
      } else if (recs.size() > 1) {
        // Delete.
        size_t pos = rng.Uniform(recs.size());
        recs[pos] = recs.back();
        recs.pop_back();
      }
    }
    std::sort(recs.begin(), recs.end());
    return recs;
  };

  // Pre-select the commit steps at which new branches are spawned.
  std::unordered_set<uint64_t> branch_steps;
  if (config.num_branches > 1 && kV > 2) {
    for (uint64_t step :
         rng.SampleWithoutReplacement(kV - 1,
                                      std::min<uint64_t>(config.num_branches - 1,
                                                         kV - 2))) {
      branch_steps.insert(step + 1);
    }
  }

  // Active branches, identified by their current head version.
  std::vector<int> branch_heads = {0};  // branch 0 = mainline

  for (int v = 1; v < kV; ++v) {
    VersionSpec spec;
    if (branch_steps.count(static_cast<uint64_t>(v))) {
      // Spawn a branch. SCI branches "at different points on the mainline
      // as well as from other already existing branches"; CUR curators
      // branch from the canonical (recent) dataset so that merges stay
      // close to the mainline (|R̂| is 7-10% of |R| in Table 5.2).
      int src;
      if (config.curated) {
        src = rng.Bernoulli(0.7)
                  ? branch_heads[0]
                  : branch_heads[rng.Uniform(branch_heads.size())];
      } else {
        src = rng.Bernoulli(0.5)
                  ? branch_heads[rng.Uniform(branch_heads.size())]
                  : static_cast<int>(rng.Uniform(v));
      }
      spec.parents = {src};
      spec.records = apply_ops(ds.versions_[src].records);
      ds.versions_.push_back(std::move(spec));
      branch_heads.push_back(v);
      continue;
    }
    // CUR merges: prefer retiring the oldest branch so divergence stays
    // bounded.
    if (config.curated && branch_heads.size() > 1 &&
        rng.Bernoulli(config.merge_prob)) {
      // CUR: merge a side branch back into the mainline. The merged version
      // takes the union of both parents' records; on a primary-key conflict
      // the branch's record wins (precedence order, Sec. 3.3.1). The oldest
      // outstanding branch merges first.
      size_t bi = 1;
      int branch_head = branch_heads[bi];
      int mainline_head = branch_heads[0];
      spec.parents = {branch_head, mainline_head};
      std::unordered_map<int64_t, int64_t> by_pk;
      for (int64_t rid : ds.versions_[branch_head].records) {
        by_pk.emplace(ds.pk_of_rid_[rid], rid);
      }
      for (int64_t rid : ds.versions_[mainline_head].records) {
        by_pk.emplace(ds.pk_of_rid_[rid], rid);  // keeps branch rid on clash
      }
      spec.records.reserve(by_pk.size());
      for (const auto& [pk, rid] : by_pk) {
        (void)pk;
        spec.records.push_back(rid);
      }
      std::sort(spec.records.begin(), spec.records.end());
      ds.versions_.push_back(std::move(spec));
      // The merged version becomes the new mainline head; the side branch
      // is retired.
      branch_heads[0] = v;
      branch_heads.erase(branch_heads.begin() + static_cast<long>(bi));
      continue;
    }
    // Extend a branch: the mainline half the time, otherwise a random one.
    size_t bi = rng.Bernoulli(0.5) ? 0 : rng.Uniform(branch_heads.size());
    int head = branch_heads[bi];
    spec.parents = {head};
    spec.records = apply_ops(ds.versions_[head].records);
    ds.versions_.push_back(std::move(spec));
    branch_heads[bi] = v;
  }

  return ds;
}

uint64_t VersionedDataset::num_bipartite_edges() const {
  uint64_t edges = 0;
  for (const auto& v : versions_) edges += v.records.size();
  return edges;
}

std::vector<int64_t> VersionedDataset::RecordPayload(int64_t rid) const {
  std::vector<int64_t> payload(config_.num_attributes);
  payload[0] = PrimaryKeyOf(rid);
  uint64_t h = Mix64(static_cast<uint64_t>(rid) + 0x1234567ULL);
  for (int a = 1; a < config_.num_attributes; ++a) {
    h = Mix64(h + static_cast<uint64_t>(a));
    payload[a] = static_cast<int64_t>(h % 1000000);
  }
  return payload;
}

int64_t VersionedDataset::CommonRecords(int a, int b) const {
  const auto& ra = versions_[a].records;
  const auto& rb = versions_[b].records;
  int64_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < ra.size() && j < rb.size()) {
    if (ra[i] < rb[j]) {
      ++i;
    } else if (ra[i] > rb[j]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

GeneratorConfig SciConfig(const std::string& name, int num_versions,
                          int num_branches, int ops_per_version,
                          uint64_t seed) {
  GeneratorConfig c;
  c.name = name;
  c.num_versions = num_versions;
  c.num_branches = num_branches;
  c.ops_per_version = ops_per_version;
  c.curated = false;
  c.base_multiplier = 10;
  c.seed = seed;
  return c;
}

GeneratorConfig CurConfig(const std::string& name, int num_versions,
                          int num_branches, int ops_per_version,
                          uint64_t seed) {
  GeneratorConfig c;
  c.name = name;
  c.num_versions = num_versions;
  c.num_branches = num_branches;
  c.ops_per_version = ops_per_version;
  c.curated = true;
  // Table 5.2: CUR versions are ~3x larger than SCI on average.
  c.base_multiplier = 30;
  c.seed = seed;
  return c;
}

}  // namespace orpheus::benchdata
