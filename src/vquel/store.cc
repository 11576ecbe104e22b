#include "vquel/store.h"

#include <algorithm>
#include <deque>
#include <set>

namespace orpheus::vquel {

int VersionStore::AddVersion(Version version) {
  int idx = num_versions();
  // Derive `changed` flags against the first parent: a relation changed if
  // absent there or with a different tuple set.
  if (!version.parents.empty()) {
    const Version& parent = versions_[version.parents.front()];
    for (auto& rel : version.relations) {
      const Relation* prel = nullptr;
      for (const auto& r : parent.relations) {
        if (r.name == rel.name) prel = &r;
      }
      if (prel == nullptr || prel->tuples.size() != rel.tuples.size()) {
        rel.changed = true;
        continue;
      }
      rel.changed = false;
      for (size_t i = 0; i < rel.tuples.size(); ++i) {
        if (rel.tuples[i].id != prel->tuples[i].id) {
          rel.changed = true;
          break;
        }
      }
    }
  } else {
    for (auto& rel : version.relations) rel.changed = true;
  }
  for (int p : version.parents) versions_[p].children.push_back(idx);
  for (size_t r = 0; r < version.relations.size(); ++r) {
    for (const auto& rec : version.relations[r].tuples) {
      record_index_.emplace(rec.id, std::make_pair(idx, static_cast<int>(r)));
    }
  }
  versions_.push_back(std::move(version));
  return idx;
}

int VersionStore::FindVersion(const std::string& commit_id) const {
  for (int v = 0; v < num_versions(); ++v) {
    if (versions_[v].commit_id == commit_id) return v;
  }
  return -1;
}

const VersionStore::Record* VersionStore::FindRecord(int64_t id) const {
  auto it = record_index_.find(id);
  if (it == record_index_.end()) return nullptr;
  const auto& [v, r] = it->second;
  for (const auto& rec : versions_[v].relations[r].tuples) {
    if (rec.id == id) return &rec;
  }
  return nullptr;
}

namespace {

std::vector<int> Walk(int start, int hops,
                      const std::vector<std::vector<int>>& adj) {
  std::vector<int> out;
  std::set<int> seen = {start};
  std::deque<std::pair<int, int>> frontier = {{start, 0}};
  while (!frontier.empty()) {
    auto [v, d] = frontier.front();
    frontier.pop_front();
    if (hops >= 0 && d >= hops) continue;
    for (int next : adj[v]) {
      if (seen.insert(next).second) {
        out.push_back(next);
        frontier.emplace_back(next, d + 1);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<int> VersionStore::Ancestors(int v, int hops) const {
  std::vector<std::vector<int>> adj(num_versions());
  for (int i = 0; i < num_versions(); ++i) adj[i] = versions_[i].parents;
  return Walk(v, hops, adj);
}

std::vector<int> VersionStore::Descendants(int v, int hops) const {
  std::vector<std::vector<int>> adj(num_versions());
  for (int i = 0; i < num_versions(); ++i) adj[i] = versions_[i].children;
  return Walk(v, hops, adj);
}

std::vector<int> VersionStore::Neighborhood(int v, int hops) const {
  std::vector<std::vector<int>> adj(num_versions());
  for (int i = 0; i < num_versions(); ++i) {
    for (int p : versions_[i].parents) {
      adj[i].push_back(p);
      adj[p].push_back(i);
    }
  }
  return Walk(v, hops, adj);
}

}  // namespace orpheus::vquel
