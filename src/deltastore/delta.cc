#include "deltastore/delta.h"

#include <unordered_map>

namespace orpheus::deltastore {

uint64_t LineDelta::StorageBytes() const {
  uint64_t bytes = 0;
  for (const auto& op : ops) {
    bytes += 12;  // op header: kind + two varint-ish fields
    if (op.kind == Op::Kind::kInsert) {
      for (const auto& l : op.lines) bytes += l.size() + 1;
    }
  }
  return bytes;
}

LineDelta ComputeLineDelta(const FileContent& from, const FileContent& to) {
  // Index source lines by content (first occurrence wins; later duplicates
  // are still matchable through run extension).
  std::unordered_map<std::string, std::vector<size_t>> where;
  for (size_t i = 0; i < from.lines.size(); ++i) {
    auto& v = where[from.lines[i]];
    if (v.size() < 4) v.push_back(i);  // cap to bound matching cost
  }

  LineDelta delta;
  size_t t = 0;
  while (t < to.lines.size()) {
    auto it = where.find(to.lines[t]);
    if (it == where.end()) {
      // Literal run.
      if (delta.ops.empty() ||
          delta.ops.back().kind != LineDelta::Op::Kind::kInsert) {
        LineDelta::Op op;
        op.kind = LineDelta::Op::Kind::kInsert;
        delta.ops.push_back(op);
      }
      delta.ops.back().lines.push_back(to.lines[t]);
      ++t;
      continue;
    }
    // Pick the anchor yielding the longest forward run.
    size_t best_start = it->second[0];
    size_t best_len = 0;
    for (size_t s : it->second) {
      size_t len = 0;
      while (s + len < from.lines.size() && t + len < to.lines.size() &&
             from.lines[s + len] == to.lines[t + len]) {
        ++len;
      }
      if (len > best_len) {
        best_len = len;
        best_start = s;
      }
    }
    LineDelta::Op op;
    op.kind = LineDelta::Op::Kind::kCopy;
    op.src_begin = best_start;
    op.src_len = best_len;
    delta.ops.push_back(op);
    t += best_len;
  }
  return delta;
}

FileContent ApplyLineDelta(const FileContent& from, const LineDelta& delta) {
  FileContent out;
  for (const auto& op : delta.ops) {
    if (op.kind == LineDelta::Op::Kind::kCopy) {
      for (size_t i = 0; i < op.src_len; ++i) {
        out.lines.push_back(from.lines[op.src_begin + i]);
      }
    } else {
      for (const auto& l : op.lines) out.lines.push_back(l);
    }
  }
  return out;
}

}  // namespace orpheus::deltastore
