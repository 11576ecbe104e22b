#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/env.h"
#include "common/log.h"
#include "common/string_util.h"

namespace orpheus {

namespace metrics_internal {
bool ReadMetricsEnv() { return ParseEnvBool("ORPHEUS_METRICS", true); }
}  // namespace metrics_internal

namespace {

// Upper edge of a histogram bucket: the largest value with that bit width.
uint64_t BucketUpperEdge(int bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~0ull;
  return (1ull << bucket) - 1;
}

uint64_t PercentileFromBuckets(const uint64_t* buckets, uint64_t count,
                               double pct) {
  if (count == 0) return 0;
  // Rank of the requested percentile, 1-based, nearest-rank method:
  // ceil(pct * count), so p99 of 5 samples is the 5th, not the 4th.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(pct * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return BucketUpperEdge(b);
  }
  return BucketUpperEdge(Histogram::kNumBuckets - 1);
}

void AppendHistogramJson(std::string& out, const Histogram::Snapshot& h) {
  out += "{\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + std::to_string(h.sum);
  out += ",\"min\":" + std::to_string(h.min);
  out += ",\"max\":" + std::to_string(h.max);
  out += ",\"p50\":" + std::to_string(h.p50);
  out += ",\"p95\":" + std::to_string(h.p95);
  out += ",\"p99\":" + std::to_string(h.p99);
  out += "}";
}

}  // namespace

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  uint64_t buckets[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = PercentileFromBuckets(buckets, snap.count, 0.50);
  snap.p95 = PercentileFromBuckets(buckets, snap.count, 0.95);
  snap.p99 = PercentileFromBuckets(buckets, snap.count, 0.99);
  // Percentile estimates are bucket upper edges; clamp to the observed
  // range so e.g. a single-value histogram reports p50 == that value's
  // bucket edge but never exceeds max.
  snap.p50 = std::clamp(snap.p50, snap.min, snap.max);
  snap.p95 = std::clamp(snap.p95, snap.min, snap.max);
  snap.p99 = std::clamp(snap.p99, snap.min, snap.max);
  return snap;
}

void Histogram::Reset() {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton (same pattern as ThreadPool::Global): instrumentation
  // sites cache references into it, so it must outlive every static dtor.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Shard& shard = ShardOf(name);
  MutexLock lock(&shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    it = shard.counters
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple())
             .first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Shard& shard = ShardOf(name);
  MutexLock lock(&shard.mu);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    it = shard.gauges
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple())
             .first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  Shard& shard = ShardOf(name);
  MutexLock lock(&shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms.emplace(std::piecewise_construct,
                                  std::forward_as_tuple(name),
                                  std::forward_as_tuple())
             .first;
  }
  return it->second;
}

void MetricsRegistry::RecordSpan(std::string_view path, uint64_t elapsed_us,
                                 uint64_t child_us) {
  Shard& shard = ShardOf(path);
  MutexLock lock(&shard.mu);
  auto it = shard.spans.find(path);
  if (it == shard.spans.end()) {
    it = shard.spans.emplace(std::piecewise_construct,
                             std::forward_as_tuple(path),
                             std::forward_as_tuple())
             .first;
  }
  SpanStats& stats = it->second;
  stats.count += 1;
  stats.total_us += elapsed_us;
  stats.child_us += child_us;
  stats.latency_us.Record(elapsed_us);
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& [name, c] : shard.counters) {
      snap.counters.emplace_back(name, c.value());
    }
    for (const auto& [name, g] : shard.gauges) {
      snap.gauges.emplace_back(name, g.value());
    }
    for (const auto& [name, h] : shard.histograms) {
      snap.histograms.emplace_back(name, h.TakeSnapshot());
    }
    for (const auto& [path, s] : shard.spans) {
      Snapshot::Span span;
      span.path = path;
      span.count = s.count;
      span.total_us = s.total_us;
      span.self_us = s.total_us >= s.child_us ? s.total_us - s.child_us : 0;
      span.latency_us = s.latency_us.TakeSnapshot();
      snap.spans.push_back(std::move(span));
    }
  }
  auto by_first = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_first);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_first);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_first);
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const Snapshot::Span& a, const Snapshot::Span& b) {
              return a.path < b.path;
            });
  return snap;
}

void MetricsRegistry::Reset() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (auto& [name, c] : shard.counters) c.Reset();
    for (auto& [name, g] : shard.gauges) g.Reset();
    for (auto& [name, h] : shard.histograms) h.Reset();
    for (auto& [path, s] : shard.spans) {
      s.count = 0;
      s.total_us = 0;
      s.child_us = 0;
      s.latency_us.Reset();
    }
  }
}

std::string MetricsRegistry::ToText() const {
  Snapshot snap = TakeSnapshot();
  std::ostringstream out;
  if (!snap.spans.empty()) {
    out << "spans:\n";
    for (const auto& s : snap.spans) {
      out << "  " << s.path << "  count=" << s.count
          << " total_us=" << s.total_us << " self_us=" << s.self_us
          << " p50=" << s.latency_us.p50 << " p95=" << s.latency_us.p95
          << " p99=" << s.latency_us.p99 << "\n";
    }
  }
  if (!snap.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snap.histograms.empty()) {
    out << "histograms:\n";
    for (const auto& [name, h] : snap.histograms) {
      out << "  " << name << "  count=" << h.count << " sum=" << h.sum
          << " min=" << h.min << " max=" << h.max << " p50=" << h.p50
          << " p95=" << h.p95 << " p99=" << h.p99 << "\n";
    }
  }
  std::string text = out.str();
  if (text.empty()) text = "(no metrics recorded)\n";
  return text;
}

std::string MetricsRegistry::ToJson() const {
  Snapshot snap = TakeSnapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    out += ": ";
    AppendHistogramJson(out, h);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": {";
  first = true;
  for (const auto& s : snap.spans) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, s.path);
    out += ": {\"count\":" + std::to_string(s.count);
    out += ",\"total_us\":" + std::to_string(s.total_us);
    out += ",\"self_us\":" + std::to_string(s.self_us);
    out += ",\"latency_us\":";
    AppendHistogramJson(out, s.latency_us);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const uint64_t elapsed = timer_.ElapsedMicros();
  trace::EmitEnd(name_);
  current_ = parent_;
  if (parent_ != nullptr) parent_->child_us_ += elapsed;
  MetricsRegistry::Global().RecordSpan(path(), elapsed, child_us_);
  const uint64_t slow_ms = log::SlowOpThresholdMs();
  if (slow_ms > 0) {
    if (parent_ != nullptr) {
      parent_->AddChildTime(name_, elapsed);
    } else if (elapsed >= slow_ms * 1000) {
      LogSlowOp(elapsed);
    }
  }
}

void TraceSpan::AddChildTime(const char* name, uint64_t elapsed_us) {
  // Merge by name: direct children at one site are few, so a linear scan
  // over <= kMaxChildren entries beats any map. strcmp, not pointer
  // compare — identical literals in different TUs may not be pooled.
  for (size_t i = 0; i < num_children_; ++i) {
    if (children_[i].name == name ||
        std::strcmp(children_[i].name, name) == 0) {
      children_[i].total_us += elapsed_us;
      children_[i].count += 1;
      return;
    }
  }
  if (num_children_ < kMaxChildren) {
    children_[num_children_++] = {name, elapsed_us, 1};
  } else {
    // Overflow: fold into the last slot so no time is silently dropped.
    children_[kMaxChildren - 1].total_us += elapsed_us;
    children_[kMaxChildren - 1].count += 1;
  }
}

void TraceSpan::LogSlowOp(uint64_t elapsed_us) const {
  uint64_t child_total = 0;
  for (size_t i = 0; i < num_children_; ++i) {
    child_total += children_[i].total_us;
  }
  std::vector<log::Field> fields;
  fields.reserve(num_children_ + 3);
  fields.emplace_back("op", path());
  fields.emplace_back("total_ms", elapsed_us / 1000);
  fields.emplace_back("self_ms",
                      (elapsed_us >= child_total ? elapsed_us - child_total
                                                 : 0) /
                          1000);
  for (size_t i = 0; i < num_children_; ++i) {
    fields.emplace_back(std::string(children_[i].name) + "_ms",
                        children_[i].total_us / 1000);
  }
  log::WriteV(log::Level::kWarn, __FILE__, __LINE__, "slow operation",
              fields);
}

}  // namespace orpheus
