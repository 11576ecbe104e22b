#ifndef ORPHEUS_COMMON_METRICS_H_
#define ORPHEUS_COMMON_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"
#include "common/trace.h"

/// Process-wide observability layer (DESIGN.md §8).
///
/// Three primitives, all aggregated in a lock-sharded MetricsRegistry:
///   - Counter: monotonic uint64, one relaxed atomic add on the fast path.
///   - Gauge:   last-write-wins int64 (levels, partition counts, degrees).
///   - Histogram: fixed power-of-two buckets with approximate p50/p95/p99;
///     used for latencies (microseconds) and size distributions
///     (delta.chain_len, ...).
///   - TraceSpan: nestable RAII stage tracer. Spans form slash-joined paths
///     ("pstore.migrate/pstore.build"); each path aggregates call count,
///     total and child wall time, and a latency histogram, so any stage's
///     self time and tail latency fall out of one snapshot.
///
/// Conventions: metric names are dot-separated `<layer>.<op>[.<detail>]`
/// (`cvd.checkout.records_materialized`, `delta.chain_len`). Span paths use
/// the layer.op of the enclosing operation.
///
/// Cost model: instrumentation sites cache their Counter/Histogram handle in
/// a function-local static, so the steady state is one branch on a cached
/// bool plus one relaxed atomic RMW — no allocation, no locking. Span
/// enter/exit adds two clock reads and one sharded map update per *stage*,
/// not per row. Building with -DORPHEUS_METRICS=OFF defines
/// ORPHEUS_METRICS_ENABLED=0 and compiles every site out entirely; setting
/// the ORPHEUS_METRICS environment variable to 0 disables collection at
/// startup without rebuilding.

#ifndef ORPHEUS_METRICS_ENABLED
#define ORPHEUS_METRICS_ENABLED 1
#endif

namespace orpheus {

namespace metrics_internal {
/// Reads the ORPHEUS_METRICS environment variable (once, via the checked
/// env parser). Out-of-line so metrics.h does not depend on env.h.
bool ReadMetricsEnv();
}  // namespace metrics_internal

/// Master switch: false when the build compiled instrumentation out or the
/// ORPHEUS_METRICS environment variable is 0. Read once at first use;
/// inline so per-row instrumentation sites pay one guard-variable load.
inline bool MetricsEnabled() {
#if ORPHEUS_METRICS_ENABLED
  static const bool enabled = metrics_internal::ReadMetricsEnv();
  return enabled;
#else
  return false;
#endif
}

/// Monotonic counter. Value updates are relaxed: totals are exact once the
/// writing threads have joined (every engine fan-out awaits its TaskGroup),
/// and monotically approximate while they run.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket b counts values whose bit width is b
/// (i.e. [2^(b-1), 2^b), with bucket 0 = {0}), so Record is a bit_width
/// plus one relaxed atomic add — no allocation, no locking, bounded error
/// of 2x on percentile estimates, exact count/sum/min/max.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit widths of uint64_t + zero

  void Record(uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // min/max via CAS loops; contention is irrelevant at stage granularity.
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };
  Snapshot TakeSnapshot() const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

/// Aggregated statistics for one span path.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_us = 0;
  uint64_t child_us = 0;  // time spent in directly nested spans
  Histogram latency_us;
};

/// The process-wide metric store. Names are registered on first use and
/// never removed (Reset zeroes values, keeping cached handles valid), so
/// instrumentation sites can hold references in function-local statics.
/// Registration and span aggregation are sharded by name hash to keep
/// contention off unrelated call sites.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Fold one finished span into the per-path aggregate. Zero-allocation
  /// once the path is registered (heterogeneous string_view lookup).
  void RecordSpan(std::string_view path, uint64_t elapsed_us,
                  uint64_t child_us);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    struct Span {
      std::string path;
      uint64_t count = 0;
      uint64_t total_us = 0;
      uint64_t self_us = 0;
      Histogram::Snapshot latency_us;
    };
    std::vector<Span> spans;
  };
  /// A consistent-enough copy of everything, each section sorted by name.
  Snapshot TakeSnapshot() const;

  /// Zero every value; registered names (and handles) survive.
  void Reset();

  /// Plaintext snapshot for the CLI `stats` command and debugging.
  std::string ToText() const;
  /// JSON snapshot (the `--metrics-json` bench flag; schema in
  /// tools/metrics_schema.json).
  std::string ToJson() const;

 private:
  static constexpr size_t kNumShards = 16;
  struct Shard {
    // All shards share one rank: they are leaves of the lock order and two
    // shards are never held together (every registry operation touches
    // exactly one shard; snapshot iteration locks them one at a time).
    mutable Mutex mu{"metrics.shard", lock_rank::kMetricsShard};
    // std::map with transparent comparison: stable addresses for handles,
    // string_view lookup without allocating.
    std::map<std::string, Counter, std::less<>> counters ORPHEUS_GUARDED_BY(mu);
    std::map<std::string, Gauge, std::less<>> gauges ORPHEUS_GUARDED_BY(mu);
    std::map<std::string, Histogram, std::less<>> histograms
        ORPHEUS_GUARDED_BY(mu);
    std::map<std::string, SpanStats, std::less<>> spans ORPHEUS_GUARDED_BY(mu);
  };
  Shard& ShardOf(std::string_view name) {
    return shards_[std::hash<std::string_view>{}(name) % kNumShards];
  }
  const Shard& ShardOf(std::string_view name) const {
    return shards_[std::hash<std::string_view>{}(name) % kNumShards];
  }

  Shard shards_[kNumShards];
};

/// RAII stage tracer. Spans nest per thread: a span opened while another is
/// live on the same thread records under "<parent-path>/<name>" and its
/// elapsed time is charged to the parent's child_us, so self times sum
/// correctly. The path lives in a fixed buffer (no allocation); paths
/// longer than the buffer are truncated, never overflowed.
///
/// Each span also emits begin/end events into the trace ring buffers
/// (common/trace.h) when tracing is active, and — when ORPHEUS_SLOW_OP_MS
/// is set — top-level spans exceeding the threshold log their direct-child
/// time breakdown through the structured logger (common/log.h).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!MetricsEnabled()) return;
    active_ = true;
    name_ = name;
    parent_ = current_;
    current_ = this;
    size_t len = 0;
    if (parent_ != nullptr) {
      len = parent_->path_len_;
      std::memcpy(path_, parent_->path_, len);
      if (len < kMaxPath - 1) path_[len++] = '/';
    }
    size_t name_len = std::strlen(name);
    if (name_len > kMaxPath - len) name_len = kMaxPath - len;
    std::memcpy(path_ + len, name, name_len);
    path_len_ = len + name_len;
    trace::EmitBegin(name);
    timer_.Restart();
  }

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  std::string_view path() const { return {path_, path_len_}; }

 private:
  static constexpr size_t kMaxPath = 160;
  // Defined inline with its constant initializer, so every translation
  // unit accesses it directly rather than through GCC's TLS wrapper
  // function, whose result UBSan's null check misreads (DESIGN.md §7).
  static inline thread_local TraceSpan* current_ = nullptr;

  /// Per-name direct-child wall time, accumulated only while the slow-op
  /// log is enabled; a closing top-level span over the threshold renders
  /// these as its breakdown. Fixed-size so span destruction never
  /// allocates; overflowing names merge into the last slot.
  static constexpr size_t kMaxChildren = 8;
  struct ChildTime {
    const char* name = nullptr;
    uint64_t total_us = 0;
    uint64_t count = 0;
  };

  void AddChildTime(const char* name, uint64_t elapsed_us);
  void LogSlowOp(uint64_t elapsed_us) const;

  bool active_ = false;
  const char* name_ = nullptr;
  TraceSpan* parent_ = nullptr;
  char path_[kMaxPath];
  size_t path_len_ = 0;
  uint64_t child_us_ = 0;
  ChildTime children_[kMaxChildren];
  size_t num_children_ = 0;
  Timer timer_;
};

}  // namespace orpheus

// Instrumentation macros: the only sanctioned way to emit metrics from
// engine code. Each site caches its handle in a function-local static, so
// the enabled fast path is branch + relaxed atomic; with
// ORPHEUS_METRICS_ENABLED=0 the sites compile to nothing.
#if ORPHEUS_METRICS_ENABLED

#define ORPHEUS_METRICS_CONCAT_(a, b) a##b
#define ORPHEUS_METRICS_CONCAT(a, b) ORPHEUS_METRICS_CONCAT_(a, b)

/// Count `delta` events under `name` (a string literal).
#define ORPHEUS_COUNTER_ADD(name, delta)                             \
  do {                                                               \
    if (::orpheus::MetricsEnabled()) {                               \
      static ::orpheus::Counter& orpheus_metrics_counter =           \
          ::orpheus::MetricsRegistry::Global().counter(name);        \
      orpheus_metrics_counter.Add(delta);                            \
    }                                                                \
  } while (0)

/// Set gauge `name` to `value`.
#define ORPHEUS_GAUGE_SET(name, value)                               \
  do {                                                               \
    if (::orpheus::MetricsEnabled()) {                               \
      static ::orpheus::Gauge& orpheus_metrics_gauge =               \
          ::orpheus::MetricsRegistry::Global().gauge(name);          \
      orpheus_metrics_gauge.Set(value);                              \
    }                                                                \
  } while (0)

/// Record `value` into histogram `name`.
#define ORPHEUS_HISTOGRAM_RECORD(name, value)                        \
  do {                                                               \
    if (::orpheus::MetricsEnabled()) {                               \
      static ::orpheus::Histogram& orpheus_metrics_hist =            \
          ::orpheus::MetricsRegistry::Global().histogram(name);      \
      orpheus_metrics_hist.Record(value);                            \
    }                                                                \
  } while (0)

/// Open a stage span covering the rest of the enclosing scope.
#define ORPHEUS_TRACE_SPAN(name)                  \
  ::orpheus::TraceSpan ORPHEUS_METRICS_CONCAT(    \
      orpheus_trace_span_, __LINE__)(name)

#else  // !ORPHEUS_METRICS_ENABLED

#define ORPHEUS_COUNTER_ADD(name, delta) \
  do {                                   \
  } while (0)
#define ORPHEUS_GAUGE_SET(name, value) \
  do {                                 \
  } while (0)
#define ORPHEUS_HISTOGRAM_RECORD(name, value) \
  do {                                        \
  } while (0)
#define ORPHEUS_TRACE_SPAN(name) \
  do {                           \
  } while (0)

#endif  // ORPHEUS_METRICS_ENABLED

#endif  // ORPHEUS_COMMON_METRICS_H_
