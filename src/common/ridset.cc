#include "common/ridset.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/sync.h"

namespace orpheus {

namespace {

constexpr size_t kWordsPerChunk = 1024;  // 65536 bits
constexpr uint64_t kBitmapBytes = kWordsPerChunk * 8;

static_assert((-1 >> 1) == -1, "arithmetic right shift required");

int64_t ChunkKey(int64_t v) { return v >> 16; }
uint16_t ChunkLow(int64_t v) { return static_cast<uint16_t>(v & 0xFFFF); }
int64_t ChunkValue(int64_t key, uint16_t low) {
  return static_cast<int64_t>((static_cast<uint64_t>(key) << 16) | low);
}

bool BitTest(const std::vector<uint64_t>& words, uint16_t low) {
  return (words[low >> 6] >> (low & 63)) & 1;
}

void SetBitRange(std::vector<uint64_t>& words, uint16_t start, uint16_t last) {
  size_t ws = start >> 6;
  size_t we = last >> 6;
  uint64_t first = ~0ull << (start & 63);
  uint64_t tail = ~0ull >> (63 - (last & 63));
  if (ws == we) {
    words[ws] |= first & tail;
    return;
  }
  words[ws] |= first;
  for (size_t w = ws + 1; w < we; ++w) words[w] = ~0ull;
  words[we] |= tail;
}

/// Count of maximal runs of consecutive values in a strictly ascending list.
size_t CountRuns(const uint16_t* lows, size_t n) {
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) {
    runs += (lows[i] != static_cast<uint16_t>(lows[i - 1] + 1) ||
             lows[i - 1] == 0xFFFF);
  }
  return runs;
}

/// Deterministic container choice: run iff strictly smallest, else array
/// unless it would exceed the bitmap, else bitmap.
RidSet::ContainerType ChooseType(size_t card, size_t nruns) {
  uint64_t array_bytes = 2 * static_cast<uint64_t>(card);
  uint64_t run_bytes = 4 * static_cast<uint64_t>(nruns);
  if (run_bytes < array_bytes && run_bytes < kBitmapBytes) {
    return RidSet::ContainerType::kRun;
  }
  if (array_bytes <= kBitmapBytes) return RidSet::ContainerType::kArray;
  return RidSet::ContainerType::kBitmap;
}

/// Build the canonical container for a chunk from its strictly ascending
/// low-16-bit values. n >= 1.
RidSet::Container MakeCanonical(int64_t key, const uint16_t* lows, size_t n) {
  RidSet::Container c;
  c.key = key;
  c.cardinality = static_cast<uint32_t>(n);
  size_t nruns = CountRuns(lows, n);
  c.type = ChooseType(n, nruns);
  switch (c.type) {
    case RidSet::ContainerType::kArray:
      c.u16.assign(lows, lows + n);
      break;
    case RidSet::ContainerType::kRun: {
      c.u16.reserve(2 * nruns);
      uint16_t start = lows[0];
      uint16_t prev = lows[0];
      for (size_t i = 1; i < n; ++i) {
        if (lows[i] != static_cast<uint16_t>(prev + 1) || prev == 0xFFFF) {
          c.u16.push_back(start);
          c.u16.push_back(prev);
          start = lows[i];
        }
        prev = lows[i];
      }
      c.u16.push_back(start);
      c.u16.push_back(prev);
      break;
    }
    case RidSet::ContainerType::kBitmap:
      c.words.assign(kWordsPerChunk, 0);
      for (size_t i = 0; i < n; ++i) {
        c.words[lows[i] >> 6] |= uint64_t{1} << (lows[i] & 63);
      }
      break;
  }
  return c;
}

void ContainerToWords(const RidSet::Container& c, std::vector<uint64_t>& w) {
  switch (c.type) {
    case RidSet::ContainerType::kArray:
      for (uint16_t low : c.u16) w[low >> 6] |= uint64_t{1} << (low & 63);
      break;
    case RidSet::ContainerType::kBitmap:
      w = c.words;
      break;
    case RidSet::ContainerType::kRun:
      for (size_t i = 0; i + 1 < c.u16.size(); i += 2) {
        SetBitRange(w, c.u16[i], c.u16[i + 1]);
      }
      break;
  }
}

/// Canonical container from a chunk's bit words; cardinality 0 yields a
/// container with cardinality 0 (caller drops it).
RidSet::Container CanonicalFromWords(int64_t key,
                                     const std::vector<uint64_t>& w) {
  size_t card = 0;
  size_t nruns = 0;
  uint64_t carry = 0;  // high bit of the previous word
  for (size_t i = 0; i < kWordsPerChunk; ++i) {
    uint64_t x = w[i];
    card += static_cast<size_t>(std::popcount(x));
    nruns += static_cast<size_t>(std::popcount(x & ~((x << 1) | carry)));
    carry = x >> 63;
  }
  RidSet::Container c;
  c.key = key;
  c.cardinality = static_cast<uint32_t>(card);
  if (card == 0) return c;
  c.type = ChooseType(card, nruns);
  if (c.type == RidSet::ContainerType::kBitmap) {
    c.words = w;
    return c;
  }
  std::vector<uint16_t> lows;
  lows.reserve(card);
  for (size_t i = 0; i < kWordsPerChunk; ++i) {
    uint64_t x = w[i];
    while (x) {
      lows.push_back(static_cast<uint16_t>((i << 6) +
                                           std::countr_zero(x)));
      x &= x - 1;
    }
  }
  return MakeCanonical(key, lows.data(), lows.size());
}

bool ContainerContains(const RidSet::Container& c, uint16_t low) {
  switch (c.type) {
    case RidSet::ContainerType::kArray:
      return std::binary_search(c.u16.begin(), c.u16.end(), low);
    case RidSet::ContainerType::kBitmap:
      return BitTest(c.words, low);
    case RidSet::ContainerType::kRun: {
      size_t nr = c.u16.size() / 2;
      size_t lo = 0, hi = nr;
      while (lo < hi) {  // first run with start > low
        size_t mid = (lo + hi) / 2;
        if (c.u16[2 * mid] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo > 0 && low <= c.u16[2 * (lo - 1) + 1];
    }
  }
  return false;
}

enum class SetOp { kIntersect, kUnion, kDifference };

uint64_t ApplyOp(SetOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case SetOp::kIntersect: return a & b;
    case SetOp::kUnion: return a | b;
    case SetOp::kDifference: return a & ~b;
  }
  return 0;
}

/// Combine two containers with the same key. Array-array pairs merge
/// directly; anything touching a bitmap or run goes word-at-a-time.
RidSet::Container CombinePair(SetOp op, const RidSet::Container& a,
                              const RidSet::Container& b) {
  if (a.type == RidSet::ContainerType::kArray &&
      b.type == RidSet::ContainerType::kArray) {
    std::vector<uint16_t> lows;
    switch (op) {
      case SetOp::kIntersect:
        std::set_intersection(a.u16.begin(), a.u16.end(), b.u16.begin(),
                              b.u16.end(), std::back_inserter(lows));
        break;
      case SetOp::kUnion:
        std::set_union(a.u16.begin(), a.u16.end(), b.u16.begin(),
                       b.u16.end(), std::back_inserter(lows));
        break;
      case SetOp::kDifference:
        std::set_difference(a.u16.begin(), a.u16.end(), b.u16.begin(),
                            b.u16.end(), std::back_inserter(lows));
        break;
    }
    RidSet::Container c;
    c.key = a.key;
    if (lows.empty()) return c;
    return MakeCanonical(a.key, lows.data(), lows.size());
  }
  std::vector<uint64_t> wa(kWordsPerChunk, 0);
  std::vector<uint64_t> wb(kWordsPerChunk, 0);
  ContainerToWords(a, wa);
  ContainerToWords(b, wb);
  for (size_t i = 0; i < kWordsPerChunk; ++i) {
    wa[i] = ApplyOp(op, wa[i], wb[i]);
  }
  return CanonicalFromWords(a.key, wa);
}

uint64_t ContainerSerializedBytes(const RidSet::Container& c) {
  // Header: i64 key + u8 type + u32 cardinality.
  uint64_t bytes = 8 + 1 + 4;
  switch (c.type) {
    case RidSet::ContainerType::kArray: {
      uint16_t max_low = c.u16.empty() ? 0 : c.u16.back();
      uint32_t width = std::max(1u, static_cast<uint32_t>(
                                        std::bit_width(uint32_t{max_low})));
      bytes += 1 + (c.u16.size() * width + 7) / 8;  // u8 width + packed
      break;
    }
    case RidSet::ContainerType::kBitmap:
      bytes += kBitmapBytes;
      break;
    case RidSet::ContainerType::kRun:
      bytes += 4 + c.u16.size() * 2;  // u32 run count + raw pairs
      break;
  }
  return bytes;
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

/// Little-endian bounds-checked reader for DeserializeBlob.
class BlobReader {
 public:
  explicit BlobReader(std::string_view blob) : blob_(blob) {}

  bool Read(size_t n, const uint8_t** out) {
    if (blob_.size() - pos_ < n) return false;
    *out = reinterpret_cast<const uint8_t*>(blob_.data()) + pos_;
    pos_ += n;
    return true;
  }
  bool U8(uint8_t* v) {
    const uint8_t* p;
    if (!Read(1, &p)) return false;
    *v = p[0];
    return true;
  }
  bool U32(uint32_t* v) {
    const uint8_t* p;
    if (!Read(4, &p)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= uint32_t{p[i]} << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    const uint8_t* p;
    if (!Read(8, &p)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= uint64_t{p[i]} << (8 * i);
    return true;
  }
  bool AtEnd() const { return pos_ == blob_.size(); }
  size_t remaining() const { return blob_.size() - pos_; }

 private:
  std::string_view blob_;
  size_t pos_ = 0;
};

}  // namespace

RidSet RidSet::FromSorted(const std::vector<int64_t>& sorted_unique) {
  RidSet out;
  out.cardinality_ = sorted_unique.size();
  if (sorted_unique.empty()) return out;
  std::vector<uint16_t> lows;
  size_t i = 0;
  const size_t n = sorted_unique.size();
  while (i < n) {
    int64_t key = ChunkKey(sorted_unique[i]);
    lows.clear();
    while (i < n && ChunkKey(sorted_unique[i]) == key) {
      assert(lows.empty() || ChunkLow(sorted_unique[i]) > lows.back());
      lows.push_back(ChunkLow(sorted_unique[i]));
      ++i;
    }
    out.containers_.push_back(MakeCanonical(key, lows.data(), lows.size()));
  }
  ORPHEUS_COUNTER_ADD("ridset.build.calls", 1);
  ORPHEUS_COUNTER_ADD("ridset.build.values", static_cast<int64_t>(n));
  ORPHEUS_COUNTER_ADD("ridset.build.bytes_raw", static_cast<int64_t>(n * 8));
  ORPHEUS_COUNTER_ADD("ridset.build.bytes_packed",
                      static_cast<int64_t>(out.SizeBytes()));
  for (const Container& c : out.containers_) {
    switch (c.type) {
      case ContainerType::kArray:
        ORPHEUS_COUNTER_ADD("ridset.containers.array", 1);
        break;
      case ContainerType::kBitmap:
        ORPHEUS_COUNTER_ADD("ridset.containers.bitmap", 1);
        break;
      case ContainerType::kRun:
        ORPHEUS_COUNTER_ADD("ridset.containers.run", 1);
        break;
    }
  }
  return out;
}

std::shared_ptr<const RidSet> RidSet::TryFromVector(
    const std::vector<int64_t>& v, size_t min_size) {
  if (v.size() < min_size) return nullptr;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return nullptr;
  }
  return std::make_shared<const RidSet>(FromSorted(v));
}

bool RidSet::Contains(int64_t v) const {
  int64_t key = ChunkKey(v);
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, int64_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) return false;
  return ContainerContains(*it, ChunkLow(v));
}

bool RidSet::ContainsHint(int64_t v, size_t* hint) const {
  int64_t key = ChunkKey(v);
  if (*hint < containers_.size() && containers_[*hint].key == key) {
    return ContainerContains(containers_[*hint], ChunkLow(v));
  }
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, int64_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) return false;
  *hint = static_cast<size_t>(it - containers_.begin());
  return ContainerContains(*it, ChunkLow(v));
}

namespace {

RidSet CombineSets(SetOp op, const RidSet& a, const RidSet& b) {
  RidSet out;
  std::vector<RidSet::Container> result;
  const auto& ca = a.containers();
  const auto& cb = b.containers();
  size_t i = 0, j = 0;
  while (i < ca.size() || j < cb.size()) {
    bool take_a = j == cb.size() ||
                  (i < ca.size() && ca[i].key < cb[j].key);
    bool take_b = i == ca.size() ||
                  (j < cb.size() && cb[j].key < ca[i].key);
    if (take_a) {
      if (op != SetOp::kIntersect) result.push_back(ca[i]);
      ++i;
    } else if (take_b) {
      if (op == SetOp::kUnion) result.push_back(cb[j]);
      ++j;
    } else {
      RidSet::Container c = CombinePair(op, ca[i], cb[j]);
      if (c.cardinality > 0) result.push_back(std::move(c));
      ++i;
      ++j;
    }
  }
  return RidSet::FromContainers(std::move(result));
}

}  // namespace

RidSet RidSet::FromContainers(std::vector<Container> containers) {
  RidSet out;
  out.containers_ = std::move(containers);
  for (const Container& c : out.containers_) out.cardinality_ += c.cardinality;
  return out;
}

RidSet RidSet::Intersect(const RidSet& other) const {
  ORPHEUS_COUNTER_ADD("ridset.intersect.calls", 1);
  return CombineSets(SetOp::kIntersect, *this, other);
}

RidSet RidSet::Union(const RidSet& other) const {
  ORPHEUS_COUNTER_ADD("ridset.union.calls", 1);
  return CombineSets(SetOp::kUnion, *this, other);
}

RidSet RidSet::Difference(const RidSet& other) const {
  ORPHEUS_COUNTER_ADD("ridset.difference.calls", 1);
  return CombineSets(SetOp::kDifference, *this, other);
}

RidSet RidSet::WithAppended(int64_t v) const {
  int64_t key = ChunkKey(v);
  uint16_t low = ChunkLow(v);
  RidSet out;
  out.containers_.reserve(containers_.size() + 1);
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, int64_t k) { return c.key < k; });
  out.containers_.assign(containers_.begin(), it);
  if (it != containers_.end() && it->key == key) {
    if (ContainerContains(*it, low)) return *this;  // already present
    if (it->type == ContainerType::kArray) {
      std::vector<uint16_t> lows = it->u16;
      lows.insert(std::lower_bound(lows.begin(), lows.end(), low), low);
      out.containers_.push_back(MakeCanonical(key, lows.data(), lows.size()));
    } else {
      std::vector<uint64_t> w(kWordsPerChunk, 0);
      ContainerToWords(*it, w);
      w[low >> 6] |= uint64_t{1} << (low & 63);
      out.containers_.push_back(CanonicalFromWords(key, w));
    }
    ++it;
  } else {
    out.containers_.push_back(MakeCanonical(key, &low, 1));
  }
  out.containers_.insert(out.containers_.end(), it, containers_.end());
  out.cardinality_ = cardinality_ + 1;
  return out;
}

void RidSet::IntersectToRows(const int64_t* rids, size_t n,
                             std::vector<uint32_t>* rows_out,
                             uint32_t base_row) const {
  const int64_t* cur = rids;
  const int64_t* end = rids + n;
  for (const Container& c : containers_) {
    int64_t chunk_lo = ChunkValue(c.key, 0);
    int64_t chunk_hi = ChunkValue(c.key, 0xFFFF);
    const int64_t* p = std::lower_bound(cur, end, chunk_lo);
    const int64_t* q = std::upper_bound(p, end, chunk_hi);
    cur = q;
    if (p == q) continue;
    size_t len = static_cast<size_t>(q - p);
    switch (c.type) {
      case ContainerType::kBitmap:
        for (const int64_t* it = p; it != q; ++it) {
          uint16_t low = ChunkLow(*it);
          if (BitTest(c.words, low)) {
            rows_out->push_back(base_row + static_cast<uint32_t>(it - rids));
          }
        }
        break;
      case ContainerType::kArray:
        if (static_cast<uint64_t>(c.cardinality) * 32 < len) {
          // Sparse chunk vs long column subrange: gallop per set value.
          const int64_t* hint = p;
          for (uint16_t low : c.u16) {
            int64_t v = ChunkValue(c.key, low);
            hint = std::lower_bound(hint, q, v);
            for (const int64_t* it = hint; it != q && *it == v; ++it) {
              rows_out->push_back(base_row + static_cast<uint32_t>(it - rids));
            }
          }
        } else {
          // Comparable sizes: two-pointer merge over the subrange.
          size_t k = 0;
          for (const int64_t* it = p; it != q && k < c.u16.size();) {
            int64_t v = ChunkValue(c.key, c.u16[k]);
            if (*it < v) {
              ++it;
            } else if (*it > v) {
              ++k;
            } else {
              rows_out->push_back(base_row + static_cast<uint32_t>(it - rids));
              ++it;
            }
          }
        }
        break;
      case ContainerType::kRun:
        for (size_t r = 0; r + 1 < c.u16.size(); r += 2) {
          int64_t vs = ChunkValue(c.key, c.u16[r]);
          int64_t ve = ChunkValue(c.key, c.u16[r + 1]);
          const int64_t* rp = std::lower_bound(p, q, vs);
          const int64_t* rq = std::upper_bound(rp, q, ve);
          for (const int64_t* it = rp; it != rq; ++it) {
            rows_out->push_back(base_row + static_cast<uint32_t>(it - rids));
          }
          p = rq;
        }
        break;
    }
  }
  ORPHEUS_COUNTER_ADD("ridset.intersect_rows.calls", 1);
  ORPHEUS_COUNTER_ADD("ridset.intersect_rows.scanned",
                      static_cast<int64_t>(n));
}

namespace {

// Call `f` on every value of `containers`, ascending.
template <typename F>
void ForEachValue(const std::vector<RidSet::Container>& containers, F f) {
  for (const RidSet::Container& c : containers) {
    switch (c.type) {
      case RidSet::ContainerType::kArray:
        for (uint16_t low : c.u16) f(ChunkValue(c.key, low));
        break;
      case RidSet::ContainerType::kBitmap:
        for (size_t i = 0; i < kWordsPerChunk; ++i) {
          uint64_t x = c.words[i];
          while (x) {
            const auto low =
                static_cast<uint16_t>((i << 6) + std::countr_zero(x));
            f(ChunkValue(c.key, low));
            x &= x - 1;
          }
        }
        break;
      case RidSet::ContainerType::kRun:
        for (size_t r = 0; r + 1 < c.u16.size(); r += 2) {
          for (uint32_t low = c.u16[r]; low <= c.u16[r + 1]; ++low) {
            f(ChunkValue(c.key, static_cast<uint16_t>(low)));
          }
        }
        break;
    }
  }
}

}  // namespace

std::vector<int64_t> RidSet::ToVector() const {
  std::vector<int64_t> out;
  out.reserve(cardinality_);
  ForEachValue(containers_, [&out](int64_t v) { out.push_back(v); });
  return out;
}

void RidSet::ValuesAsRows(int64_t n, std::vector<uint32_t>* rows_out) const {
  rows_out->reserve(rows_out->size() + cardinality_);
  ForEachValue(containers_, [n, rows_out](int64_t v) {
    if (v >= 0 && v < n) rows_out->push_back(static_cast<uint32_t>(v));
  });
}

const std::vector<int64_t>& RidSet::Materialized() const {
  // Global lock: materialization is the cold legacy path; the fill happens
  // once and the vector is immutable afterwards, so handing out a reference
  // is safe across threads.
  static Mutex mu("ridset.materialize", lock_rank::kRidSetMaterialize);
  MutexLock lock(&mu);
  if (!materialized_) {
    materialized_ = std::make_shared<const std::vector<int64_t>>(ToVector());
    ORPHEUS_COUNTER_ADD("ridset.materialize.calls", 1);
    ORPHEUS_COUNTER_ADD("ridset.materialize.values",
                        static_cast<int64_t>(cardinality_));
  }
  return *materialized_;
}

uint64_t RidSet::SizeBytes() const {
  uint64_t bytes = 4;  // u32 container count
  for (const Container& c : containers_) bytes += ContainerSerializedBytes(c);
  return bytes;
}

Status RidSet::Validate() const {
  size_t total = 0;
  for (size_t ci = 0; ci < containers_.size(); ++ci) {
    const Container& c = containers_[ci];
    if (ci > 0 && containers_[ci - 1].key >= c.key) {
      return Status::Corruption(
          StrFormat("ridset: chunk keys not ascending at %zu", ci));
    }
    if (c.cardinality == 0) {
      return Status::Corruption(
          StrFormat("ridset: empty container at chunk %lld",
                    static_cast<long long>(c.key)));
    }
    size_t card = 0;
    size_t nruns = 0;
    switch (c.type) {
      case ContainerType::kArray: {
        if (!c.words.empty() || c.u16.size() != c.cardinality) {
          return Status::Corruption("ridset: array payload shape mismatch");
        }
        for (size_t i = 1; i < c.u16.size(); ++i) {
          if (c.u16[i] <= c.u16[i - 1]) {
            return Status::Corruption("ridset: array values not ascending");
          }
        }
        card = c.u16.size();
        nruns = CountRuns(c.u16.data(), c.u16.size());
        break;
      }
      case ContainerType::kBitmap: {
        if (!c.u16.empty() || c.words.size() != kWordsPerChunk) {
          return Status::Corruption("ridset: bitmap payload shape mismatch");
        }
        uint64_t carry = 0;
        for (uint64_t x : c.words) {
          card += static_cast<size_t>(std::popcount(x));
          nruns += static_cast<size_t>(std::popcount(x & ~((x << 1) | carry)));
          carry = x >> 63;
        }
        break;
      }
      case ContainerType::kRun: {
        if (!c.words.empty() || c.u16.empty() || c.u16.size() % 2 != 0) {
          return Status::Corruption("ridset: run payload shape mismatch");
        }
        for (size_t r = 0; r + 1 < c.u16.size(); r += 2) {
          uint16_t start = c.u16[r];
          uint16_t last = c.u16[r + 1];
          if (last < start) {
            return Status::Corruption("ridset: run with last < start");
          }
          if (r >= 2 && start <= c.u16[r - 1] + 1) {
            return Status::Corruption(
                "ridset: runs not disjoint/ascending or mergeable");
          }
          card += static_cast<size_t>(last - start) + 1;
        }
        nruns = c.u16.size() / 2;
        break;
      }
      default:
        return Status::Corruption("ridset: unknown container type");
    }
    if (card != c.cardinality) {
      return Status::Corruption(StrFormat(
          "ridset: cardinality %u does not match payload %zu",
          c.cardinality, card));
    }
    if (ChooseType(card, nruns) != c.type) {
      return Status::Corruption(
          StrFormat("ridset: non-canonical container type at chunk %lld",
                    static_cast<long long>(c.key)));
    }
    total += card;
  }
  if (total != cardinality_) {
    return Status::Corruption("ridset: total cardinality mismatch");
  }
  return Status::OK();
}

std::string RidSet::SerializeBlob() const {
  std::string out;
  out.reserve(SizeBytes());
  PutU32(&out, static_cast<uint32_t>(containers_.size()));
  for (const Container& c : containers_) {
    PutU64(&out, static_cast<uint64_t>(c.key));
    PutU8(&out, static_cast<uint8_t>(c.type));
    PutU32(&out, c.cardinality);
    switch (c.type) {
      case ContainerType::kArray: {
        uint16_t max_low = c.u16.empty() ? 0 : c.u16.back();
        uint32_t width = std::max(1u, static_cast<uint32_t>(
                                          std::bit_width(uint32_t{max_low})));
        PutU8(&out, static_cast<uint8_t>(width));
        uint64_t acc = 0;
        uint32_t nbits = 0;
        for (uint16_t low : c.u16) {
          acc |= uint64_t{low} << nbits;
          nbits += width;
          while (nbits >= 8) {
            PutU8(&out, static_cast<uint8_t>(acc));
            acc >>= 8;
            nbits -= 8;
          }
        }
        if (nbits > 0) PutU8(&out, static_cast<uint8_t>(acc));
        break;
      }
      case ContainerType::kBitmap:
        for (uint64_t w : c.words) PutU64(&out, w);
        break;
      case ContainerType::kRun:
        PutU32(&out, static_cast<uint32_t>(c.u16.size() / 2));
        for (uint16_t v : c.u16) {
          PutU8(&out, static_cast<uint8_t>(v));
          PutU8(&out, static_cast<uint8_t>(v >> 8));
        }
        break;
    }
  }
  return out;
}

Result<RidSet> RidSet::DeserializeBlob(std::string_view blob) {
  BlobReader reader(blob);
  uint32_t num_containers = 0;
  if (!reader.U32(&num_containers)) {
    return Status::Corruption("ridset blob: truncated container count");
  }
  // Every container has a 13-byte header (key, type, cardinality): bound
  // the count before reserving for it.
  if (num_containers > reader.remaining() / 13) {
    return Status::Corruption("ridset blob: container count exceeds blob");
  }
  RidSet out;
  out.containers_.reserve(num_containers);
  for (uint32_t ci = 0; ci < num_containers; ++ci) {
    uint64_t key_bits = 0;
    uint8_t type = 0;
    uint32_t card = 0;
    if (!reader.U64(&key_bits) || !reader.U8(&type) || !reader.U32(&card)) {
      return Status::Corruption("ridset blob: truncated container header");
    }
    if (type > 2) {
      return Status::Corruption("ridset blob: bad container type");
    }
    if (card == 0 || card > 65536) {
      return Status::Corruption("ridset blob: bad container cardinality");
    }
    Container c;
    c.key = static_cast<int64_t>(key_bits);
    c.type = static_cast<ContainerType>(type);
    c.cardinality = card;
    switch (c.type) {
      case ContainerType::kArray: {
        uint8_t width = 0;
        if (!reader.U8(&width) || width < 1 || width > 16) {
          return Status::Corruption("ridset blob: bad array bit width");
        }
        size_t nbytes = (static_cast<size_t>(card) * width + 7) / 8;
        const uint8_t* p;
        if (!reader.Read(nbytes, &p)) {
          return Status::Corruption("ridset blob: truncated array payload");
        }
        c.u16.reserve(card);
        uint64_t acc = 0;
        uint32_t nbits = 0;
        size_t byte = 0;
        uint64_t mask = (uint64_t{1} << width) - 1;
        for (uint32_t i = 0; i < card; ++i) {
          while (nbits < width) {
            acc |= uint64_t{p[byte++]} << nbits;
            nbits += 8;
          }
          c.u16.push_back(static_cast<uint16_t>(acc & mask));
          acc >>= width;
          nbits -= width;
        }
        break;
      }
      case ContainerType::kBitmap: {
        c.words.reserve(kWordsPerChunk);
        for (size_t i = 0; i < kWordsPerChunk; ++i) {
          uint64_t w = 0;
          if (!reader.U64(&w)) {
            return Status::Corruption("ridset blob: truncated bitmap");
          }
          c.words.push_back(w);
        }
        break;
      }
      case ContainerType::kRun: {
        uint32_t nruns = 0;
        if (!reader.U32(&nruns) || nruns == 0 || nruns > 32768) {
          return Status::Corruption("ridset blob: bad run count");
        }
        const uint8_t* p;
        if (!reader.Read(static_cast<size_t>(nruns) * 4, &p)) {
          return Status::Corruption("ridset blob: truncated run payload");
        }
        c.u16.reserve(2 * nruns);
        for (uint32_t r = 0; r < 2 * nruns; ++r) {
          c.u16.push_back(
              static_cast<uint16_t>(p[2 * r] | (uint32_t{p[2 * r + 1]} << 8)));
        }
        break;
      }
    }
    out.cardinality_ += card;
    out.containers_.push_back(std::move(c));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("ridset blob: trailing bytes");
  }
  Status valid = out.Validate();
  if (!valid.ok()) return valid;
  return out;
}

}  // namespace orpheus
