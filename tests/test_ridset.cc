// RidSet (common/ridset.h): property tests against a std::set<int64_t>
// reference model, container-promotion thresholds, the bit-packed
// serialization roundtrip, and Validate()'s corruption detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/ridset.h"

namespace orpheus {

/// Test-only backdoor (friend of RidSet): corrupts internals so Validate's
/// checks can be exercised one violation at a time.
class RidSetTestAccess {
 public:
  static std::vector<RidSet::Container>& containers(RidSet* s) {
    return s->containers_;
  }
  static size_t& cardinality(RidSet* s) { return s->cardinality_; }
};

namespace {

std::vector<int64_t> SortedUnique(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// Random value sets spanning several chunks, with negative values and
// chunk-boundary neighbours mixed in.
std::vector<int64_t> RandomValues(uint64_t seed, size_t n, int64_t span) {
  Xorshift rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(
                    static_cast<uint64_t>(2 * span))) -
                span;
    out.push_back(v);
    if (rng.Uniform(8) == 0) {
      // Chunk-boundary neighbours: low bits 0x0000 / 0xFFFF.
      out.push_back((v & ~0xFFFFll));
      out.push_back((v | 0xFFFFll));
    }
  }
  return SortedUnique(out);
}

TEST(RidSet, EmptyAndSingle) {
  RidSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_TRUE(empty.ToVector().empty());
  EXPECT_TRUE(empty.Validate().ok());

  RidSet one = RidSet::FromSorted({42});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.Contains(42));
  EXPECT_FALSE(one.Contains(41));
  EXPECT_EQ(one.ToVector(), std::vector<int64_t>{42});
  EXPECT_TRUE(one.Validate().ok());
}

TEST(RidSet, RoundTripRandom) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto values = RandomValues(seed, 5000, 1 << 20);
    RidSet set = RidSet::FromSorted(values);
    EXPECT_EQ(set.size(), values.size());
    EXPECT_EQ(set.ToVector(), values);
    ASSERT_TRUE(set.Validate().ok()) << set.Validate().ToString();
  }
}

TEST(RidSet, ContainsMatchesReference) {
  auto values = RandomValues(7, 4000, 1 << 19);
  std::set<int64_t> ref(values.begin(), values.end());
  RidSet set = RidSet::FromSorted(values);
  Xorshift rng(11);
  size_t hint = 0;
  for (int i = 0; i < 20000; ++i) {
    int64_t probe =
        static_cast<int64_t>(rng.Uniform(1 << 20)) - (1 << 19);
    EXPECT_EQ(set.Contains(probe), ref.count(probe) > 0) << probe;
    EXPECT_EQ(set.ContainsHint(probe, &hint), ref.count(probe) > 0) << probe;
  }
  for (int64_t v : values) {
    ASSERT_TRUE(set.Contains(v)) << v;
  }
}

TEST(RidSet, HintFromAnotherSetIsSafe) {
  RidSet a = RidSet::FromSorted(RandomValues(1, 3000, 1 << 20));
  RidSet b = RidSet::FromSorted({5, 70000, 140000});
  size_t hint = 0;
  for (int64_t v : a.ToVector()) a.ContainsHint(v, &hint);
  // `hint` may now be far beyond b's container count.
  EXPECT_TRUE(b.ContainsHint(70000, &hint));
  EXPECT_FALSE(b.ContainsHint(70001, &hint));
}

TEST(RidSet, SetAlgebraMatchesReference) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    auto va = RandomValues(seed, 3000, 1 << 18);
    auto vb = RandomValues(seed + 100, 3000, 1 << 18);
    std::set<int64_t> ra(va.begin(), va.end());
    std::set<int64_t> rb(vb.begin(), vb.end());
    RidSet a = RidSet::FromSorted(va);
    RidSet b = RidSet::FromSorted(vb);

    std::vector<int64_t> expect;
    std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                          std::back_inserter(expect));
    EXPECT_EQ(a.Intersect(b).ToVector(), expect);

    expect.clear();
    std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                   std::back_inserter(expect));
    EXPECT_EQ(a.Union(b).ToVector(), expect);

    expect.clear();
    std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(expect));
    EXPECT_EQ(a.Difference(b).ToVector(), expect);

    // Canonical form: structural equality == set equality regardless of
    // how the set was produced.
    EXPECT_EQ(a.Intersect(b), b.Intersect(a));
    EXPECT_EQ(a.Union(b), b.Union(a));
    ASSERT_TRUE(a.Union(b).Validate().ok());
    ASSERT_TRUE(a.Intersect(b).Validate().ok());
    ASSERT_TRUE(a.Difference(b).Validate().ok());
  }
}

TEST(RidSet, WithAppended) {
  auto values = RandomValues(31, 2000, 1 << 18);
  RidSet set = RidSet::FromSorted(values);
  RidSet grown = set.WithAppended(123456789);
  EXPECT_EQ(grown.size(), set.size() + 1);
  EXPECT_TRUE(grown.Contains(123456789));
  ASSERT_TRUE(grown.Validate().ok());
  // Appending an existing value is a no-op copy.
  EXPECT_EQ(set.WithAppended(values.front()), set);
  // Equivalent to rebuilding from the extended list (canonical form).
  auto extended = values;
  extended.push_back(123456789);
  EXPECT_EQ(grown, RidSet::FromSorted(SortedUnique(extended)));
}

TEST(RidSet, IntersectToRowsMatchesScan) {
  // Ascending rid column with gaps; rlist samples across all chunk shapes.
  std::vector<int64_t> rids;
  Xorshift rng(47);
  int64_t next = -200000;
  for (int i = 0; i < 300000; ++i) {
    next += 1 + static_cast<int64_t>(rng.Uniform(3));
    rids.push_back(next);
  }
  for (double frac : {0.001, 0.1, 0.9}) {
    std::vector<int64_t> member;
    Xorshift pick(53);
    for (int64_t r : rids) {
      if (pick.NextDouble() < frac) member.push_back(r);
    }
    // Plus values absent from the rid column.
    member.push_back(rids.back() + 5);
    member = SortedUnique(member);
    RidSet set = RidSet::FromSorted(member);

    std::vector<uint32_t> expect;
    for (size_t r = 0; r < rids.size(); ++r) {
      if (std::binary_search(member.begin(), member.end(), rids[r])) {
        expect.push_back(static_cast<uint32_t>(r) + 7);
      }
    }
    std::vector<uint32_t> got;
    set.IntersectToRows(rids.data(), rids.size(), &got, /*base_row=*/7);
    EXPECT_EQ(got, expect) << "frac=" << frac;
  }
}

TEST(RidSet, ValuesAsRowsMatchesIntersectOverDenseRids) {
  // A rid column holding rid r at row r: the positional kernel must give
  // IntersectToRows' rows, for sets of every container shape, with values
  // below 0 and at or beyond n dropped.
  const int64_t n = 200000;
  std::vector<int64_t> dense(static_cast<size_t>(n));
  std::iota(dense.begin(), dense.end(), 0);
  for (double frac : {0.001, 0.1, 0.9, 1.0}) {
    std::vector<int64_t> member = {-3, n, n + 70000};
    Xorshift pick(61);
    for (int64_t r : dense) {
      if (pick.NextDouble() < frac) member.push_back(r);
    }
    member = SortedUnique(member);
    RidSet set = RidSet::FromSorted(member);
    std::vector<uint32_t> expect;
    set.IntersectToRows(dense.data(), dense.size(), &expect);
    std::vector<uint32_t> got;
    set.ValuesAsRows(n, &got);
    EXPECT_EQ(got, expect) << "frac=" << frac;
  }
}

TEST(RidSet, ContainerPromotionThresholds) {
  // Sparse chunk -> array container.
  std::vector<int64_t> sparse;
  for (int i = 0; i < 100; ++i) sparse.push_back(i * 7);
  RidSet s = RidSet::FromSorted(sparse);
  ASSERT_EQ(s.containers().size(), 1u);
  EXPECT_EQ(s.containers()[0].type, RidSet::ContainerType::kArray);

  // Dense scattered chunk -> bitmap (cardinality > 4096, many runs).
  std::vector<int64_t> dense;
  for (int i = 0; i < 65536; i += 2) dense.push_back(i);
  RidSet d = RidSet::FromSorted(dense);
  ASSERT_EQ(d.containers().size(), 1u);
  EXPECT_EQ(d.containers()[0].type, RidSet::ContainerType::kBitmap);

  // One contiguous interval -> run container.
  std::vector<int64_t> run;
  for (int i = 1000; i < 31000; ++i) run.push_back(i);
  RidSet r = RidSet::FromSorted(run);
  ASSERT_EQ(r.containers().size(), 1u);
  EXPECT_EQ(r.containers()[0].type, RidSet::ContainerType::kRun);
  EXPECT_LT(r.SizeBytes(), 64u);  // 30000 values in one (start,last) pair
}

TEST(RidSet, TryFromVectorGate) {
  EXPECT_EQ(RidSet::TryFromVector({1, 2, 3}), nullptr);  // below min size
  EXPECT_EQ(RidSet::TryFromVector({1, 2, 3, 4, 5, 6, 7, 9, 8}),
            nullptr);  // not sorted
  EXPECT_EQ(RidSet::TryFromVector({1, 2, 2, 3, 4, 5, 6, 7}),
            nullptr);  // duplicate
  auto ok = RidSet::TryFromVector({1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->size(), 8u);
}

TEST(RidSet, SerializeRoundTrip) {
  for (uint64_t seed : {61u, 62u}) {
    auto values = RandomValues(seed, 6000, 1 << 21);
    RidSet set = RidSet::FromSorted(values);
    std::string blob = set.SerializeBlob();
    EXPECT_EQ(blob.size(), set.SizeBytes());
    auto back = RidSet::DeserializeBlob(blob);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie(), set);
  }
  // Empty set.
  auto empty = RidSet::DeserializeBlob(RidSet().SerializeBlob());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.ValueOrDie().empty());
}

TEST(RidSet, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RidSet::DeserializeBlob("").ok());
  EXPECT_FALSE(RidSet::DeserializeBlob("xx").ok());
  RidSet set = RidSet::FromSorted({1, 2, 3, 100000, 200000});
  std::string blob = set.SerializeBlob();
  // Truncation at every prefix must be detected, never crash.
  for (size_t cut = 0; cut + 1 < blob.size(); ++cut) {
    EXPECT_FALSE(RidSet::DeserializeBlob(blob.substr(0, cut)).ok()) << cut;
  }
  // Trailing junk is corruption too.
  EXPECT_FALSE(RidSet::DeserializeBlob(blob + "z").ok());
}

TEST(RidSet, ValidateDetectsCorruption) {
  auto make = [] {
    std::vector<int64_t> v;
    for (int i = 0; i < 5000; ++i) v.push_back(i * 3);
    for (int i = 0; i < 300; ++i) v.push_back(200000 + i);
    return RidSet::FromSorted(SortedUnique(v));
  };

  {  // Chunk keys out of order.
    RidSet s = make();
    auto& cs = RidSetTestAccess::containers(&s);
    ASSERT_GE(cs.size(), 2u);
    std::swap(cs[0], cs[1]);
    EXPECT_FALSE(s.Validate().ok());
  }
  {  // Empty container.
    RidSet s = make();
    auto& cs = RidSetTestAccess::containers(&s);
    RidSetTestAccess::cardinality(&s) -= cs.back().cardinality;
    cs.back().cardinality = 0;
    cs.back().u16.clear();
    cs.back().words.clear();
    EXPECT_FALSE(s.Validate().ok());
  }
  {  // Cardinality disagrees with payload.
    RidSet s = make();
    RidSetTestAccess::containers(&s)[0].cardinality += 1;
    EXPECT_FALSE(s.Validate().ok());
  }
  {  // Array values not sorted.
    std::vector<int64_t> sparse;
    for (int i = 0; i < 500; ++i) sparse.push_back(i * 7);
    RidSet s = RidSet::FromSorted(sparse);
    auto& c = RidSetTestAccess::containers(&s)[0];
    ASSERT_EQ(c.type, RidSet::ContainerType::kArray);
    ASSERT_GE(c.u16.size(), 2u);
    std::swap(c.u16[0], c.u16[1]);
    EXPECT_FALSE(s.Validate().ok());
  }
  {  // Total cardinality mismatch.
    RidSet s = make();
    RidSetTestAccess::cardinality(&s) += 5;
    EXPECT_FALSE(s.Validate().ok());
  }
}

}  // namespace
}  // namespace orpheus
