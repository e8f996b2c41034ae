#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fbist::util {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.none());
}

TEST(BitVector, ConstructAllZero) {
  BitVector b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.get(i));
}

TEST(BitVector, ConstructAllOne) {
  BitVector b(130, true);
  EXPECT_EQ(b.count(), 130u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_TRUE(b.get(i));
}

TEST(BitVector, TailBitsStayClear) {
  // 65 bits -> two words, last word uses one bit only.
  BitVector b(65, true);
  EXPECT_EQ(b.count(), 65u);
  EXPECT_EQ(b.words().size(), 2u);
  EXPECT_EQ(b.words()[1], 1u);
}

TEST(BitVector, SetResetFlip) {
  BitVector b(70);
  b.set(0);
  b.set(64);
  b.set(69);
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
  b.flip(69);
  EXPECT_EQ(b.count(), 1u);
  b.flip(1);
  EXPECT_TRUE(b.get(1));
}

TEST(BitVector, FillBothWays) {
  BitVector b(77);
  b.fill(true);
  EXPECT_EQ(b.count(), 77u);
  b.fill(false);
  EXPECT_TRUE(b.none());
}

TEST(BitVector, FindFirstNextLast) {
  BitVector b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(3);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 3u);
  EXPECT_EQ(b.find_next(4), 64u);
  EXPECT_EQ(b.find_next(65), 199u);
  EXPECT_EQ(b.find_next(200), 200u);
}

TEST(BitVector, FindNextAtSetPosition) {
  BitVector b(10);
  b.set(5);
  EXPECT_EQ(b.find_next(5), 5u);
}

TEST(BitVector, BitwiseOps) {
  BitVector a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);

  BitVector o = a;
  o |= b;
  EXPECT_EQ(o.count(), 3u);

  BitVector n = a;
  n &= b;
  EXPECT_EQ(n.count(), 1u);
  EXPECT_TRUE(n.get(50));

  BitVector x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.get(1));
  EXPECT_TRUE(x.get(99));

  BitVector an = a;
  an.and_not(b);
  EXPECT_EQ(an.count(), 1u);
  EXPECT_TRUE(an.get(1));
}

TEST(BitVector, SubsetAndIntersect) {
  BitVector small(80), big(80), other(80);
  small.set(10);
  small.set(70);
  big.set(10);
  big.set(70);
  big.set(5);
  other.set(11);

  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
  EXPECT_EQ(small.count_and(big), 2u);
  EXPECT_EQ(small.count_and(other), 0u);
}

TEST(BitVector, EmptySubsetOfAnything) {
  BitVector empty(50), any(50);
  any.set(3);
  EXPECT_TRUE(empty.is_subset_of(any));
  EXPECT_TRUE(empty.is_subset_of(empty));
}

TEST(BitVector, Equality) {
  BitVector a(10), b(10), c(11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

TEST(BitVector, ForEachSetVisitsAscending) {
  BitVector b(300);
  const std::vector<std::size_t> expect = {0, 63, 64, 128, 299};
  for (const auto i : expect) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expect);
}

// Property: count == number of for_each_set visits == popcount of words,
// under random fill.
TEST(BitVectorProperty, CountMatchesIteration) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(500);
    BitVector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.3)) b.set(i);
    }
    std::size_t visits = 0;
    b.for_each_set([&](std::size_t) { ++visits; });
    EXPECT_EQ(visits, b.count());
  }
}

// Property: (a|b) ⊇ a ⊇ (a&b); and_not(a,b) ∩ b == ∅.
TEST(BitVectorProperty, LatticeRelations) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(300);
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.4)) a.set(i);
      if (rng.next_bool(0.4)) b.set(i);
    }
    BitVector u = a;
    u |= b;
    BitVector inter = a;
    inter &= b;
    EXPECT_TRUE(a.is_subset_of(u));
    EXPECT_TRUE(inter.is_subset_of(a));
    BitVector an = a;
    an.and_not(b);
    EXPECT_EQ(an.count_and(b), 0u);
    EXPECT_EQ(an.count() + inter.count(), a.count());
  }
}

TEST(BitVectorGather, MatchesPerBitCompaction) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.next_below(400);
    BitVector v(n), mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.5)) v.set(i);
      if (rng.next_bool(0.3)) mask.set(i);
    }
    const BitVector got = v.gather(mask);
    ASSERT_EQ(got.size(), mask.count());
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask.get(i)) continue;
      EXPECT_EQ(got.get(k), v.get(i)) << "n=" << n << " i=" << i;
      ++k;
    }
  }
}

TEST(BitVectorGather, EmptyAndFullMasks) {
  BitVector v(130);
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.gather(BitVector(130)).size(), 0u);
  const BitVector all = v.gather(BitVector(130, true));
  ASSERT_EQ(all.size(), 130u);
  EXPECT_EQ(all, v);
}

// Output bits of one source word can spill across an output word
// boundary when earlier mask words had non-multiple-of-64 popcounts.
TEST(BitVectorGather, WordBoundarySpill) {
  BitVector v(192), mask(192);
  for (std::size_t i = 0; i < 40; ++i) mask.set(i);        // 40 bits from word 0
  for (std::size_t i = 64; i < 128; ++i) mask.set(i);      // 64 bits from word 1
  for (std::size_t i = 0; i < 192; i += 3) v.set(i);
  const BitVector got = v.gather(mask);
  ASSERT_EQ(got.size(), 104u);
  std::size_t k = 0;
  mask.for_each_set([&](std::size_t i) {
    ASSERT_EQ(got.get(k), v.get(i)) << i;
    ++k;
  });
}

}  // namespace
}  // namespace fbist::util
