#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace fbist::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolRoughlyFair) {
  Rng rng(77);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool()) ++heads;
  }
  EXPECT_GT(heads, n / 2 - 300);
  EXPECT_LT(heads, n / 2 + 300);
}

TEST(Rng, NextBoolExtremeProbabilities) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(HashString, StableAndDistinguishes) {
  EXPECT_EQ(hash_string("s1238"), hash_string("s1238"));
  EXPECT_NE(hash_string("s1238"), hash_string("s1239"));
  EXPECT_NE(hash_string(""), hash_string("a"));
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace fbist::util
