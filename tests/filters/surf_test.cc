#include "filters/surf/surf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "filters/surf/surf_builder.h"
#include "tests/test_util.h"
#include "util/bit_vector.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::GroundTruthRange;
using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed, uint64_t domain = 0) {
  auto keyset = RandomKeySet(n, seed, domain);
  return {keyset.begin(), keyset.end()};
}

Surf::Options Opt(SurfSuffixType type, uint32_t bits = 8) {
  Surf::Options options;
  options.suffix_type = type;
  options.suffix_bits = bits;
  return options;
}

// ----------------------------------------------------------------- builder

TEST(SurfBuilderTest, SingleKey) {
  SurfBuilder builder(SurfSuffixType::kNone, 0);
  ASSERT_TRUE(builder.Build({std::string("\x42", 1)}));
  ASSERT_EQ(builder.levels().size(), 1u);
  EXPECT_EQ(builder.levels()[0].labels.size(), 1u);
  EXPECT_EQ(builder.levels()[0].labels[0], 0x42);
  EXPECT_FALSE(builder.levels()[0].has_child[0]);
}

TEST(SurfBuilderTest, TruncatesAtDistinguishingByte) {
  // "aaaa" vs "aabb": distinguished at byte 2; trie depth 3.
  SurfBuilder builder(SurfSuffixType::kNone, 0);
  ASSERT_TRUE(builder.Build({"aaaa", "aabb"}));
  EXPECT_EQ(builder.levels().size(), 3u);
  EXPECT_EQ(builder.levels()[2].labels.size(), 2u);  // 'a' and 'b'
  EXPECT_EQ(builder.levels()[0].labels.size(), 1u);  // shared 'a'
}

TEST(SurfBuilderTest, NodeCountsConsistent) {
  auto keys = SortedKeys(5000, 41);
  std::vector<std::string> byte_keys;
  for (uint64_t k : keys) {
    std::string s(8, '\0');
    for (int i = 7; i >= 0; --i) {
      s[i] = static_cast<char>(k & 0xff);
      k >>= 8;
    }
    byte_keys.push_back(s);
  }
  SurfBuilder builder(SurfSuffixType::kNone, 0);
  ASSERT_TRUE(builder.Build(byte_keys));
  const auto& levels = builder.levels();
  // Child edges at level L == nodes at level L+1; terminals sum to n.
  uint64_t terminals = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    uint64_t children = 0;
    for (bool c : levels[l].has_child) children += c;
    terminals += levels[l].suffixes.size();
    if (l + 1 < levels.size()) {
      EXPECT_EQ(children, levels[l + 1].num_nodes) << l;
    } else {
      EXPECT_EQ(children, 0u);
    }
    // suffix count == terminal edge count
    EXPECT_EQ(levels[l].suffixes.size(),
              levels[l].labels.size() - children);
  }
  EXPECT_EQ(terminals, byte_keys.size());
}

TEST(SurfBuilderTest, RejectsUnsortedAndPrefixViolations) {
  SurfBuilder builder(SurfSuffixType::kNone, 0);
  EXPECT_FALSE(builder.Build({"b", "a"}));
  EXPECT_FALSE(builder.Build({"a", "a"}));
  EXPECT_FALSE(builder.Build({"a", "ab"}));  // not prefix-free
  EXPECT_FALSE(builder.Build({""}));
}

TEST(SurfBuilderTest, RealBitsExtraction) {
  std::string key = "\xAB\xCD";
  EXPECT_EQ(SurfBuilder::RealBits(key, 0, 8), 0xABu);
  EXPECT_EQ(SurfBuilder::RealBits(key, 0, 4), 0xAu);
  EXPECT_EQ(SurfBuilder::RealBits(key, 1, 8), 0xCDu);
  EXPECT_EQ(SurfBuilder::RealBits(key, 2, 8), 0u);  // past the end: zeros
  EXPECT_EQ(SurfBuilder::RealBits(key, 0, 12), 0xABCu);
}

// ------------------------------------------------------------------ point

class SurfPointTest : public ::testing::TestWithParam<SurfSuffixType> {};

TEST_P(SurfPointTest, NoFalseNegatives) {
  auto keys = SortedKeys(30000, 42);
  Surf surf = Surf::BuildFromU64(keys, Opt(GetParam()));
  for (uint64_t k : keys) ASSERT_TRUE(surf.MayContain(k)) << k;
}

TEST_P(SurfPointTest, RangeNoFalseNegatives) {
  auto keys = SortedKeys(20000, 43);
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  Surf surf = Surf::BuildFromU64(keys, Opt(GetParam()));
  Rng rng(44);
  for (uint64_t k : keys) {
    uint64_t span = rng.Uniform(uint64_t{1} << 30);
    uint64_t lo = k >= span ? k - span : 0;
    ASSERT_TRUE(surf.MayContainRange(lo, RangeEnd(lo, 2 * span + 1)));
    ASSERT_TRUE(surf.MayContainRange(k, k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuffixTypes, SurfPointTest,
                         ::testing::Values(SurfSuffixType::kNone,
                                           SurfSuffixType::kHash,
                                           SurfSuffixType::kReal),
                         [](const auto& info) {
                           switch (info.param) {
                             case SurfSuffixType::kNone: return "Base";
                             case SurfSuffixType::kHash: return "Hash";
                             case SurfSuffixType::kReal: return "Real";
                           }
                           return "?";
                         });

TEST(SurfTest, HashSuffixCutsPointFpr) {
  auto keys = SortedKeys(50000, 45);
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  auto fpr = [&](SurfSuffixType type) {
    Surf surf = Surf::BuildFromU64(keys, Opt(type, 8));
    Rng rng(46);
    uint64_t fp = 0, neg = 0;
    for (int i = 0; i < 100000; ++i) {
      uint64_t y = rng.Next();
      if (keyset.count(y)) continue;
      ++neg;
      if (surf.MayContain(y)) ++fp;
    }
    return static_cast<double>(fp) / static_cast<double>(neg);
  };
  double base = fpr(SurfSuffixType::kNone);
  double hash = fpr(SurfSuffixType::kHash);
  EXPECT_LT(hash, base / 4);
}

TEST(SurfTest, RealSuffixCutsRangeFpr) {
  auto keys = SortedKeys(50000, 47);
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  auto range_fpr = [&](SurfSuffixType type) {
    Surf surf = Surf::BuildFromU64(keys, Opt(type, 8));
    Rng rng(48);
    uint64_t fp = 0, neg = 0;
    for (int i = 0; i < 30000; ++i) {
      uint64_t lo = rng.Next();
      uint64_t hi = RangeEnd(lo, uint64_t{1} << 30);
      if (GroundTruthRange(keyset, lo, hi)) continue;
      ++neg;
      if (surf.MayContainRange(lo, hi)) ++fp;
    }
    return static_cast<double>(fp) / static_cast<double>(neg);
  };
  double hash = range_fpr(SurfSuffixType::kHash);  // hash can't help ranges
  double real = range_fpr(SurfSuffixType::kReal);
  EXPECT_LT(real, hash / 2);
}

TEST(SurfTest, ExhaustiveSmallDomain) {
  auto keys = SortedKeys(60, 49, /*domain=*/1 << 16);
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  Surf surf = Surf::BuildFromU64(keys, Opt(SurfSuffixType::kReal, 8));
  for (uint64_t y = 0; y < (1 << 16); ++y) {
    if (keyset.count(y)) { ASSERT_TRUE(surf.MayContain(y)) << y; }
  }
  Rng rng(50);
  for (int i = 0; i < 50000; ++i) {
    uint64_t lo = rng.Uniform(1 << 16);
    uint64_t hi = lo + rng.Uniform(1 << 10);
    bool truth = GroundTruthRange(keyset, lo, hi);
    ASSERT_TRUE(surf.MayContainRange(lo, hi) || !truth)
        << "[" << lo << "," << hi << "]";
  }
}

TEST(SurfTest, DenseLevelsActive) {
  auto keys = SortedKeys(100000, 51);
  Surf surf = Surf::BuildFromU64(keys, Opt(SurfSuffixType::kHash));
  EXPECT_GT(surf.dense_levels(), 0u);
  EXPECT_LT(surf.dense_levels(), surf.height());
}

TEST(SurfTest, DenseCutoffDoesNotChangeAnswers) {
  auto keys = SortedKeys(20000, 52);
  // dense budget = sparse size / ratio: a huge ratio forces all-sparse,
  // ratio 1 makes the top levels dense.
  Surf::Options sparse_only = Opt(SurfSuffixType::kHash);
  sparse_only.dense_size_ratio = 1000000;
  Surf::Options dense_heavy = Opt(SurfSuffixType::kHash);
  dense_heavy.dense_size_ratio = 1;
  Surf a = Surf::BuildFromU64(keys, sparse_only);
  Surf b = Surf::BuildFromU64(keys, dense_heavy);
  EXPECT_EQ(a.dense_levels(), 0u);
  EXPECT_GT(b.dense_levels(), 0u);
  Rng rng(53);
  for (int i = 0; i < 30000; ++i) {
    uint64_t y = rng.Next();
    ASSERT_EQ(a.MayContain(y), b.MayContain(y)) << y;
    uint64_t hi = RangeEnd(y, 1 << 16);
    ASSERT_EQ(a.MayContainRange(y, hi), b.MayContainRange(y, hi)) << y;
  }
}

TEST(SurfTest, StringApi) {
  std::vector<std::string> keys = {"app",    "apple", "applesauce", "banana",
                                   "band",   "bandana", "cat",      "catalog"};
  Surf surf = Surf::BuildFromStrings(keys, Opt(SurfSuffixType::kReal, 16));
  for (const auto& k : keys) {
    EXPECT_TRUE(surf.MayContainString(k)) << k;
  }
  EXPECT_FALSE(surf.MayContainString("dog"));
  EXPECT_FALSE(surf.MayContainString("ap"));
  EXPECT_TRUE(surf.MayContainStringRange("aa", "az"));
  EXPECT_TRUE(surf.MayContainStringRange("banana", "banana"));
  EXPECT_FALSE(surf.MayContainStringRange("ce", "cz"));
  EXPECT_FALSE(surf.MayContainStringRange("d", "z"));
}

TEST(SurfTest, EmptyAndSingletonSets) {
  Surf empty = Surf::BuildFromU64({}, Opt(SurfSuffixType::kHash));
  EXPECT_FALSE(empty.MayContain(42));
  EXPECT_FALSE(empty.MayContainRange(0, UINT64_MAX));

  // A singleton trie truncates to one byte; a full-width (56-bit) real
  // suffix restores exact range answers.
  Surf one = Surf::BuildFromU64({42}, Opt(SurfSuffixType::kReal, 56));
  EXPECT_TRUE(one.MayContain(42));
  EXPECT_TRUE(one.MayContainRange(0, 100));
  EXPECT_FALSE(one.MayContainRange(100, 200));
  EXPECT_FALSE(one.MayContainRange(0, 41));
}

TEST(SurfTest, AdjacentKeysAndBoundaries) {
  std::vector<uint64_t> keys = {0, 1, 2, UINT64_MAX - 1, UINT64_MAX};
  Surf surf = Surf::BuildFromU64(keys, Opt(SurfSuffixType::kReal));
  for (uint64_t k : keys) EXPECT_TRUE(surf.MayContain(k));
  EXPECT_TRUE(surf.MayContainRange(0, 0));
  EXPECT_TRUE(surf.MayContainRange(UINT64_MAX, UINT64_MAX));
  EXPECT_FALSE(surf.MayContainRange(10, 1000));
}

TEST(SurfTest, MemoryAccountingPlausible) {
  auto keys = SortedKeys(100000, 54);
  Surf surf = Surf::BuildFromU64(keys, Opt(SurfSuffixType::kHash, 8));
  double bits_per_key =
      static_cast<double>(surf.MemoryBits()) / static_cast<double>(keys.size());
  // SuRF-Hash with 8-bit suffixes: ~18-24 bits/key on random 64-bit
  // integers (paper Fig. 10-range).
  EXPECT_GT(bits_per_key, 10.0);
  EXPECT_LT(bits_per_key, 40.0);
}

}  // namespace
}  // namespace bloomrf
