// Prefix-Bloom, fence-pointer and Cuckoo baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "filters/cuckoo_filter.h"
#include "filters/fence_pointers.h"
#include "filters/prefix_bloom_filter.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::GroundTruthRange;
using ::bloomrf::testing::RandomKeySet;

// ------------------------------------------------------------ PrefixBloom

TEST(PrefixBloomTest, NoFalseNegatives) {
  auto keys = RandomKeySet(20000, 11);
  PrefixBloomFilter filter(keys.size(), 14.0, 16);
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) {
    EXPECT_TRUE(filter.MayContain(k));
    EXPECT_TRUE(filter.MayContainRange(k, k));
    EXPECT_TRUE(filter.MayContainRange(k & ~0xffffULL, k | 0xffffULL));
  }
}

TEST(PrefixBloomTest, WidePrefixRangesAreConservative) {
  // Range spanning > kMaxProbes prefixes cannot be excluded. At prefix
  // level 0 the full domain holds 2^64 prefixes, a count that wraps.
  for (uint32_t prefix_level : {8u, 0u}) {
    PrefixBloomFilter filter(100, 14.0, prefix_level);
    EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX)) << prefix_level;
  }
}

TEST(PrefixBloomTest, ExcludesDistantRanges) {
  auto keys = RandomKeySet(5000, 12);
  PrefixBloomFilter filter(keys.size(), 18.0, 16);
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(13);
  uint64_t excluded = 0;
  for (int i = 0; i < 2000; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo | 0xffff;  // one or two prefixes
    if (GroundTruthRange(keys, lo, hi)) continue;
    if (!filter.MayContainRange(lo, hi)) ++excluded;
  }
  EXPECT_GT(excluded, 1000u);  // most empty ranges are excluded
}

TEST(PrefixBloomTest, PointFprWorseThanRangeGranularity) {
  // The classic prefix-BF weakness (paper Problem 1 discussion):
  // points pay for the shared budget.
  auto keys = RandomKeySet(50000, 14);
  PrefixBloomFilter filter(keys.size(), 10.0, 24);
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(15);
  uint64_t fp = 0, neg = 0;
  for (int i = 0; i < 100000; ++i) {
    uint64_t y = rng.Next();
    if (keys.count(y)) continue;
    ++neg;
    if (filter.MayContain(y)) ++fp;
  }
  // Half the hash budget -> measurably worse than a dedicated BF.
  EXPECT_GT(static_cast<double>(fp) / static_cast<double>(neg), 0.005);
}

// --------------------------------------------------------- FencePointers

TEST(FencePointersTest, ExactAtBlockBoundaries) {
  std::vector<uint64_t> keys = {10, 20, 30, 40, 50, 60, 70, 80};
  FencePointers fences(keys, /*bits_per_key=*/32.0);  // blocks of 4
  ASSERT_EQ(fences.num_blocks(), 2u);
  EXPECT_TRUE(fences.MayContainRange(10, 15));
  EXPECT_TRUE(fences.MayContainRange(45, 55));
  EXPECT_FALSE(fences.MayContainRange(0, 9));
  EXPECT_FALSE(fences.MayContainRange(81, 1000));
  // Gap between blocks [40] and [50] is invisible only if it spans a
  // block boundary: [41,49] intersects block [50,80]? lower_bound on
  // max>=41 gives block0 (max 40)? no: block0 max=40 < 41, so block1
  // (min 50) -> 50 > 49 -> excluded.
  EXPECT_FALSE(fences.MayContainRange(41, 49));
  // Gap inside block0 (between 20 and 30) is invisible: false positive.
  EXPECT_TRUE(fences.MayContainRange(21, 29));
}

TEST(FencePointersTest, NoFalseNegativesOnRandomData) {
  auto keyset = RandomKeySet(20000, 16);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  FencePointers fences(keys, 2.0);
  for (uint64_t k : keys) {
    ASSERT_TRUE(fences.MayContain(k));
  }
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo | 0xffffffULL;
    if (GroundTruthRange(keyset, lo, hi)) {
      ASSERT_TRUE(fences.MayContainRange(lo, hi));
    }
  }
}

TEST(FencePointersTest, MemoryMatchesBlockCount) {
  auto keyset = RandomKeySet(1000, 18);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  FencePointers fences(keys, 1.0);  // 128 keys per block
  EXPECT_EQ(fences.num_blocks(), (keys.size() + 127) / 128);
  EXPECT_EQ(fences.MemoryBits(), fences.num_blocks() * 128);
}

TEST(FencePointersTest, EmptyInput) {
  FencePointers fences({}, 4.0);
  EXPECT_FALSE(fences.MayContain(0));
  EXPECT_FALSE(fences.MayContainRange(0, UINT64_MAX));
}

// ---------------------------------------------------------------- Cuckoo

TEST(CuckooFilterTest, NoFalseNegatives) {
  auto keys = RandomKeySet(100000, 19);
  CuckooFilter filter(keys.size(), 12);
  for (uint64_t k : keys) filter.Insert(k);
  EXPECT_EQ(filter.failed_inserts(), 0u);
  for (uint64_t k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(CuckooFilterTest, FprScalesWithFingerprintBits) {
  auto keys = RandomKeySet(50000, 20);
  auto fpr = [&](uint32_t bits) {
    CuckooFilter filter(keys.size(), bits);
    for (uint64_t k : keys) filter.Insert(k);
    Rng rng(21);
    uint64_t fp = 0, neg = 0;
    for (int i = 0; i < 200000; ++i) {
      uint64_t y = rng.Next();
      if (keys.count(y)) continue;
      ++neg;
      if (filter.MayContain(y)) ++fp;
    }
    return static_cast<double>(fp) / static_cast<double>(neg);
  };
  double f8 = fpr(8);
  double f12 = fpr(12);
  double f16 = fpr(16);
  EXPECT_GT(f8, f12);
  EXPECT_GT(f12, f16);
  EXPECT_LT(f16, 0.001);
}

TEST(CuckooFilterTest, DeleteRemovesKeys) {
  auto keyset = RandomKeySet(10000, 22);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  CuckooFilter filter(keys.size(), 16);
  for (uint64_t k : keys) filter.Insert(k);
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(filter.Delete(keys[i])) << i;
  }
  // Remaining keys still present.
  for (size_t i = keys.size() / 2; i < keys.size(); ++i) {
    EXPECT_TRUE(filter.MayContain(keys[i]));
  }
  // Deleted keys mostly gone (16-bit fingerprints: collisions rare).
  uint64_t still_present = 0;
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    if (filter.MayContain(keys[i])) ++still_present;
  }
  EXPECT_LT(still_present, 50u);
}

TEST(CuckooFilterTest, DeleteAbsentReturnsFalse) {
  CuckooFilter filter(100, 12);
  filter.Insert(1);
  EXPECT_FALSE(filter.Delete(999999));
}

TEST(CuckooFilterTest, HighOccupancyStillCorrect) {
  // Push occupancy towards the 95% target the paper uses (Fig. 12.E).
  constexpr uint64_t kSlots = 4096 * 4;
  CuckooFilter filter(kSlots, 12, /*target_occupancy=*/1.0);
  Rng rng(23);
  std::vector<uint64_t> inserted;
  for (uint64_t i = 0; i < kSlots * 95 / 100; ++i) {
    uint64_t k = rng.Next();
    filter.Insert(k);
    inserted.push_back(k);
    if (filter.failed_inserts() > 0) break;
  }
  for (uint64_t k : inserted) EXPECT_TRUE(filter.MayContain(k));
}

TEST(CuckooFilterTest, OverflowDegradesToAlwaysTrue) {
  CuckooFilter filter(16, 8, 1.0);
  Rng rng(24);
  for (int i = 0; i < 4000; ++i) filter.Insert(rng.Next());
  if (filter.failed_inserts() > 0) {
    EXPECT_TRUE(filter.MayContain(0xdeadbeef));  // saturated: no FNs ever
  }
}

TEST(CuckooFilterTest, RangesAlwaysPositive) {
  CuckooFilter filter(100, 12);
  EXPECT_TRUE(filter.MayContainRange(5, 10));
}

}  // namespace
}  // namespace bloomrf
