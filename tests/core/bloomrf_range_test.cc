// Property tests of the two-path range lookup (paper Sect. 4,
// Algorithm 1). The load-bearing invariant is one-sided error: for any
// configuration, key set and interval, a non-empty interval must probe
// positive. Parameterized sweeps cover deltas, budgets, domains,
// distributions and range sizes; an exhaustive small-domain case
// compares every interval against ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "filters/bloomrf_filter.h"
#include "filters/registry.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::GroundTruthRange;
using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

TEST(BloomRFRangeTest, EmptyFilterRejectsRanges) {
  BloomRF filter(BloomRFConfig::Basic(1000, 12.0));
  EXPECT_FALSE(filter.MayContainRange(0, UINT64_MAX / 2));
  EXPECT_FALSE(filter.MayContainRange(100, 200));
}

TEST(BloomRFRangeTest, InvertedBoundsAreEmpty) {
  BloomRF filter(BloomRFConfig::Basic(1000, 12.0));
  filter.Insert(150);
  EXPECT_FALSE(filter.MayContainRange(200, 100));
}

TEST(BloomRFRangeTest, PointRangeEqualsPointLookup) {
  auto keys = RandomKeySet(10000, 21);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(22);
  for (int i = 0; i < 5000; ++i) {
    uint64_t y = rng.Next();
    EXPECT_EQ(filter.MayContainRange(y, y), filter.MayContain(y)) << y;
  }
}

TEST(BloomRFRangeTest, RangeCoveringKeyAlwaysPositive) {
  auto keys = RandomKeySet(20000, 23);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(24);
  for (uint64_t k : keys) {
    uint64_t left = rng.Uniform(1 << 20);
    uint64_t right = rng.Uniform(1 << 20);
    uint64_t lo = k >= left ? k - left : 0;
    uint64_t hi = k <= UINT64_MAX - right ? k + right : UINT64_MAX;
    ASSERT_TRUE(filter.MayContainRange(lo, hi))
        << "key " << k << " in [" << lo << ", " << hi << "]";
  }
}

TEST(BloomRFRangeTest, ExhaustiveSmallDomainAllIntervals) {
  // d=10: check every one of the ~0.5M intervals against ground truth.
  constexpr uint64_t kDomain = 1 << 10;
  auto keys = RandomKeySet(40, 25, kDomain);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0, 10, 3));
  for (uint64_t k : keys) filter.Insert(k);
  uint64_t fp = 0, negatives = 0;
  for (uint64_t lo = 0; lo < kDomain; ++lo) {
    for (uint64_t hi = lo; hi < kDomain; ++hi) {
      bool truth = GroundTruthRange(keys, lo, hi);
      bool answer = filter.MayContainRange(lo, hi);
      ASSERT_TRUE(answer || !truth)
          << "false negative on [" << lo << ", " << hi << "]";
      if (!truth) {
        ++negatives;
        if (answer) ++fp;
      }
    }
  }
  EXPECT_GT(negatives, 0u);
  EXPECT_LT(static_cast<double>(fp) / static_cast<double>(negatives), 0.9);
}

TEST(BloomRFRangeTest, FullDomainRangePositiveWhenNonEmpty) {
  BloomRF filter(BloomRFConfig::Basic(100, 14.0));
  filter.Insert(uint64_t{1} << 40);
  EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX));
}

TEST(BloomRFRangeTest, ConstantProbeCountAcrossRangeSizes) {
  // Paper claim: O(k) word accesses independent of |I| (Sect. 5).
  auto keys = RandomKeySet(100000, 26);
  BloomRFConfig cfg = BloomRFConfig::Basic(keys.size(), 16.0);
  BloomRF filter(cfg);
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(27);
  uint64_t k = cfg.num_layers();
  for (uint32_t log_range : {4u, 10u, 16u, 24u, 32u}) {
    uint64_t worst = 0;
    for (int i = 0; i < 200; ++i) {
      ProbeStats stats;
      uint64_t lo = rng.Next();
      filter.MayContainRange(lo, RangeEnd(lo, uint64_t{1} << log_range),
                             &stats);
      worst = std::max(worst, stats.bit_probes + stats.word_probes);
    }
    // <= ~6 probes per layer (2 coverings + 4 decomposition words).
    EXPECT_LE(worst, 6 * k + 8) << "log_range " << log_range;
  }
}

TEST(BloomRFRangeTest, LargerBudgetLowersRangeFpr) {
  auto keys = RandomKeySet(50000, 28);
  auto measure = [&](double bpk) {
    BloomRF filter(BloomRFConfig::Basic(keys.size(), bpk));
    for (uint64_t k : keys) filter.Insert(k);
    Rng rng(29);
    uint64_t fp = 0, negatives = 0;
    for (int i = 0; i < 20000; ++i) {
      uint64_t lo = rng.Next();
      uint64_t hi = RangeEnd(lo, 1 << 12);
      if (GroundTruthRange(keys, lo, hi)) continue;
      ++negatives;
      if (filter.MayContainRange(lo, hi)) ++fp;
    }
    return static_cast<double>(fp) / static_cast<double>(negatives);
  };
  double fpr10 = measure(10.0);
  double fpr22 = measure(22.0);
  EXPECT_LE(fpr22, fpr10);
}

// ---------------------------------------------------------------------
// Parameterized no-false-negative sweep: (delta, bits/key, distribution,
// log2 range size).
// ---------------------------------------------------------------------

using SweepParam = std::tuple<int, double, Distribution, int>;

class RangeSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RangeSweepTest, NoFalseNegativesAndBoundedFpr) {
  auto [delta, bits_per_key, dist, log_range] = GetParam();
  auto key_vec = GenerateDistinctKeys(20000, dist, 1000 + delta + log_range);
  std::set<uint64_t> keys(key_vec.begin(), key_vec.end());
  BloomRF filter(BloomRFConfig::Basic(keys.size(), bits_per_key, 64,
                                      static_cast<uint32_t>(delta)));
  for (uint64_t k : keys) filter.Insert(k);

  Rng rng(2000 + delta);
  ZipfianGenerator zipf(uint64_t{1} << 40, 0.99, 3000 + delta);
  uint64_t range = uint64_t{1} << log_range;
  uint64_t fp = 0, negatives = 0, positives = 0;
  for (int i = 0; i < 4000; ++i) {
    uint64_t lo = DrawKey(dist, rng, &zipf);
    uint64_t hi = RangeEnd(lo, range);
    bool truth = GroundTruthRange(keys, lo, hi);
    bool answer = filter.MayContainRange(lo, hi);
    ASSERT_TRUE(answer || !truth)
        << "false negative: delta=" << delta << " [" << lo << "," << hi << "]";
    if (truth) {
      ++positives;
    } else {
      ++negatives;
      if (answer) ++fp;
    }
  }
  // Also check keys directly: ranges anchored exactly on keys.
  int checked = 0;
  for (uint64_t k : keys) {
    if (++checked > 2000) break;
    ASSERT_TRUE(filter.MayContainRange(k, RangeEnd(k, range)));
    uint64_t lo = k >= range - 1 ? k - (range - 1) : 0;
    ASSERT_TRUE(filter.MayContainRange(lo, k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeltaBudgetDistRange, RangeSweepTest,
    ::testing::Combine(::testing::Values(3, 5, 7),
                       ::testing::Values(12.0, 20.0),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kNormal,
                                         Distribution::kZipfian),
                       ::testing::Values(6, 14, 26)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "delta" + std::to_string(std::get<0>(info.param)) + "_bpk" +
             std::to_string(static_cast<int>(std::get<1>(info.param))) + "_" +
             DistributionName(std::get<2>(info.param)) + "_r" +
             std::to_string(std::get<3>(info.param));
    });

// ---------------------------------------------------------------------
// Advisor-produced (segmented, exact-layer) configurations.
// ---------------------------------------------------------------------

class AdvisedRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(AdvisedRangeTest, NoFalseNegativesWithExactLayer) {
  double max_range = GetParam();
  auto keys = RandomKeySet(30000, 31);
  AdvisorParams params;
  params.n = keys.size();
  params.total_bits = 18 * keys.size();
  params.max_range = max_range;
  AdvisorResult advised = AdviseConfig(params);
  BloomRF filter(advised.config);
  for (uint64_t k : keys) filter.Insert(k);

  Rng rng(32);
  uint64_t range = static_cast<uint64_t>(max_range);
  for (int i = 0; i < 2000; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = RangeEnd(lo, 1 + rng.Uniform(range));
    bool truth = GroundTruthRange(keys, lo, hi);
    ASSERT_TRUE(filter.MayContainRange(lo, hi) || !truth);
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(filter.MayContainRange(k, k));
  }
}

INSTANTIATE_TEST_SUITE_P(MaxRanges, AdvisedRangeTest,
                         ::testing::Values(1e3, 1e6, 1e9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "R1e" + std::to_string(static_cast<int>(
                                              std::log10(info.param)));
                         });

// ---------------------------------------------------------------------
// Rebased filters: the registry builds bloomRF for its keys' own
// domain, based at the smallest key.
// ---------------------------------------------------------------------

// Key sets of every span width 2^1 .. 2^64, based at 0, at a random key
// and at the top of the 64-bit domain. Every key, and every range that
// holds one, must probe positive, before and after a framed
// serialization round trip.
TEST(BloomRFRangeTest, RebasedFiltersHaveNoFalseNegatives) {
  const FilterRegistry& registry = FilterRegistry::Instance();
  const FilterRegistry::Entry* entry = registry.Find("bloomrf");
  ASSERT_NE(entry, nullptr);
  const FilterBuildParams param_sets[] = {
      {.bits_per_key = 16.0, .max_range = 1 << 20},
      {.bits_per_key = 8.0, .max_range = 16},
  };
  Rng rng(0x5ba5e);
  uint64_t checks = 0;
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const uint64_t span = UINT64_MAX >> (64 - bits);  // 2^bits - 1
    for (uint64_t base : {uint64_t{0}, rng.Uniform(UINT64_MAX - span + 1),
                          UINT64_MAX - span}) {
      // Both ends of the span, so the keys need all `bits`, plus random
      // keys inside it.
      std::set<uint64_t> key_set = {base, base + span};
      const uint64_t n = bits < 8 ? uint64_t{1} << bits : 200;
      while (key_set.size() < n) key_set.insert(base + rng.Uniform(span));
      const std::vector<uint64_t> keys(key_set.begin(), key_set.end());
      for (const FilterBuildParams& params : param_sets) {
        SCOPED_TRACE(::testing::Message()
                     << "bits " << bits << " base " << base << " bpk "
                     << params.bits_per_key);
        std::unique_ptr<PointRangeFilter> built =
            entry->build_from_sorted_keys(keys, params);
        const auto* bloomrf = dynamic_cast<const BloomRFFilter*>(built.get());
        ASSERT_NE(bloomrf, nullptr);
        EXPECT_EQ(bloomrf->impl().config().key_base, base);
        EXPECT_EQ(bloomrf->impl().config().domain_bits, bits);
        std::unique_ptr<PointRangeFilter> restored = registry.Deserialize(
            FilterRegistry::Frame("bloomrf", built->Serialize()));
        ASSERT_NE(restored, nullptr);

        for (const PointRangeFilter* filter : {built.get(), restored.get()}) {
          auto batch = std::make_unique<bool[]>(keys.size());
          filter->MayContainBatch(keys, batch.get());
          for (size_t i = 0; i < keys.size(); ++i) {
            const uint64_t k = keys[i];
            ASSERT_TRUE(batch[i]) << k;
            ASSERT_TRUE(filter->MayContain(k)) << k;
            ASSERT_TRUE(filter->MayContainRange(k, k)) << k;
            ASSERT_TRUE(filter->MayContainRange(0, k)) << k;
            ASSERT_TRUE(filter->MayContainRange(k, UINT64_MAX)) << k;
            // A range of random width around the key, at a random place.
            const uint64_t width = rng.Next() >> rng.Uniform(64);
            const uint64_t lo = k - std::min(k, rng.Uniform(width + 1));
            const uint64_t hi = lo + std::min(UINT64_MAX - lo, width);
            if (hi < k) continue;
            ASSERT_TRUE(filter->MayContainRange(lo, hi))
                << "[" << lo << ", " << hi << "] holds " << k;
            checks += 6;
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 250'000u);
}

}  // namespace
}  // namespace bloomrf
