// Probe-semantics edge cases of the two-path range algorithm: domain
// boundaries, probes outside a filter's domain, conservative caps,
// early stopping, the covering/decomposition accounting exposed
// through ProbeStats, and batched point probes answering like scalar
// ones on configs the filter registry never builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;

TEST(ProbeSemanticsTest, DomainBoundaryRanges) {
  BloomRF filter(BloomRFConfig::Basic(100, 16.0));
  filter.Insert(0);
  filter.Insert(UINT64_MAX);
  EXPECT_TRUE(filter.MayContainRange(0, 0));
  EXPECT_TRUE(filter.MayContainRange(UINT64_MAX, UINT64_MAX));
  EXPECT_TRUE(filter.MayContainRange(0, 1));
  EXPECT_TRUE(filter.MayContainRange(UINT64_MAX - 1, UINT64_MAX));
  EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX));
}

// A filter covers [key_base, key_base + 2^d - 1], capped at
// UINT64_MAX. Every probe outside it answers "no" before it indexes a
// bit array: a d-bit exact bitmap probed with a key >= 2^d would read
// past its end. Configs with and without an exact layer, at base 0, at
// a base whose domain ends at UINT64_MAX, and at one whose domain is
// capped there.
TEST(ProbeSemanticsTest, ProbesOutsideTheDomainAnswerNo) {
  constexpr uint32_t kBits = 20;
  constexpr uint64_t kWidth = uint64_t{1} << kBits;
  AdvisorParams advisor;
  advisor.n = 100;
  advisor.total_bits = 1600;
  advisor.max_range = 1 << 10;
  advisor.domain_bits = kBits;
  const BloomRFConfig exact = AdviseConfig(advisor).config;
  ASSERT_TRUE(exact.has_exact_layer) << exact.DebugString();
  const BloomRFConfig basic = BloomRFConfig::Basic(100, 16.0, kBits);
  ASSERT_FALSE(basic.has_exact_layer);

  for (BloomRFConfig cfg : {exact, basic}) {
    for (uint64_t base : {uint64_t{0}, UINT64_MAX - kWidth + 1,
                          UINT64_MAX - kWidth / 2}) {
      cfg.key_base = base;
      SCOPED_TRACE(cfg.DebugString());
      const uint64_t top = base + std::min(kWidth - 1, UINT64_MAX - base);
      BloomRF filter(cfg);
      // Keys at both edges of the domain and inside it.
      std::vector<uint64_t> keys = {base, top};
      for (uint64_t k : RandomKeySet(98, 0xd0a + base, top - base)) {
        keys.push_back(base + k);
      }
      for (uint64_t k : keys) filter.Insert(k);

      std::vector<uint64_t> outside;
      if (base > 0) outside.insert(outside.end(), {0, base - 5, base - 1});
      if (top < UINT64_MAX) {
        outside.insert(outside.end(),
                       {top + 1, top + 5, top + kWidth, UINT64_MAX});
      }
      for (uint64_t y : outside) {
        ProbeStats stats;
        EXPECT_FALSE(filter.MayContain(y, &stats)) << y;
        EXPECT_FALSE(filter.MayContainRange(y, y, &stats)) << y;
        EXPECT_EQ(stats.bit_probes + stats.word_probes, 0u) << y;
      }
      // A batch mixing keys and outside probes answers like the scalar
      // probes: every key, no outside probe.
      std::vector<uint64_t> batch = keys;
      batch.insert(batch.end(), outside.begin(), outside.end());
      auto out = std::make_unique<bool[]>(batch.size());
      filter.MayContainBatch(batch, out.get());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(out[i], i < keys.size()) << batch[i];
      }

      // Ranges wholly outside answer "no"; ranges straddling an edge
      // answer as their clip to the domain, and the edge keys make
      // those clips hold a key.
      ProbeStats stats;
      if (base > 0) {
        EXPECT_FALSE(filter.MayContainRange(0, base - 1, &stats));
        EXPECT_TRUE(filter.MayContainRange(0, base));
        EXPECT_TRUE(filter.MayContainRange(base - 5, base));
        EXPECT_EQ(filter.MayContainRange(base - 5, base + 100),
                  filter.MayContainRange(base, base + 100));
      }
      if (top < UINT64_MAX) {
        EXPECT_FALSE(filter.MayContainRange(top + 1, UINT64_MAX, &stats));
        EXPECT_FALSE(filter.MayContainRange(top + 1, top + 1, &stats));
        EXPECT_TRUE(filter.MayContainRange(top, UINT64_MAX));
        EXPECT_TRUE(filter.MayContainRange(top, top + 5));
        EXPECT_EQ(filter.MayContainRange(top - 100, top + kWidth),
                  filter.MayContainRange(top - 100, top));
      }
      EXPECT_EQ(stats.bit_probes + stats.word_probes, 0u);
      EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX));
      for (uint64_t k : keys) {
        ASSERT_TRUE(filter.MayContain(k)) << k;
        ASSERT_TRUE(filter.MayContainRange(k, k)) << k;
      }
    }
  }
}

TEST(ProbeSemanticsTest, TopLayerCapIsConservativeTrueOnly) {
  // A tiny word cap forces huge spans to return true (never false):
  // the cap must not introduce false negatives elsewhere.
  BloomRFConfig cfg = BloomRFConfig::Basic(1000, 16.0);
  cfg.max_top_layer_words = 1;
  BloomRF filter(cfg);
  auto keys = RandomKeySet(1000, 501);
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) {
    ASSERT_TRUE(filter.MayContainRange(k, k));
    ASSERT_TRUE(filter.MayContainRange(0, UINT64_MAX));
  }
  // Small local ranges still resolve exactly (cap only affects spans
  // wider than one top-layer word).
  ProbeStats stats;
  uint64_t anchor = *keys.begin();
  filter.MayContainRange(anchor, anchor + 100, &stats);
  EXPECT_GT(stats.bit_probes + stats.word_probes, 0u);
}

TEST(ProbeSemanticsTest, EarlyStopOnDeadCovering) {
  // An empty filter kills the top covering immediately: exactly one
  // bit probe for any single-covering interval.
  BloomRF filter(BloomRFConfig::Basic(100000, 16.0));
  ProbeStats stats;
  EXPECT_FALSE(filter.MayContainRange(1000, 2000, &stats));
  EXPECT_LE(stats.bit_probes, 2u);
  EXPECT_EQ(stats.word_probes, 0u);
}

TEST(ProbeSemanticsTest, EarlyTrueStopsDescending) {
  // A range fully containing an inserted key hits a decomposition word
  // early; probes must stay well below the full-layer walk.
  BloomRFConfig cfg = BloomRFConfig::Basic(1000, 16.0);
  BloomRF filter(cfg);
  filter.Insert(uint64_t{1} << 32);
  ProbeStats stats;
  EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX, &stats));
  EXPECT_LE(stats.bit_probes + stats.word_probes,
            6 * cfg.num_layers() + 8);
}

TEST(ProbeSemanticsTest, PointProbeLayerOrderTopDown) {
  // The top layers saturate fastest, so negatives usually die high up:
  // average bit probes on misses must be far below k for a loaded
  // filter probed far from its keys.
  auto keys = RandomKeySet(100000, 502);
  BloomRFConfig cfg = BloomRFConfig::Basic(keys.size(), 12.0);
  BloomRF filter(cfg);
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(503);
  uint64_t total_probes = 0;
  constexpr int kQueries = 20000;
  for (int i = 0; i < kQueries; ++i) {
    ProbeStats stats;
    filter.MayContain(rng.Next(), &stats);
    total_probes += stats.bit_probes;
  }
  double avg = static_cast<double>(total_probes) / kQueries;
  EXPECT_LT(avg, static_cast<double>(cfg.num_layers()));
  EXPECT_GE(avg, 1.0);
}

TEST(ProbeSemanticsTest, ExactScanCapConservative) {
  BloomRFConfig cfg;
  cfg.domain_bits = 64;
  cfg.delta = {7, 7, 7, 7, 7, 7};
  cfg.replicas = {1, 1, 1, 1, 1, 1};
  cfg.segment_of = {0, 0, 0, 0, 0, 0};
  cfg.segment_bits = {1 << 16};
  cfg.has_exact_layer = true;
  cfg.max_exact_scan_bits = 4;  // absurdly small: force the cap
  ASSERT_TRUE(cfg.Validate().empty());
  BloomRF filter(cfg);
  // Empty filter + capped exact scan: wide ranges answer true
  // (conservative), narrow ones answer false (exactly probed).
  EXPECT_TRUE(filter.MayContainRange(0, UINT64_MAX / 2));
  EXPECT_FALSE(filter.MayContainRange(1000, 2000));
}

TEST(ProbeSemanticsTest, RangeSubsetMonotonicity) {
  // If the filter rejects an interval, it must reject all subsets.
  auto keys = RandomKeySet(20000, 504);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (uint64_t k : keys) filter.Insert(k);
  Rng rng(505);
  int checked = 0;
  for (int i = 0; i < 50000 && checked < 300; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo + 0xffff > lo ? lo + 0xffff : lo;
    if (filter.MayContainRange(lo, hi)) continue;
    ++checked;
    for (int j = 0; j < 8; ++j) {
      uint64_t slo = lo + rng.Uniform(0x8000);
      uint64_t shi = slo + rng.Uniform(0x7fff);
      if (shi > hi) shi = hi;
      ASSERT_FALSE(filter.MayContainRange(slo, shi))
          << "[" << slo << "," << shi << "] inside rejected [" << lo << ","
          << hi << "]";
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(ProbeSemanticsTest, StatsAccumulateAcrossCalls) {
  BloomRF filter(BloomRFConfig::Basic(1000, 16.0));
  filter.Insert(42);
  ProbeStats stats;
  filter.MayContain(42, &stats);
  uint64_t after_one = stats.bit_probes;
  filter.MayContain(42, &stats);
  EXPECT_EQ(stats.bit_probes, 2 * after_one);
}

// The registry builds advisor-tuned configs only, which at this size
// have an exact layer and at most 2 replicas per layer. Basic has no
// exact layer, so the point plan skips it. The replicated variant puts
// 3 replicas on the bottom layer and 5 on the top one, so the plan
// stores a different number of bit positions per layer.
TEST(ProbeSemanticsTest, BatchProbesMatchScalarOnUnadvisedConfigs) {
  BloomRFConfig basic = BloomRFConfig::Basic(3000, 16.0);
  BloomRFConfig replicated = basic;
  replicated.replicas.front() = 3;
  replicated.replicas.back() = 5;
  auto key_set = RandomKeySet(3000, 0xba7c4);
  std::vector<uint64_t> keys(key_set.begin(), key_set.end());
  for (const BloomRFConfig& cfg : {basic, replicated}) {
    ASSERT_TRUE(cfg.Validate().empty()) << cfg.DebugString();
    ASSERT_FALSE(cfg.has_exact_layer);
    BloomRF filter(cfg);
    for (uint64_t k : keys) filter.Insert(k);
    Rng rng(0x9e3);
    for (size_t batch_size : {0, 1, 31, 32, 33, 1001}) {
      // Present keys, their successors and random keys.
      std::vector<uint64_t> probes;
      for (size_t i = 0; i < batch_size; ++i) {
        uint64_t anchor =
            (i % 2 == 0) ? keys[rng.Uniform(keys.size())] : rng.Next();
        probes.push_back(i % 4 == 2 ? anchor + 1 : anchor);
      }
      auto point_out = std::make_unique<bool[]>(batch_size + 1);
      point_out[batch_size] = true;  // canary
      filter.MayContainBatch(probes, point_out.get());
      for (size_t i = 0; i < batch_size; ++i) {
        ASSERT_EQ(point_out[i], filter.MayContain(probes[i]))
            << cfg.DebugString() << " batch_size=" << batch_size
            << " i=" << i << " key=" << probes[i];
      }
      EXPECT_TRUE(point_out[batch_size]);
    }
  }
}

}  // namespace
}  // namespace bloomrf
