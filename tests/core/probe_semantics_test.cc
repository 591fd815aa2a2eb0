// Probe-semantics edge cases of the two-path range algorithm: domain
// boundaries, conservative caps, early stopping, the covering/
// decomposition accounting exposed through ProbeStats, and batch
// probes answering like scalar ones on configs the filter registry
// never builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/bloomrf.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

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
// 3 replicas on the bottom layer and 5 on the top one; 5 exceeds the
// lockstep range engine's per-unit cap of 4, so its per-query scalar
// fallback runs.
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
      // Present keys, their successors and random keys; ranges of
      // widths 2^0..2^19 around present or random anchors.
      std::vector<uint64_t> probes, los, his;
      for (size_t i = 0; i < batch_size; ++i) {
        uint64_t anchor =
            (i % 2 == 0) ? keys[rng.Uniform(keys.size())] : rng.Next();
        probes.push_back(i % 4 == 2 ? anchor + 1 : anchor);
        uint64_t width = uint64_t{1} << rng.Uniform(20);
        uint64_t lo = anchor - std::min(anchor, width / 2);
        los.push_back(lo);
        his.push_back(RangeEnd(lo, width));
      }
      auto point_out = std::make_unique<bool[]>(batch_size + 1);
      auto range_out = std::make_unique<bool[]>(batch_size + 1);
      point_out[batch_size] = range_out[batch_size] = true;  // canaries
      filter.MayContainBatch(probes, point_out.get());
      filter.MayContainRangeBatch(los, his, range_out.get());
      for (size_t i = 0; i < batch_size; ++i) {
        ASSERT_EQ(point_out[i], filter.MayContain(probes[i]))
            << cfg.DebugString() << " batch_size=" << batch_size
            << " i=" << i << " key=" << probes[i];
        ASSERT_EQ(range_out[i], filter.MayContainRange(los[i], his[i]))
            << cfg.DebugString() << " batch_size=" << batch_size
            << " i=" << i << " [" << los[i] << ", " << his[i] << "]";
      }
      EXPECT_TRUE(point_out[batch_size]);
      EXPECT_TRUE(range_out[batch_size]);
    }
  }
}

}  // namespace
}  // namespace bloomrf
