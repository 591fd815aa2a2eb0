#include "core/filter_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/tuning_advisor.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

/// n sorted keys evenly spread over the whole 64-bit domain: bloomRF is
/// scored at 64 domain bits, as for an L0 file.
std::vector<uint64_t> SpreadKeys(uint64_t n) {
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = i * (UINT64_MAX / n);
  return keys;
}

const std::vector<uint64_t>& TableKeys() {
  static const std::vector<uint64_t> keys = SpreadKeys(100'000);
  return keys;
}

WorkloadSnapshot PointSnapshot(uint64_t samples) {
  WorkloadSnapshot snap;
  snap.ops = samples;
  snap.point_samples = samples;
  return snap;
}

WorkloadSnapshot RangeSnapshot(uint64_t samples, size_t width_bucket) {
  WorkloadSnapshot snap;
  snap.ops = samples;
  snap.range_samples = samples;
  snap.range_width_log2[width_bucket] = samples;
  return snap;
}

double CostOf(const FilterPlan& plan, const std::string& backend) {
  for (const auto& [name, cost] : plan.candidate_costs) {
    if (name == backend) return cost;
  }
  ADD_FAILURE() << backend << " not among scored candidates";
  return -1.0;
}

TEST(FilterPlannerTest, PurePointWorkloadPicksBlockedBloom) {
  // No range ever sampled: the range-incapable backend with the
  // cheapest probe and the model-best point FPR should win.
  PlannerOptions options;
  FilterPlan plan = PlanFilter(PointSnapshot(10'000), TableKeys(), options);
  EXPECT_EQ(plan.backend, "blocked_bloom");
  EXPECT_FALSE(plan.used_fallback);
  EXPECT_LT(plan.predicted_point_fpr, 0.01);
  EXPECT_EQ(plan.candidate_costs.size(), 5u);  // every backend scored
  // No range sampled: the widest width reads 1, scored and built as 2.
  EXPECT_DOUBLE_EQ(plan.params.max_range, 2.0);
  EXPECT_TRUE(plan.params.range_weights.empty());
}

TEST(FilterPlannerTest, PureWideRangeWorkloadPicksRangeCapableBackend) {
  // All queries are ~2^30-wide ranges: point-only Blooms score range
  // FPR 1 and must lose to a genuinely range-capable design.
  PlannerOptions options;
  FilterPlan plan =
      PlanFilter(RangeSnapshot(10'000, 30), TableKeys(), options);
  EXPECT_NE(plan.backend, "blocked_bloom");
  EXPECT_NE(plan.backend, "bloom");
  EXPECT_LT(plan.predicted_range_fpr, 1.0);
  // The chosen backend holds the minimum scored cost.
  double best = CostOf(plan, plan.backend);
  for (const auto& [name, cost] : plan.candidate_costs) {
    EXPECT_GE(cost, best) << name;
  }
  EXPECT_LT(best, CostOf(plan, "blocked_bloom"));
}

TEST(FilterPlannerTest, BimodalWorkloadPicksBloomRF) {
  // Half points, half 2^16-wide ranges: bloomRF's dyadic design is the
  // only candidate strong on both sides (Rosetta's ladder blows the
  // 16-bit budget at this width; prefix Bloom halves its bits by
  // storing key + prefix).
  WorkloadSnapshot snap;
  snap.ops = 20'000;
  snap.point_samples = 10'000;
  snap.range_samples = 10'000;
  snap.range_width_log2[16] = 10'000;
  PlannerOptions options;
  FilterPlan plan = PlanFilter(snap, TableKeys(), options);
  EXPECT_EQ(plan.backend, "bloomrf");
  // The plan carries the histogram it scored, and the advisor turns
  // those params into a valid configuration.
  EXPECT_EQ(plan.params.range_weights, snap.RangeWeights());
  AdvisorParams advisor;
  advisor.n = 100'000;
  advisor.total_bits = static_cast<uint64_t>(plan.params.bits_per_key * 1e5);
  advisor.max_range = plan.params.max_range;
  advisor.range_weights = plan.params.range_weights;
  EXPECT_TRUE(AdviseConfig(advisor).config.Validate().empty());
  EXPECT_LT(plan.predicted_point_fpr, 0.05);
  EXPECT_LT(plan.predicted_range_fpr, 0.5);
}

TEST(FilterPlannerTest, BloomRFIsScoredAtTheKeysDomain) {
  // A leveled SST's keys fill a thin slice of the domain, and the
  // registry advises its bloomRF for the slice's bit width: the planner
  // predicts bloomRF's FPR at that width too, so it scores the filter
  // it builds.
  WorkloadSnapshot snap;
  snap.ops = 20'000;
  snap.point_samples = 10'000;
  snap.range_samples = 10'000;
  snap.range_width_log2[16] = 10'000;
  PlannerOptions options;
  for (uint64_t slices : {1, 19, 1000}) {
    SCOPED_TRACE(slices);
    const std::vector<uint64_t> keys =
        ::bloomrf::testing::SliceKeys(52'600, slices, 80 + slices);
    FilterPlan plan = PlanFilter(snap, keys, options);
    ASSERT_EQ(plan.backend, "bloomrf");
    AdvisorParams advisor;
    advisor.n = keys.size();
    advisor.total_bits = static_cast<uint64_t>(
        options.bits_per_key * static_cast<double>(keys.size()));
    advisor.max_range = plan.params.max_range;
    advisor.domain_bits = KeyDomainOf(keys).domain_bits;
    advisor.range_weights = plan.params.range_weights;
    EXPECT_EQ(advisor.domain_bits, slices == 1     ? 64u
                                   : slices == 19 ? 60u
                                                  : 55u);
    const AdvisorResult advice = AdviseConfig(advisor);
    EXPECT_DOUBLE_EQ(plan.predicted_point_fpr, advice.expected_point_fpr);
    EXPECT_DOUBLE_EQ(plan.predicted_range_fpr, advice.expected_range_fpr);
  }
}

TEST(FilterPlannerTest, SingleBucketHistogramMatchesScalarMaxRange) {
  // The histogram-weighted advisor must reduce to the old scalar
  // behavior when all mass sits in one bucket L == log2(max_range).
  for (uint32_t bucket : {8u, 20u, 34u}) {
    AdvisorParams scalar;
    scalar.n = 1'000'000;
    scalar.total_bits = 16 * scalar.n;
    scalar.max_range = std::ldexp(1.0, static_cast<int>(bucket));
    AdvisorResult via_scalar = AdviseConfig(scalar);

    AdvisorParams weighted = scalar;
    weighted.max_range = 1.0;  // must be ignored when weights are set
    weighted.range_weights.assign(bucket + 1, 0.0);
    weighted.range_weights[bucket] = 1.0;
    AdvisorResult via_weights = AdviseConfig(weighted);

    EXPECT_DOUBLE_EQ(via_weights.expected_point_fpr,
                     via_scalar.expected_point_fpr)
        << "bucket " << bucket;
    EXPECT_DOUBLE_EQ(via_weights.expected_range_fpr,
                     via_scalar.expected_range_fpr)
        << "bucket " << bucket;
    EXPECT_DOUBLE_EQ(via_weights.weighted_score, via_scalar.weighted_score)
        << "bucket " << bucket;
  }
}

TEST(FilterPlannerTest, TooFewSamplesFallsBack) {
  PlannerOptions options;
  options.min_samples = 32;
  options.bits_per_key = 12.0;
  FilterPlan plan = PlanFilter(PointSnapshot(5), TableKeys(), options);
  EXPECT_TRUE(plan.used_fallback);
  EXPECT_EQ(plan.backend, "bloomrf");
  // The fallback sizes bloomRF for the default max range, at the
  // options' budget, with no histogram.
  EXPECT_DOUBLE_EQ(plan.params.max_range, FilterBuildParams{}.max_range);
  EXPECT_DOUBLE_EQ(plan.params.bits_per_key, 12.0);
  EXPECT_TRUE(plan.params.range_weights.empty());
  EXPECT_TRUE(plan.candidate_costs.empty());
}

TEST(FilterPlannerTest, MeasuredDivergenceDistrustsTheModel) {
  // Without feedback blocked_bloom wins the pure-point workload; with
  // measured FPR far above its model's prediction the planner must
  // abandon it for a backend reality has not contradicted.
  PlannerOptions options;
  WorkloadSnapshot snap = PointSnapshot(10'000);
  FilterPlan trusting = PlanFilter(snap, TableKeys(), options);
  ASSERT_EQ(trusting.backend, "blocked_bloom");

  FilterFeedback feedback;
  feedback.Add({.backend = "blocked_bloom",
                .point_allowed = 5'000,
                .point_false = 5'000,  // measured FPR ~0.33 vs model ~1e-4
                .point_negatives = 10'000});
  FilterPlan distrusting =
      PlanFilter(snap, TableKeys(), options, &feedback);
  EXPECT_NE(distrusting.backend, "blocked_bloom");
  EXPECT_GT(CostOf(distrusting, "blocked_bloom"),
            CostOf(trusting, "blocked_bloom"));
}

TEST(FilterPlannerTest, ObservationBelowProbeFloorIsIgnored) {
  PlannerOptions options;
  options.feedback_min_probes = 512;
  WorkloadSnapshot snap = PointSnapshot(10'000);
  FilterFeedback feedback;
  // Only 100 definite outcomes: noise.
  feedback.Add({.backend = "blocked_bloom", .point_false = 100});
  FilterPlan plan = PlanFilter(snap, TableKeys(), options, &feedback);
  EXPECT_EQ(plan.backend, "blocked_bloom");
}

TEST(FilterPlannerTest, MeasuredFprNeedsEnoughProbes) {
  BackendObservation obs;
  obs.point_false = 10;
  obs.point_negatives = 10;
  EXPECT_LT(obs.MeasuredPointFpr(512), 0.0);  // under the floor
  EXPECT_DOUBLE_EQ(obs.MeasuredPointFpr(20), 0.5);
  obs.range_false = 0;
  obs.range_negatives = 1000;
  EXPECT_DOUBLE_EQ(obs.MeasuredRangeFpr(512), 0.0);
}

}  // namespace
}  // namespace bloomrf
