// Filter planner: the decision half of the adaptive tuning loop.
//
// Consumes a WorkloadSnapshot (point/range mix + range-width
// histogram), a table's sorted keys and a bits-per-key budget, scores
// every candidate filter backend with the analytic models in
// core/fpr_model.h + core/tuning_advisor.h, and emits the backend name
// (a FilterRegistry key) plus the FilterBuildParams the registry
// builds it from. Proteus
// (Knorr et al., SIGMOD '22) is the template: sample recent queries,
// model the FPR of each candidate design, pick the cheapest.
//
// Candidates and their models:
//  - bloomrf        AdviseConfig over the measured range-width
//                   histogram (delta ladder, exact layer, replicas,
//                   segment split) at the bit width of the table's key
//                   span — the paper's tuning advisor fed live weights
//                   instead of one static max_range;
//  - blocked_bloom  BasicPointFpr; range FPR 1 (cannot exclude
//                   ranges). One cache line per probe, so it carries
//                   the smallest probe-cost term — the pick for
//                   point-only workloads;
//  - bloom          same FPR model, k scattered cache lines per probe;
//  - rosetta        per-level Bloom ladder sized BottomHeavy; narrow
//                   ranges only — wide ranges blow its budget;
//  - prefix_bloom   one Bloom over keys + fixed-width prefixes; the
//                   prefix width is chosen from the histogram median.
//
// The planner also accepts measured per-backend feedback (false
// positives the LSM actually observed: filter said maybe, data block
// said no). When a backend's measured FPR exceeds its model's
// prediction, its score is scaled by the divergence — the loop's
// "distrust a model that reality contradicts" correction.

#ifndef BLOOMRF_CORE_FILTER_PLANNER_H_
#define BLOOMRF_CORE_FILTER_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload_sampler.h"
#include "filters/registry.h"

namespace bloomrf {

/// Measured probe outcomes of one backend, aggregated over the live
/// tables that carry it. "false" counts filter-passed probes the data
/// blocks then rejected; "negatives" are filter rejections (always
/// correct — the structures have no false negatives).
struct BackendObservation {
  std::string backend;  ///< FilterRegistry name, e.g. "bloomrf"
  uint64_t point_allowed = 0;
  uint64_t point_false = 0;
  uint64_t point_negatives = 0;
  uint64_t range_allowed = 0;
  uint64_t range_false = 0;
  uint64_t range_negatives = 0;

  /// Measured FPR over the probes that had a definite outcome; -1
  /// when fewer than `min_probes` outcomes were observed.
  double MeasuredPointFpr(uint64_t min_probes) const;
  double MeasuredRangeFpr(uint64_t min_probes) const;
};

struct FilterFeedback {
  std::vector<BackendObservation> backends;

  const BackendObservation* Find(std::string_view backend) const;
  /// Adds `obs`'s counts to its backend's entry (appended if absent).
  void Add(const BackendObservation& obs);
};

/// The planner's settings. Its constants: the fallback is bloomRF sized
/// for FilterBuildParams' default max_range, and bloomRF is scored
/// with AdvisorParams' default point weight (C = 2).
struct PlannerOptions {
  double bits_per_key = 16.0;
  /// Below this many samples the snapshot is noise: build the fallback.
  uint64_t min_samples = 32;
  /// Feedback gates: ignore observations with fewer definite outcomes,
  /// and cap the distrust multiplier (measured/predicted FPR).
  uint64_t feedback_min_probes = 512;
  double distrust_cap = 16.0;
};

/// One planning decision: which backend the next SST should carry and
/// the FilterBuildParams it was scored with. `backend` is a
/// FilterRegistry name, and FilterRegistry::BuildFramed(backend, keys,
/// params) builds exactly what was scored: for bloomRF, `params`
/// carries the sampled width histogram the advisor tuned for.
struct FilterPlan {
  std::string backend = "bloomrf";
  FilterBuildParams params;
  /// Model outputs for the chosen candidate (feedback-adjusted).
  double predicted_point_fpr = 1.0;
  double predicted_range_fpr = 1.0;
  double predicted_cost = 1.0;
  bool used_fallback = false;  ///< the fallback was (or will be) built
  std::string rationale;       ///< one human-readable line
  /// Every scored candidate with its feedback-adjusted cost (ascending
  /// is NOT guaranteed; the chosen backend holds the minimum).
  std::vector<std::pair<std::string, double>> candidate_costs;
};

/// The plan built when there is nothing to plan from (no sampler, too
/// few samples) or the planned backend fails to build: bloomRF at the
/// options' bits_per_key and the default max_range, with `reason` as
/// its rationale.
FilterPlan FallbackPlan(const PlannerOptions& options, std::string reason);

/// Scores every candidate for a table's sorted unique keys under the
/// sampled workload and returns the cheapest. bloomRF is scored at the
/// keys' own domain (KeyDomainOf), the one the registry builds it for.
/// `feedback` may be null.
FilterPlan PlanFilter(const WorkloadSnapshot& snapshot,
                      std::span<const uint64_t> sorted_keys,
                      const PlannerOptions& options,
                      const FilterFeedback* feedback = nullptr);

}  // namespace bloomrf

#endif  // BLOOMRF_CORE_FILTER_PLANNER_H_
