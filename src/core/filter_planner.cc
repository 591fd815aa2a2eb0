#include "core/filter_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/fpr_model.h"
#include "core/tuning_advisor.h"

namespace bloomrf {

namespace {

/// Relative cost of one filter probe, in "expected data-block reads"
/// units (a false positive costs ~1 block read + parse; a probe costs
/// nanoseconds). These terms only decide ties between candidates whose
/// model FPRs are equal — most visibly blocked_bloom (one cache line)
/// over bloom (k scattered lines) on point-only workloads.
constexpr double kEpsBlockedBloom = 2e-5;
constexpr double kEpsBloom = 1e-4;
constexpr double kEpsBloomRF = 2e-4;      // O(k) dyadic descent
constexpr double kEpsPrefixBloom = 5e-4;  // O(range/2^p) prefix probes
constexpr double kEpsRosetta = 1e-3;      // O(log R)..O(R) doubting

/// kMaxProbes of PrefixBloomFilter::MayContainRange: wider covers
/// answer "maybe" without probing.
constexpr double kPrefixBloomProbeCap = 1024;

uint32_t OptimalK(double bits_per_key) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(bits_per_key * std::log(2.0))));
}

struct Candidate {
  std::string backend;
  double point_fpr = 1.0;
  double range_fpr = 1.0;  // histogram-weighted
  double probe_eps = 0.0;
  bool viable = true;
};

/// Multiplies a model FPR by how badly reality has contradicted it for
/// this backend: measured/predicted, clamped to [1, cap]. A backend
/// whose model holds up keeps multiplier 1.
double Distrust(double measured, double predicted, double cap) {
  if (measured < 0 || predicted <= 0) return 1.0;
  return std::clamp(measured / predicted, 1.0, cap);
}

double CandidateCost(const Candidate& c, double p_point, double p_range,
                     const PlannerOptions& options,
                     const FilterFeedback* feedback) {
  if (!c.viable) return std::numeric_limits<double>::infinity();
  double point = c.point_fpr;
  double range = c.range_fpr;
  if (feedback != nullptr) {
    if (const BackendObservation* obs = feedback->Find(c.backend)) {
      point *= Distrust(obs->MeasuredPointFpr(options.feedback_min_probes),
                        c.point_fpr, options.distrust_cap);
      range *= Distrust(obs->MeasuredRangeFpr(options.feedback_min_probes),
                        c.range_fpr, options.distrust_cap);
    }
  }
  return p_point * std::min(1.0, point) + p_range * std::min(1.0, range) +
         c.probe_eps;
}

/// Weighted mean of per-bucket range FPRs given by `fpr_of_width`.
template <typename Fn>
double WeightedOver(const std::vector<double>& weights, Fn fpr_of_width) {
  if (weights.empty()) return 1.0;
  double fpr = 0;
  for (size_t l = 0; l < weights.size(); ++l) {
    if (weights[l] <= 0) continue;
    fpr += weights[l] *
           std::min(1.0, fpr_of_width(std::ldexp(1.0, static_cast<int>(l))));
  }
  return fpr;
}

}  // namespace

double BackendObservation::MeasuredPointFpr(uint64_t min_probes) const {
  uint64_t definite = point_false + point_negatives;
  if (definite < min_probes) return -1.0;
  return static_cast<double>(point_false) / static_cast<double>(definite);
}

double BackendObservation::MeasuredRangeFpr(uint64_t min_probes) const {
  uint64_t definite = range_false + range_negatives;
  if (definite < min_probes) return -1.0;
  return static_cast<double>(range_false) / static_cast<double>(definite);
}

const BackendObservation* FilterFeedback::Find(std::string_view backend) const {
  for (const BackendObservation& obs : backends) {
    if (obs.backend == backend) return &obs;
  }
  return nullptr;
}

void FilterFeedback::Add(const BackendObservation& obs) {
  for (BackendObservation& sum : backends) {
    if (sum.backend != obs.backend) continue;
    sum.point_allowed += obs.point_allowed;
    sum.point_false += obs.point_false;
    sum.point_negatives += obs.point_negatives;
    sum.range_allowed += obs.range_allowed;
    sum.range_false += obs.range_false;
    sum.range_negatives += obs.range_negatives;
    return;
  }
  backends.push_back(obs);
}

FilterPlan FallbackPlan(const PlannerOptions& options, std::string reason) {
  FilterPlan plan;  // bloomrf at FilterBuildParams' default max_range
  plan.params.bits_per_key = options.bits_per_key;
  plan.used_fallback = true;
  plan.rationale = std::move(reason);
  return plan;
}

FilterPlan PlanFilter(const WorkloadSnapshot& snapshot,
                      std::span<const uint64_t> sorted_keys,
                      const PlannerOptions& options,
                      const FilterFeedback* feedback) {
  if (snapshot.total_samples() < options.min_samples) {
    return FallbackPlan(
        options, "fallback: " + std::to_string(snapshot.total_samples()) +
                     " samples < min " + std::to_string(options.min_samples));
  }

  const uint64_t table_keys = sorted_keys.size();
  const uint64_t n = std::max<uint64_t>(table_keys, 2);
  const uint64_t m = std::max<uint64_t>(
      256, static_cast<uint64_t>(options.bits_per_key *
                                 static_cast<double>(n)));
  const double bpk = static_cast<double>(m) / static_cast<double>(n);

  const double p_point = snapshot.point_fraction();
  const double p_range = 1.0 - p_point;
  // The raw widest sampled width (1 when no range was sampled) goes
  // into the rationale; scoring and building use it clamped to 2.
  const double max_width = snapshot.MaxRangeWidth();

  FilterPlan plan;
  plan.params.bits_per_key = options.bits_per_key;
  plan.params.max_range = std::max(2.0, max_width);
  plan.params.range_weights = snapshot.RangeWeights();
  const std::vector<double>& weights = plan.params.range_weights;

  std::vector<Candidate> candidates;

  // bloomRF: the tuning advisor over the measured width histogram at
  // the keys' own domain, fed exactly what the registry's bloomrf entry
  // feeds it at build time.
  {
    AdvisorParams advisor;
    advisor.n = table_keys;
    advisor.total_bits = static_cast<uint64_t>(
        options.bits_per_key * static_cast<double>(table_keys));
    advisor.max_range = plan.params.max_range;
    advisor.domain_bits = KeyDomainOf(sorted_keys).domain_bits;
    advisor.range_weights = weights;
    const AdvisorResult advised = AdviseConfig(advisor);
    Candidate c;
    c.backend = "bloomrf";
    c.point_fpr = advised.expected_point_fpr;
    c.range_fpr = weights.empty() ? 1.0 : advised.expected_range_fpr;
    c.probe_eps = kEpsBloomRF;
    candidates.push_back(std::move(c));
  }

  // Plain and cache-line-blocked Bloom: point probes only.
  {
    const double point = BasicPointFpr(n, m, OptimalK(bpk));
    Candidate blocked;
    blocked.backend = "blocked_bloom";
    blocked.point_fpr = point;
    blocked.probe_eps = kEpsBlockedBloom;
    candidates.push_back(std::move(blocked));
    Candidate bloom;
    bloom.backend = "bloom";
    bloom.point_fpr = point;
    bloom.probe_eps = kEpsBloom;
    candidates.push_back(std::move(bloom));
  }

  // Rosetta (BottomHeavy): every level above the bottom costs
  // ~log2(e) bits/key at FPR 1/2; whatever remains sizes the
  // bottom-level Bloom, whose FPR bounds both points and (through
  // doubting fan-in, roughly width * p_bottom) ranges.
  {
    Candidate c;
    c.backend = "rosetta";
    const double levels = std::ceil(std::log2(plan.params.max_range)) + 1.0;
    const double bottom_bpk = bpk - std::log2(std::exp(1.0)) * (levels - 1.0);
    if (bottom_bpk < 1.0) {
      c.viable = false;  // the ladder alone exhausts the budget
    } else {
      const uint64_t m_bottom =
          static_cast<uint64_t>(bottom_bpk * static_cast<double>(n));
      const double p_bottom = BasicPointFpr(n, m_bottom, OptimalK(bottom_bpk));
      c.point_fpr = p_bottom;
      c.range_fpr =
          WeightedOver(weights, [&](double w) { return w * p_bottom; });
      c.probe_eps = kEpsRosetta;
    }
    candidates.push_back(std::move(c));
  }

  // Prefix Bloom at the histogram's weighted-median width: stores key
  // + prefix (2n insertions into the same m bits), probes
  // ~width/2^p + 1 prefixes per range, answers "maybe" beyond its
  // probe cap.
  {
    Candidate c;
    c.backend = "prefix_bloom";
    double acc = 0;
    for (size_t l = 0; l < weights.size(); ++l) {
      acc += weights[l];
      if (acc >= 0.5) {
        plan.params.prefix_level = static_cast<uint32_t>(l);
        break;
      }
    }
    const double k2 = OptimalK(bpk / 2.0);
    const double per_probe = BasicPointFpr(2 * n, m, static_cast<uint32_t>(k2));
    c.point_fpr = per_probe;
    const double prefix_width =
        std::ldexp(1.0, static_cast<int>(plan.params.prefix_level));
    c.range_fpr = WeightedOver(weights, [&](double w) {
      const double probes = w / prefix_width + 2.0;
      if (probes > kPrefixBloomProbeCap) return 1.0;  // cap: cannot exclude
      return probes * per_probe;
    });
    c.probe_eps = kEpsPrefixBloom;
    candidates.push_back(std::move(c));
  }

  size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  plan.candidate_costs.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double cost =
        CandidateCost(candidates[i], p_point, p_range, options, feedback);
    plan.candidate_costs.emplace_back(candidates[i].backend, cost);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }

  const Candidate& chosen = candidates[best];
  plan.backend = chosen.backend;
  plan.predicted_point_fpr = chosen.point_fpr;
  plan.predicted_range_fpr = chosen.range_fpr;
  plan.predicted_cost = best_cost;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: cost %.3g (point %.0f%% fpr %.3g, range %.0f%% fpr "
                "%.3g, max width %.3g)",
                chosen.backend.c_str(), best_cost, 100 * p_point,
                chosen.point_fpr, 100 * p_range, chosen.range_fpr, max_width);
  plan.rationale = line;
  return plan;
}

}  // namespace bloomrf
