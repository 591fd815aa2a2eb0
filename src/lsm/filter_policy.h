// Filter-policy plugin interface of the mini-LSM store, mirroring the
// RocksDB integration described in paper Sect. 9: each SST file carries
// one serialized filter block; the policy is "extended to pass
// query-range information (lower/upper bounds) to the filter".
//
// A policy builds a filter over the sorted keys of an SST at flush time
// (CreateFilter) and reconstitutes a probe object from the stored
// filter block at open time (LoadFilter). Every build receives the
// FilterBuildContext the Db snapshots once per flush or compaction job
// (empty when sampling is off). There are two policies: the static one
// (NewRegistryPolicy) builds one backend named in the FilterRegistry
// from fixed FilterBuildParams, and AdaptiveFilterPolicy picks the
// backend and its FilterBuildParams per table through PlanFilter,
// configured by the planner's own PlannerOptions. Both build through
// the one registry call, FilterRegistry::BuildFramed, and the probe
// side IS the unified PointRangeFilter interface; filter blocks are
// registry-framed (`name | payload`), so any policy instance can load
// any backend's block.

#ifndef BLOOMRF_LSM_FILTER_POLICY_H_
#define BLOOMRF_LSM_FILTER_POLICY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_planner.h"
#include "core/workload_sampler.h"
#include "filters/filter.h"
#include "filters/registry.h"

namespace bloomrf {

/// What the LSM has learned about its workload, for a policy that
/// selects a filter per table. `sampler` is the Db's own and outlives
/// the Db's builds; it is null when sampling is off, and a policy then
/// degrades to its static behavior. `feedback` is a copy taken when
/// the job started.
struct FilterBuildContext {
  const WorkloadSampler* sampler = nullptr;  ///< recent-query sketch
  FilterFeedback feedback;                   ///< measured FPR per backend
};

class FilterPolicy {
 public:
  virtual ~FilterPolicy() = default;
  virtual std::string Name() const = 0;

  /// Builds and serializes (registry-framed) a filter for one SST's
  /// sorted unique keys. Returns "" when no filter can be built (e.g.
  /// unknown backend); the table then stores no filter block. Static
  /// policies ignore the context; AdaptiveFilterPolicy plans from it.
  virtual std::string CreateFilter(const std::vector<uint64_t>& sorted_keys,
                                   const FilterBuildContext& context) const = 0;

  /// True when the policy consumes workload samples and measured-FPR
  /// feedback; the Db then auto-creates a WorkloadSampler and collects
  /// per-table probe outcomes for it.
  virtual bool WantsQueryFeedback() const { return false; }

  /// Reconstructs the probe object from a filter block. Returns null
  /// on corruption (the table then probes nothing and scans). Blocks
  /// are self-describing: the framed name, not the policy's own
  /// backend, selects the deserializer, so no policy needs to override
  /// this except to observe loads.
  virtual std::unique_ptr<PointRangeFilter> LoadFilter(
      std::string_view data) const {
    return FilterRegistry::Instance().Deserialize(data);
  }
};

/// The tentpole policy: re-plans the filter backend for every SST it
/// builds (flush and compaction outputs alike) from the live workload
/// snapshot plus measured false-positive feedback, through PlanFilter
/// with the given PlannerOptions, and builds the plan's backend from
/// the plan's FilterBuildParams. FallbackPlan is built when no sampler
/// is wired, while the sampler holds fewer than `min_samples`
/// observations, and when the planned backend fails to build. Tables
/// built under different plans coexist in one tree — blocks are
/// registry-framed, so LoadFilter dispatches on the stored name.
class AdaptiveFilterPolicy : public FilterPolicy {
 public:
  explicit AdaptiveFilterPolicy(PlannerOptions options = {});

  std::string Name() const override;
  std::string CreateFilter(const std::vector<uint64_t>& sorted_keys,
                           const FilterBuildContext& context) const override;
  bool WantsQueryFeedback() const override { return true; }

  /// The decision behind the most recent build (introspection/tests).
  FilterPlan LastPlan() const;
  uint64_t planned_builds() const;
  uint64_t fallback_builds() const;

 private:
  PlannerOptions options_;
  mutable std::mutex mu_;  // guards the introspection state below
  mutable FilterPlan last_plan_;
  mutable uint64_t planned_builds_ = 0;
  mutable uint64_t fallback_builds_ = 0;
};

std::unique_ptr<AdaptiveFilterPolicy> NewAdaptiveFilterPolicy(
    PlannerOptions options = {});

/// The generic policy: backend selected by registry name ("bloomrf",
/// "rosetta", ...), construction tuned via `params`.
std::unique_ptr<FilterPolicy> NewRegistryPolicy(
    std::string_view name, FilterBuildParams params = {});

/// One-line shims for every backend used in the evaluation (legacy
/// spellings; all forward to NewRegistryPolicy).
std::unique_ptr<FilterPolicy> NewBloomRFPolicy(double bits_per_key,
                                               double max_range);
std::unique_ptr<FilterPolicy> NewBloomPolicy(double bits_per_key);
std::unique_ptr<FilterPolicy> NewPrefixBloomPolicy(double bits_per_key,
                                                   uint32_t prefix_level);
std::unique_ptr<FilterPolicy> NewRosettaPolicy(double bits_per_key,
                                               uint64_t max_range);
std::unique_ptr<FilterPolicy> NewSurfPolicy(uint32_t suffix_type,
                                            uint32_t suffix_bits);
std::unique_ptr<FilterPolicy> NewFencePointerPolicy(double bits_per_key);
std::unique_ptr<FilterPolicy> NewCuckooPolicy(uint32_t fingerprint_bits);

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_FILTER_POLICY_H_
