// The one concrete FilterPolicy: a thin generic adapter over the
// FilterRegistry. Backend-specific wiring (construction, serialization
// framing, probe objects) lives behind the registry; what used to be
// seven hand-written policy/probe class pairs is now this file.

#include "lsm/filter_policy.h"

#include <utility>

#include "core/bloomrf.h"
#include "filters/bloomrf_filter.h"

namespace bloomrf {

namespace {

/// The one registry build: `entry`'s filter over `sorted_keys`, framed
/// with its registry name. "" for an unknown backend (null entry) or a
/// failed build; sizing from the key count is the factory's job (see
/// OfflineViaOnline in builtin_filters.cc).
std::string BuildFramedFilter(const FilterRegistry::Entry* entry,
                              const std::vector<uint64_t>& sorted_keys,
                              const FilterBuildParams& params) {
  if (entry == nullptr) return "";
  std::unique_ptr<PointRangeFilter> filter =
      entry->build_from_sorted_keys(sorted_keys, params);
  if (filter == nullptr) return "";
  return FilterRegistry::Frame(entry->name, filter->Serialize());
}

class RegistryFilterPolicy : public FilterPolicy {
 public:
  // Entry pointers are stable (map nodes, never erased), so the
  // backend is resolved once instead of per flush/probe.
  RegistryFilterPolicy(std::string_view name, FilterBuildParams params)
      : name_(name),
        entry_(FilterRegistry::Instance().Find(name)),
        params_(params) {}

  std::string Name() const override {
    return entry_ != nullptr ? entry_->display_name : name_;
  }

  std::string CreateFilter(
      const std::vector<uint64_t>& sorted_keys) const override {
    return BuildFramedFilter(entry_, sorted_keys, params_);
  }

  std::unique_ptr<PointRangeFilter> LoadFilter(
      std::string_view data) const override {
    // Blocks are self-describing: the framed name, not this policy's
    // configured backend, selects the deserializer.
    return FilterRegistry::Instance().Deserialize(data);
  }

 private:
  std::string name_;
  const FilterRegistry::Entry* entry_;  // null for unknown backends
  FilterBuildParams params_;
};

}  // namespace

AdaptiveFilterPolicy::AdaptiveFilterPolicy(PlannerOptions options)
    : options_(std::move(options)) {
  last_plan_.backend = options_.fallback_backend;
  last_plan_.bits_per_key = options_.bits_per_key;
  last_plan_.max_range = options_.fallback_max_range;
  last_plan_.used_fallback = true;
  last_plan_.rationale = "no build yet";
}

std::string AdaptiveFilterPolicy::Name() const { return "adaptive"; }

std::string AdaptiveFilterPolicy::CreateFilter(
    const std::vector<uint64_t>& sorted_keys) const {
  return CreateFilter(sorted_keys, FilterBuildContext{});
}

std::string AdaptiveFilterPolicy::CreateFilter(
    const std::vector<uint64_t>& sorted_keys,
    const FilterBuildContext& context) const {
  FilterPlan plan;
  if (context.sampler == nullptr) {
    plan.backend = options_.fallback_backend;
    plan.bits_per_key = options_.bits_per_key;
    plan.max_range = options_.fallback_max_range;
    plan.used_fallback = true;
    plan.rationale = "fallback: no workload sampler wired";
  } else {
    plan = PlanFilter(context.sampler->Snapshot(), sorted_keys.size(),
                      options_, context.feedback);
  }

  std::string block;
  if (plan.has_bloomrf_config) {
    // The advisor-tuned configuration cannot be expressed through the
    // registry's scalar FilterBuildParams; build the core type directly.
    BloomRF filter(plan.bloomrf_config);
    for (uint64_t key : sorted_keys) filter.Insert(key);
    block = FilterRegistry::Frame("bloomrf", filter.Serialize());
  } else {
    const FilterRegistry& registry = FilterRegistry::Instance();
    FilterBuildParams params;
    params.bits_per_key = plan.bits_per_key;
    params.max_range = plan.max_range;
    params.prefix_level = plan.prefix_level;
    block = BuildFramedFilter(registry.Find(plan.backend), sorted_keys, params);
    if (block.empty() && plan.backend != options_.fallback_backend) {
      FilterBuildParams fallback;
      fallback.bits_per_key = options_.bits_per_key;
      fallback.max_range = options_.fallback_max_range;
      block = BuildFramedFilter(registry.Find(options_.fallback_backend),
                                sorted_keys, fallback);
      plan.used_fallback = true;
      plan.rationale += " (backend build failed; fallback built)";
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    last_plan_ = plan;
    if (plan.used_fallback) {
      ++fallback_builds_;
    } else {
      ++planned_builds_;
    }
  }
  return block;
}

std::unique_ptr<PointRangeFilter> AdaptiveFilterPolicy::LoadFilter(
    std::string_view data) const {
  return FilterRegistry::Instance().Deserialize(data);
}

FilterPlan AdaptiveFilterPolicy::LastPlan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_plan_;
}

uint64_t AdaptiveFilterPolicy::planned_builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planned_builds_;
}

uint64_t AdaptiveFilterPolicy::fallback_builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_builds_;
}

std::unique_ptr<AdaptiveFilterPolicy> NewAdaptiveFilterPolicy(
    PlannerOptions options) {
  return std::make_unique<AdaptiveFilterPolicy>(std::move(options));
}

std::unique_ptr<FilterPolicy> NewRegistryPolicy(std::string_view name,
                                                FilterBuildParams params) {
  return std::make_unique<RegistryFilterPolicy>(name, params);
}

std::unique_ptr<FilterPolicy> NewBloomRFPolicy(double bits_per_key,
                                               double max_range) {
  FilterBuildParams params;
  params.bits_per_key = bits_per_key;
  params.max_range = max_range;
  return NewRegistryPolicy("bloomrf", params);
}

std::unique_ptr<FilterPolicy> NewBloomPolicy(double bits_per_key) {
  FilterBuildParams params;
  params.bits_per_key = bits_per_key;
  return NewRegistryPolicy("bloom", params);
}

std::unique_ptr<FilterPolicy> NewPrefixBloomPolicy(double bits_per_key,
                                                   uint32_t prefix_level) {
  FilterBuildParams params;
  params.bits_per_key = bits_per_key;
  params.prefix_level = prefix_level;
  return NewRegistryPolicy("prefix_bloom", params);
}

std::unique_ptr<FilterPolicy> NewRosettaPolicy(double bits_per_key,
                                               uint64_t max_range) {
  FilterBuildParams params;
  params.bits_per_key = bits_per_key;
  params.max_range = static_cast<double>(max_range);
  return NewRegistryPolicy("rosetta", params);
}

std::unique_ptr<FilterPolicy> NewSurfPolicy(uint32_t suffix_type,
                                            uint32_t suffix_bits) {
  FilterBuildParams params;
  params.suffix_type = suffix_type;
  params.suffix_bits = suffix_bits;
  return NewRegistryPolicy("surf", params);
}

std::unique_ptr<FilterPolicy> NewFencePointerPolicy(double bits_per_key) {
  FilterBuildParams params;
  params.bits_per_key = bits_per_key;
  return NewRegistryPolicy("fence_pointers", params);
}

std::unique_ptr<FilterPolicy> NewCuckooPolicy(uint32_t fingerprint_bits) {
  FilterBuildParams params;
  params.fingerprint_bits = fingerprint_bits;
  return NewRegistryPolicy("cuckoo", params);
}

}  // namespace bloomrf
