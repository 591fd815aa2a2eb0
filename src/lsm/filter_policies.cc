// The static RegistryFilterPolicy and the AdaptiveFilterPolicy. Both
// build every filter block through the one registry call,
// FilterRegistry::BuildFramed; backend wiring lives behind the registry.

#include "lsm/filter_policy.h"

#include <utility>

namespace bloomrf {

namespace {

class RegistryFilterPolicy : public FilterPolicy {
 public:
  RegistryFilterPolicy(std::string_view name, FilterBuildParams params)
      : name_(name), params_(std::move(params)) {
    // Find resolves display names too, so the registry builds by it.
    const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
    if (entry != nullptr) name_ = entry->display_name;
  }

  std::string Name() const override { return name_; }

  std::string CreateFilter(const std::vector<uint64_t>& sorted_keys,
                           const FilterBuildContext& /*context*/)
      const override {
    return FilterRegistry::Instance().BuildFramed(name_, sorted_keys, params_);
  }

 private:
  std::string name_;  // display name; as given for unknown backends
  FilterBuildParams params_;
};

}  // namespace

AdaptiveFilterPolicy::AdaptiveFilterPolicy(PlannerOptions options)
    : options_(std::move(options)),
      last_plan_(FallbackPlan(options_, "no build yet")) {}

std::string AdaptiveFilterPolicy::Name() const { return "adaptive"; }

std::string AdaptiveFilterPolicy::CreateFilter(
    const std::vector<uint64_t>& sorted_keys,
    const FilterBuildContext& context) const {
  FilterPlan plan =
      context.sampler == nullptr
          ? FallbackPlan(options_, "fallback: no workload sampler wired")
          : PlanFilter(context.sampler->Snapshot(), sorted_keys, options_,
                       &context.feedback);
  const FilterRegistry& registry = FilterRegistry::Instance();
  std::string block = registry.BuildFramed(plan.backend, sorted_keys,
                                           plan.params);
  if (block.empty() && !plan.used_fallback) {
    plan = FallbackPlan(
        options_, plan.rationale + " (backend build failed; fallback built)");
    block = registry.BuildFramed(plan.backend, sorted_keys, plan.params);
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
