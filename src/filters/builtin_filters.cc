// Registry entries for every built-in point/range filter backend, and
// the table FilterRegistry::Instance() serves. Adding backend N+1 is
// one entry in this file; nothing else in the LSM, bench or example
// layers needs to know about it.

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/tuning_advisor.h"
#include "filters/blocked_bloom_filter.h"
#include "filters/bloom_filter.h"
#include "filters/bloomrf_filter.h"
#include "filters/cuckoo_filter.h"
#include "filters/fence_pointers.h"
#include "filters/prefix_bloom_filter.h"
#include "filters/registry.h"
#include "filters/rosetta.h"
#include "filters/surf/surf.h"

namespace bloomrf {
namespace {

// Populates an online filter from an already-sorted key set (the
// offline construction path of online-capable backends).
template <typename FilterT>
std::unique_ptr<FilterT> InsertAll(std::unique_ptr<FilterT> filter,
                                   const std::vector<uint64_t>& keys) {
  for (uint64_t k : keys) filter->Insert(k);
  return filter;
}

template <typename FilterT>
std::unique_ptr<PointRangeFilter> DeserializeAs(std::string_view payload) {
  auto restored = FilterT::Deserialize(payload);
  if (!restored) return nullptr;
  return std::make_unique<FilterT>(std::move(*restored));
}

// Offline construction of an online-capable backend: size for the key
// count, then insert the sorted set.
FilterRegistry::BuildFromSortedKeysFn OfflineViaOnline(
    FilterRegistry::BuildOnlineFn build_online) {
  return [build_online = std::move(build_online)](
             const std::vector<uint64_t>& keys,
             const FilterBuildParams& params) {
    FilterBuildParams sized = params;
    sized.expected_keys = keys.size();
    return InsertAll(build_online(sized), keys);
  };
}

// ---------------------------------------------------------------- bloomRF

// The tuning advisor (Sect. 7) for n keys of `domain`, on the sampled
// width histogram or on max_range without one; PlanFilter scores
// bloomRF with these inputs.
std::unique_ptr<BloomRFFilter> AdvisedBloomRF(const FilterBuildParams& p,
                                              uint64_t n, KeyDomain domain) {
  AdvisorParams advisor;
  advisor.n = n;
  advisor.total_bits =
      static_cast<uint64_t>(p.bits_per_key * static_cast<double>(n));
  advisor.max_range = p.max_range;
  advisor.domain_bits = domain.domain_bits;
  advisor.range_weights = p.range_weights;
  BloomRFConfig config = AdviseConfig(advisor).config;
  config.key_base = domain.key_base;
  if (p.seed != 0) config.seed = p.seed;
  return std::make_unique<BloomRFFilter>(BloomRF(std::move(config)));
}

FilterRegistry::Entry BloomRFEntry() {
  FilterRegistry::Entry entry;
  entry.name = "bloomrf";
  entry.display_name = "bloomRF";
  entry.supports_ranges = true;
  // With no keys yet, the whole 64-bit domain.
  entry.build_online = [](const FilterBuildParams& p) {
    return AdvisedBloomRF(p, p.expected_keys, KeyDomain{});
  };
  // Sized for the keys' own span, based at the smallest key.
  entry.build_from_sorted_keys = [](const std::vector<uint64_t>& keys,
                                    const FilterBuildParams& p) {
    return InsertAll(AdvisedBloomRF(p, keys.size(), KeyDomainOf(keys)), keys);
  };
  entry.deserialize = DeserializeAs<BloomRFFilter>;
  return entry;
}

// ------------------------------------------------------------------ Bloom

FilterRegistry::Entry BloomEntry() {
  FilterRegistry::Entry entry;
  entry.name = "bloom";
  entry.display_name = "Bloom";
  entry.supports_ranges = false;
  entry.build_online = [](const FilterBuildParams& p) {
    return p.seed != 0 ? std::make_unique<BloomFilter>(p.expected_keys,
                                                       p.bits_per_key, 0,
                                                       p.seed)
                       : std::make_unique<BloomFilter>(p.expected_keys,
                                                       p.bits_per_key);
  };
  entry.build_from_sorted_keys = OfflineViaOnline(entry.build_online);
  entry.deserialize = DeserializeAs<BloomFilter>;
  return entry;
}

// ----------------------------------------------------------- Blocked Bloom

FilterRegistry::Entry BlockedBloomEntry() {
  FilterRegistry::Entry entry;
  entry.name = "blocked_bloom";
  entry.display_name = "BlockedBloom";
  entry.supports_ranges = false;
  entry.build_online = [](const FilterBuildParams& p) {
    return p.seed != 0 ? std::make_unique<BlockedBloomFilter>(
                             p.expected_keys, p.bits_per_key, 0, p.seed)
                       : std::make_unique<BlockedBloomFilter>(
                             p.expected_keys, p.bits_per_key);
  };
  entry.build_from_sorted_keys = OfflineViaOnline(entry.build_online);
  entry.deserialize = DeserializeAs<BlockedBloomFilter>;
  return entry;
}

// ----------------------------------------------------------- Prefix Bloom

FilterRegistry::Entry PrefixBloomEntry() {
  FilterRegistry::Entry entry;
  entry.name = "prefix_bloom";
  entry.display_name = "PrefixBloom";
  entry.supports_ranges = true;
  entry.build_online = [](const FilterBuildParams& p) {
    return p.seed != 0
               ? std::make_unique<PrefixBloomFilter>(
                     p.expected_keys, p.bits_per_key, p.prefix_level, p.seed)
               : std::make_unique<PrefixBloomFilter>(
                     p.expected_keys, p.bits_per_key, p.prefix_level);
  };
  entry.build_from_sorted_keys = OfflineViaOnline(entry.build_online);
  entry.deserialize = DeserializeAs<PrefixBloomFilter>;
  return entry;
}

// ----------------------------------------------------------------- Cuckoo

FilterRegistry::Entry CuckooEntry() {
  FilterRegistry::Entry entry;
  entry.name = "cuckoo";
  entry.display_name = "Cuckoo";
  entry.supports_ranges = false;
  entry.build_online = [](const FilterBuildParams& p) {
    return p.seed != 0 ? std::make_unique<CuckooFilter>(p.expected_keys,
                                                        p.fingerprint_bits,
                                                        0.95, p.seed)
                       : std::make_unique<CuckooFilter>(p.expected_keys,
                                                        p.fingerprint_bits);
  };
  entry.build_from_sorted_keys = OfflineViaOnline(entry.build_online);
  entry.deserialize = DeserializeAs<CuckooFilter>;
  return entry;
}

// ---------------------------------------------------------------- Rosetta

FilterRegistry::Entry RosettaEntry() {
  FilterRegistry::Entry entry;
  entry.name = "rosetta";
  entry.display_name = "Rosetta";
  entry.supports_ranges = true;
  entry.build_online = [](const FilterBuildParams& p) {
    Rosetta::Options options;
    options.expected_keys = p.expected_keys;
    options.bits_per_key = p.bits_per_key;
    // Clamp before the float->int cast: doubles at or above 2^63 (e.g.
    // a legacy NewRosettaPolicy(_, UINT64_MAX) call, which rounds up
    // to 2^64) would otherwise cast with undefined behavior.
    double r = std::max(1.0, p.max_range);
    options.max_range = r >= 9223372036854775808.0  // 2^63
                            ? UINT64_MAX
                            : static_cast<uint64_t>(r);
    if (p.seed != 0) options.seed = p.seed;
    return std::make_unique<Rosetta>(options);
  };
  entry.build_from_sorted_keys = OfflineViaOnline(entry.build_online);
  entry.deserialize = DeserializeAs<Rosetta>;
  return entry;
}

// ------------------------------------------------------------------- SuRF

FilterRegistry::Entry SurfEntry() {
  FilterRegistry::Entry entry;
  entry.name = "surf";
  entry.display_name = "SuRF";
  entry.supports_ranges = true;
  entry.build_from_sorted_keys = [](const std::vector<uint64_t>& keys,
                                    const FilterBuildParams& p) {
    Surf::Options options;
    options.suffix_type = static_cast<SurfSuffixType>(
        std::min<uint32_t>(p.suffix_type, 2));
    options.suffix_bits = p.suffix_bits;
    return std::make_unique<Surf>(Surf::BuildFromU64(keys, options));
  };
  entry.deserialize = DeserializeAs<Surf>;
  return entry;
}

// --------------------------------------------------------- Fence pointers

FilterRegistry::Entry FencePointersEntry() {
  FilterRegistry::Entry entry;
  entry.name = "fence_pointers";
  entry.display_name = "FencePointers";
  entry.supports_ranges = true;
  entry.build_from_sorted_keys = [](const std::vector<uint64_t>& keys,
                                    const FilterBuildParams& p) {
    return std::make_unique<FencePointers>(keys, p.bits_per_key);
  };
  entry.deserialize = DeserializeAs<FencePointers>;
  return entry;
}

}  // namespace

const FilterRegistry& FilterRegistry::Instance() {
  static const FilterRegistry registry({
      BloomRFEntry(),
      BloomEntry(),
      BlockedBloomEntry(),
      PrefixBloomEntry(),
      CuckooEntry(),
      RosettaEntry(),
      SurfEntry(),
      FencePointersEntry(),
  });
  return registry;
}

}  // namespace bloomrf
