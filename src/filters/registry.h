// FilterRegistry: one name-keyed catalogue of every point/range filter
// backend, replacing the per-backend wiring the LSM policy layer and
// the benchmark harness used to duplicate.
//
// Each backend is one Entry with three factories:
//   - BuildFromSortedKeys: offline construction over an SST's sorted
//     unique keys (every backend; BuildFramed frames its output).
//     bloomRF's is advised for the keys' own domain (KeyDomainOf in
//     core/config.h): based at the smallest key, as wide as their span,
//   - BuildOnline: incremental construction for streaming workloads
//     (null for offline-only structures such as SuRF, fence pointers;
//     bloomRF's, with no keys to size for, covers the 64-bit domain),
//   - Deserialize: payload -> filter (the inverse of
//     PointRangeFilter::Serialize).
//
// Serialized blocks use a common length-prefixed framing
//   magic | len(name) | name | payload
// so any block round-trips through the registry regardless of which
// component stored it. The registry is a constant table of the
// built-in backends, listed once in builtin_filters.cc: a new backend
// is one entry there. It never changes after construction, so lookups
// take no lock.

#ifndef BLOOMRF_FILTERS_REGISTRY_H_
#define BLOOMRF_FILTERS_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "filters/filter.h"

namespace bloomrf {

/// Union of the per-backend construction knobs. Backends read the
/// fields they understand and ignore the rest; `expected_keys` is
/// filled from the key count on BuildFromSortedKeys. Callers use
/// designated initializers, so new fields go last.
struct FilterBuildParams {
  uint64_t expected_keys = 0;      ///< n, for sizing BuildOnline calls
                                   ///< (BuildFromSortedKeys sizes from
                                   ///< the key count itself)
  double bits_per_key = 16.0;      ///< space budget (most backends)
  double max_range = 1 << 16;      ///< R: largest supported query range
  uint32_t prefix_level = 16;      ///< prefix_bloom: bits dropped per key
  uint32_t suffix_type = 2;        ///< surf: 0 none, 1 hash, 2 real
  uint32_t suffix_bits = 8;        ///< surf suffix length
  uint32_t fingerprint_bits = 12;  ///< cuckoo fingerprint width
  uint64_t seed = 0;               ///< 0 = backend default seed
  /// bloomrf: share of query widths in [2^l, 2^{l+1}) per bucket l, as
  /// the workload sampler measures it; empty = size for max_range.
  std::vector<double> range_weights = {};
};

class FilterRegistry {
 public:
  using BuildFromSortedKeysFn = std::function<std::unique_ptr<PointRangeFilter>(
      const std::vector<uint64_t>& sorted_keys, const FilterBuildParams&)>;
  using BuildOnlineFn =
      std::function<std::unique_ptr<OnlineFilter>(const FilterBuildParams&)>;
  using DeserializeFn =
      std::function<std::unique_ptr<PointRangeFilter>(std::string_view payload)>;

  struct Entry {
    std::string name;          ///< registry key, e.g. "prefix_bloom"
    std::string display_name;  ///< canonical name, e.g. "PrefixBloom"
    bool supports_ranges = false;  ///< range probes can exclude intervals
    BuildFromSortedKeysFn build_from_sorted_keys;
    BuildOnlineFn build_online;  ///< null for offline-only backends
    DeserializeFn deserialize;
  };

  /// The table of built-in backends (defined in builtin_filters.cc).
  static const FilterRegistry& Instance();

  /// Looks up a backend by registry key or display name; null if absent.
  const Entry* Find(std::string_view name) const;

  /// Sorted registry keys of all backends.
  std::vector<std::string> Names() const;

  /// Builds backend `name`'s filter over sorted unique keys and frames
  /// it with its registry name: the one build every FilterPolicy's
  /// filter blocks come from. "" for an unknown backend or a failed
  /// build.
  std::string BuildFramed(std::string_view name,
                          const std::vector<uint64_t>& sorted_keys,
                          const FilterBuildParams& params) const;

  /// Frames a payload as `magic | len(name) | name | payload`.
  static std::string Frame(std::string_view name, std::string_view payload);

  /// Splits a framed block; false on malformed framing.
  static bool ParseFrame(std::string_view framed, std::string_view* name,
                         std::string_view* payload);

  /// Reconstructs a filter from a framed block; null on unknown name or
  /// corrupt payload.
  std::unique_ptr<PointRangeFilter> Deserialize(std::string_view framed) const;

 private:
  explicit FilterRegistry(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  const std::vector<Entry> entries_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_REGISTRY_H_
