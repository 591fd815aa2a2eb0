// Unified interface of all point/range filters in the library
// (bloomRF and the baselines of paper Sect. 9).
//
// Semantics: a filter answers approximate membership — `false` is
// definite ("no inserted key matches"), `true` may be a false positive.
// Point-only filters (plain Bloom, Cuckoo) answer every range probe
// with a conservative `true`.
//
// A PointRangeFilter carries the union of the standalone-filter and
// LSM-probe contracts: probing (point, range, batched), bits/key
// accounting, and serialization. Serialized payloads round-trip through
// the FilterRegistry (filters/registry.h), which frames them as
// `name | payload` so any stored filter block is self-describing.

#ifndef BLOOMRF_FILTERS_FILTER_H_
#define BLOOMRF_FILTERS_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace bloomrf {

class PointRangeFilter {
 public:
  virtual ~PointRangeFilter() = default;

  /// Canonical display name ("bloomRF", "Rosetta", ...). The registry
  /// additionally knows each filter under a stable lower-case key.
  virtual std::string Name() const = 0;

  /// Approximate point membership.
  virtual bool MayContain(uint64_t key) const = 0;

  /// Approximate emptiness of the inclusive interval [lo, hi].
  virtual bool MayContainRange(uint64_t lo, uint64_t hi) const = 0;

  /// Batched point probe for throughput-oriented callers: out[i] is the
  /// MayContain answer for keys[i]. The default loops; backends may
  /// override with interleaved/prefetched probes.
  virtual void MayContainBatch(std::span<const uint64_t> keys,
                               bool* out) const {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = MayContain(keys[i]);
  }

  /// Batched range probe: out[i] is the MayContainRange answer for
  /// [los[i], his[i]]. `los` and `his` must have equal length. No
  /// backend overrides this loop: on SST-sized filters every planned
  /// range batch measured slower than its own scalar descent.
  virtual void MayContainRangeBatch(std::span<const uint64_t> los,
                                    std::span<const uint64_t> his,
                                    bool* out) const {
    for (size_t i = 0; i < los.size(); ++i) {
      out[i] = MayContainRange(los[i], his[i]);
    }
  }

  /// Logical filter size in bits (what the paper's bits/key accounting
  /// charges).
  virtual uint64_t MemoryBits() const = 0;

  /// Serializes the filter payload (no name framing — see
  /// FilterRegistry::Serialize for the framed, self-describing form).
  virtual std::string Serialize() const = 0;
};

/// Filters supporting online insertion (bloomRF, Bloom variants,
/// Rosetta, Cuckoo). SuRF and fence pointers are offline-built.
class OnlineFilter : public PointRangeFilter {
 public:
  virtual void Insert(uint64_t key) = 0;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_FILTER_H_
