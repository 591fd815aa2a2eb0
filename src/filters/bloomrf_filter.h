// bloomRF as a PointRangeFilter: a thin adapter over core/bloomrf.h so
// the unified filter stack (registry, LSM policy, benches) can treat
// bloomRF like every baseline. The core BloomRF class stays
// vtable-free for the hot standalone benchmarks.

#ifndef BLOOMRF_FILTERS_BLOOMRF_FILTER_H_
#define BLOOMRF_FILTERS_BLOOMRF_FILTER_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/bloomrf.h"
#include "filters/filter.h"

namespace bloomrf {

class BloomRFFilter : public OnlineFilter {
 public:
  explicit BloomRFFilter(BloomRF filter) : impl_(std::move(filter)) {}

  std::string Name() const override { return "bloomRF"; }

  void Insert(uint64_t key) override { impl_.Insert(key); }
  bool MayContain(uint64_t key) const override {
    return impl_.MayContain(key);
  }
  bool MayContainRange(uint64_t lo, uint64_t hi) const override {
    return impl_.MayContainRange(lo, hi);
  }
  /// Planned batch point probe: one virtual call per batch, then the
  /// core hash-once/prefetch engine (core/bloomrf.cc). Range batches
  /// keep the base-class loop over MayContainRange.
  void MayContainBatch(std::span<const uint64_t> keys,
                       bool* out) const override {
    impl_.MayContainBatch(keys, out);
  }

  uint64_t MemoryBits() const override { return impl_.MemoryBits(); }
  std::string Serialize() const override { return impl_.Serialize(); }

  static std::optional<BloomRFFilter> Deserialize(std::string_view data);

  const BloomRF& impl() const { return impl_; }
  BloomRF& impl() { return impl_; }

 private:
  BloomRF impl_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_BLOOMRF_FILTER_H_
