// Fence pointers / min-max index baseline (ZoneMaps, BRIN; paper
// Sect. 1 and Fig. 9.D).
//
// Built offline from sorted keys: the key space is cut into blocks of
// fixed cardinality and only each block's [min, max] is kept. A probe
// is positive iff it intersects some block interval. Exact at block
// granularity, hence cheap but coarse: gaps inside a block are
// invisible.

#ifndef BLOOMRF_FILTERS_FENCE_POINTERS_H_
#define BLOOMRF_FILTERS_FENCE_POINTERS_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "filters/filter.h"

namespace bloomrf {

class FencePointers : public PointRangeFilter {
 public:
  /// Builds from `sorted_keys` with a block size derived from the
  /// bits/key budget (each block costs 128 bits of fences).
  FencePointers(const std::vector<uint64_t>& sorted_keys,
                double bits_per_key);

  std::string Name() const override { return "FencePointers"; }

  bool MayContain(uint64_t key) const override {
    return MayContainRange(key, key);
  }

  bool MayContainRange(uint64_t lo, uint64_t hi) const override;

  uint64_t MemoryBits() const override { return mins_.size() * 128; }

  size_t num_blocks() const { return mins_.size(); }

  /// Serializes the [min, max] fence pairs.
  std::string Serialize() const override;
  static std::optional<FencePointers> Deserialize(std::string_view data);

 private:
  FencePointers() = default;

  std::vector<uint64_t> mins_;
  std::vector<uint64_t> maxs_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_FENCE_POINTERS_H_
