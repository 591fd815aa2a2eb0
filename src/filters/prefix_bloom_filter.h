// Classical Prefix Bloom filter baseline (paper Sect. 1, Fig. 9.D).
//
// Stores both the full key and its fixed-length prefix in one Bloom
// filter. Range queries probe every prefix covering the interval
// (capped), point queries probe the full key. Adequate for range
// filtering at one granularity but — as the paper argues — impractical
// as a general point-range filter.

#ifndef BLOOMRF_FILTERS_PREFIX_BLOOM_FILTER_H_
#define BLOOMRF_FILTERS_PREFIX_BLOOM_FILTER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "filters/filter.h"
#include "util/bit_array.h"

namespace bloomrf {

class PrefixBloomFilter : public OnlineFilter {
 public:
  /// `prefix_level` is the number of key bits dropped to form the
  /// prefix (prefix = key >> prefix_level).
  PrefixBloomFilter(uint64_t expected_keys, double bits_per_key,
                    uint32_t prefix_level, uint64_t seed = 0xb100f);

  std::string Name() const override { return "PrefixBloom"; }

  void Insert(uint64_t key) override;
  bool MayContain(uint64_t key) const override;
  bool MayContainRange(uint64_t lo, uint64_t hi) const override;

  /// Planned batch probe over the full-key domain: hash once per key,
  /// prefetch all k probe blocks, then test.
  void MayContainBatch(std::span<const uint64_t> keys,
                       bool* out) const override;

  uint64_t MemoryBits() const override { return bits_.size_bits(); }

  uint32_t prefix_level() const { return prefix_level_; }

  /// Serializes k, prefix level, seed and the bit array.
  std::string Serialize() const override;
  static std::optional<PrefixBloomFilter> Deserialize(std::string_view data);

 private:
  PrefixBloomFilter() : k_(1), prefix_level_(0), seed_(0) {}

  void InsertValue(uint64_t v, uint64_t domain_tag);
  bool TestValue(uint64_t v, uint64_t domain_tag) const;

  BitArray bits_;
  uint32_t k_;
  uint32_t prefix_level_;
  uint64_t seed_;
  static constexpr uint64_t kMaxProbes = 1024;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_PREFIX_BLOOM_FILTER_H_
