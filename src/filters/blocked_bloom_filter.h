// Cache-line-blocked Bloom filter (RocksDB/Putze-et-al. style): each
// key hashes to one 512-bit cache line and all k probe bits live
// inside it, so a point probe costs exactly one memory access. The
// locality trades a little FPR (keys sharing a saturated line) for a
// probe path that batches perfectly: the batch prefetches one line per
// key, and the scalar probe then finds every bit it tests in that line.

#ifndef BLOOMRF_FILTERS_BLOCKED_BLOOM_FILTER_H_
#define BLOOMRF_FILTERS_BLOCKED_BLOOM_FILTER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "filters/filter.h"
#include "util/bit_array.h"
#include "util/hash.h"

namespace bloomrf {

class BlockedBloomFilter : public OnlineFilter {
 public:
  /// `num_hashes` == 0 derives k = round(ln 2 * bits_per_key) like the
  /// unblocked baseline.
  BlockedBloomFilter(uint64_t expected_keys, double bits_per_key,
                     uint32_t num_hashes = 0, uint64_t seed = 0xb10cb1);

  std::string Name() const override { return "BlockedBloom"; }

  void Insert(uint64_t key) override;
  bool MayContain(uint64_t key) const override;

  /// Planned batch probe: one line prefetch per key for a stripe of
  /// keys, then MayContain for each.
  void MayContainBatch(std::span<const uint64_t> keys,
                       bool* out) const override;

  /// Point-only filter: ranges cannot be excluded.
  bool MayContainRange(uint64_t, uint64_t) const override { return true; }

  uint64_t MemoryBits() const override { return bits_.size_bits(); }

  uint32_t num_hashes() const { return k_; }
  uint64_t num_lines() const { return bits_.size_bits() / kLineBits; }

  /// Serializes k, seed and the bit array.
  std::string Serialize() const override;
  static std::optional<BlockedBloomFilter> Deserialize(std::string_view data);

 private:
  static constexpr uint64_t kLineBits = 512;

  BlockedBloomFilter() : k_(1), seed_(0) {}

  /// The cache line of `key` and its k in-line bit positions, shared
  /// by Insert, MayContain and the batch planner. Positions come from
  /// KM double hashing over a hash independent of the line choice.
  uint64_t LineOf(uint64_t h1) const {
    return FastRange64(h1, bits_.size_bits() / kLineBits);
  }

  BitArray bits_;
  uint32_t k_;
  uint64_t seed_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_BLOCKED_BLOOM_FILTER_H_
