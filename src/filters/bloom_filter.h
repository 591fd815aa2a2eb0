// Standard Bloom filter baseline (paper Sect. 2), LevelDB/RocksDB-style
// full filter: k = round(ln 2 * bits_per_key) probes via
// Kirsch-Mitzenmacher double hashing over a single shared bit array.

#ifndef BLOOMRF_FILTERS_BLOOM_FILTER_H_
#define BLOOMRF_FILTERS_BLOOM_FILTER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "filters/filter.h"
#include "util/bit_array.h"
#include "util/hash.h"

namespace bloomrf {

class BloomFilter : public OnlineFilter {
 public:
  /// `num_hashes` == 0 derives the optimal k = floor(ln2 * m/n) from
  /// the budget (floored, as RocksDB does).
  BloomFilter(uint64_t expected_keys, double bits_per_key,
              uint32_t num_hashes = 0, uint64_t seed = 0xb1003);

  std::string Name() const override { return "Bloom"; }

  void Insert(uint64_t key) override;
  bool MayContain(uint64_t key) const override;

  /// Planned batch probe, KM-hashing each key exactly once: a stripe
  /// of keys is hashed and each key's first probe line prefetched, then
  /// the scalar early-exit probe runs on the stored hashes. One regime
  /// for every filter size.
  void MayContainBatch(std::span<const uint64_t> keys,
                       bool* out) const override;

  /// Point-only filter: ranges cannot be excluded.
  bool MayContainRange(uint64_t, uint64_t) const override { return true; }

  uint64_t MemoryBits() const override { return bits_.size_bits(); }

  uint32_t num_hashes() const { return k_; }

  /// Starts pulling all k probe blocks of `key` into cache — the
  /// planning half of a future MayContain(key) (used by Rosetta's
  /// planned range batch to prefetch per-level probes).
  void PrefetchKey(uint64_t key) const {
    uint64_t h1 = Hash64(key, seed_);
    uint64_t h2 = Hash64(key, seed_ ^ 0x5bd1e995);
    for (uint32_t i = 0; i < k_; ++i) {
      bits_.PrefetchBit(
          FastRange64(DoubleHashProbe(h1, h2, i), bits_.size_bits()));
    }
  }

  /// Raw block access for the Fig. 5 scatter comparison.
  uint64_t Block(uint64_t i) const { return bits_.LoadBlock(i); }
  uint64_t Blocks() const { return bits_.size_blocks(); }

  /// Serializes k, seed and the bit array (LSM filter blocks).
  std::string Serialize() const override;
  static std::optional<BloomFilter> Deserialize(std::string_view data);

 private:
  BloomFilter() : k_(1), seed_(0) {}
  BitArray bits_;
  uint32_t k_;
  uint64_t seed_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_BLOOM_FILTER_H_
