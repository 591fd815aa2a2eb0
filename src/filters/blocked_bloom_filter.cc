#include "filters/blocked_bloom_filter.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"

namespace bloomrf {

BlockedBloomFilter::BlockedBloomFilter(uint64_t expected_keys,
                                       double bits_per_key,
                                       uint32_t num_hashes, uint64_t seed)
    : seed_(seed) {
  uint64_t m = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(std::max<uint64_t>(expected_keys, 1)));
  m = std::max<uint64_t>(kLineBits,
                         (m + kLineBits - 1) & ~(kLineBits - 1));
  bits_.Reset(m);
  k_ = num_hashes != 0
           ? num_hashes
           : std::max<uint32_t>(
                 1, static_cast<uint32_t>(bits_per_key * std::log(2.0)));
}

void BlockedBloomFilter::Insert(uint64_t key) {
  uint64_t h1 = Hash64(key, seed_);
  uint64_t h2 = Hash64(key, seed_ ^ 0x5bd1e995);
  uint64_t line_base = LineOf(h1) * kLineBits;
  for (uint32_t i = 0; i < k_; ++i) {
    bits_.SetBit(line_base + (DoubleHashProbe(h2, h2 >> 32, i) &
                              (kLineBits - 1)));
  }
}

bool BlockedBloomFilter::MayContain(uint64_t key) const {
  uint64_t h1 = Hash64(key, seed_);
  uint64_t h2 = Hash64(key, seed_ ^ 0x5bd1e995);
  uint64_t line_base = LineOf(h1) * kLineBits;
  for (uint32_t i = 0; i < k_; ++i) {
    if (!bits_.TestBit(line_base + (DoubleHashProbe(h2, h2 >> 32, i) &
                                    (kLineBits - 1)))) {
      return false;
    }
  }
  return true;
}

void BlockedBloomFilter::MayContainBatch(std::span<const uint64_t> keys,
                                         bool* out) const {
  // All k probe bits of a key live in one line: prefetch a stripe's
  // lines, then probe each key with the scalar early-exit loop.
  constexpr size_t kStripe = 32;
  for (size_t base = 0; base < keys.size(); base += kStripe) {
    const size_t stripe = std::min(kStripe, keys.size() - base);
    for (size_t j = 0; j < stripe; ++j) {
      bits_.PrefetchBit(LineOf(Hash64(keys[base + j], seed_)) * kLineBits);
    }
    for (size_t j = 0; j < stripe; ++j) {
      out[base + j] = MayContain(keys[base + j]);
    }
  }
}

std::string BlockedBloomFilter::Serialize() const {
  std::string out;
  PutFixed64(&out, bits_.size_bits());
  PutFixed32(&out, k_);
  PutFixed64(&out, seed_);
  bits_.SerializeTo(&out);
  return out;
}

std::optional<BlockedBloomFilter> BlockedBloomFilter::Deserialize(
    std::string_view data) {
  if (data.size() < 20) return std::nullopt;
  uint64_t nbits = DecodeFixed64(data.data());
  uint32_t k = DecodeFixed32(data.data() + 8);
  uint64_t seed = DecodeFixed64(data.data() + 12);
  if (k == 0 || k > 64 || nbits == 0 || nbits % kLineBits != 0 ||
      data.size() != 20 + nbits / 8) {
    return std::nullopt;
  }
  BlockedBloomFilter bf;
  bf.k_ = k;
  bf.seed_ = seed;
  if (!bf.bits_.DeserializeFrom(nbits, data.substr(20))) return std::nullopt;
  return bf;
}

}  // namespace bloomrf
