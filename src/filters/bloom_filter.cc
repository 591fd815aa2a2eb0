#include "filters/bloom_filter.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"
#include "util/hash.h"

namespace bloomrf {

BloomFilter::BloomFilter(uint64_t expected_keys, double bits_per_key,
                         uint32_t num_hashes, uint64_t seed)
    : seed_(seed) {
  uint64_t m = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(std::max<uint64_t>(expected_keys, 1)));
  m = std::max<uint64_t>(64, (m + 63) & ~63ULL);
  bits_.Reset(m);
  k_ = num_hashes != 0
           ? num_hashes
           : std::max<uint32_t>(
                 1, static_cast<uint32_t>(bits_per_key * std::log(2.0)));
}

void BloomFilter::Insert(uint64_t key) {
  uint64_t h1 = Hash64(key, seed_);
  uint64_t h2 = Hash64(key, seed_ ^ 0x5bd1e995);
  for (uint32_t i = 0; i < k_; ++i) {
    bits_.SetBit(FastRange64(DoubleHashProbe(h1, h2, i), bits_.size_bits()));
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  uint64_t h1 = Hash64(key, seed_);
  uint64_t h2 = Hash64(key, seed_ ^ 0x5bd1e995);
  for (uint32_t i = 0; i < k_; ++i) {
    if (!bits_.TestBit(
            FastRange64(DoubleHashProbe(h1, h2, i), bits_.size_bits()))) {
      return false;
    }
  }
  return true;
}

void BloomFilter::MayContainBatch(std::span<const uint64_t> keys,
                                  bool* out) const {
  // Hash each key once and prefetch only its first probe line, then run
  // the scalar early-exit probe on the stored hashes. Prefetching all k
  // lines would pay bandwidth for lines the early exit never reads: an
  // absent key stops after about two probes.
  constexpr size_t kStripe = 32;
  const uint64_t nbits = bits_.size_bits();
  uint64_t h1s[kStripe] = {};
  uint64_t h2s[kStripe] = {};
  for (size_t base = 0; base < keys.size(); base += kStripe) {
    const size_t stripe = std::min(kStripe, keys.size() - base);
    for (size_t j = 0; j < stripe; ++j) {
      h1s[j] = Hash64(keys[base + j], seed_);
      h2s[j] = Hash64(keys[base + j], seed_ ^ 0x5bd1e995);
      bits_.PrefetchBit(FastRange64(h1s[j], nbits));
    }
    for (size_t j = 0; j < stripe; ++j) {
      bool alive = true;
      for (uint32_t i = 0; alive && i < k_; ++i) {
        alive = bits_.TestBit(
            FastRange64(DoubleHashProbe(h1s[j], h2s[j], i), nbits));
      }
      out[base + j] = alive;
    }
  }
}

std::string BloomFilter::Serialize() const {
  std::string out;
  PutFixed64(&out, bits_.size_bits());
  PutFixed32(&out, k_);
  PutFixed64(&out, seed_);
  bits_.SerializeTo(&out);
  return out;
}

std::optional<BloomFilter> BloomFilter::Deserialize(std::string_view data) {
  if (data.size() < 20) return std::nullopt;
  uint64_t nbits = DecodeFixed64(data.data());
  uint32_t k = DecodeFixed32(data.data() + 8);
  uint64_t seed = DecodeFixed64(data.data() + 12);
  if (k == 0 || k > 64 || nbits == 0 || data.size() != 20 + nbits / 8) {
    return std::nullopt;
  }
  BloomFilter bf;
  bf.k_ = k;
  bf.seed_ = seed;
  if (!bf.bits_.DeserializeFrom(nbits, data.substr(20))) return std::nullopt;
  return bf;
}

}  // namespace bloomrf
