#include "filters/prefix_bloom_filter.h"

#include <algorithm>
#include <cmath>

#include "util/coding.h"
#include "util/hash.h"

namespace bloomrf {

PrefixBloomFilter::PrefixBloomFilter(uint64_t expected_keys,
                                     double bits_per_key,
                                     uint32_t prefix_level, uint64_t seed)
    // Clamp below the key width: `key >> prefix_level_` must stay
    // defined, and Deserialize rejects levels >= 64.
    : prefix_level_(std::min<uint32_t>(prefix_level, 63)), seed_(seed) {
  uint64_t m = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(std::max<uint64_t>(expected_keys, 1)));
  m = std::max<uint64_t>(64, (m + 63) & ~63ULL);
  bits_.Reset(m);
  // Each key costs two insertions (full key + prefix): halve k.
  k_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(bits_per_key * std::log(2.0) / 2.0));
}

void PrefixBloomFilter::InsertValue(uint64_t v, uint64_t domain_tag) {
  uint64_t h1 = Hash64(v, seed_ ^ domain_tag);
  uint64_t h2 = Hash64(v, seed_ ^ domain_tag ^ 0x5bd1e995);
  for (uint32_t i = 0; i < k_; ++i) {
    bits_.SetBit(FastRange64(DoubleHashProbe(h1, h2, i), bits_.size_bits()));
  }
}

bool PrefixBloomFilter::TestValue(uint64_t v, uint64_t domain_tag) const {
  uint64_t h1 = Hash64(v, seed_ ^ domain_tag);
  uint64_t h2 = Hash64(v, seed_ ^ domain_tag ^ 0x5bd1e995);
  for (uint32_t i = 0; i < k_; ++i) {
    if (!bits_.TestBit(
            FastRange64(DoubleHashProbe(h1, h2, i), bits_.size_bits()))) {
      return false;
    }
  }
  return true;
}

void PrefixBloomFilter::Insert(uint64_t key) {
  InsertValue(key, /*domain_tag=*/1);
  InsertValue(key >> prefix_level_, /*domain_tag=*/2);
}

bool PrefixBloomFilter::MayContain(uint64_t key) const {
  return TestValue(key, 1);
}

void PrefixBloomFilter::MayContainBatch(std::span<const uint64_t> keys,
                                        bool* out) const {
  constexpr size_t kStripe = 32;
  constexpr uint64_t kFullKeyTag = 1;  // domain tag of MayContain probes
  uint64_t h1s[kStripe];
  uint64_t h2s[kStripe];
  for (size_t base = 0; base < keys.size(); base += kStripe) {
    const size_t stripe = std::min(kStripe, keys.size() - base);
    for (size_t j = 0; j < stripe; ++j) {
      h1s[j] = Hash64(keys[base + j], seed_ ^ kFullKeyTag);
      h2s[j] = Hash64(keys[base + j], seed_ ^ kFullKeyTag ^ 0x5bd1e995);
      for (uint32_t i = 0; i < k_; ++i) {
        bits_.PrefetchBit(
            FastRange64(DoubleHashProbe(h1s[j], h2s[j], i), bits_.size_bits()));
      }
    }
    for (size_t j = 0; j < stripe; ++j) {
      bool alive = true;
      for (uint32_t i = 0; alive && i < k_; ++i) {
        alive = bits_.TestBit(
            FastRange64(DoubleHashProbe(h1s[j], h2s[j], i), bits_.size_bits()));
      }
      out[base + j] = alive;
    }
  }
}

bool PrefixBloomFilter::MayContainRange(uint64_t lo, uint64_t hi) const {
  if (lo > hi) return false;
  uint64_t lp = lo >> prefix_level_;
  uint64_t rp = hi >> prefix_level_;
  // rp - lp + 1 would wrap to 0 for the full domain at prefix level 0.
  if (rp - lp >= kMaxProbes) return true;  // cannot exclude cheaply
  for (uint64_t p = lp;; ++p) {
    if (TestValue(p, 2)) return true;
    if (p == rp) break;
  }
  return false;
}

std::string PrefixBloomFilter::Serialize() const {
  std::string out;
  PutFixed32(&out, k_);
  PutFixed32(&out, prefix_level_);
  PutFixed64(&out, seed_);
  PutFixed64(&out, bits_.size_bits());
  bits_.SerializeTo(&out);
  return out;
}

std::optional<PrefixBloomFilter> PrefixBloomFilter::Deserialize(
    std::string_view data) {
  if (data.size() < 24) return std::nullopt;
  uint32_t k = DecodeFixed32(data.data());
  uint32_t prefix_level = DecodeFixed32(data.data() + 4);
  uint64_t seed = DecodeFixed64(data.data() + 8);
  uint64_t nbits = DecodeFixed64(data.data() + 16);
  if (k == 0 || k > 64 || prefix_level >= 64 || nbits == 0 ||
      data.size() != 24 + nbits / 8) {
    return std::nullopt;
  }
  PrefixBloomFilter filter;
  filter.k_ = k;
  filter.prefix_level_ = prefix_level;
  filter.seed_ = seed;
  if (!filter.bits_.DeserializeFrom(nbits, data.substr(24))) {
    return std::nullopt;
  }
  return filter;
}

}  // namespace bloomrf
