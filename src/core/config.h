// Configuration of a bloomRF filter.
//
// A filter is described by a ladder of layers (paper Sect. 3.1, Table 1).
// Layer i covers dyadic level l_i = sum_{j<i} delta[j]; its
// piecewise-monotone hash function keeps the low (delta[i]-1) bits of
// the level-l_i prefix as an in-word offset, so the word size of layer i
// is 2^(delta[i]-1) bits (Sect. 3.2). Layers are assigned to memory
// segments (Sect. 7 "Memory Management"); the optional *exact layer*
// stores dyadic level sum(delta) as a plain bitmap. Levels above the
// top stored level are treated as saturated and are not represented.
//
// A filter covers the key domain [key_base, key_base + 2^d - 1]
// (capped at UINT64_MAX) and stores each key as its offset
// key - key_base. An SST filter is built for its own keys' span
// (KeyDomainOf), so the tuning advisor sizes the layers and the exact
// layer for that span rather than for the whole 64-bit domain.

#ifndef BLOOMRF_CORE_CONFIG_H_
#define BLOOMRF_CORE_CONFIG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bloomrf {

struct BloomRFConfig {
  /// Domain size in bits (d). Keys live in [key_base, key_base + 2^d).
  /// 64 for the native uint64 domain; an SST filter uses its keys'
  /// span, and tests use small domains for exhaustive ground-truth
  /// sweeps.
  uint32_t domain_bits = 64;

  /// Smallest key of the domain. The filter stores key - key_base;
  /// probes outside the domain answer "no" without touching memory.
  /// Derived from the keys (KeyDomainOf), never tuned.
  uint64_t key_base = 0;

  /// Per-layer level distance, bottom layer first. delta[i] in [1, 7]
  /// (word sizes 1..64 bits). Basic bloomRF uses a constant delta = 7.
  std::vector<uint8_t> delta;

  /// Replicated hash functions per layer, r_i >= 1 (Sect. 7). Basic
  /// bloomRF uses 1 everywhere. A word key is hashed once per layer;
  /// replica r's slot is derived by Kirsch-Mitzenmacher double
  /// hashing, h + r * stride(h).
  std::vector<uint8_t> replicas;

  /// Memory segment per layer (index into segment_bits). Basic bloomRF
  /// uses a single shared segment.
  std::vector<uint8_t> segment_of;

  /// Bit size of each segment (m_j). Rounded up to multiples of 64 at
  /// construction.
  std::vector<uint64_t> segment_bits;

  /// If true, dyadic level sum(delta) is stored exactly as a bitmap of
  /// 2^(domain_bits - sum(delta)) bits (Sect. 7).
  bool has_exact_layer = false;

  /// Word-offset permutation defeating degenerate key distributions
  /// (Sect. 7 "Degenerate data distributions and PMHF"): a
  /// pseudo-random half of all words stores offsets in reverse order.
  bool permute_words = false;

  /// Seed for all layer hash functions.
  uint64_t seed = 0xb100f117e55eedULL;

  /// Probe caps: ranges that would require scanning more than this many
  /// words at the topmost layer (or bits of the exact bitmap) return a
  /// conservative positive instead.
  uint32_t max_top_layer_words = 4096;
  uint64_t max_exact_scan_bits = uint64_t{1} << 26;

  size_t num_layers() const { return delta.size(); }

  /// Dyadic level of layer i: l_i = sum_{j<i} delta[j].
  uint32_t LevelOfLayer(size_t i) const;

  /// Level of the boundary above the top hash layer (== exact layer's
  /// level when has_exact_layer).
  uint32_t TopLevel() const { return LevelOfLayer(delta.size()); }

  /// Number of bits of the exact bitmap (0 if no exact layer).
  uint64_t ExactBits() const;

  /// Total memory (segments + exact bitmap) in bits.
  uint64_t TotalBits() const;

  /// Returns an empty string if the configuration is well-formed, else
  /// a description of the first problem found.
  std::string Validate() const;

  /// Basic, tuning-free bloomRF (paper Sect. 3): constant `delta`,
  /// single segment of ~bits_per_key*n bits, one hash function per
  /// layer, no exact layer. k = ceil((d - floor(log2 n)) / delta),
  /// clamped to cover the domain at most once.
  static BloomRFConfig Basic(uint64_t n, double bits_per_key,
                             uint32_t domain_bits = 64, uint32_t delta = 7);

  std::string DebugString() const;
};

/// The smallest domain that holds a sorted key set: based at its
/// smallest key, with domain_bits = max(1, bit_width(max - min)). An
/// empty set keeps the whole 64-bit domain at base 0.
struct KeyDomain {
  uint64_t key_base = 0;
  uint32_t domain_bits = 64;
};
KeyDomain KeyDomainOf(std::span<const uint64_t> sorted_keys);

}  // namespace bloomrf

#endif  // BLOOMRF_CORE_CONFIG_H_
