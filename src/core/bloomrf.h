// bloomRF: a unified approximate point-range filter (paper Sect. 3-4).
//
// The filter is *online* (keys may be inserted while probes run) and
// never produces false negatives: if a key in the inserted set lies in
// the probed interval, MayContainRange returns true.
//
//   BloomRF filter(BloomRFConfig::Basic(/*n=*/1'000'000, /*bits_per_key=*/14));
//   filter.Insert(42);
//   filter.MayContain(42);              // true
//   filter.MayContainRange(40, 50);     // true
//   filter.MayContainRange(100, 4000);  // false with high probability
//
// Keys are unsigned 64-bit integers; use core/key_codec.h to map signed
// integers, floats/doubles and strings onto this domain while
// preserving order, and core/multi_attribute.h for dual-attribute
// filtering.

#ifndef BLOOMRF_CORE_BLOOMRF_H_
#define BLOOMRF_CORE_BLOOMRF_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "util/bit_array.h"

namespace bloomrf {

/// Optional probe-cost accounting (used by the Fig. 12.G breakdown
/// bench and by tests asserting the O(k) word-access bound).
struct ProbeStats {
  uint64_t bit_probes = 0;   // single-bit covering tests
  uint64_t word_probes = 0;  // word-mask decomposition tests
};

class BloomRF {
 public:
  /// Constructs an empty filter. `config` must validate (asserted in
  /// debug builds; a default Basic config is substituted otherwise).
  explicit BloomRF(BloomRFConfig config);

  BloomRF(BloomRF&&) = default;
  BloomRF& operator=(BloomRF&&) = default;

  /// Inserts a key. Thread-safe with respect to concurrent Insert and
  /// probe calls (relaxed atomics; see util/bit_array.h).
  void Insert(uint64_t key);

  /// Approximate point membership: false means definitely absent.
  bool MayContain(uint64_t key) const { return MayContain(key, nullptr); }
  bool MayContain(uint64_t key, ProbeStats* stats) const;

  /// Approximate range emptiness over the inclusive interval [lo, hi]:
  /// false means no inserted key lies in [lo, hi].
  bool MayContainRange(uint64_t lo, uint64_t hi) const {
    return MayContainRange(lo, hi, nullptr);
  }
  bool MayContainRange(uint64_t lo, uint64_t hi, ProbeStats* stats) const;

  /// Planned batch point probe: out[i] = MayContain(keys[i]), bit for
  /// bit. Runs in two passes per stripe of keys — a planning pass that
  /// hashes each word key once, derives every replica's final bit
  /// position by double hashing, and prefetches its block; then a
  /// scalar probe pass that tests each key's planned bits in
  /// MayContain's order (exact layer, then layers top-down), with
  /// early exit, on lines already in flight.
  void MayContainBatch(std::span<const uint64_t> keys, bool* out) const;

  /// Planned batch range probe: out[i] = MayContainRange(los[i],
  /// his[i]). The planning pass walks the full dyadic descent of every
  /// query without reading the filter — the word keys a descent can
  /// touch are a pure function of (lo, hi) and the layer ladder — and
  /// hashes each one once while prefetching all of its replica slots:
  /// both endpoint paths plus the interior TestPrefixRange word masks
  /// at every layer, not just the level-0 endpoints. The probe pass
  /// then runs the exact scalar descent (same early exits, same
  /// answers) consuming the precomputed hashes on lines already in
  /// flight. `los` and `his` must have equal length.
  void MayContainRangeBatch(std::span<const uint64_t> los,
                            std::span<const uint64_t> his, bool* out) const;

  const BloomRFConfig& config() const { return config_; }

  /// Total filter memory in bits (segments + exact bitmap).
  uint64_t MemoryBits() const;

  /// Fraction of zero bits per segment (index 0..S-1) and, last, the
  /// exact bitmap (present only with an exact layer). Used by the FPR
  /// model validation tests.
  std::vector<double> ZeroBitFractions() const;

  /// Serializes config + bit arrays into a string (LSM filter blocks).
  std::string Serialize() const;

  /// Reconstructs a filter from Serialize() output.
  static std::optional<BloomRF> Deserialize(std::string_view data);

  /// Raw 64-bit block of a segment (scatter statistics, Fig. 5).
  uint64_t SegmentBlock(size_t segment, uint64_t block) const {
    return segments_[segment].LoadBlock(block);
  }
  uint64_t SegmentBlocks(size_t segment) const {
    return segments_[segment].size_blocks();
  }

  /// The word index (within its segment) a key maps to on `layer` with
  /// replica `replica` — exposed for the PMHF scatter experiment.
  uint64_t WordIndexForKey(uint64_t key, size_t layer,
                           uint32_t replica) const;

 private:
  struct Layer {
    uint32_t level;      // l_i
    uint32_t offset_bits;  // delta_i - 1
    uint32_t word_bits;  // 2^(delta_i - 1)
    uint32_t replicas;
    uint32_t segment;
    uint64_t num_slots;  // segment_bits / word_bits
    uint64_t seed_base;  // hash seed of this layer's word keys
  };

  static uint64_t Shr(uint64_t v, uint32_t s) { return s >= 64 ? 0 : v >> s; }

  bool WordReversed(const Layer& layer, uint64_t word_key) const;

  /// Reads the AND of all replica words for `word_key` on `layer`.
  uint64_t LoadWordAnd(const Layer& layer, uint64_t word_key) const;

  /// Keys per planning stripe: large enough that prefetches land
  /// before the probe pass reads them, small enough that the planned
  /// lines are still resident.
  static constexpr size_t kProbeStripe = 32;

  /// Queries per lockstep range stripe: a descent touches several
  /// cache lines per layer, so the stripe is sized for one layer's
  /// planned lines (stripe × ~10 lines) to stay L2-resident between
  /// the plan and probe passes.
  static constexpr size_t kRangeStripe = 32;

  /// In-word bit offset of prefix `p` at `layer`, with the PMHF word
  /// permutation applied — shared by the scalar probes and the batch
  /// planner so both test the same bit.
  uint64_t ProbeOffsetFor(const Layer& layer, uint64_t p) const {
    uint64_t offset = p & (layer.word_bits - 1);
    if (WordReversed(layer, p >> layer.offset_bits)) {
      offset = layer.word_bits - 1 - offset;
    }
    return offset;
  }

  /// In-word mask of the prefix range [x, y] restricted to word `wk`
  /// at `layer` (permutation applied). `wk` must cover part of [x, y].
  /// Shared by TestPrefixRange and the batch planner.
  uint64_t WordMaskFor(const Layer& layer, uint64_t wk, uint64_t x,
                       uint64_t y) const;

  /// Single-bit covering probe of prefix `p` at `layer`.
  bool TestPrefix(const Layer& layer, uint64_t p, ProbeStats* stats) const;

  /// Word-mask probe of the inclusive prefix range [x, y] at `layer`.
  /// `max_words` limits the scan width; beyond it the probe returns a
  /// conservative true.
  bool TestPrefixRange(const Layer& layer, uint64_t x, uint64_t y,
                       uint64_t max_words, ProbeStats* stats) const;

  bool ExactRangeProbe(uint64_t lp, uint64_t rp, ProbeStats* stats) const;

  BloomRFConfig config_;
  std::vector<Layer> layers_;  // bottom (level 0) first
  std::vector<BitArray> segments_;
  BitArray exact_;
  uint32_t top_level_ = 0;
  uint64_t perm_seed_ = 0;
};

}  // namespace bloomrf

#endif  // BLOOMRF_CORE_BLOOMRF_H_
