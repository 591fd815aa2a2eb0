// Lock-free bit array used as the backing store of all Bloom-style
// filters in this library.
//
// bloomRF is an *online* structure (paper Sect. 1, Problem 2 and Fig. 12
// A/B): keys are inserted while lookups run concurrently. Bits are set
// with relaxed atomic fetch_or and read with relaxed atomic loads; a
// filter never produces false negatives for keys whose insertion
// happened-before the probe.
//
// The array is addressable at three granularities:
//  - single bits               (covering probes in bloomRF, plain BFs)
//  - aligned "words" of w bits (PMHF word probes, w in {1,2,...,64})
//  - raw 64-bit blocks         (serialization, scatter statistics)

#ifndef BLOOMRF_UTIL_BIT_ARRAY_H_
#define BLOOMRF_UTIL_BIT_ARRAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/prefetch.h"

namespace bloomrf {

class BitArray {
 public:
  BitArray() = default;

  /// Creates a zeroed array of at least `nbits` bits (rounded up to a
  /// multiple of 64).
  explicit BitArray(uint64_t nbits) { Reset(nbits); }

  BitArray(BitArray&&) = default;
  BitArray& operator=(BitArray&&) = default;

  void Reset(uint64_t nbits);

  uint64_t size_bits() const { return nbits_; }
  uint64_t size_blocks() const { return nblocks_; }
  uint64_t size_bytes() const { return nblocks_ * 8; }

  /// Sets bit `pos` (thread-safe, relaxed).
  void SetBit(uint64_t pos) {
    blocks_[pos >> 6].fetch_or(1ULL << (pos & 63),
                               std::memory_order_relaxed);
  }

  /// Tests bit `pos` (thread-safe, relaxed).
  bool TestBit(uint64_t pos) const {
    return (blocks_[pos >> 6].load(std::memory_order_relaxed) >>
            (pos & 63)) &
           1ULL;
  }

  /// Reads the aligned word of `word_bits` bits at word index `idx`.
  /// `word_bits` must be a power of two in [1, 64]. The word is
  /// right-aligned in the returned value.
  uint64_t LoadWord(uint64_t idx, uint32_t word_bits) const {
    uint64_t bitpos = idx * word_bits;
    uint64_t block = blocks_[bitpos >> 6].load(std::memory_order_relaxed);
    if (word_bits == 64) return block;
    uint64_t mask = (1ULL << word_bits) - 1;
    return (block >> (bitpos & 63)) & mask;
  }

  /// ORs `bits` (right-aligned, at most `word_bits` wide) into the
  /// aligned word at word index `idx`.
  void OrWord(uint64_t idx, uint32_t word_bits, uint64_t bits) {
    uint64_t bitpos = idx * word_bits;
    blocks_[bitpos >> 6].fetch_or(bits << (bitpos & 63),
                                  std::memory_order_relaxed);
  }

  uint64_t LoadBlock(uint64_t block_idx) const {
    return blocks_[block_idx].load(std::memory_order_relaxed);
  }

  /// Prefetch hint for the planned point batches: pulls the 64-bit
  /// block holding bit `pos`, which a later TestBit will read, into
  /// cache ahead of use.
  void PrefetchBit(uint64_t pos) const { PrefetchRead(&blocks_[pos >> 6]); }

  /// True iff any bit in the inclusive bit range [lo, hi] is set.
  bool AnyInRange(uint64_t lo, uint64_t hi) const;

  /// Number of set bits.
  uint64_t CountOnes() const;

  /// Appends the raw little-endian block contents to `dst`.
  void SerializeTo(std::string* dst) const;

  /// Restores from `data` (must hold exactly `nbits/8` rounded-up-to-8
  /// bytes for an array of `nbits` bits). Returns false on size
  /// mismatch.
  bool DeserializeFrom(uint64_t nbits, std::string_view data);

 private:
  uint64_t nbits_ = 0;
  uint64_t nblocks_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> blocks_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_BIT_ARRAY_H_
