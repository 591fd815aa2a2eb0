// Shared helpers for the test suite: deterministic key sets,
// ground-truth range emptiness, and delete batches.

#ifndef BLOOMRF_TESTS_TEST_UTIL_H_
#define BLOOMRF_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "lsm/wal.h"  // WriteOp
#include "util/random.h"

namespace bloomrf::testing {

inline std::set<uint64_t> RandomKeySet(size_t n, uint64_t seed,
                                       uint64_t domain = 0) {
  Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < n) {
    keys.insert(domain == 0 ? rng.Next() : rng.Uniform(domain));
  }
  return keys;
}

inline bool GroundTruthRange(const std::set<uint64_t>& keys, uint64_t lo,
                             uint64_t hi) {
  if (lo > hi) return false;
  auto it = keys.lower_bound(lo);
  return it != keys.end() && *it <= hi;
}

/// n distinct uniform keys, ascending, in one 1/`slices`-wide slice of
/// the 64-bit domain (the middle one), as the keys of one leveled SST
/// sit.
inline std::vector<uint64_t> SliceKeys(size_t n, uint64_t slices,
                                       uint64_t seed) {
  const uint64_t width = UINT64_MAX / slices;
  const uint64_t base = slices / 2 * width;
  std::vector<uint64_t> keys;
  for (uint64_t k : RandomKeySet(n, seed, width)) keys.push_back(base + k);
  return keys;
}

/// Saturating interval of `size` elements starting at lo.
inline uint64_t RangeEnd(uint64_t lo, uint64_t size) {
  if (size == 0) size = 1;
  return lo > UINT64_MAX - (size - 1) ? UINT64_MAX : lo + (size - 1);
}

/// One delete op per key, in order: the WriteBatch form of a batched
/// delete.
inline std::vector<WriteOp> DeleteOps(std::span<const uint64_t> keys) {
  std::vector<WriteOp> ops;
  ops.reserve(keys.size());
  for (uint64_t key : keys) ops.push_back({key, {}, true});
  return ops;
}

}  // namespace bloomrf::testing

#endif  // BLOOMRF_TESTS_TEST_UTIL_H_
