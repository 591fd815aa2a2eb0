// Portable cache-prefetch hint used by the planned point batches.
//
// The point batch overrides (BloomRF::MayContainBatch and the Bloom,
// BlockedBloom, PrefixBloom and Cuckoo batches) are two-pass: a
// planning pass computes the memory coordinates a probe will touch and
// issues PrefetchRead for their cache lines, then a probe pass executes
// the actual word tests. By the time the second pass runs, the lines
// of ~a stripe of keys are in flight, so the dependent loads that
// dominate the scalar path overlap instead of serializing. Range
// probes have no such pass: a range batch runs the scalar
// MayContainRange per query.

#ifndef BLOOMRF_UTIL_PREFETCH_H_
#define BLOOMRF_UTIL_PREFETCH_H_

namespace bloomrf {

/// Hints the CPU to pull the cache line holding `addr` into a
/// read-shared level. A no-op on compilers without the builtin; probes
/// stay correct either way.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_PREFETCH_H_
