// Host vector-ISA facts and the SWAR lane kernel of the Cuckoo batch
// probe.
//
// The batch probe paths plan and prefetch every word a probe will read
// (see util/prefetch.h) and then test those words in plain scalar
// code: their gain comes from overlapping the memory accesses, not
// from vector lanes. What remains here is the host's widest vector ISA,
// which benches report as their `simd` host fact, and AnyLaneEq16,
// which tests a whole 4-slot Cuckoo bucket per call with 64-bit
// integer arithmetic on any ISA.

#ifndef BLOOMRF_UTIL_SIMD_H_
#define BLOOMRF_UTIL_SIMD_H_

#include <cstdint>

namespace bloomrf {

enum class SimdLevel : uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2 };

/// The widest vector ISA of the host: kAvx2 on x86-64 CPUs with AVX2,
/// kNeon on AArch64, kScalar otherwise. A host fact only; no probe
/// path selects code by it.
SimdLevel ActiveSimdLevel();

/// "avx2" | "neon" | "scalar" — the `simd` field of bench JSON output.
const char* SimdLevelName(SimdLevel level);

/// SWAR 16-bit lane equality: true iff any of the four 16-bit lanes of
/// `lanes` equals `v`. ISA-independent (SIMD-within-a-register); the
/// cuckoo batch kernel tests a whole 4-slot bucket per call. `v` must
/// be nonzero when 0 marks empty slots the caller wants excluded —
/// callers relying on that property pass validated fingerprints.
inline bool AnyLaneEq16(uint64_t lanes, uint16_t v) {
  constexpr uint64_t kLow = 0x0001000100010001ULL;
  constexpr uint64_t kHigh = 0x8000800080008000ULL;
  uint64_t x = lanes ^ (kLow * v);  // lane == v  <=>  lane of x == 0
  return ((x - kLow) & ~x & kHigh) != 0;
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_SIMD_H_
