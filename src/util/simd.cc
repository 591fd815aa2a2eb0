#include "util/simd.h"

namespace bloomrf {

SimdLevel ActiveSimdLevel() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#elif defined(__aarch64__)
  return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

}  // namespace bloomrf
