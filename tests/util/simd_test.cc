// The host-ISA facts report stable names, and the SWAR lane kernel of
// the Cuckoo batch probe finds exactly the lanes equal to its probe.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstring>

#include "util/random.h"

namespace bloomrf {
namespace {

TEST(SimdTest, LevelNamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kNeon), "neon");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdTest, AnyLaneEq16FindsEveryLaneAndNoGhosts) {
  Rng rng(0xc0de);
  for (int round = 0; round < 5000; ++round) {
    uint16_t lanes[4];
    for (uint16_t& l : lanes) l = static_cast<uint16_t>(rng.Next());
    uint64_t packed = 0;
    std::memcpy(&packed, lanes, sizeof packed);
    uint16_t probe = static_cast<uint16_t>(rng.Next());
    bool expect = false;
    for (uint16_t l : lanes) expect |= (l == probe);
    EXPECT_EQ(AnyLaneEq16(packed, probe), expect);
    // Every resident lane must be found.
    for (uint16_t l : lanes) {
      EXPECT_TRUE(AnyLaneEq16(packed, l));
    }
  }
}

}  // namespace
}  // namespace bloomrf
