#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace bloomrf {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// RFC 3720 (iSCSI), Appendix B.4.
TEST(Crc32cTest, Rfc3720Vectors) {
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, CheckString) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

// The hardware path folds 8-byte words and then the tail; every
// length 0-64 at every start offset 0-7 covers each mix of unaligned
// head, whole words and tail bytes.
TEST(Crc32cTest, MatchesPortableAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = RandomBytes(64 + 8, 0xc5c32);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      const uint8_t* p = bytes.data() + offset;
      EXPECT_EQ(Crc32c(p, n), Crc32cPortable(p, n))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(Crc32c(p, n, 0x12345678u), Crc32cPortable(p, n, 0x12345678u))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, MatchesPortableOnBlocks) {
  for (size_t n : {size_t{4028}, size_t{4096}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<uint8_t> block = RandomBytes(n, seed);
      EXPECT_EQ(Crc32c(block.data(), n), Crc32cPortable(block.data(), n))
          << "length " << n << " seed " << seed;
    }
  }
}

// Continuation: the CRC of a followed by b is the CRC of b continued
// from the CRC of a, for a split at every position.
TEST(Crc32cTest, ContinuesAcrossEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(64, 0x5b1177);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  EXPECT_EQ(whole, Crc32cPortable(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32c(bytes.data(), split);
    EXPECT_EQ(Crc32c(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
    EXPECT_EQ(Crc32cPortable(bytes.data() + split, bytes.size() - split,
                             Crc32cPortable(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace bloomrf
