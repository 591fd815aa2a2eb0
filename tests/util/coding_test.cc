#include "util/coding.h"

#include <gtest/gtest.h>

namespace bloomrf {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  PutFixed32(&s, 0);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(s.data() + 4), 0u);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed64(s.data()), 0x0123456789abcdefULL);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, "world");
  size_t pos = 0;
  std::string_view out;
  ASSERT_TRUE(GetLengthPrefixed(s, &pos, &out));
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(GetLengthPrefixed(s, &pos, &out));
  EXPECT_EQ(out, "");
  ASSERT_TRUE(GetLengthPrefixed(s, &pos, &out));
  EXPECT_EQ(out, "world");
  EXPECT_FALSE(GetLengthPrefixed(s, &pos, &out));  // exhausted
}

TEST(CodingTest, LengthPrefixedRejectsTruncation) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  s.resize(s.size() - 2);
  size_t pos = 0;
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(s, &pos, &out));
}

TEST(CodingTest, ParseDecimalTakesDigitsThatFit) {
  uint64_t value = 7;
  EXPECT_TRUE(ParseDecimal("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseDecimal("123", &value));
  EXPECT_EQ(value, 123u);
  EXPECT_TRUE(ParseDecimal("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  value = 7;
  // std::to_string never writes a leading zero, so "000123" is no
  // number the engine wrote.
  for (const char* bad : {"", "18446744073709551616", "18446744073709551617",
                          "123456789012345678901", "-1", "+1", " 1", "1 ",
                          "12x", "0x10", "000123", "00", "01"}) {
    EXPECT_FALSE(ParseDecimal(bad, &value)) << bad;
    EXPECT_EQ(value, 7u) << bad;
  }
}

TEST(CodingTest, BigEndianKeyPreservesOrder) {
  uint64_t values[] = {0,       1,          255,        256,
                       1ULL << 32, 1ULL << 63, UINT64_MAX - 1, UINT64_MAX};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(EncodeKeyBigEndian(values[i]), EncodeKeyBigEndian(values[i + 1]))
        << values[i];
  }
}

TEST(CodingTest, BigEndianKeyRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{42}, uint64_t{0xdeadbeef},
                     UINT64_MAX}) {
    EXPECT_EQ(DecodeKeyBigEndian(EncodeKeyBigEndian(v)), v);
  }
}

TEST(CodingTest, BigEndianShortSliceDecodesPadded) {
  // A 2-byte slice decodes as if zero-extended on the right.
  std::string full = EncodeKeyBigEndian(0xabcd000000000000ULL);
  EXPECT_EQ(DecodeKeyBigEndian(std::string_view(full).substr(0, 2)),
            0xabcd000000000000ULL);
}

}  // namespace
}  // namespace bloomrf
