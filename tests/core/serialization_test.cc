#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "tests/test_util.h"
#include "util/coding.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

// Offset of the hash-scheme byte in a serialized filter: tag, domain
// bits, layer count, 3 bytes per layer, segment count, 8 bytes per
// segment, exact-layer and permutation flags. The seed and the key base
// (8 bytes each) follow it.
size_t SchemeByteOffset(const BloomRFConfig& cfg) {
  return 12 + 3 * cfg.num_layers() + 4 + 8 * cfg.segment_bits.size() + 2;
}

TEST(SerializationTest, RoundTripBasic) {
  auto keys = RandomKeySet(5000, 41);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (uint64_t k : keys) filter.Insert(k);

  std::string data = filter.Serialize();
  auto restored = BloomRF::Deserialize(data);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->config().DebugString(), filter.config().DebugString());
  for (uint64_t k : keys) EXPECT_TRUE(restored->MayContain(k)) << k;

  // Identical answers on arbitrary probes, positive or negative.
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    uint64_t y = rng.Next();
    EXPECT_EQ(restored->MayContain(y), filter.MayContain(y)) << y;
    uint64_t hi = y | 0xffff;
    EXPECT_EQ(restored->MayContainRange(y, hi), filter.MayContainRange(y, hi));
  }
}

TEST(SerializationTest, RoundTripAdvisedConfigWithExactLayer) {
  auto keys = RandomKeySet(20000, 43);
  AdvisorParams params;
  params.n = keys.size();
  params.total_bits = 20 * keys.size();
  params.max_range = 1e9;
  BloomRF filter(AdviseConfig(params).config);
  ASSERT_TRUE(filter.config().has_exact_layer);
  for (uint64_t k : keys) filter.Insert(k);

  auto restored = BloomRF::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.has_value());
  Rng rng(44);
  for (int i = 0; i < 5000; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo | 0xfffff;
    EXPECT_EQ(restored->MayContainRange(lo, hi),
              filter.MayContainRange(lo, hi));
  }
}

TEST(SerializationTest, SizeMatchesMemory) {
  BloomRF filter(BloomRFConfig::Basic(10000, 12.0));
  std::string data = filter.Serialize();
  // Header + bit arrays; header is small.
  EXPECT_GE(data.size() * 8, filter.MemoryBits());
  EXPECT_LT(data.size() * 8, filter.MemoryBits() + 1024);
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(BloomRF::Deserialize("").has_value());
  EXPECT_FALSE(BloomRF::Deserialize("garbage").has_value());
  EXPECT_FALSE(
      BloomRF::Deserialize(std::string(200, '\xff')).has_value());

  // Retired and unknown formats: the V1 layout (tag 0xb100f001, no
  // scheme byte), the V2 layout (tag 0xb100f002, no key base after the
  // seed) and any scheme byte other than 1 (double hashing).
  BloomRF filter(BloomRFConfig::Basic(1000, 12.0));
  const std::string data = filter.Serialize();
  const size_t scheme_at = SchemeByteOffset(filter.config());
  ASSERT_EQ(data[scheme_at], 1);
  std::string v1;
  PutFixed32(&v1, 0xb100f001);
  v1 += data.substr(4, scheme_at - 4) + data.substr(scheme_at + 1);
  EXPECT_FALSE(BloomRF::Deserialize(v1).has_value());
  std::string v2;
  PutFixed32(&v2, 0xb100f002);
  v2 += data.substr(4, scheme_at + 9 - 4) + data.substr(scheme_at + 17);
  EXPECT_FALSE(BloomRF::Deserialize(v2).has_value());
  for (uint8_t scheme : {uint8_t{0}, uint8_t{2}, uint8_t{0xff}}) {
    std::string bad = data;
    bad[scheme_at] = static_cast<char>(scheme);
    EXPECT_FALSE(BloomRF::Deserialize(bad).has_value()) << int{scheme};
  }
}

TEST(SerializationTest, RejectsTruncation) {
  BloomRF filter(BloomRFConfig::Basic(1000, 12.0));
  std::string data = filter.Serialize();
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{13}}) {
    EXPECT_FALSE(BloomRF::Deserialize(data.substr(0, cut)).has_value())
        << cut;
  }
}

TEST(SerializationTest, EveryTruncationRejected) {
  // Fuzz-ish sweep: every proper prefix of a serialized filter (with
  // exact layer, multiple segments where the advisor picks them) must
  // be rejected — never over-read, never crash.
  auto keys = RandomKeySet(500, 46);
  AdvisorParams params;
  params.n = keys.size();
  params.total_bits = 20 * keys.size();
  params.max_range = 1e9;
  BloomRF filter(AdviseConfig(params).config);
  for (uint64_t k : keys) filter.Insert(k);
  std::string data = filter.Serialize();
  ASSERT_TRUE(BloomRF::Deserialize(data).has_value());
  for (size_t cut = 0; cut < data.size(); ++cut) {
    ASSERT_FALSE(BloomRF::Deserialize(data.substr(0, cut)).has_value())
        << "prefix of length " << cut << " accepted";
  }
}

TEST(SerializationTest, TrailingGarbageRejected) {
  BloomRF filter(BloomRFConfig::Basic(1000, 12.0));
  std::string data = filter.Serialize();
  EXPECT_FALSE(BloomRF::Deserialize(data + '\0').has_value());
  EXPECT_FALSE(BloomRF::Deserialize(data + "extra").has_value());
}

TEST(SerializationTest, HeaderByteFlipsNeverCrash) {
  auto keys = RandomKeySet(300, 47);
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (uint64_t k : keys) filter.Insert(k);
  std::string data = filter.Serialize();
  size_t header = std::min<size_t>(data.size(), 128);
  for (size_t i = 0; i < header; ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string corrupt = data;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      auto restored = BloomRF::Deserialize(corrupt);
      if (restored.has_value()) {
        // A surviving parse must still be safe to probe.
        restored->MayContain(42);
        restored->MayContainRange(1, 1000);
      }
    }
  }
}

TEST(SerializationTest, HugeSegmentClaimRejectedWithoutAllocating) {
  // Hand-craft a header claiming a 2^50-bit segment with no payload:
  // must be rejected by the size pre-check, not by an allocation
  // attempt.
  std::string evil;
  PutFixed32(&evil, 0xb100f003);           // magic
  PutFixed32(&evil, 64);                   // domain_bits
  PutFixed32(&evil, 1);                    // one layer
  evil.push_back(7);                       // delta
  evil.push_back(1);                       // replicas
  evil.push_back(0);                       // segment_of
  PutFixed32(&evil, 1);                    // one segment
  PutFixed64(&evil, uint64_t{1} << 50);    // absurd segment_bits
  evil.push_back(0);                       // no exact layer
  evil.push_back(0);                       // no permutation
  evil.push_back(1);                       // double-hash scheme
  PutFixed64(&evil, 0x5eed);               // seed
  PutFixed64(&evil, 0);                    // key base
  EXPECT_FALSE(BloomRF::Deserialize(evil).has_value());
}

TEST(SerializationTest, CurrentFormatCarriesHashScheme) {
  // Filters serialize with the V3 tag, scheme byte 1 (hash-once double
  // hashing) and, after the seed, the key base, and answer identically
  // after the round trip.
  constexpr uint32_t kBits = 48;
  BloomRFConfig cfg = BloomRFConfig::Basic(1000, 14.0, kBits);
  cfg.replicas.assign(cfg.replicas.size(), 2);
  cfg.key_base = uint64_t{0xb100f} << 44;
  BloomRF filter(cfg);
  std::vector<uint64_t> keys;
  for (uint64_t k : RandomKeySet(1000, 50, uint64_t{1} << kBits)) {
    keys.push_back(cfg.key_base + k);
  }
  for (uint64_t k : keys) filter.Insert(k);

  std::string data = filter.Serialize();
  const size_t scheme_at = SchemeByteOffset(cfg);
  ASSERT_GE(data.size(), scheme_at + 17);
  EXPECT_EQ(DecodeFixed32(data.data()), 0xb100f003u);
  EXPECT_EQ(data[scheme_at], 1);
  EXPECT_EQ(DecodeFixed64(data.data() + scheme_at + 1), cfg.seed);
  EXPECT_EQ(DecodeFixed64(data.data() + scheme_at + 9), cfg.key_base);

  auto restored = BloomRF::Deserialize(data);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->config().DebugString(), filter.config().DebugString());
  for (uint64_t k : keys) EXPECT_TRUE(restored->MayContain(k)) << k;
  Rng rng(51);
  for (int i = 0; i < 5000; ++i) {
    // Probes inside the domain and anywhere in the 64-bit space.
    uint64_t y = i % 2 == 0 ? cfg.key_base + rng.Uniform(uint64_t{1} << kBits)
                            : rng.Next();
    EXPECT_EQ(restored->MayContain(y), filter.MayContain(y)) << y;
    uint64_t hi = RangeEnd(y, 1 << 16);
    EXPECT_EQ(restored->MayContainRange(y, hi), filter.MayContainRange(y, hi))
        << y;
  }
}

TEST(SerializationTest, PermutedWordsFlagSurvives) {
  BloomRFConfig cfg = BloomRFConfig::Basic(1000, 14.0);
  cfg.permute_words = true;
  BloomRF filter(cfg);
  auto keys = RandomKeySet(1000, 45);
  for (uint64_t k : keys) filter.Insert(k);
  auto restored = BloomRF::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->config().permute_words);
  for (uint64_t k : keys) EXPECT_TRUE(restored->MayContain(k));
}

}  // namespace
}  // namespace bloomrf
