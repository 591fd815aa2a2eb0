// The planned batch probes must be drop-in replacements for the scalar
// loops: for EVERY registered backend, MayContainBatch and
// MayContainRangeBatch agree answer-for-answer with MayContain /
// MayContainRange — including empty batches, odd (non-stripe-multiple)
// batch sizes, duplicate keys within one batch, and adversarial
// intervals (lo == hi, full-domain, layer/segment straddles, inverted).
// The registry builds advisor-tuned bloomRF configs only; the batch
// branches those never reach are covered in
// tests/core/probe_semantics_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "filters/registry.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

class BatchProbeTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<PointRangeFilter> BuildFilter() {
    const FilterRegistry::Entry* entry =
        FilterRegistry::Instance().Find(GetParam());
    EXPECT_NE(entry, nullptr);
    auto key_set = RandomKeySet(3000, 0xba7c4);
    keys_.assign(key_set.begin(), key_set.end());  // sorted unique
    FilterBuildParams params;
    params.bits_per_key = 16.0;
    return entry->build_from_sorted_keys(keys_, params);
  }

  /// Inserted keys, near-misses, far misses, and duplicates.
  std::vector<uint64_t> MakeProbes(size_t n) const {
    Rng rng(0x9e3);
    std::vector<uint64_t> probes;
    probes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0:
          probes.push_back(keys_[rng.Uniform(keys_.size())]);
          break;
        case 1:
          probes.push_back(keys_[rng.Uniform(keys_.size())] + 1);
          break;
        case 2:
          probes.push_back(rng.Next());
          break;
        default:  // duplicate of an earlier probe in the same batch
          probes.push_back(probes[rng.Uniform(probes.size())]);
      }
    }
    return probes;
  }

  std::vector<uint64_t> keys_;
};

TEST_P(BatchProbeTest, PointBatchMatchesScalar) {
  auto filter = BuildFilter();
  ASSERT_NE(filter, nullptr);
  // Sizes straddling the planning stripe (32), plus empty and odd.
  for (size_t batch_size : {0, 1, 3, 31, 32, 33, 100, 1001}) {
    std::vector<uint64_t> probes = MakeProbes(batch_size);
    auto out = std::make_unique<bool[]>(batch_size + 1);
    out[batch_size] = true;  // canary: batch must not write past size
    filter->MayContainBatch(probes, out.get());
    for (size_t i = 0; i < batch_size; ++i) {
      EXPECT_EQ(out[i], filter->MayContain(probes[i]))
          << GetParam() << " batch_size=" << batch_size << " i=" << i
          << " key=" << probes[i];
    }
    EXPECT_TRUE(out[batch_size]);
  }
}

TEST_P(BatchProbeTest, RangeBatchMatchesScalar) {
  auto filter = BuildFilter();
  ASSERT_NE(filter, nullptr);
  Rng rng(0x51ee);
  for (size_t batch_size : {0, 1, 33, 500}) {
    std::vector<uint64_t> los, his;
    for (size_t i = 0; i < batch_size; ++i) {
      uint64_t anchor = (i % 2 == 0) ? keys_[rng.Uniform(keys_.size())]
                                     : rng.Next();
      uint64_t width = uint64_t{1} << rng.Uniform(20);
      uint64_t lo = anchor - std::min(anchor, width / 2);
      los.push_back(lo);
      his.push_back(RangeEnd(lo, width));
    }
    auto out = std::make_unique<bool[]>(batch_size + 1);
    out[batch_size] = true;
    filter->MayContainRangeBatch(los, his, out.get());
    for (size_t i = 0; i < batch_size; ++i) {
      EXPECT_EQ(out[i], filter->MayContainRange(los[i], his[i]))
          << GetParam() << " batch_size=" << batch_size << " i=" << i
          << " [" << los[i] << ", " << his[i] << "]";
    }
    EXPECT_TRUE(out[batch_size]);
  }
}

// Intervals engineered against the dyadic descent: degenerate points,
// the full domain, spans straddling bloomRF layer boundaries (levels
// are multiples of the advisor's deltas — powers of two around key
// prefixes), saturating arithmetic at both domain ends, and inverted
// bounds. Every pair must answer exactly like the scalar probe.
TEST_P(BatchProbeTest, RangeBatchAdversarialIntervals) {
  auto filter = BuildFilter();
  ASSERT_NE(filter, nullptr);
  std::vector<uint64_t> los, his;
  auto add = [&](uint64_t lo, uint64_t hi) {
    los.push_back(lo);
    his.push_back(hi);
  };
  uint64_t present = keys_[keys_.size() / 2];
  uint64_t absent = present + 1;  // not in the sorted-unique key set
  // Degenerate single-point intervals.
  add(present, present);
  add(absent, absent);
  add(0, 0);
  add(UINT64_MAX, UINT64_MAX);
  // Full domain and half-domain splits.
  add(0, UINT64_MAX);
  add(0, UINT64_MAX / 2);
  add(UINT64_MAX / 2 + 1, UINT64_MAX);
  // Intervals straddling every power-of-two boundary around a present
  // key: these split the descent at each layer in turn.
  for (uint32_t level = 1; level < 64; ++level) {
    uint64_t boundary = (present >> level) << level;
    if (boundary == 0) break;
    add(boundary - 1, boundary);
    add(boundary - 1, boundary + 1);
    uint64_t width = uint64_t{1} << (level - 1);
    add(boundary - std::min(boundary, width), boundary + width);
  }
  // Saturating intervals at the domain ends.
  add(0, 1);
  add(UINT64_MAX - 1, UINT64_MAX);
  // Inverted bounds: definite negative, batch included.
  add(present + 1, present > 0 ? present - 1 : 0);
  add(UINT64_MAX, 0);
  // Duplicates of an earlier interval within the same batch.
  add(los[0], his[0]);
  add(los[4], his[4]);

  auto out = std::make_unique<bool[]>(los.size() + 1);
  out[los.size()] = true;  // canary
  filter->MayContainRangeBatch(los, his, out.get());
  for (size_t i = 0; i < los.size(); ++i) {
    EXPECT_EQ(out[i], filter->MayContainRange(los[i], his[i]))
        << GetParam() << " i=" << i << " [" << los[i] << ", " << his[i]
        << "]";
  }
  EXPECT_TRUE(out[los.size()]);

  // Empty batch: no output writes at all.
  out[0] = true;
  filter->MayContainRangeBatch({}, {}, out.get());
  EXPECT_TRUE(out[0]);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchProbeTest,
    ::testing::ValuesIn(FilterRegistry::Instance().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace bloomrf
