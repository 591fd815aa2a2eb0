// bloomRF is an online, lock-free structure (paper Problem 2 and
// Fig. 12.A/B): lookups run concurrently with insertions. These tests
// pin the memory-visibility contract: a key inserted before a probe
// (happens-before via thread join or acquire/release flag) is always
// found, under concurrent writer load. The last test covers every
// registry backend: the LSM probes one SST's filter from many reader
// threads at once, so a const probe must not write shared state.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/bloomrf.h"
#include "filters/registry.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;
using ::bloomrf::testing::RangeEnd;

TEST(ConcurrencyTest, ParallelInsertsAllVisibleAfterJoin) {
  auto keyset = RandomKeySet(80000, 91);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));

  constexpr int kThreads = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < keys.size(); i += kThreads) {
        filter.Insert(keys[i]);
      }
    });
  }
  for (auto& th : writers) th.join();
  for (uint64_t k : keys) ASSERT_TRUE(filter.MayContain(k)) << k;
}

TEST(ConcurrencyTest, ReadersNeverSeeFalseNegativesUnderLoad) {
  auto keyset = RandomKeySet(40000, 92);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  // First half pre-inserted; second half inserted while readers run.
  size_t half = keys.size() / 2;
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 14.0));
  for (size_t i = 0; i < half; ++i) filter.Insert(keys[i]);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> false_negatives{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < half; ++i) {
          if (!filter.MayContain(keys[i])) {
            false_negatives.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (size_t i = half; i < keys.size(); ++i) filter.Insert(keys[i]);
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(false_negatives.load(), 0u);
  for (uint64_t k : keys) ASSERT_TRUE(filter.MayContain(k));
}

TEST(ConcurrencyTest, ConcurrentRangeProbesDuringInserts) {
  auto keyset = RandomKeySet(20000, 93);
  std::vector<uint64_t> keys(keyset.begin(), keyset.end());
  BloomRF filter(BloomRFConfig::Basic(keys.size(), 16.0));
  size_t half = keys.size() / 2;
  for (size_t i = 0; i < half; ++i) filter.Insert(keys[i]);

  std::atomic<uint64_t> missed{0};
  std::thread writer([&] {
    for (size_t i = half; i < keys.size(); ++i) filter.Insert(keys[i]);
  });
  std::thread reader([&] {
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < half; ++i) {
        uint64_t k = keys[i];
        uint64_t lo = k >= 500 ? k - 500 : 0;
        uint64_t hi = k <= UINT64_MAX - 500 ? k + 500 : UINT64_MAX;
        if (!filter.MayContainRange(lo, hi)) missed.fetch_add(1);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(missed.load(), 0u);
}

// Four threads repeat the same point and range probes on one filter;
// every answer must equal a single-threaded pass. Under
// ThreadSanitizer, a probe that writes a member reports a race here.
TEST(ConcurrencyTest, ConcurrentProbesMatchSerialOnEveryBackend) {
  auto key_set = RandomKeySet(20000, 94);
  std::vector<uint64_t> keys(key_set.begin(), key_set.end());
  Rng rng(95);
  std::vector<uint64_t> points, los, his;
  for (size_t i = 0; i < 1000; ++i) {
    uint64_t anchor =
        (i % 2 == 0) ? keys[rng.Uniform(keys.size())] : rng.Next();
    points.push_back(i % 4 == 2 ? anchor + 1 : anchor);
    uint64_t width = uint64_t{1} << rng.Uniform(16);
    uint64_t lo = anchor - std::min(anchor, width / 2);
    los.push_back(lo);
    his.push_back(RangeEnd(lo, width));
  }
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    FilterBuildParams params;
    params.bits_per_key = 16.0;
    auto filter = FilterRegistry::Instance().Find(name)->build_from_sorted_keys(
        keys, params);
    ASSERT_NE(filter, nullptr) << name;
    std::vector<uint8_t> point_serial, range_serial;
    for (uint64_t p : points) point_serial.push_back(filter->MayContain(p));
    for (size_t i = 0; i < los.size(); ++i) {
      range_serial.push_back(filter->MayContainRange(los[i], his[i]));
    }
    std::atomic<uint64_t> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        for (int round = 0; round < 2; ++round) {
          for (size_t i = 0; i < points.size(); ++i) {
            if (filter->MayContain(points[i]) != point_serial[i]) {
              mismatches.fetch_add(1);
            }
            if (filter->MayContainRange(los[i], his[i]) != range_serial[i]) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : readers) th.join();
    EXPECT_EQ(mismatches.load(), 0u) << name;
  }
}

}  // namespace
}  // namespace bloomrf
