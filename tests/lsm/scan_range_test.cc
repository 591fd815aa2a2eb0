// Db::ScanRange is the batched equivalent of N RangeScan calls: same
// rows for every range (memtable overlays, multi-SST merges, empty
// ranges, duplicates, inverted bounds, empty batches), with each
// table's filter probed once per batch through
// TableReader::RangeMultiProbe and block reads served by the shared
// cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "filters/registry.h"
#include "lsm/db.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

class ScanRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_scan_range_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Db MakeDb(std::shared_ptr<FilterPolicy> policy) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = 64 << 10;  // several SSTs
    options.block_cache_bytes = 4 << 20;
    return Db(options);
  }

  /// Asserts ScanRange(los, his) returns exactly the rows of N
  /// RangeScan calls.
  static void ExpectMatchesRangeScan(Db& db,
                                     const std::vector<uint64_t>& los,
                                     const std::vector<uint64_t>& his,
                                     size_t limit = 1024) {
    auto batched = db.ScanRange(los, his, limit);
    ASSERT_EQ(batched.size(), los.size());
    for (size_t i = 0; i < los.size(); ++i) {
      auto rows = db.RangeScan(los[i], his[i], limit);
      ASSERT_EQ(batched[i].size(), rows.size())
          << "range " << i << " [" << los[i] << ", " << his[i] << "]";
      for (size_t k = 0; k < rows.size(); ++k) {
        EXPECT_EQ(batched[i][k].first, rows[k].first);
        EXPECT_EQ(batched[i][k].second, rows[k].second);
      }
    }
  }

  std::string dir_;
};

TEST_F(ScanRangeTest, MatchesRangeScanAcrossMemtableAndSsts) {
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1e6;
  Db db = MakeDb(NewRegistryPolicy("bloomrf", params));
  Dataset data = MakeDataset(20000, Distribution::kUniform, 82);
  // Most keys spread over several SSTs, the tail left in the memtable;
  // overwrite some keys so newest-wins merging is exercised.
  for (size_t i = 0; i < data.keys.size(); ++i) {
    db.Put(data.keys[i], MakeValue(data.keys[i], 16));
  }
  db.Flush();
  for (size_t i = 0; i < 500; ++i) {
    db.Put(data.keys[i], "overwritten");
  }
  ASSERT_GT(db.num_tables(), 2u);

  std::vector<uint64_t> los, his;
  for (size_t i = 0; i < data.sorted_keys.size(); i += 997) {
    uint64_t lo = data.sorted_keys[i];
    los.push_back(lo);
    his.push_back(data.sorted_keys[std::min(i + 25, data.sorted_keys.size() - 1)]);
    // Empty range right below a present key.
    if (lo >= 2) {
      los.push_back(lo - 2);
      his.push_back(lo - 1);
    }
  }
  // Inverted bounds and a duplicate of the first range.
  los.push_back(100);
  his.push_back(5);
  los.push_back(los[0]);
  his.push_back(his[0]);
  ExpectMatchesRangeScan(db, los, his);

  // Limits are honored per range.
  ExpectMatchesRangeScan(db, los, his, 7);

  // Empty batch.
  auto empty = db.ScanRange({}, {});
  EXPECT_TRUE(empty.empty());
}

TEST_F(ScanRangeTest, MatchesRangeScanForEveryRangeBackend) {
  Dataset data = MakeDataset(5000, Distribution::kUniform, 83);
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir_);
    FilterBuildParams params;
    params.bits_per_key = 18.0;
    params.max_range = 1 << 16;
    Db db = MakeDb(NewRegistryPolicy(name, params));
    for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 8));
    db.Flush();
    std::vector<uint64_t> los, his;
    for (size_t i = 0; i < data.sorted_keys.size(); i += 501) {
      los.push_back(data.sorted_keys[i]);
      his.push_back(
          data.sorted_keys[std::min(i + 10, data.sorted_keys.size() - 1)]);
      los.push_back(data.sorted_keys[i] + 1);
      his.push_back(data.sorted_keys[i] + 2);
    }
    ExpectMatchesRangeScan(db, los, his);
  }
}

TEST_F(ScanRangeTest, MismatchedSpansReturnNothing) {
  Db db = MakeDb(NewBloomPolicy(10.0));
  for (uint64_t k = 0; k < 100; ++k) db.Put(k, "v");
  ASSERT_TRUE(db.Flush());
  const std::vector<uint64_t> three = {0, 10, 20}, one = {50};
  EXPECT_TRUE(db.ScanRange(three, one).empty());
  EXPECT_TRUE(db.ScanRange(one, three).empty());
}

TEST_F(ScanRangeTest, RepeatedBatchIsServedByBlockCache) {
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1e6;
  Db db = MakeDb(NewRegistryPolicy("bloomrf", params));
  Dataset data = MakeDataset(10000, Distribution::kUniform, 84);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 16));
  db.Flush();

  std::vector<uint64_t> los, his;
  for (size_t i = 0; i < data.sorted_keys.size(); i += 701) {
    los.push_back(data.sorted_keys[i]);
    his.push_back(
        data.sorted_keys[std::min(i + 40, data.sorted_keys.size() - 1)]);
  }
  (void)db.ScanRange(los, his);
  db.ResetStats();
  (void)db.ScanRange(los, his);
  const LsmStats& stats = db.stats();
  EXPECT_GT(stats.block_cache_hits, 0u);
  EXPECT_EQ(stats.block_cache_misses, 0u);
  EXPECT_EQ(stats.blocks_read, 0u);
}

// A leveled run's files are key-disjoint, so a range probes only the
// filters of the files whose [min, max] it overlaps, as Get does for
// keys; a range across a file boundary still merges both files.
TEST_F(ScanRangeTest, RangeProbesOnlyTheFilesItOverlaps) {
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1e6;
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewRegistryPolicy("bloomrf", params);
  options.memtable_bytes = 64 << 10;
  options.level_base_bytes = 64 << 10;  // outputs split near 32 KiB
  Db db(options);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) db.Put(k * 10, MakeValue(k, 16));
  ASSERT_TRUE(db.Flush());
  ASSERT_TRUE(db.CompactAll());
  const std::vector<size_t> levels = db.level_table_counts();
  ASSERT_EQ(levels[0], 0u);
  ASSERT_EQ(*std::max_element(levels.begin(), levels.end()), db.num_tables());
  ASSERT_GE(db.num_tables(), 2u);

  // Keys 10 and 20 lie inside the first file's span.
  db.ResetStats();
  auto rows = db.ScanRange(std::vector<uint64_t>{10},
                           std::vector<uint64_t>{20});
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0].first, 10u);
  EXPECT_EQ(rows[0][1].first, 20u);
  EXPECT_EQ(db.stats().filter_probes, 1u);
  const FilterFeedback feedback = db.CollectFilterFeedback();
  const BackendObservation* bloomrf = feedback.Find("bloomrf");
  ASSERT_NE(bloomrf, nullptr);
  EXPECT_EQ(bloomrf->range_allowed + bloomrf->range_negatives, 1u);

  // [0, hi] overlaps one file until hi reaches the second file's min
  // key; find that key by the probe count of RangeMayMatch.
  auto files_overlapping = [&db](uint64_t lo, uint64_t hi) {
    db.ResetStats();
    db.RangeMayMatch(lo, hi);
    return db.stats().filter_probes.load();
  };
  // Invariant: [0, one_file] overlaps 1 file, [0, second_min] >= 2.
  uint64_t one_file = 0, second_min = (kKeys - 1) * 10;
  ASSERT_EQ(files_overlapping(0, one_file), 1u);
  ASSERT_GE(files_overlapping(0, second_min), 2u);
  while (second_min - one_file > 1) {
    const uint64_t mid = one_file + (second_min - one_file) / 2;
    (files_overlapping(0, mid) >= 2 ? second_min : one_file) = mid;
  }
  ASSERT_EQ(second_min % 10, 0u);

  // [second_min - 10, second_min] straddles the boundary: the first
  // file's last key and the second file's first key.
  const uint64_t first_max = second_min - 10;
  db.ResetStats();
  rows = db.ScanRange(std::vector<uint64_t>{first_max},
                      std::vector<uint64_t>{second_min});
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0].first, first_max);
  EXPECT_EQ(rows[0][1].first, second_min);
  EXPECT_EQ(rows[0][0].second, MakeValue(first_max / 10, 16));
  EXPECT_EQ(rows[0][1].second, MakeValue(second_min / 10, 16));
  EXPECT_EQ(db.stats().filter_probes, 2u);
}

}  // namespace
}  // namespace bloomrf
