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

}  // namespace
}  // namespace bloomrf
