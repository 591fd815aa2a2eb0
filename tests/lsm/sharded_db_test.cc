#include "lsm/sharded_db.h"

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

class ShardedDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_sharded_db_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedDb MakeDb(std::shared_ptr<FilterPolicy> policy, size_t shards,
                   uint64_t memtable_bytes = 64 << 10) {
    ShardedDbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.num_shards = shards;
    options.memtable_bytes = memtable_bytes;
    return ShardedDb(options);
  }

  std::string dir_;
};

TEST_F(ShardedDbTest, PutGetRoundTrip) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(18.0, 1e6), 4);
  Dataset data = MakeDataset(5000, Distribution::kUniform, 81);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 32));
  std::string value;
  for (uint64_t k : data.keys) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 32));
  }
  EXPECT_FALSE(db.Get(0xdeadbeefdeadbeefULL, &value));
}

TEST_F(ShardedDbTest, KeysSpreadOverShards) {
  ShardedDb db = MakeDb(NewBloomPolicy(10.0), 8);
  Dataset data = MakeDataset(20000, Distribution::kUniform, 82);
  for (uint64_t k : data.keys) db.Put(k, "v");
  ASSERT_TRUE(db.Flush());
  // Hash routing: every shard should own a meaningful share.
  for (size_t s = 0; s < db.num_shards(); ++s) {
    EXPECT_GE(db.shard(s).num_tables(), 1u) << "shard " << s;
  }
}

TEST_F(ShardedDbTest, MultiGetMatchesGet) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(18.0, 1e6), 4, 16 << 10);
  Dataset data = MakeDataset(8000, Distribution::kUniform, 83);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 24));
  ASSERT_TRUE(db.Flush());

  std::vector<uint64_t> probe;
  for (size_t i = 0; i < 2000; ++i) probe.push_back(data.keys[i]);
  for (size_t i = 0; i < 500; ++i) probe.push_back(data.keys[i] ^ 0x5555);
  auto batch = db.MultiGet(probe);
  ASSERT_EQ(batch.size(), probe.size());
  std::string value;
  for (size_t i = 0; i < probe.size(); ++i) {
    bool hit = db.Get(probe[i], &value);
    ASSERT_EQ(batch[i].has_value(), hit) << i;
    if (hit) EXPECT_EQ(*batch[i], value);
  }
}

TEST_F(ShardedDbTest, RangeScanMergesAcrossShards) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(20.0, 1e6), 8, 16 << 10);
  for (uint64_t k = 0; k < 3000; ++k) db.Put(k * 3, MakeValue(k, 16));
  ASSERT_TRUE(db.Flush());
  // [0, 299] holds multiples of 3: 0..297 → 100 rows, in key order,
  // assembled from all 8 shards.
  auto rows = db.RangeScan(0, 299);
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, i * 3);
    EXPECT_EQ(rows[i].second, MakeValue(i, 16));
  }
}

TEST_F(ShardedDbTest, RangeScanLimitTakesSmallestKeys) {
  ShardedDb db = MakeDb(nullptr, 4);
  for (uint64_t k = 0; k < 1000; ++k) db.Put(k, "v");
  ASSERT_TRUE(db.Flush());
  auto rows = db.RangeScan(0, 999, 17);
  ASSERT_EQ(rows.size(), 17u);
  // The global lowest 17 keys, not 17-per-shard leftovers.
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].first, i);
}

TEST_F(ShardedDbTest, ScanRangeBatchMatchesSingleScans) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(20.0, 1e6), 4, 16 << 10);
  Dataset data = MakeDataset(6000, Distribution::kUniform, 84);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 16));
  ASSERT_TRUE(db.Flush());

  std::vector<uint64_t> los, his;
  for (size_t q = 0; q < 64; ++q) {
    uint64_t lo = data.sorted_keys[q * 80];
    los.push_back(lo);
    his.push_back(data.sorted_keys[q * 80 + 25]);
  }
  // Plus some empty ranges.
  for (int i = 0; i < 16; ++i) {
    uint64_t anchor = 0x9000000000000000ULL + static_cast<uint64_t>(i) * 977;
    los.push_back(anchor);
    his.push_back(anchor + 100);
  }
  auto batches = db.ScanRange(los, his, 64);
  ASSERT_EQ(batches.size(), los.size());
  for (size_t i = 0; i < los.size(); ++i) {
    auto single = db.RangeScan(los[i], his[i], 64);
    ASSERT_EQ(batches[i], single) << "range " << i;
  }
}

TEST_F(ShardedDbTest, MismatchedSpansReturnNothing) {
  ShardedDb db = MakeDb(NewBloomPolicy(10.0), 4);
  for (uint64_t k = 0; k < 100; ++k) db.Put(k, "v");
  ASSERT_TRUE(db.Flush());
  const std::vector<uint64_t> three = {0, 10, 20}, one = {50};
  EXPECT_TRUE(db.ScanRange(three, one).empty());
  EXPECT_TRUE(db.ScanRange(one, three).empty());
}

TEST_F(ShardedDbTest, NewestValueWinsAcrossFlushes) {
  ShardedDb db = MakeDb(NewBloomPolicy(10.0), 4);
  db.Put(1, "old");
  ASSERT_TRUE(db.Flush());
  db.Put(1, "new");
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "new");
  ASSERT_TRUE(db.Flush());
  auto rows = db.RangeScan(0, 10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "new");
}

TEST_F(ShardedDbTest, WriteBatchAppliesPutsAndDeletesOnEveryShard) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(18.0, 1e6), 4);
  std::map<uint64_t, std::string> expected;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db.Put(k, "flushed" + std::to_string(k)));
    expected[k] = "flushed" + std::to_string(k);
  }
  ASSERT_TRUE(db.Flush());

  // One mixed batch, in op order: new keys put and then deleted (the
  // delete wins), deletes of flushed keys, and re-puts of some of those
  // after their delete (the re-put wins).
  std::deque<std::string> held;  // keeps the WriteOp views alive
  std::vector<WriteOp> ops;
  std::set<size_t> put_shards, delete_shards;
  auto put = [&](uint64_t key, std::string value) {
    held.push_back(std::move(value));
    ops.push_back({key, held.back(), false});
    expected[key] = held.back();
    put_shards.insert(db.shard_of(key));
  };
  auto del = [&](uint64_t key) {
    ops.push_back({key, {}, true});
    expected.erase(key);
    delete_shards.insert(db.shard_of(key));
  };
  for (uint64_t k = 1000; k < 1040; ++k) {
    put(k, "transient");
    del(k);
  }
  for (uint64_t k = 0; k < 200; k += 5) del(k);
  for (uint64_t k = 0; k < 200; k += 10) put(k, "reput" + std::to_string(k));
  ASSERT_EQ(put_shards.size(), 4u);
  ASSERT_EQ(delete_shards.size(), 4u);
  ASSERT_TRUE(db.WriteBatch(ops));

  auto check = [&](const char* when) {
    std::vector<uint64_t> probe;
    for (uint64_t k = 0; k < 1100; ++k) probe.push_back(k);
    auto answers = db.MultiGet(probe);
    ASSERT_EQ(answers.size(), probe.size());
    std::string value;
    for (size_t i = 0; i < probe.size(); ++i) {
      auto it = expected.find(probe[i]);
      const bool live = it != expected.end();
      ASSERT_EQ(db.Get(probe[i], &value), live) << when << ", key " << probe[i];
      ASSERT_EQ(answers[i].has_value(), live) << when << ", key " << probe[i];
      if (live) {
        EXPECT_EQ(value, it->second) << when;
        EXPECT_EQ(*answers[i], it->second) << when;
      }
    }
    const std::vector<std::pair<uint64_t, std::string>> want(expected.begin(),
                                                             expected.end());
    EXPECT_EQ(db.RangeScan(0, UINT64_MAX, 4096), want) << when;
  };
  check("before Flush");
  ASSERT_TRUE(db.Flush());
  check("after Flush");
}

TEST_F(ShardedDbTest, SharedBlockCacheAndStatsRollUp) {
  ShardedDb db = MakeDb(NewBloomRFPolicy(18.0, 1e6), 4, 16 << 10);
  Dataset data = MakeDataset(4000, Distribution::kUniform, 85);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 32));
  ASSERT_TRUE(db.Flush());
  // All shards share one cache instance.
  for (size_t s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.shard(s).block_cache().get(), db.block_cache().get());
  }
  db.ResetStats();
  std::vector<uint64_t> probe(data.keys.begin(), data.keys.begin() + 1000);
  (void)db.MultiGet(probe);
  (void)db.MultiGet(probe);  // warm pass: cache hits
  LsmStats total = db.TotalStats();
  EXPECT_GT(total.filter_probes, 0u);
  EXPECT_GT(total.block_cache_hits, 0u);
  db.ResetStats();
  LsmStats cleared = db.TotalStats();
  EXPECT_EQ(cleared.filter_probes, 0u);
}

TEST_F(ShardedDbTest, SingleShardBehavesLikeDb) {
  ShardedDb sharded = MakeDb(NewBloomRFPolicy(18.0, 1e6), 1, 32 << 10);
  DbOptions options;
  options.dir = dir_ + "/plain";
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.memtable_bytes = 32 << 10;
  Db plain(options);

  Dataset data = MakeDataset(5000, Distribution::kUniform, 86);
  for (uint64_t k : data.keys) {
    sharded.Put(k, MakeValue(k, 16));
    plain.Put(k, MakeValue(k, 16));
  }
  ASSERT_TRUE(sharded.Flush());
  ASSERT_TRUE(plain.Flush());

  std::vector<uint64_t> probe(data.keys.begin(), data.keys.begin() + 1500);
  EXPECT_EQ(sharded.MultiGet(probe), plain.MultiGet(probe));
  EXPECT_EQ(sharded.RangeScan(data.sorted_keys[100], data.sorted_keys[400]),
            plain.RangeScan(data.sorted_keys[100], data.sorted_keys[400]));
}

}  // namespace
}  // namespace bloomrf
