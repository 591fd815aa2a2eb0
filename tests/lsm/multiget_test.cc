// MultiGet is N Get calls on one Version snapshot: same answers for
// every key (memtable hits, SST hits across many tables, misses,
// duplicates, empty batches), the same filter probes and outcomes as
// the Gets, and repeated block reads served by the shared LRU cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

class MultiGetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_multiget_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Db MakeDb(std::shared_ptr<FilterPolicy> policy,
            uint64_t memtable_bytes = 64 << 10,
            size_t block_cache_bytes = 4 << 20) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = memtable_bytes;
    options.block_cache_bytes = block_cache_bytes;
    return Db(options);
  }

  /// Asserts MultiGet(keys) gives exactly the same answers as N Get
  /// calls.
  static void ExpectMatchesGet(Db& db, const std::vector<uint64_t>& keys) {
    auto batched = db.MultiGet(keys);
    ASSERT_EQ(batched.size(), keys.size());
    std::string value;
    for (size_t i = 0; i < keys.size(); ++i) {
      bool found = db.Get(keys[i], &value);
      ASSERT_EQ(batched[i].has_value(), found) << "key " << keys[i];
      if (found) EXPECT_EQ(*batched[i], value) << "key " << keys[i];
    }
  }

  /// The bloomrf backend's point outcomes (allowed, false, negatives)
  /// from CollectFilterFeedback; zeros when no table carries it.
  using Outcomes = std::array<uint64_t, 3>;
  static Outcomes PointOutcomes(const Db& db) {
    const FilterFeedback feedback = db.CollectFilterFeedback();
    const BackendObservation* obs = feedback.Find("bloomrf");
    if (obs == nullptr) return {};
    return {obs->point_allowed, obs->point_false, obs->point_negatives};
  }
  static Outcomes Delta(const Outcomes& before, const Outcomes& after) {
    return {after[0] - before[0], after[1] - before[1], after[2] - before[2]};
  }

  std::string dir_;
};

TEST_F(MultiGetTest, MatchesGetAcrossMemtableAndSsts) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  Dataset data = MakeDataset(20000, Distribution::kUniform, 81);
  // Most keys spread over several SSTs, the tail left in the memtable.
  for (size_t i = 0; i < data.keys.size(); ++i) {
    if (i == data.keys.size() / 10 * 9) db.Flush();
    db.Put(data.keys[i], MakeValue(data.keys[i], 24));
  }
  ASSERT_GT(db.num_tables(), 2u);

  // Present keys, absent keys, near misses, and in-batch duplicates.
  Rng rng(82);
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < 4000; ++i) {
    switch (i % 4) {
      case 0: probes.push_back(data.keys[rng.Uniform(data.keys.size())]); break;
      case 1: probes.push_back(rng.Next()); break;
      case 2: probes.push_back(data.keys[rng.Uniform(data.keys.size())] + 1); break;
      default: probes.push_back(probes[rng.Uniform(probes.size())]); break;
    }
  }
  ExpectMatchesGet(db, probes);
}

TEST_F(MultiGetTest, EmptyAndSingletonBatches) {
  Db db = MakeDb(NewBloomPolicy(12.0));
  db.Put(7, "seven");
  db.Flush();
  EXPECT_TRUE(db.MultiGet({}).empty());
  std::vector<uint64_t> one{7};
  auto result = db.MultiGet(one);
  ASSERT_EQ(result.size(), 1u);
  ASSERT_TRUE(result[0].has_value());
  EXPECT_EQ(*result[0], "seven");
}

TEST_F(MultiGetTest, NewestValueWinsAcrossTables) {
  Db db = MakeDb(NewBloomPolicy(12.0));
  db.Put(1, "v1");
  db.Flush();
  db.Put(1, "v2");
  db.Flush();
  db.Put(2, "memtable");
  std::vector<uint64_t> probes{1, 2, 3};
  auto result = db.MultiGet(probes);
  ASSERT_TRUE(result[0].has_value());
  EXPECT_EQ(*result[0], "v2");
  ASSERT_TRUE(result[1].has_value());
  EXPECT_EQ(*result[1], "memtable");
  EXPECT_FALSE(result[2].has_value());
}

TEST_F(MultiGetTest, RepeatedBatchesServeFromBlockCache) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6), /*memtable_bytes=*/32 << 10,
                 /*block_cache_bytes=*/32 << 20);
  Dataset data = MakeDataset(5000, Distribution::kUniform, 83);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 16));
  db.Flush();

  std::vector<uint64_t> probes(data.keys.begin(), data.keys.begin() + 1000);
  (void)db.MultiGet(probes);  // warm the cache
  db.ResetStats();
  auto result = db.MultiGet(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(result[i].has_value()) << i;
  }
  const LsmStats& stats = db.stats();
  EXPECT_GT(stats.block_cache_hits, 0u);
  EXPECT_EQ(stats.block_cache_misses, 0u);
  EXPECT_EQ(stats.blocks_read, 0u);  // no physical I/O on the warm pass
}

TEST_F(MultiGetTest, WorksWithoutBlockCache) {
  Db db = MakeDb(NewBloomPolicy(12.0), /*memtable_bytes=*/64 << 10,
                 /*block_cache_bytes=*/0);
  ASSERT_EQ(db.block_cache(), nullptr);
  Dataset data = MakeDataset(3000, Distribution::kUniform, 84);
  for (uint64_t k : data.keys) db.Put(k, "v");
  db.Flush();
  std::vector<uint64_t> probes(data.keys.begin(), data.keys.begin() + 500);
  probes.push_back(0xdeadbeef);  // likely absent
  ExpectMatchesGet(db, probes);
  EXPECT_EQ(db.stats().block_cache_hits, 0u);
}

TEST_F(MultiGetTest, WorksWithoutFilterPolicy) {
  Db db = MakeDb(nullptr);
  for (uint64_t k = 0; k < 2000; ++k) db.Put(k * 3, "x");
  db.Flush();
  std::vector<uint64_t> probes;
  for (uint64_t k = 0; k < 300; ++k) probes.push_back(k);
  ExpectMatchesGet(db, probes);
}

TEST_F(MultiGetTest, ProbesExactlyTheTablesGetProbes) {
  // A leveled tree of disjoint L1 files: a Get probes only the table
  // whose [min, max] holds its key, and a MultiGet must probe the same
  // tables with the same outcomes.
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomRFPolicy(16.0, 1e6);
  options.memtable_bytes = 64 << 10;
  options.level_base_bytes = 64 << 10;
  Db db(options);
  Dataset data = MakeDataset(20000, Distribution::kUniform, 85);
  for (uint64_t k : data.keys) ASSERT_TRUE(db.Put(k, MakeValue(k, 24)));
  ASSERT_TRUE(db.CompactAll());
  ASSERT_GT(db.num_tables(), 10u);
  ASSERT_EQ(db.level_table_counts()[0], 0u);

  Rng rng(86);
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < 2048; ++i) {
    probes.push_back(i % 2 == 0 ? data.keys[rng.Uniform(data.keys.size())]
                                : rng.Next());
  }

  db.ResetStats();
  const Outcomes before_gets = PointOutcomes(db);
  std::string value;
  std::vector<bool> found;
  for (uint64_t k : probes) found.push_back(db.Get(k, &value));
  const uint64_t get_probes = db.stats().filter_probes;
  const uint64_t get_negatives = db.stats().filter_negatives;
  const Outcomes get_outcomes = Delta(before_gets, PointOutcomes(db));

  db.ResetStats();
  const Outcomes before_multigets = PointOutcomes(db);
  for (size_t base = 0; base < probes.size(); base += 32) {
    auto answers = db.MultiGet({probes.data() + base, 32});
    for (size_t i = 0; i < answers.size(); ++i) {
      ASSERT_EQ(answers[i].has_value(), found[base + i]) << base + i;
    }
  }
  EXPECT_GT(get_probes, probes.size() / 2);
  EXPECT_GT(get_outcomes[0], 0u);
  EXPECT_EQ(db.stats().filter_probes, get_probes);
  EXPECT_EQ(db.stats().filter_negatives, get_negatives);
  EXPECT_EQ(Delta(before_multigets, PointOutcomes(db)), get_outcomes);
}

TEST_F(MultiGetTest, UnreadableBlockIsNotAFalsePositive) {
  // A filter probe whose data block fails its checksum has no known
  // outcome: neither path may charge it to the filter as a false
  // positive.
  Db db = MakeDb(NewBloomRFPolicy(16.0, 1e6), /*memtable_bytes=*/1 << 20);
  Dataset data = MakeDataset(3000, Distribution::kUniform, 87);
  for (uint64_t k : data.keys) ASSERT_TRUE(db.Put(k, MakeValue(k, 24)));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.num_tables(), 1u);
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") sst = entry.path();
  }
  {
    // 4 KiB blocks: byte 6000 lies in the second data block.
    std::fstream f(sst, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(6000);
    f.get(byte);
    f.seekp(6000);
    f.put(static_cast<char>(byte ^ 0x5a));
  }

  db.ResetStats();
  std::string value;
  size_t gets_found = 0;
  for (uint64_t k : data.keys) gets_found += db.Get(k, &value);
  EXPECT_GT(gets_found, 0u);
  EXPECT_LT(gets_found, data.keys.size());
  EXPECT_GT(db.stats().block_crc_errors, 0u);
  EXPECT_GT(PointOutcomes(db)[0], 0u);
  EXPECT_EQ(PointOutcomes(db)[1], 0u);

  db.ResetStats();
  size_t multiget_found = 0;
  for (const auto& answer : db.MultiGet(data.keys)) {
    multiget_found += answer.has_value();
  }
  EXPECT_EQ(multiget_found, gets_found);
  EXPECT_GT(db.stats().block_crc_errors, 0u);
  EXPECT_EQ(PointOutcomes(db)[1], 0u);
}

TEST_F(MultiGetTest, SharedCacheAcrossDbs) {
  // Two Db instances can share one BlockCache (RocksDB-style).
  auto cache = std::make_shared<BlockCache>(8 << 20);
  DbOptions options;
  options.dir = dir_ + "/a";
  options.filter_policy = NewBloomPolicy(12.0);
  options.block_cache = cache;
  Db a(options);
  options.dir = dir_ + "/b";
  Db b(options);
  a.Put(1, "from-a");
  a.Flush();
  b.Put(2, "from-b");
  b.Flush();
  std::vector<uint64_t> probes{1, 2};
  auto ra = a.MultiGet(probes);
  auto rb = b.MultiGet(probes);
  ASSERT_TRUE(ra[0].has_value());
  EXPECT_EQ(*ra[0], "from-a");
  EXPECT_FALSE(ra[1].has_value());
  ASSERT_TRUE(rb[1].has_value());
  EXPECT_EQ(*rb[1], "from-b");
  EXPECT_FALSE(rb[0].has_value());
  EXPECT_GT(cache->charge_bytes(), 0u);
}

}  // namespace
}  // namespace bloomrf
