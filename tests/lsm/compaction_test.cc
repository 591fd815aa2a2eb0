// Leveled compaction: multi-level correctness across every registered
// filter backend, failure injection (a broken disk never unpublishes
// readable state), and reopen-after-compaction.

#include "lsm/compaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::DeleteOps;

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_compaction_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Small memtables + tiny level budgets so a few thousand keys push
  /// files through several levels.
  DbOptions CompactingOptions(std::shared_ptr<FilterPolicy> policy,
                              const std::string& subdir = "") {
    DbOptions options;
    options.dir = subdir.empty() ? dir_ : subdir;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = 8 << 10;
    options.compaction = true;
    options.l0_compaction_trigger = 2;
    options.level_base_bytes = 16 << 10;
    options.level_size_multiplier = 2;
    options.max_levels = 5;
    return options;
  }

  /// Full sweep of `db` against `expected`: every key via Get, the
  /// whole keyspace via RangeScan, row for row.
  void ExpectExactly(Db& db, const std::map<uint64_t, std::string>& expected) {
    std::string value;
    for (const auto& [k, v] : expected) {
      ASSERT_TRUE(db.Get(k, &value)) << "missing key " << k;
      EXPECT_EQ(value, v) << "wrong value for key " << k;
    }
    auto rows = db.RangeScan(0, ~0ull, expected.size() + 100);
    ASSERT_EQ(rows.size(), expected.size());
    auto it = expected.begin();
    for (size_t i = 0; i < rows.size(); ++i, ++it) {
      EXPECT_EQ(rows[i].first, it->first) << "row " << i;
      EXPECT_EQ(rows[i].second, it->second) << "row " << i;
    }
  }

  std::string dir_;
};

TEST_F(CompactionTest, CompactsIntoMultipleLevelsAndKeepsEveryKey) {
  std::map<uint64_t, std::string> expected;
  {
    Db db(CompactingOptions(NewBloomPolicy(10.0)));
    Dataset data = MakeDataset(6000, Distribution::kUniform, 501);
    // Several rounds of overwrites so newest-wins must survive the
    // merges; flush between rounds to spread versions across levels.
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < data.keys.size(); i += (round + 1)) {
        uint64_t k = data.keys[i];
        std::string v = "r" + std::to_string(round) + "-" + std::to_string(k);
        ASSERT_TRUE(db.Put(k, v));
        expected[k] = v;
      }
      ASSERT_TRUE(db.Flush());
    }
    ASSERT_TRUE(db.WaitForCompaction());

    auto per_level = db.level_table_counts();
    size_t populated = 0;
    for (size_t n : per_level) populated += n > 0 ? 1 : 0;
    EXPECT_GE(populated, 2u) << "compaction never moved files off L0";
    EXPECT_GT(db.stats().compactions.load(), 0u);
    EXPECT_GT(db.stats().compaction_bytes_written.load(), 0u);

    ExpectExactly(db, expected);
  }
  // The compacted tree must come back identically from the MANIFEST.
  Db db(CompactingOptions(NewBloomPolicy(10.0)));
  EXPECT_EQ(db.recovery_stats().tables_quarantined, 0u);
  EXPECT_GE(db.recovery_stats().tables_loaded, 1u);
  ExpectExactly(db, expected);
}

TEST_F(CompactionTest, EveryRegistryBackendSurvivesMultiLevelReads) {
  // Satellite: read correctness across all registered filter backends
  // after multi-level compaction — filters are rebuilt per output SST
  // and must stay false-negative-free at every level.
  std::vector<std::shared_ptr<FilterPolicy>> policies;
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    policies.push_back(NewRegistryPolicy(name));
  }
  policies.push_back(nullptr);  // no filter: pure merge correctness
  ASSERT_GT(policies.size(), 1u);

  Dataset data = MakeDataset(2500, Distribution::kNormal, 502);
  int idx = 0;
  for (auto& policy : policies) {
    std::string subdir = dir_ + "/p" + std::to_string(idx++);
    Db db(CompactingOptions(policy, subdir));
    std::map<uint64_t, std::string> expected;
    for (int round = 0; round < 2; ++round) {
      for (uint64_t k : data.keys) {
        std::string v = std::to_string(k) + "@" + std::to_string(round);
        ASSERT_TRUE(db.Put(k, v));
        expected[k] = v;
      }
      ASSERT_TRUE(db.Flush());
    }
    ASSERT_TRUE(db.WaitForCompaction()) << "policy " << idx;
    std::string value;
    for (const auto& [k, v] : expected) {
      ASSERT_TRUE(db.Get(k, &value)) << "policy " << idx << " key " << k;
      ASSERT_EQ(value, v) << "policy " << idx;
    }
    // Ranges spanning level boundaries merge correctly.
    auto rows = db.RangeScan(data.sorted_keys.front(),
                             data.sorted_keys.back(), expected.size());
    ASSERT_EQ(rows.size(), expected.size()) << "policy " << idx;
  }
}

TEST_F(CompactionTest, RebasedBloomRFFiltersFindEveryKeyInLeveledFiles) {
  // Each compaction output carries a bloomRF rebased on its smallest key
  // and sized for its own key span. Every key of every L1+ file must
  // still be found by Get, MultiGet and a scan of a range around it.
  std::map<uint64_t, std::string> expected;
  Db db(CompactingOptions(NewBloomRFPolicy(16.0, 1 << 20)));
  Dataset data = MakeDataset(6000, Distribution::kUniform, 503);
  for (uint64_t k : data.keys) {
    ASSERT_TRUE(db.Put(k, "v" + std::to_string(k)));
    expected[k] = "v" + std::to_string(k);
  }
  ASSERT_TRUE(db.CompactAll());
  const auto per_level = db.level_table_counts();
  ASSERT_FALSE(per_level.empty());
  EXPECT_EQ(per_level[0], 0u);
  size_t deeper = 0;
  for (size_t level = 1; level < per_level.size(); ++level) {
    deeper += per_level[level];
  }
  EXPECT_GT(deeper, 4u) << "expected several key-disjoint L1+ files";

  std::vector<uint64_t> keys;
  std::vector<uint64_t> los, his;
  std::string value;
  for (const auto& [k, v] : expected) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    ASSERT_EQ(value, v);
    keys.push_back(k);
    los.push_back(k - std::min<uint64_t>(k, 1000));
    his.push_back(k + std::min<uint64_t>(UINT64_MAX - k, 1000));
  }
  const auto got = db.MultiGet(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << keys[i];
    EXPECT_EQ(*got[i], expected[keys[i]]);
  }
  const auto scans = db.ScanRange(los, his);
  ASSERT_EQ(scans.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool found = std::any_of(
        scans[i].begin(), scans[i].end(),
        [&](const auto& row) { return row.first == keys[i]; });
    EXPECT_TRUE(found) << "scan around " << keys[i];
  }
}

TEST_F(CompactionTest, FailedCompactionLeavesStoreReadable) {
  FaultInjectionEnv fenv;
  DbOptions options = CompactingOptions(NewBloomPolicy(10.0));
  options.env = &fenv;
  options.compaction = false;  // stage L0 without a racing compactor
  std::map<uint64_t, std::string> expected;
  {
    Db db(options);
    for (int round = 0; round < 4; ++round) {
      for (uint64_t k = 0; k < 300; ++k) {
        std::string v = "r" + std::to_string(round);
        ASSERT_TRUE(db.Put(k * 3 + round % 3, v));
        expected[k * 3 + round % 3] = v;
      }
      ASSERT_TRUE(db.Flush());
    }
  }

  // Reopen with compaction on and every SST write failing: the L0
  // pile is over the trigger, so the first pick fails immediately.
  options.compaction = true;
  fenv.FailAlways("sst.open");
  Db db(options);
  const size_t tables_before = db.num_tables();
  ASSERT_GE(tables_before, options.l0_compaction_trigger);
  EXPECT_FALSE(db.WaitForCompaction());
  EXPECT_GT(db.stats().compaction_failures.load(), 0u);
  EXPECT_FALSE(db.stats().last_error().empty());
  // Inputs stay published; nothing was unpublished or lost.
  EXPECT_EQ(db.num_tables(), tables_before);
  ExpectExactly(db, expected);
  // No half-written outputs left behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  // The disk heals: the same call now acts as a retry and drains the
  // backlog.
  fenv.HealAll();
  ASSERT_TRUE(db.WaitForCompaction());
  EXPECT_LT(db.num_tables(), tables_before);
  EXPECT_GT(db.stats().compactions.load(), 0u);
  ExpectExactly(db, expected);
}

TEST_F(CompactionTest, UnreadableInputBlockFailsTheJob) {
  // A data block that fails its CRC mid-merge fails the job: outputs
  // are deleted and the inputs stay published.
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.block_size = 256;
  Db db(options);
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));
  ASSERT_TRUE(db.Flush());
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(db.Put(k, "newer"));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.num_tables(), 2u);

  // The first table's data blocks fill most of the file; flip a byte a
  // quarter of the way in, far from block 0.
  std::vector<std::string> ssts;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") ssts.push_back(entry.path());
  }
  ASSERT_EQ(ssts.size(), 2u);
  const std::string first = *std::min_element(
      ssts.begin(), ssts.end(), [](const auto& a, const auto& b) {
        return std::stoull(std::filesystem::path(a).stem()) <
               std::stoull(std::filesystem::path(b).stem());
      });
  {
    const auto offset =
        static_cast<std::streamoff>(std::filesystem::file_size(first) / 4);
    std::fstream f(first, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(offset);
    f.get(byte);
    f.seekp(offset);
    f.put(static_cast<char>(byte ^ 0x5a));
  }

  EXPECT_FALSE(db.CompactAll());
  EXPECT_GT(db.stats().compaction_failures.load(), 0u);
  EXPECT_GT(db.stats().block_crc_errors.load(), 0u);
  EXPECT_EQ(db.stats().last_error(), "compact: input read error");
  EXPECT_EQ(db.num_tables(), 2u);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST_F(CompactionTest, FullMergeDropsTombstonesAcrossEveryBackend) {
  // Bottom-level drop, per registered filter backend: a full manual
  // merge has no deeper level left that could hold the key, so every
  // tombstone must be dropped — and the deleted keys must STAY deleted
  // through the merge, the rebuilt filters, and a reopen.
  std::vector<std::shared_ptr<FilterPolicy>> policies;
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    policies.push_back(NewRegistryPolicy(name));
  }
  policies.push_back(nullptr);  // no filter: pure merge correctness
  int idx = 0;
  for (auto& policy : policies) {
    SCOPED_TRACE("policy " + std::to_string(idx));
    std::string subdir = dir_ + "/p" + std::to_string(idx++);
    DbOptions options = CompactingOptions(policy, subdir);
    options.compaction = false;  // manual lever owns the tree
    std::map<uint64_t, std::string> expected;
    {
      Db db(options);
      for (uint64_t k = 0; k < 600; ++k) {
        ASSERT_TRUE(db.Put(k, "v" + std::to_string(k)));
        expected[k] = "v" + std::to_string(k);
      }
      ASSERT_TRUE(db.Flush());
      std::vector<uint64_t> doomed;
      for (uint64_t k = 0; k < 600; k += 3) doomed.push_back(k);
      ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
      for (uint64_t k : doomed) expected.erase(k);
      ASSERT_TRUE(db.Flush());
      // The tombstones are now live in an L0 SST (and counted).
      EXPECT_EQ(db.stats().tombstones_written.load(), 200u);
      EXPECT_EQ(db.stats().tombstones_live.load(), 200u);

      ASSERT_TRUE(db.CompactAll());
      // Nothing deeper than the merge output exists: every tombstone
      // must be gone from the tree, not carried forever.
      EXPECT_EQ(db.stats().tombstones_dropped.load(), 200u);
      EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
      ExpectExactly(db, expected);
      std::string value;
      for (uint64_t k = 0; k < 600; k += 3) {
        ASSERT_FALSE(db.Get(k, &value)) << "resurrected after merge: " << k;
      }
    }
    // The dropped tombstones stay dropped (and the keys stay deleted)
    // across a MANIFEST recovery.
    Db db(options);
    EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
    ExpectExactly(db, expected);
  }
}

TEST_F(CompactionTest, TombstoneIsKeptWhileDeeperLevelsHoldTheKey) {
  // Must-keep side of the drop rule, under real background leveled
  // compaction: keys written early sink to deeper levels; deleting
  // them later puts tombstones in L0 whose first few compactions
  // CANNOT drop them (the deep live versions are not inputs). The
  // invariant at every step: a deleted key never comes back, and
  // while deeper levels still hold it, the tombstone stays live.
  DbOptions options = CompactingOptions(NewBloomPolicy(10.0));
  Db db(options);
  std::map<uint64_t, std::string> expected;
  // Sink several flushed generations so the tree has populated depth
  // (values sized so the data set outgrows the first level budgets).
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 0; k < 1500; ++k) {
      std::string v = "r" + std::to_string(round) + "." + std::to_string(k) +
                      std::string(40, 'x');
      ASSERT_TRUE(db.Put(k, v));
      expected[k] = v;
    }
    ASSERT_TRUE(db.Flush());
    ASSERT_TRUE(db.WaitForCompaction());
  }
  auto per_level = db.level_table_counts();
  size_t populated = 0;
  for (size_t n : per_level) populated += n > 0 ? 1 : 0;
  ASSERT_GE(populated, 2u) << "tree never grew depth; test is vacuous";

  // Delete a slice of keys that live in the deep levels.
  std::vector<uint64_t> doomed;
  for (uint64_t k = 0; k < 1500; k += 4) doomed.push_back(k);
  ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
  for (uint64_t k : doomed) expected.erase(k);
  ASSERT_TRUE(db.Flush());
  // Freshly flushed: the tombstones are live on disk.
  EXPECT_GE(db.stats().tombstones_live.load(), doomed.size());

  // Churn more writes (disjoint keys) through the tree so compaction
  // repeatedly rewrites the tombstone-carrying files.
  std::string value;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k = 10000; k < 10300; ++k) {
      std::string v = "f" + std::to_string(round) + "." + std::to_string(k);
      ASSERT_TRUE(db.Put(k, v));
      expected[k] = v;
    }
    ASSERT_TRUE(db.Flush());
    ASSERT_TRUE(db.WaitForCompaction());
    for (uint64_t k : doomed) {
      ASSERT_FALSE(db.Get(k, &value))
          << "round " << round << ": deleted key " << k
          << " resurrected mid-compaction";
    }
  }
  ExpectExactly(db, expected);
}

TEST_F(CompactionTest, ShardedDbCompactsEveryShard) {
  ShardedDbOptions options;
  options.dir = dir_;
  options.num_shards = 2;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 8 << 10;
  options.compaction = true;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 16 << 10;
  options.level_size_multiplier = 2;
  ShardedDb db(options);
  std::map<uint64_t, std::string> expected;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) {
      std::string v = "s" + std::to_string(round) + "." + std::to_string(k);
      ASSERT_TRUE(db.Put(k * 11, v));
      expected[k * 11] = v;
    }
    ASSERT_TRUE(db.Flush());
  }
  ASSERT_TRUE(db.WaitForCompaction());
  std::string value;
  for (const auto& [k, v] : expected) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, v);
  }
}

}  // namespace
}  // namespace bloomrf
