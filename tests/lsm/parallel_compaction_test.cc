// Parallel compaction: the multi-job scheduler, range-partitioned
// subcompactions, and CompactRange.
//
// The core bar is equivalence: a compaction split into N
// subcompactions must leave the store logically identical to the same
// compaction run serially — same rows, same tombstone drops — across
// every registered filter backend and across trees that mix backends
// per SST. On top of that: CompactRange semantics against a reference
// map, the scheduler under write pressure with several workers, and
// the ShardedDb fan-out.

#include "lsm/compaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::DeleteOps;

/// Cycles filter backends per build so a compacted tree mixes filter
/// block formats (the adaptive policy's steady state).
class CyclingPolicy : public FilterPolicy {
 public:
  std::string Name() const override { return "cycling"; }

  std::string CreateFilter(const std::vector<uint64_t>& sorted_keys,
                           const FilterBuildContext& /*context*/)
      const override {
    static const std::vector<std::string> kCycle = {
        "bloomrf", "blocked_bloom", "rosetta", "prefix_bloom"};
    size_t turn = turn_.fetch_add(1, std::memory_order_relaxed);
    return FilterRegistry::Instance().BuildFramed(
        kCycle[turn % kCycle.size()], sorted_keys, {.bits_per_key = 12.0});
  }

 private:
  mutable std::atomic<size_t> turn_{0};
};

class ParallelCompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_parallel_compaction_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Manual-compaction options: background compaction off so the test
  /// owns the tree; `split` raises the fan-out, so every job splits
  /// into subcompactions.
  DbOptions ManualOptions(std::shared_ptr<FilterPolicy> policy,
                          const std::string& subdir, bool split) {
    DbOptions options;
    options.dir = subdir;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = 8 << 10;
    options.compaction = false;
    options.level_base_bytes = 16 << 10;
    options.level_size_multiplier = 2;
    options.max_levels = 5;
    if (split) {
      options.max_subcompactions = 4;
    }
    return options;
  }

  /// Loads the same workload into `db`: three overwrite rounds plus a
  /// delete sweep, flushed often so CompactAll sees many inputs.
  static void LoadWorkload(Db& db, std::map<uint64_t, std::string>* expected) {
    Dataset data = MakeDataset(3000, Distribution::kUniform, 901);
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < data.keys.size(); i += (round + 1)) {
        uint64_t k = data.keys[i];
        std::string v = "r" + std::to_string(round) + "-" + std::to_string(k);
        ASSERT_TRUE(db.Put(k, v));
        (*expected)[k] = v;
      }
      ASSERT_TRUE(db.Flush());
    }
    std::vector<uint64_t> doomed;
    for (size_t i = 0; i < data.keys.size(); i += 7) {
      doomed.push_back(data.keys[i]);
    }
    ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
    for (uint64_t k : doomed) expected->erase(k);
    ASSERT_TRUE(db.Flush());
  }

  /// Exact-contents sweep: every expected key by Get, the whole
  /// keyspace by RangeScan row for row (no extra, missing, or
  /// resurrected rows).
  static void ExpectExactly(Db& db,
                            const std::map<uint64_t, std::string>& expected) {
    std::string value;
    for (const auto& [k, v] : expected) {
      ASSERT_TRUE(db.Get(k, &value)) << "missing key " << k;
      ASSERT_EQ(value, v) << "wrong value for key " << k;
    }
    auto rows = db.RangeScan(0, ~0ull, expected.size() + 100);
    ASSERT_EQ(rows.size(), expected.size());
    auto it = expected.begin();
    for (size_t i = 0; i < rows.size(); ++i, ++it) {
      ASSERT_EQ(rows[i].first, it->first) << "row " << i;
      ASSERT_EQ(rows[i].second, it->second) << "row " << i;
    }
  }

  std::string dir_;
};

TEST_F(ParallelCompactionTest, SubcompactionsMatchSerialAcrossEveryBackend) {
  // The equivalence bar, per registered backend (and filterless): the
  // same workload compacted serially and split into subcompactions
  // must yield identical logical contents and identical tombstone
  // accounting — the split only changes who does the merging.
  std::vector<std::shared_ptr<FilterPolicy>> policies;
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    policies.push_back(NewRegistryPolicy(name));
  }
  policies.push_back(nullptr);
  ASSERT_GT(policies.size(), 1u);

  int idx = 0;
  for (auto& policy : policies) {
    SCOPED_TRACE("policy " + std::to_string(idx));
    std::map<uint64_t, std::string> expected;
    Db serial(ManualOptions(policy, dir_ + "/s" + std::to_string(idx),
                            /*split=*/false));
    Db split(ManualOptions(policy, dir_ + "/p" + std::to_string(idx),
                           /*split=*/true));
    ++idx;
    LoadWorkload(serial, &expected);
    std::map<uint64_t, std::string> expected2;
    LoadWorkload(split, &expected2);
    ASSERT_EQ(expected, expected2);

    ASSERT_TRUE(serial.CompactAll());
    ASSERT_TRUE(split.CompactAll());
    EXPECT_EQ(serial.stats().subcompactions_run.load(), 0u);
    EXPECT_GT(split.stats().subcompactions_run.load(), 1u)
        << "forced split never split";

    // Same drops: the full merge has nothing below its output, so
    // every tombstone dies in both — and nobody's subcompaction may
    // drop a value another range still needed.
    EXPECT_EQ(split.stats().tombstones_dropped.load(),
              serial.stats().tombstones_dropped.load());
    EXPECT_GT(split.stats().tombstones_dropped.load(), 0u);
    EXPECT_EQ(split.stats().tombstones_live.load(), 0u);

    ExpectExactly(serial, expected);
    ExpectExactly(split, expected);

    // Row-for-row across the two stores: identical logical bytes.
    auto rows_serial = serial.RangeScan(0, ~0ull, expected.size() + 10);
    auto rows_split = split.RangeScan(0, ~0ull, expected.size() + 10);
    ASSERT_EQ(rows_serial, rows_split);
  }
}

TEST_F(ParallelCompactionTest, MixedBackendTreeSplitsAndRecovers) {
  // A tree whose SSTs carry different filter backends compacts through
  // subcompactions (each output rebuilt through the cycling policy)
  // and the result survives a MANIFEST reopen.
  auto policy = std::make_shared<CyclingPolicy>();
  std::map<uint64_t, std::string> expected;
  DbOptions options = ManualOptions(policy, dir_, /*split=*/true);
  {
    Db db(options);
    LoadWorkload(db, &expected);
    ASSERT_TRUE(db.CompactAll());
    EXPECT_GT(db.stats().subcompactions_run.load(), 1u);
    ExpectExactly(db, expected);
  }
  Db db(options);
  EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
  ExpectExactly(db, expected);
}

TEST_F(ParallelCompactionTest, CompactRangeCompactsOnlyTheRequestedRange) {
  std::map<uint64_t, std::string> expected;
  DbOptions options = ManualOptions(NewBloomPolicy(10.0), dir_,
                                    /*split=*/true);
  Db db(options);
  // Dense keyspace, pushed to L1 so the level is key-partitioned and a
  // partial range maps to a strict subset of files.
  for (uint64_t k = 0; k < 2000; ++k) {
    std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(db.Put(k, v));
    expected[k] = v;
    if (k % 400 == 399) { ASSERT_TRUE(db.Flush()); }
  }
  ASSERT_TRUE(db.Flush());
  ASSERT_TRUE(db.CompactAll());
  const uint64_t jobs_before = db.stats().compactions.load();

  // Delete a band in the middle; the tombstones land in one L0 file.
  std::vector<uint64_t> doomed;
  for (uint64_t k = 500; k < 800; ++k) doomed.push_back(k);
  ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
  for (uint64_t k : doomed) expected.erase(k);
  ASSERT_TRUE(db.Flush());
  EXPECT_EQ(db.stats().tombstones_live.load(), doomed.size());

  // Compacting a sub-band expands to whole files (the tombstone L0
  // file spans [500, 799]) and digs to the deepest input level, so
  // nothing remains below the output and the tombstones all drop.
  ASSERT_TRUE(db.CompactRange(600, 700));
  EXPECT_EQ(db.stats().compactions.load(), jobs_before + 1);
  EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
  ExpectExactly(db, expected);
  std::string value;
  for (uint64_t k : doomed) {
    ASSERT_FALSE(db.Get(k, &value)) << "resurrected " << k;
  }

  // Degenerate calls are cheap no-ops.
  ASSERT_TRUE(db.CompactRange(7, 3));  // inverted
  EXPECT_EQ(db.stats().compactions.load(), jobs_before + 1);
}

TEST_F(ParallelCompactionTest, CompactRangeWorksUnderBackgroundCompaction) {
  // The manual slot: CompactRange pauses the scheduler workers, waits
  // out their in-flight jobs, runs on the caller thread, and hands the
  // tree back — under live write pressure the whole time.
  DbOptions options = ManualOptions(NewBloomPolicy(10.0), dir_,
                                    /*split=*/true);
  options.compaction = true;
  options.compaction_threads = 2;
  options.l0_compaction_trigger = 2;
  Db db(options);
  std::map<uint64_t, std::string> expected;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 1500; ++k) {
      std::string v = "r" + std::to_string(round) + "." + std::to_string(k);
      ASSERT_TRUE(db.Put(k * 3, v));
      expected[k * 3] = v;
    }
    ASSERT_TRUE(db.CompactRange(0, 2000));  // racing the background jobs
  }
  ASSERT_TRUE(db.WaitForCompaction());
  EXPECT_EQ(db.stats().compactions_inflight.load(), 0u);
  ExpectExactly(db, expected);
}

TEST_F(ParallelCompactionTest, SchedulerDrainsUnderWritePressure) {
  // Several workers, forced subcompactions, tiny levels: heavy churn
  // with overwrites and deletes, then one WaitForCompaction must drain
  // queued work, in-flight jobs, and subcompaction workers.
  DbOptions options = ManualOptions(NewBloomPolicy(10.0), dir_,
                                    /*split=*/true);
  options.compaction = true;
  options.compaction_threads = 4;
  options.max_subcompactions = 2;
  options.l0_compaction_trigger = 2;
  Db db(options);
  std::map<uint64_t, std::string> expected;
  for (int round = 0; round < 5; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) {
      std::string v = "r" + std::to_string(round) + "." + std::to_string(k);
      ASSERT_TRUE(db.Put(k, v));
      expected[k] = v;
    }
    std::vector<uint64_t> doomed;
    for (uint64_t k = static_cast<uint64_t>(round); k < 2000; k += 5) {
      doomed.push_back(k);
    }
    ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
    for (uint64_t k : doomed) expected.erase(k);
    ASSERT_TRUE(db.Flush());
  }
  ASSERT_TRUE(db.WaitForCompaction());
  EXPECT_GT(db.stats().compactions.load(), 0u);
  EXPECT_EQ(db.stats().compactions_inflight.load(), 0u);
  // Per-level observability: the bytes the jobs moved are attributed
  // to their output levels.
  uint64_t level_bytes = 0;
  for (size_t l = 0; l < LsmStats::kStatsLevels; ++l) {
    level_bytes += db.stats().compaction_bytes_written_level[l].load();
  }
  EXPECT_EQ(level_bytes, db.stats().compaction_bytes_written.load());
  ExpectExactly(db, expected);
  std::string value;
  for (uint64_t k = 0; k < 2000; ++k) {
    if (expected.count(k)) continue;
    ASSERT_FALSE(db.Get(k, &value)) << "resurrected " << k;
  }
}

TEST_F(ParallelCompactionTest, DestructorJoinsInFlightWork) {
  // Closing the store with jobs queued and possibly running must never
  // leak a worker (ASan/TSan in CI make this a hard failure).
  DbOptions options = ManualOptions(NewBloomPolicy(10.0), dir_,
                                    /*split=*/true);
  options.compaction = true;
  options.compaction_threads = 4;
  options.l0_compaction_trigger = 2;
  std::map<uint64_t, std::string> expected;
  {
    Db db(options);
    for (uint64_t k = 0; k < 3000; ++k) {
      std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(db.Put(k, v));
      expected[k] = v;
      if (k % 300 == 299) { ASSERT_TRUE(db.Flush()); }
    }
    // No WaitForCompaction: the destructor races the scheduler.
  }
  Db db(options);
  ExpectExactly(db, expected);
}

TEST_F(ParallelCompactionTest, ShardedDbCompactRangeFansOut) {
  ShardedDbOptions options;
  options.dir = dir_;
  options.num_shards = 2;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 8 << 10;
  options.compaction = true;
  options.compaction_threads = 2;
  options.max_subcompactions = 2;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 16 << 10;
  options.level_size_multiplier = 2;
  ShardedDb db(options);
  std::map<uint64_t, std::string> expected;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) {
      std::string v = "s" + std::to_string(round) + "." + std::to_string(k);
      ASSERT_TRUE(db.Put(k * 7, v));
      expected[k * 7] = v;
    }
    ASSERT_TRUE(db.Flush());
  }
  std::vector<uint64_t> doomed;
  for (uint64_t k = 0; k < 2000; k += 3) doomed.push_back(k * 7);
  ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
  for (uint64_t k : doomed) expected.erase(k);
  ASSERT_TRUE(db.Flush());

  // The range is hash-scattered, so every shard compacts; a full-range
  // call digs everything to the bottom and the tombstones all drop.
  ASSERT_TRUE(db.CompactRange(0, ~0ull));
  LsmStats total = db.TotalStats();
  EXPECT_EQ(total.tombstones_live.load(), 0u);
  EXPECT_EQ(total.compactions_inflight.load(), 0u);
  std::string value;
  for (const auto& [k, v] : expected) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    ASSERT_EQ(value, v);
  }
  for (uint64_t k : doomed) {
    ASSERT_FALSE(db.Get(k, &value)) << "resurrected " << k;
  }
  ASSERT_TRUE(db.WaitForCompaction());
}

}  // namespace
}  // namespace bloomrf
