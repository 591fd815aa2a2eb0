// First-class deletes: tombstone semantics through the memtable, the
// WAL, SST v3 encoding, every read path, and the compaction drop rule
// (TombstoneShadow).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/db.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::DeleteOps;

class DeleteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_delete_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options() {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = NewBloomPolicy(10.0);
    options.memtable_bytes = 1 << 20;
    return options;
  }

  std::string dir_;
};

TEST_F(DeleteTest, DeleteInMemtableHidesTheKeyEverywhere) {
  Db db(Options());
  ASSERT_TRUE(db.Put(1, "one"));
  ASSERT_TRUE(db.Put(2, "two"));
  ASSERT_TRUE(db.Delete(1));
  std::string value;
  EXPECT_FALSE(db.Get(1, &value));
  EXPECT_TRUE(db.Get(2, &value));
  std::vector<uint64_t> keys = {1, 2};
  auto answers = db.MultiGet(keys);
  EXPECT_FALSE(answers[0].has_value());
  ASSERT_TRUE(answers[1].has_value());
  EXPECT_EQ(*answers[1], "two");
  auto rows = db.RangeScan(0, 10, 16);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 2u);
  // Deleting a key that never existed is legal: still a miss after.
  ASSERT_TRUE(db.Delete(99));
  EXPECT_FALSE(db.Get(99, &value));
}

TEST_F(DeleteTest, TombstoneInNewerSstShadowsOlderSst) {
  Db db(Options());
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db.Put(k, "old"));
  ASSERT_TRUE(db.Flush());
  ASSERT_TRUE(db.Delete(25));
  ASSERT_TRUE(db.Flush());  // tombstone now lives in its own SST
  EXPECT_EQ(db.stats().tombstones_written.load(), 1u);
  EXPECT_EQ(db.stats().tombstones_live.load(), 1u);
  std::string value;
  EXPECT_FALSE(db.Get(25, &value)) << "older SST leaked through tombstone";
  auto rows = db.RangeScan(20, 30, 16);
  EXPECT_EQ(rows.size(), 10u);  // 21..24, 26..30 plus 20
  for (const auto& [k, v] : rows) EXPECT_NE(k, 25u);
  // Re-put resurrects ON PURPOSE (a newer live value outranks the
  // tombstone) — the only sanctioned way back.
  ASSERT_TRUE(db.Put(25, "reborn"));
  ASSERT_TRUE(db.Get(25, &value));
  EXPECT_EQ(value, "reborn");
}

TEST_F(DeleteTest, WriteBatchAppliesOpsInOrder) {
  Db db(Options());
  ASSERT_TRUE(db.Put(7, "start"));
  // put 7 then delete 7 in ONE batch: the delete is later, so it wins.
  std::vector<WriteOp> batch1 = {{7, "mid", false},
                                 {7, std::string_view(), true}};
  ASSERT_TRUE(db.WriteBatch(batch1));
  std::string value;
  EXPECT_FALSE(db.Get(7, &value));
  // delete 7 then put 7: the put is later, so the key lives.
  std::vector<WriteOp> batch2 = {{7, std::string_view(), true},
                                 {7, "end", false}};
  ASSERT_TRUE(db.WriteBatch(batch2));
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "end");
  // Empty batches are a no-op success.
  EXPECT_TRUE(db.WriteBatch({}));
}

TEST_F(DeleteTest, TombstonedKeysStayInTheFilter) {
  // While a tombstone is live its key MUST stay in the rebuilt filter:
  // a lookup has to reach the tombstone (and stop) instead of being
  // filtered straight through to a stale value in an older table.
  auto policy = NewBloomPolicy(10.0);
  TableBuilder builder(policy.get(), 4096);
  for (uint64_t k = 0; k < 1000; ++k) {
    if (k % 5 == 0) {
      builder.Add(k, std::string_view(), /*tombstone=*/true);
    } else {
      builder.Add(k, "live");
    }
  }
  TableBuildStats build_stats;
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", &build_stats));
  EXPECT_EQ(build_stats.num_entries, 1000u);
  EXPECT_EQ(build_stats.num_tombstones, 200u);

  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->num_tombstones(), 200u);
  std::string value;
  stats.Reset();
  for (uint64_t k = 0; k < 1000; k += 5) {
    EXPECT_EQ(reader->Find(k, &value, &stats), Lookup::kTombstone)
        << k;
  }
  // Every tombstoned key passed the filter (zero negatives), and a
  // tombstone hit is a CONFIRMED answer — not a false positive.
  EXPECT_EQ(stats.filter_negatives, 0u);
  EXPECT_EQ(reader->filter_outcomes().point_false, 0u);
}

TEST_F(DeleteTest, TableReaderSurfacesTombstonesOnEveryReadPath) {
  TableBuilder builder(nullptr, 512);  // small blocks: span several
  for (uint64_t k = 0; k < 300; ++k) {
    if (k % 3 == 1) {
      builder.Add(k, std::string_view(), true);
    } else {
      builder.Add(k, "v" + std::to_string(k));
    }
  }
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);

  // Find: tri-state.
  std::string value;
  EXPECT_EQ(reader->Find(0, &value, &stats), Lookup::kHit);
  EXPECT_EQ(reader->Find(1, &value, &stats), Lookup::kTombstone);
  EXPECT_EQ(reader->Find(1000, &value, &stats), Lookup::kMiss);

  // MultiGet: per-key states.
  std::vector<uint64_t> keys = {0, 1, 2, 1000};
  std::vector<Lookup> states(keys.size(),
                                          Lookup::kMiss);
  std::vector<std::string> values(keys.size());
  reader->MultiGet(keys, states.data(), values.data(), &stats);
  EXPECT_EQ(states[0], Lookup::kHit);
  EXPECT_EQ(states[1], Lookup::kTombstone);
  EXPECT_EQ(states[2], Lookup::kHit);
  EXPECT_EQ(states[3], Lookup::kMiss);

  // Range probe + block scan report tombstones; the cursor flags them,
  // so skipping them leaves the live rows.
  const uint64_t lo = 0, hi = 8;
  bool may_match = false;
  reader->RangeMultiProbe({&lo, 1}, {&hi, 1}, &may_match, &stats);
  ASSERT_TRUE(may_match);
  std::vector<ScanEntry> entries;
  reader->ScanBlocks(lo, hi, 100, &entries, &stats);
  ASSERT_EQ(entries.size(), 9u);  // every key, tombstoned or not
  for (const auto& e : entries) {
    EXPECT_EQ(e.tombstone, e.key % 3 == 1) << e.key;
    if (e.tombstone) { EXPECT_TRUE(e.value.empty()); }
  }
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (TableReader::Iterator it(*reader, TableReader::ReadMode::kCached,
                                &stats, lo);
       it.Valid() && it.key() <= hi; it.Next()) {
    if (!it.tombstone()) rows.emplace_back(it.key(), std::string(it.value()));
  }
  ASSERT_EQ(rows.size(), 6u);  // live rows only
  for (const auto& [k, v] : rows) EXPECT_NE(k % 3, 1u) << k;
}

// ---------------------------------------------------------------------
// TombstoneShadow: the drop rule itself.

TEST_F(DeleteTest, TombstoneShadowCoversAndCoalesces) {
  // Overlapping + adjacent bounds coalesce; Covers is inclusive.
  auto shadow = TombstoneShadow::FromBounds(
      {{10, 20}, {15, 25}, {40, 50}, {50, 60}, {100, 100}});
  EXPECT_EQ(shadow.num_ranges(), 3u);  // [10,25] [40,60] [100,100]
  EXPECT_FALSE(shadow.Covers(9));
  EXPECT_TRUE(shadow.Covers(10));
  EXPECT_TRUE(shadow.Covers(20));
  EXPECT_TRUE(shadow.Covers(25));
  EXPECT_FALSE(shadow.Covers(26));
  EXPECT_TRUE(shadow.Covers(45));
  EXPECT_TRUE(shadow.Covers(60));
  EXPECT_FALSE(shadow.Covers(61));
  EXPECT_TRUE(shadow.Covers(100));
  EXPECT_FALSE(shadow.Covers(99));

  // Empty shadow (bottom level, or CompactAll where the whole tree is
  // input): nothing is covered, every tombstone may drop.
  auto empty = TombstoneShadow::FromBounds({});
  EXPECT_EQ(empty.num_ranges(), 0u);
  EXPECT_FALSE(empty.Covers(0));
  EXPECT_FALSE(empty.Covers(~0ull));
}

TEST_F(DeleteTest, TombstoneShadowMustKeepCounterexample) {
  // The counterexample that makes eager dropping WRONG: a tombstone
  // for key 42 compacting into level N while some level deeper than N
  // has a file whose bounds [40, 45] can hold key 42. Dropping the
  // tombstone would resurrect the deep value; the shadow must say
  // "covered" so the merge keeps it.
  auto shadow = TombstoneShadow::FromBounds({{40, 45}});
  EXPECT_TRUE(shadow.Covers(42)) << "tombstone would be dropped early, "
                                    "resurrecting the deeper value";
  // A key outside every deeper file's bounds is safe to drop.
  EXPECT_FALSE(shadow.Covers(39));
  EXPECT_FALSE(shadow.Covers(46));
}

TEST_F(DeleteTest, StatsTrackTombstoneLifecycle) {
  DbOptions options = Options();
  options.compaction = false;
  Db db(options);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "v"));
  ASSERT_TRUE(db.Flush());
  std::vector<uint64_t> doomed = {3, 5, 8};
  ASSERT_TRUE(db.WriteBatch(DeleteOps(doomed)));
  ASSERT_TRUE(db.Flush());
  EXPECT_EQ(db.stats().tombstones_written.load(), 3u);
  EXPECT_EQ(db.stats().tombstones_live.load(), 3u);
  EXPECT_EQ(db.stats().tombstones_dropped.load(), 0u);
  ASSERT_TRUE(db.CompactAll());
  EXPECT_EQ(db.stats().tombstones_dropped.load(), 3u);
  EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
  std::string value;
  for (uint64_t k : doomed) EXPECT_FALSE(db.Get(k, &value)) << k;
}

}  // namespace
}  // namespace bloomrf
