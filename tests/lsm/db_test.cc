#include "lsm/db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "tests/test_util.h"
#include "util/coding.h"
#include "workload/key_generator.h"
#include "workload/query_generator.h"

namespace bloomrf {
namespace {

/// Env whose SST creations, while armed, wait until Release() — it
/// holds a compaction mid-job for as long as a test needs.
class BlockingSstEnv : public Env {
 public:
  std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path) override {
    if (FaultKindForPath(path) == "sst") {
      std::unique_lock<std::mutex> lock(mu_);
      blocked_ = armed_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !armed_; });
    }
    return base_->NewWritableFile(path);
  }
  bool RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool SyncDir(const std::string& dir) override { return base_->SyncDir(dir); }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

 private:
  Env* const base_ = Env::Default();
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool blocked_ = false;
};

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_db_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Db MakeDb(std::shared_ptr<FilterPolicy> policy,
            uint64_t memtable_bytes = 1 << 20) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = memtable_bytes;
    return Db(options);
  }

  /// Paths of `dir_`'s files with extension `ext` (".sst", ".corrupt"),
  /// shortest name first so numbered files come in number order.
  std::vector<std::string> FilesWithExtension(const std::string& ext) const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ext) out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.size() != b.size() ? a.size() < b.size() : a < b;
    });
    return out;
  }

  std::string dir_;
};

TEST_F(DbTest, PutGetThroughMemtable) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  ASSERT_TRUE(db.Put(42, "answer"));
  std::string value;
  ASSERT_TRUE(db.Get(42, &value));
  EXPECT_EQ(value, "answer");
  EXPECT_FALSE(db.Get(43, &value));
  EXPECT_EQ(db.num_tables(), 0u);  // still in memtable
}

TEST_F(DbTest, FlushAndGetFromSst) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  for (uint64_t k = 0; k < 1000; ++k) db.Put(k * 7, MakeValue(k, 32));
  ASSERT_TRUE(db.Flush());
  EXPECT_EQ(db.num_tables(), 1u);
  std::string value;
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(db.Get(k * 7, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 32));
  }
  EXPECT_FALSE(db.Get(3, &value));
}

TEST_F(DbTest, AutoFlushCreatesMultipleSsts) {
  Db db = MakeDb(NewBloomPolicy(10.0), /*memtable_bytes=*/32 << 10);
  Dataset data = MakeDataset(20000, Distribution::kUniform, 71);
  for (uint64_t k : data.keys) db.Put(k, "0123456789abcdef");
  db.Flush();
  EXPECT_GT(db.num_tables(), 3u);
  std::string value;
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Get(data.keys[i], &value)) << i;
  }
}

TEST_F(DbTest, NewestValueWins) {
  Db db = MakeDb(NewBloomPolicy(10.0));
  db.Put(1, "old");
  db.Flush();
  db.Put(1, "new");
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "new");
  db.Flush();
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "new");
  auto rows = db.RangeScan(0, 10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "new");
}

TEST_F(DbTest, RangeScanMergesMemtableAndSsts) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  for (uint64_t k = 0; k < 100; ++k) db.Put(k * 10, "sst");
  db.Flush();
  for (uint64_t k = 0; k < 100; ++k) db.Put(k * 10 + 5, "mem");
  auto rows = db.RangeScan(0, 99);
  ASSERT_EQ(rows.size(), 20u);  // 0,5,10,...,95
  EXPECT_EQ(rows[0].first, 0u);
  EXPECT_EQ(rows[1].first, 5u);
  EXPECT_EQ(rows[1].second, "mem");
}

TEST_F(DbTest, RangeScanLimit) {
  Db db = MakeDb(nullptr);
  for (uint64_t k = 0; k < 1000; ++k) db.Put(k, "v");
  db.Flush();
  auto rows = db.RangeScan(0, 999, 17);
  EXPECT_EQ(rows.size(), 17u);
  EXPECT_EQ(rows.back().first, 16u);
}

TEST_F(DbTest, FiltersEliminateIoOnEmptyQueries) {
  Db db = MakeDb(NewBloomRFPolicy(20.0, 1e6), 64 << 10);
  Dataset data = MakeDataset(30000, Distribution::kUniform, 72);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 64));
  db.Flush();
  ASSERT_GT(db.num_tables(), 1u);

  QueryWorkload workload =
      MakeQueryWorkload(data, 2000, 1000, Distribution::kUniform, 73);
  db.ResetStats();
  uint64_t fp = 0, empties = 0;
  for (const RangeQuery& q : workload.range_queries) {
    bool answer = db.RangeMayMatch(q.lo, q.hi);
    if (q.empty) {
      ++empties;
      if (answer) ++fp;
    } else {
      EXPECT_TRUE(answer);  // no false negatives end to end
    }
  }
  ASSERT_GT(empties, 0u);
  EXPECT_LT(static_cast<double>(fp) / static_cast<double>(empties), 0.08);
  const LsmStats& stats = db.stats();
  EXPECT_GT(stats.filter_negatives, 0u);
  // Block reads only on (rare) positives.
  EXPECT_LT(stats.blocks_read, stats.filter_probes / 4);
}

TEST_F(DbTest, RangeMayMatchReadsNoBlocks) {
  // The filter answers alone: a "maybe" must not scan the range's data
  // blocks, nor pull them into the block cache.
  Db db = MakeDb(NewBloomRFPolicy(20.0, 1e6));
  for (uint64_t k = 0; k < 20000; ++k) db.Put(k * 10, MakeValue(k, 32));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.num_tables(), 1u);
  db.ResetStats();
  EXPECT_TRUE(db.RangeMayMatch(1000, 150000));
  const LsmStats& stats = db.stats();
  EXPECT_EQ(stats.filter_probes, 1u);
  EXPECT_EQ(stats.blocks_read, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.block_cache_misses, 0u);
}

TEST_F(DbTest, ResetStatsKeepsGauges) {
  // ResetStats clears what happened, not what is: the live-tombstone
  // count and the running-compaction count survive it, and a job that
  // runs across the reset still ends with nothing in flight.
  BlockingSstEnv env;
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.env = &env;
  Db db(options);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "v"));
  ASSERT_TRUE(db.Delete(7));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.stats().tombstones_live.load(), 1u);
  db.ResetStats();
  EXPECT_EQ(db.stats().tombstones_live.load(), 1u);

  env.Arm();
  std::thread compact([&db] { EXPECT_TRUE(db.CompactAll()); });
  env.WaitUntilBlocked();  // the job's first output SST
  EXPECT_EQ(db.stats().compactions_inflight.load(), 1u);
  db.ResetStats();
  EXPECT_EQ(db.stats().compactions_inflight.load(), 1u);
  env.Release();
  compact.join();
  EXPECT_EQ(db.stats().compactions_inflight.load(), 0u);
  EXPECT_EQ(db.stats().compactions.load(), 1u);
  EXPECT_EQ(db.stats().tombstones_live.load(), 0u);  // dropped at the bottom
}

TEST_F(DbTest, PointQueriesNoFalseNegativesAcrossManySsts) {
  Db db = MakeDb(NewBloomPolicy(12.0), 16 << 10);
  Dataset data = MakeDataset(10000, Distribution::kNormal, 74);
  for (uint64_t k : data.keys) db.Put(k, "x");
  db.Flush();
  std::string value;
  for (uint64_t k : data.keys) ASSERT_TRUE(db.Get(k, &value));
}

TEST_F(DbTest, FlushStatsAccumulate) {
  Db db = MakeDb(NewSurfPolicy(/*suffix_type=*/1, 8), 8 << 10);
  Dataset data = MakeDataset(5000, Distribution::kUniform, 75);
  for (uint64_t k : data.keys) db.Put(k, "0123456789");
  db.Flush();
  EXPECT_EQ(db.flush_stats().sst_files, db.num_tables());
  EXPECT_GT(db.flush_stats().filter_create_seconds, 0.0);
  EXPECT_GT(db.flush_stats().filter_block_bytes, 0u);
}

TEST_F(DbTest, FlushFailureKeepsDataQueryable) {
  // Failure injection: an unwritable directory makes every flush fail;
  // the memtable must keep serving all data (no silent loss). The WAL
  // lives in a writable directory, so only the flushes fail.
  DbOptions options;
  options.dir = "/proc/definitely/not/writable/db";
  options.wal_dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 1 << 20;
  Db db(options);
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db.Put(k, "payload")) << k;
  EXPECT_FALSE(db.Flush());
  EXPECT_EQ(db.num_tables(), 0u);
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, "payload");
  }
  auto rows = db.RangeScan(0, 499);
  EXPECT_EQ(rows.size(), 500u);
}

TEST_F(DbTest, FailedWalAppendAppliesNothing) {
  // A write whose log append failed is not applied: its caller hears
  // false, no reader sees it, and replay cannot bring it back. The
  // broken log is replaced at once, so the next write succeeds without
  // waiting for a seal, and the writes around the failure replay from
  // both logs.
  FaultInjectionEnv fenv;
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.env = &fenv;
  {
    Db db(options);
    ASSERT_TRUE(db.Put(1, "one"));
    fenv.FailOnce("wal.append");
    EXPECT_FALSE(db.Put(2, "two"));
    std::string value;
    EXPECT_FALSE(db.Get(2, &value));
    EXPECT_NE(db.stats().last_error().find("wal"), std::string::npos)
        << db.stats().last_error();
    EXPECT_TRUE(db.Put(3, "three"));
    EXPECT_TRUE(db.Delete(1));
    EXPECT_FALSE(db.Get(1, &value));
  }
  options.env = nullptr;
  Db db(options);
  std::string value;
  EXPECT_FALSE(db.Get(1, &value));
  EXPECT_FALSE(db.Get(2, &value));
  ASSERT_TRUE(db.Get(3, &value));
  EXPECT_EQ(value, "three");
}

TEST_F(DbTest, FailedAppendsUnderConcurrentWritersApplyNothing) {
  // The same rule with writers racing on one log while some of its
  // appends fail: failed writers replace the log under writers still
  // running, seals rotate it too, and a key is readable exactly when
  // its Put returned true — before and after a reopen.
  FaultInjectionEnv fenv;
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 32 << 10;
  options.env = &fenv;
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 400;
  std::vector<char> ok(kThreads * kPerThread, 0);
  auto check = [&](Db& db) {
    std::string value;
    uint64_t failed = 0;
    for (uint64_t k = 0; k < ok.size(); ++k) {
      ASSERT_EQ(db.Get(k, &value), ok[k] != 0) << "key " << k;
      failed += ok[k] == 0 ? 1 : 0;
    }
    EXPECT_GT(failed, 0u);
  };
  {
    Db db(options);
    std::vector<std::thread> writers;
    for (uint64_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          if (t == 0 && i % 40 == 0) fenv.FailOnce("wal.append");
          const uint64_t key = t * kPerThread + i;
          ok[key] = db.Put(key, std::string(64, 'v')) ? 1 : 0;
        }
      });
    }
    for (auto& writer : writers) writer.join();
    check(db);
  }
  options.env = nullptr;
  Db db(options);
  check(db);
}

TEST_F(DbTest, FailedFlushRetriesInSealOrder) {
  // Regression: a sealed memtable whose flush failed must not be
  // overtaken by a later seal's SST — tables must install in seal
  // order even across failures, or the stuck (older) sealed memtable
  // would shadow the newer table's values on reads. Each drain call
  // retries the failed flush until the "disk" heals.
  FaultInjectionEnv fenv;
  fenv.FailAlways("sst");
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 16 << 10;
  options.env = &fenv;
  Db db(options);

  ASSERT_TRUE(db.Put(7, "v1"));
  EXPECT_FALSE(db.Flush());  // seal #1 fails, stays queued + readable
  EXPECT_EQ(db.num_tables(), 0u);
  std::string value;
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v1");

  // A Put-only writer must hear about the pending failure: the next
  // Put that seals (crosses the budget) reports false.
  ASSERT_TRUE(db.Put(7, "v2"));  // newer value, below budget: fine
  bool sealing_put_failed = false;
  for (uint64_t k = 100; k < 1000 && !sealing_put_failed; ++k) {
    sealing_put_failed = !db.Put(k, std::string(64, 'p'));
  }
  EXPECT_TRUE(sealing_put_failed);

  EXPECT_FALSE(db.Flush());  // still failing; both seals queued
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v2");  // newest sealed memtable wins

  fenv.HealAll();  // disk heals: next drain flushes both, oldest first
  EXPECT_TRUE(db.Flush());
  EXPECT_GE(db.num_tables(), 2u);
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v2");  // newer SST still wins after install
  auto rows = db.RangeScan(0, 99);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "v2");
}

TEST_F(DbTest, FailedFlushRetriesInSealOrderSynchronous) {
  // Same ordering guarantee with background_flush off: the sealing
  // Put/Flush drains inline and keeps the failed memtable at the
  // queue front.
  FaultInjectionEnv fenv;
  fenv.FailAlways("sst");
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 1 << 20;
  options.background_flush = false;
  options.env = &fenv;
  Db db(options);

  ASSERT_TRUE(db.Put(7, "v1"));
  EXPECT_FALSE(db.Flush());
  ASSERT_TRUE(db.Put(7, "v2"));
  EXPECT_FALSE(db.Flush());
  fenv.HealAll();
  EXPECT_TRUE(db.Flush());
  EXPECT_EQ(db.num_tables(), 2u);
  std::string value;
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v2");
}

TEST_F(DbTest, ShutdownKeepsEveryMemtableItCannotFlush) {
  // Two sealed memtables wait behind failed flushes at shutdown, and
  // the destructor's last drain fails on the older one. It must stop
  // there: flushing the newer memtable would move the manifest's log
  // number past the older one's log and delete that log, losing its
  // acknowledged write. Both logs must survive and replay.
  FaultInjectionEnv fenv;
  fenv.FailAlways("sst");
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.env = &fenv;
  {
    Db db(options);
    ASSERT_TRUE(db.Put(1, "one"));
    EXPECT_FALSE(db.Flush());
    ASSERT_TRUE(db.Put(2, "two"));
    EXPECT_FALSE(db.Flush());
    fenv.HealAll();
    fenv.FailOnce("sst");  // the last drain's first flush fails
  }
  Db db(options);
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "one");
  ASSERT_TRUE(db.Get(2, &value));
  EXPECT_EQ(value, "two");
}

TEST_F(DbTest, WorksWithEveryPolicy) {
  // Every registered backend runs through the same generic registry
  // policy; one legacy shim covers the parameter-carrying spellings.
  std::vector<std::shared_ptr<FilterPolicy>> policies;
  policies.push_back(NewBloomRFPolicy(18.0, 1e4));
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    policies.push_back(NewRegistryPolicy(name));
  }
  policies.push_back(nullptr);
  int idx = 0;
  for (auto& policy : policies) {
    std::string subdir = dir_ + "/p" + std::to_string(idx++);
    DbOptions options;
    options.dir = subdir;
    options.filter_policy = policy;
    options.memtable_bytes = 1 << 20;
    Db db(options);
    Dataset data = MakeDataset(3000, Distribution::kUniform, 76);
    for (uint64_t k : data.keys) db.Put(k, "v");
    db.Flush();
    std::string value;
    for (uint64_t k : data.keys) {
      ASSERT_TRUE(db.Get(k, &value)) << "policy " << idx;
    }
    for (uint64_t k : data.sorted_keys) {
      ASSERT_TRUE(db.RangeMayMatch(k, k + 100 > k ? k + 100 : k))
          << "policy " << idx;
    }
  }
}

TEST_F(DbTest, RetiredSstFooterIsQuarantinedOnReopen) {
  // An SST ending in the retired v2 footer (48 bytes, magic
  // 0xb100f54b1e52) fails to open: recovery renames it aside, counts
  // it, says why, and keeps serving the other table.
  {
    Db db = MakeDb(NewBloomPolicy(10.0));
    for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));
    ASSERT_TRUE(db.Flush());
    for (uint64_t k = 1000; k < 1500; ++k) ASSERT_TRUE(db.Put(k, "newer"));
    ASSERT_TRUE(db.Flush());
  }
  auto ssts = FilesWithExtension(".sst");
  ASSERT_EQ(ssts.size(), 2u);
  const std::string victim = ssts[1];  // the second flush (keys 1000+)
  {
    // Re-footer it as a well-formed v2 table: same block extents and
    // CRCs, no tombstone count. Its blocks hold no tombstones, so they
    // are byte-identical in both formats; only the version is retired.
    std::ifstream in(victim, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 56u);
    const std::string v3 = bytes.substr(bytes.size() - 56);
    bytes.resize(bytes.size() - 56);
    bytes += v3.substr(0, 32);   // index/filter offsets and sizes
    bytes += v3.substr(40, 8);   // index and filter CRCs
    PutFixed64(&bytes, 0xb100f54b1e52ULL);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Db db = MakeDb(NewBloomPolicy(10.0));
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
  EXPECT_EQ(db.recovery_stats().tables_quarantined, 1u);
  EXPECT_EQ(db.stats().tables_quarantined.load(), 1u);
  const std::string name = std::filesystem::path(victim).filename().string();
  EXPECT_NE(db.stats().last_error().find(name), std::string::npos)
      << db.stats().last_error();
  EXPECT_EQ(db.num_tables(), 1u);
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 16));
  }
}

TEST_F(DbTest, SstsWithoutManifestAreQuarantined) {
  // With CURRENT and every MANIFEST gone, nothing places the SSTs in
  // the tree: all of them are quarantined, and the keys written after
  // the last flush come back from the WAL.
  {
    Db db = MakeDb(NewBloomPolicy(10.0));
    for (uint64_t k = 0; k < 800; ++k) ASSERT_TRUE(db.Put(k, "flushed"));
    ASSERT_TRUE(db.Flush());
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "flushed2"));
    ASSERT_TRUE(db.Flush());
    for (uint64_t k = 5000; k < 5300; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));
    }
  }
  ASSERT_TRUE(std::filesystem::remove(CurrentFileName(dir_)));
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("MANIFEST-", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
  ASSERT_EQ(FilesWithExtension(".sst").size(), 2u);

  Db db = MakeDb(NewBloomPolicy(10.0));
  EXPECT_TRUE(FilesWithExtension(".sst").empty());
  EXPECT_EQ(FilesWithExtension(".corrupt").size(), 2u);
  EXPECT_EQ(db.recovery_stats().tables_quarantined, 2u);
  EXPECT_EQ(db.recovery_stats().tables_loaded, 0u);
  EXPECT_EQ(db.num_tables(), 0u);
  std::string value;
  for (uint64_t k = 5000; k < 5300; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 16));
  }
  EXPECT_FALSE(db.Get(0, &value));
}

}  // namespace
}  // namespace bloomrf
