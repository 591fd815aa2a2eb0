// Kill-point recovery matrix: simulate a crash at EVERY durable
// filesystem operation the engine performs during a write-heavy
// workload (flushes, compactions, MANIFEST appends and rewrites,
// CURRENT swaps, file deletions — with and without a torn final
// write), reopen the store, and require it to equal the
// single-threaded reference map row for row.
//
// The workload interleaves Put, Delete, and re-Put of the same keys
// (singly, batched, and mixed in one WriteBatch), so every kill point
// also proves the anti-resurrection invariant: a deleted key must not
// come back via Get, MultiGet, or a full scan no matter where the
// crash landed — not from a replayed WAL, not from an SST whose
// shadowing tombstone was mid-compaction, not from a half-installed
// MANIFEST edit. Each kill point additionally survives a SECOND crash
// during the recovery itself before the healthy verify.
//
// Why exact equality is the right bar: the crash model is kill -9 —
// the process dies but the page cache survives — so every acknowledged
// write is in the WAL (WAL sites are crash-exempt, see lsm/env.h) and
// recovery must reconstruct ALL of it from the manifest prefix plus
// surviving logs. Anything less is lost data; anything more is
// resurrected data.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/env.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::DeleteOps;

/// Every key the workload ever touches lives in [0, kKeySpace): the
/// verifier can sweep the whole space and demand Get/MultiGet misses
/// for every key the reference map does not hold — which is exactly
/// the set of deleted (or never-written) keys.
constexpr uint64_t kKeySpace = 97;

/// Every successive filter build uses the next backend in the cycle, so
/// a crashed-and-recovered tree mixes filter block formats — recovery
/// must not care which backend each surviving SST carries.
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

using PolicyFactory = std::shared_ptr<FilterPolicy> (*)();

std::shared_ptr<FilterPolicy> BloomFactory() { return NewBloomPolicy(10.0); }
std::shared_ptr<FilterPolicy> MixedFactory() {
  return std::make_shared<CyclingPolicy>();
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_crash_matrix_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static DbOptions WorkloadOptions(const std::string& dir, Env* env,
                                   PolicyFactory policy = BloomFactory,
                                   bool parallel = false) {
    DbOptions options;
    options.dir = dir;
    options.filter_policy = policy();
    options.memtable_bytes = 1 << 20;  // sealed only by explicit Flush
    options.background_flush = false;  // inline: deterministic op order
    options.env = env;
    options.compaction = true;
    options.l0_compaction_trigger = 2;
    options.level_base_bytes = 4 << 10;
    options.level_size_multiplier = 2;
    options.max_levels = 4;
    if (parallel) {
      // Two scheduler workers on disjoint level pairs, every job split
      // into range-partitioned subcompactions: the crash now lands
      // while TWO manifest-edit producers race for the commit lock.
      options.compaction_threads = 2;
      options.max_subcompactions = 2;
    }
    return options;
  }

  /// The fixed workload: four rounds over one overlapping keyspace,
  /// each round putting, deleting (singly, as a delete-only WriteBatch,
  /// and mixed with puts in a WriteBatch), and re-putting some of what
  /// it just deleted, then sealing into an SST with compaction
  /// churning the tree between rounds. Because rounds overlap, a key
  /// deleted in round r usually has live versions in older SSTs — the
  /// exact data a buggy recovery or compaction would resurrect.
  /// Failure returns are deliberately ignored — after the kill point
  /// everything fails, but every acknowledged write still reached the
  /// WAL+memtable.
  static void RunWorkload(const std::string& dir, Env* env,
                          std::map<uint64_t, std::string>* expected,
                          PolicyFactory policy = BloomFactory,
                          bool parallel = false) {
    Db db(WorkloadOptions(dir, env, policy, parallel));
    auto put = [&](uint64_t key, std::string value) {
      db.Put(key, value);
      (*expected)[key] = std::move(value);
    };
    auto del = [&](uint64_t key) {
      db.Delete(key);
      expected->erase(key);
    };
    for (uint64_t round = 0; round < 4; ++round) {
      for (uint64_t i = 0; i < 40; ++i) {
        uint64_t key = (i * 13 + round * 5) % kKeySpace;
        put(key, "r" + std::to_string(round) + "i" + std::to_string(i));
      }
      // Single deletes over keys the earlier rounds likely still hold.
      for (uint64_t i = 0; i < 10; ++i) del((i * 11 + round * 7) % kKeySpace);
      // A batched delete: one WAL record, all-or-nothing in recovery.
      std::vector<uint64_t> batch;
      for (uint64_t i = 0; i < 6; ++i) {
        batch.push_back((i * 17 + round * 13) % kKeySpace);
      }
      db.WriteBatch(DeleteOps(batch));
      for (uint64_t key : batch) expected->erase(key);
      // A mixed batch: puts and deletes framed as ONE record.
      std::vector<std::string> held;  // keeps WriteOp views alive
      held.reserve(6);
      std::vector<WriteOp> ops;
      for (uint64_t i = 0; i < 6; ++i) {
        if (i % 2 == 0) {
          uint64_t key = (i * 19 + round) % kKeySpace;
          held.push_back("wb" + std::to_string(round) + "i" +
                         std::to_string(i));
          ops.push_back({key, held.back(), false});
        } else {
          ops.push_back({(i * 23 + round * 3) % kKeySpace,
                         std::string_view(), true});
        }
      }
      db.WriteBatch(ops);
      for (const WriteOp& op : ops) {
        if (op.is_delete) {
          expected->erase(op.key);
        } else {
          (*expected)[op.key] = std::string(op.value);
        }
      }
      // Re-put half of the singly-deleted keys: the tombstone is now
      // shadowed by a NEWER live value — recovery must keep the re-put
      // and compaction must not let the stale tombstone eat it.
      for (uint64_t i = 0; i < 5; ++i) {
        uint64_t key = (i * 11 + round * 7) % kKeySpace;
        put(key, "rp" + std::to_string(round) + "i" + std::to_string(i));
      }
      db.Flush();
      db.WaitForCompaction();
    }
  }

  /// Reopens `dir` with a healthy filesystem and requires the store to
  /// hold exactly `expected` over the whole keyspace: every key by Get
  /// (deleted keys MUST miss), the full space in one MultiGet (deleted
  /// keys MUST be nullopt), and the full keyspace by RangeScan with no
  /// missing, extra, or resurrected rows.
  static void VerifyExactly(const std::string& dir,
                            const std::map<uint64_t, std::string>& expected,
                            PolicyFactory policy = BloomFactory) {
    DbOptions options;
    options.dir = dir;
    options.filter_policy = policy();
    Db db(options);
    std::string value;
    std::vector<uint64_t> all_keys;
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      all_keys.push_back(k);
      auto it = expected.find(k);
      if (it != expected.end()) {
        ASSERT_TRUE(db.Get(k, &value)) << "lost key " << k;
        ASSERT_EQ(value, it->second) << "stale value for key " << k;
      } else {
        ASSERT_FALSE(db.Get(k, &value)) << "key " << k << " resurrected";
      }
    }
    auto answers = db.MultiGet(all_keys);
    ASSERT_EQ(answers.size(), kKeySpace);
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      auto it = expected.find(k);
      if (it != expected.end()) {
        ASSERT_TRUE(answers[k].has_value()) << "MultiGet lost key " << k;
        ASSERT_EQ(*answers[k], it->second) << "MultiGet stale key " << k;
      } else {
        ASSERT_FALSE(answers[k].has_value())
            << "key " << k << " resurrected via MultiGet";
      }
    }
    auto rows = db.RangeScan(0, ~0ull, expected.size() + 16);
    ASSERT_EQ(rows.size(), expected.size()) << "row count diverged";
    auto it = expected.begin();
    for (size_t i = 0; i < rows.size(); ++i, ++it) {
      ASSERT_EQ(rows[i].first, it->first) << "row " << i;
      ASSERT_EQ(rows[i].second, it->second) << "row " << i;
    }
  }

  std::string dir_;
};

TEST_F(CrashMatrixTest, EveryKillPointRecoversExactlyWithNoResurrection) {
  // Counting run: the same workload against an un-armed injection env
  // measures how many durable ops the engine performs end to end.
  std::map<uint64_t, std::string> reference;
  FaultInjectionEnv counter;
  const std::string count_dir = dir_ + "/count";
  RunWorkload(count_dir, &counter, &reference);
  const uint64_t total_ops = counter.op_count();
  ASSERT_GT(total_ops, 20u) << "workload too small to exercise crashes";
  ASSERT_GT(reference.size(), 30u);
  ASSERT_LT(reference.size(), kKeySpace) << "workload deleted nothing";
  VerifyExactly(count_dir, reference);  // baseline: no crash, no loss
  std::filesystem::remove_all(count_dir);

  // The matrix: crash at every op index; torn final writes on every
  // other index (a torn variant only differs when the dying op is an
  // append, and halving the runs keeps the matrix fast under ASan).
  // Every run is then crashed a SECOND time during its own recovery
  // (at a kill point that varies with the op index, so different
  // recovery stages — manifest snapshot, CURRENT swap, log cleanup —
  // get hit across the sweep) before the final healthy verify.
  uint64_t fired = 0;
  for (uint64_t op = 0; op < total_ops; ++op) {
    for (bool torn : {false, true}) {
      if (torn && op % 2 != 0) continue;
      SCOPED_TRACE("kill at op " + std::to_string(op) +
                   (torn ? " (torn write)" : " (clean cut)"));
      const std::string run_dir = dir_ + "/op" + std::to_string(op) +
                                  (torn ? "t" : "c");
      std::map<uint64_t, std::string> expected;
      FaultInjectionEnv fenv;
      fenv.CrashAtOp(op, torn);
      RunWorkload(run_dir, &fenv, &expected);
      // The workload is deterministic up to background-compaction
      // timing, so the crash fires in (nearly) every run; when a run
      // finishes under the kill point it still must verify.
      if (fenv.crashed()) ++fired;
      ASSERT_EQ(expected.size(), reference.size());
      {
        // Double fault: recovery itself writes (snapshot manifest,
        // CURRENT swap, tmp cleanup) — kill it partway through.
        FaultInjectionEnv fenv2;
        fenv2.CrashAtOp(op % 5 + 1, /*torn=*/op % 4 == 2);
        Db db(WorkloadOptions(run_dir, &fenv2));
      }
      VerifyExactly(run_dir, expected);
      std::filesystem::remove_all(run_dir);
    }
  }
  EXPECT_GT(fired, total_ops / 2) << "matrix barely exercised any crash";
}

TEST_F(CrashMatrixTest, MixedBackendTreeRecoversAtEveryThirdKillPoint) {
  // Same recovery bar (deletes included), but the tree under the crash
  // carries a different filter backend per SST (the adaptive policy's
  // steady state). A sparser sweep — every third op, torn every sixth
  // — keeps the variant cheap; the dense sweep above already covers
  // the op-ordering space with a single backend.
  std::map<uint64_t, std::string> reference;
  FaultInjectionEnv counter;
  const std::string count_dir = dir_ + "/count";
  RunWorkload(count_dir, &counter, &reference, MixedFactory);
  const uint64_t total_ops = counter.op_count();
  ASSERT_GT(total_ops, 20u);
  VerifyExactly(count_dir, reference, MixedFactory);
  std::filesystem::remove_all(count_dir);

  uint64_t fired = 0;
  for (uint64_t op = 0; op < total_ops; op += 3) {
    for (bool torn : {false, true}) {
      if (torn && op % 6 != 0) continue;
      SCOPED_TRACE("kill at op " + std::to_string(op) +
                   (torn ? " (torn write)" : " (clean cut)"));
      const std::string run_dir = dir_ + "/op" + std::to_string(op) +
                                  (torn ? "t" : "c");
      std::map<uint64_t, std::string> expected;
      FaultInjectionEnv fenv;
      fenv.CrashAtOp(op, torn);
      RunWorkload(run_dir, &fenv, &expected, MixedFactory);
      if (fenv.crashed()) ++fired;
      ASSERT_EQ(expected.size(), reference.size());
      // Verify under the single-backend policy on purpose: filter
      // blocks are self-describing, so recovery of a mixed tree must
      // not depend on reopening with the policy that built it.
      VerifyExactly(run_dir, expected, BloomFactory);
      std::filesystem::remove_all(run_dir);
    }
  }
  EXPECT_GT(fired, total_ops / 6) << "matrix barely exercised any crash";
}

TEST_F(CrashMatrixTest, ConcurrentJobsRecoverAtEveryOtherKillPoint) {
  // The parallel-scheduler matrix: the workload runs with two
  // compaction workers and forced subcompactions, so the crash can
  // land between one job's committed manifest edit and a concurrent
  // job's in-flight one, or mid-way through a job whose outputs came
  // from several subcompaction workers. The recovery bar is unchanged:
  // the manifest prefix plus surviving WAL must equal the reference
  // map exactly — a job whose edit never committed leaves only
  // orphaned SSTs, never visible state. Every other op (torn every
  // fourth) keeps the sweep affordable; the dense single-worker matrix
  // above covers the op-ordering space.
  std::map<uint64_t, std::string> reference;
  FaultInjectionEnv counter;
  const std::string count_dir = dir_ + "/count";
  RunWorkload(count_dir, &counter, &reference, BloomFactory,
              /*parallel=*/true);
  const uint64_t total_ops = counter.op_count();
  ASSERT_GT(total_ops, 20u);
  VerifyExactly(count_dir, reference);
  std::filesystem::remove_all(count_dir);

  uint64_t fired = 0;
  for (uint64_t op = 0; op < total_ops; op += 2) {
    for (bool torn : {false, true}) {
      if (torn && op % 4 != 0) continue;
      SCOPED_TRACE("kill at op " + std::to_string(op) +
                   (torn ? " (torn write)" : " (clean cut)"));
      const std::string run_dir = dir_ + "/op" + std::to_string(op) +
                                  (torn ? "t" : "c");
      std::map<uint64_t, std::string> expected;
      FaultInjectionEnv fenv;
      fenv.CrashAtOp(op, torn);
      RunWorkload(run_dir, &fenv, &expected, BloomFactory,
                  /*parallel=*/true);
      if (fenv.crashed()) ++fired;
      ASSERT_EQ(expected.size(), reference.size());
      {
        // Double fault: kill the recovery too, like the dense matrix.
        FaultInjectionEnv fenv2;
        fenv2.CrashAtOp(op % 5 + 1, /*torn=*/op % 4 == 2);
        Db db(WorkloadOptions(run_dir, &fenv2, BloomFactory,
                              /*parallel=*/true));
      }
      VerifyExactly(run_dir, expected);
      std::filesystem::remove_all(run_dir);
    }
  }
  EXPECT_GT(fired, total_ops / 4) << "matrix barely exercised any crash";
}

TEST_F(CrashMatrixTest, CrashedStoreSurvivesASecondCrashDuringRecovery) {
  // Double fault at a fixed, deep kill point (the dense matrix above
  // varies the recovery kill per op; this pins one reproducible case):
  // crash mid-workload with a torn write, crash again during the
  // recovery that follows — the third open must still see everything,
  // with every tombstone still in force.
  std::map<uint64_t, std::string> expected;
  {
    FaultInjectionEnv fenv;
    fenv.CrashAtOp(25, /*torn=*/true);
    RunWorkload(dir_ + "/db", &fenv, &expected);
    EXPECT_TRUE(fenv.crashed());
  }
  {
    // Recovery itself writes (snapshot manifest, CURRENT swap, tmp
    // cleanup): kill it a few ops in.
    FaultInjectionEnv fenv;
    fenv.CrashAtOp(3, /*torn=*/false);
    DbOptions options = WorkloadOptions(dir_ + "/db", &fenv);
    Db db(options);
  }
  VerifyExactly(dir_ + "/db", expected);
}

}  // namespace
}  // namespace bloomrf
