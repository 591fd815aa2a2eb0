// Concurrency equivalence suite for the snapshot-read / background-
// flush engine: readers run Get/MultiGet/ScanRange against a Db (and
// ShardedDb) while a writer Puts through many background flushes.
// Invariants checked from the reader side:
//  - a key published before the read started is always found, with one
//    of its legal values (never a torn/partial value, never "lost"
//    while its memtable moves active -> sealed -> SST);
//  - range scans return exactly the written keys in the range (no
//    phantoms, no gaps below the publication watermark);
// and afterwards the concurrent-written store must match a
// single-threaded replay of the same operations row for row.
// A reader observing a partially published Version would trip these
// (missing sealed data or duplicated/absent tables). Readers sharing
// one Db must also leave its filter probe counts exact.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "filters/registry.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

std::string ValueFor(uint64_t key, int pass) {
  return "p" + std::to_string(pass) + ":" + std::to_string(key);
}

class ConcurrentDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_concurrent_db_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Shared scenario: one writer inserts `keys` in two passes (insert,
// then overwrite with the pass-2 value), sealing through many
// background flushes; `num_readers` threads continuously Get/MultiGet/
// ScanRange and check the invariants above. Returns after both passes
// completed and every reader ran to the end.
template <typename Engine>
void RunWriterReaderScenario(Engine* db, const std::vector<uint64_t>& keys,
                             int num_readers) {
  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());

  // written[0..watermark) are guaranteed present (release/acquire pairs
  // with the reader's load). pass2_watermark likewise for overwrites.
  std::atomic<size_t> watermark{0};
  std::atomic<size_t> pass2_watermark{0};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(db->Put(keys[i], ValueFor(keys[i], 1)));
      watermark.store(i + 1, std::memory_order_release);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(db->Put(keys[i], ValueFor(keys[i], 2)));
      pass2_watermark.store(i + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xc0ffee + static_cast<uint64_t>(t));
      std::string value;
      int rounds = 0;
      while (!done.load(std::memory_order_acquire) || rounds < 3) {
        ++rounds;
        size_t w = watermark.load(std::memory_order_acquire);
        size_t w2 = pass2_watermark.load(std::memory_order_acquire);
        if (w == 0) continue;

        // Point reads: published keys must be found with a legal value.
        for (int q = 0; q < 32; ++q) {
          size_t i = rng.Uniform(w);
          ASSERT_TRUE(db->Get(keys[i], &value)) << "lost key " << keys[i];
          if (i < w2) {
            ASSERT_EQ(value, ValueFor(keys[i], 2));
          } else {
            ASSERT_TRUE(value == ValueFor(keys[i], 1) ||
                        value == ValueFor(keys[i], 2))
                << "torn value " << value;
          }
        }

        // Batched point reads, mixing published keys and misses.
        std::vector<uint64_t> probe;
        for (int q = 0; q < 48; ++q) {
          probe.push_back((q % 3 == 2) ? rng.Next()
                                       : keys[rng.Uniform(w)]);
        }
        auto batch = db->MultiGet(probe);
        ASSERT_EQ(batch.size(), probe.size());
        for (size_t j = 0; j < probe.size(); ++j) {
          if (j % 3 == 2) continue;  // random probe: either answer ok
          ASSERT_TRUE(batch[j].has_value()) << "lost key " << probe[j];
          ASSERT_TRUE(*batch[j] == ValueFor(probe[j], 1) ||
                      *batch[j] == ValueFor(probe[j], 2));
        }

        // Range scans: rows are exactly written keys, no phantoms; and
        // every key published before the scan that falls inside the
        // range must appear (limit set beyond the range population).
        size_t at = rng.Uniform(sorted.size() - 64);
        uint64_t lo = sorted[at], hi = sorted[at + 63];
        std::vector<uint64_t> los{lo}, his{hi};
        auto scans = db->ScanRange(los, his, sorted.size());
        ASSERT_EQ(scans.size(), 1u);
        const auto& rows = scans[0];
        for (size_t j = 0; j < rows.size(); ++j) {
          ASSERT_GE(rows[j].first, lo);
          ASSERT_LE(rows[j].first, hi);
          if (j > 0) { ASSERT_LT(rows[j - 1].first, rows[j].first); }
          ASSERT_TRUE(rows[j].second == ValueFor(rows[j].first, 1) ||
                      rows[j].second == ValueFor(rows[j].first, 2))
              << "phantom row " << rows[j].first;
        }
        // Keys published before the scan started and inside [lo, hi]
        // must all be present.
        size_t found = 0;
        for (size_t i = 0; i < w; ++i) {
          if (keys[i] < lo || keys[i] > hi) continue;
          bool present = false;
          for (const auto& row : rows) {
            if (row.first == keys[i]) { present = true; break; }
          }
          ASSERT_TRUE(present) << "scan missed published key " << keys[i];
          ++found;
        }
        (void)found;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
}

// Replays the same two write passes single-threaded (no background
// flush) and demands row-for-row equality with the concurrent engine.
void ExpectMatchesReplay(Db* concurrent, const std::vector<uint64_t>& keys,
                         const std::string& replay_dir,
                         std::shared_ptr<FilterPolicy> policy,
                         uint64_t memtable_bytes) {
  DbOptions options;
  options.dir = replay_dir;
  options.filter_policy = std::move(policy);
  options.memtable_bytes = memtable_bytes;
  options.background_flush = false;
  Db replay(options);
  for (uint64_t k : keys) ASSERT_TRUE(replay.Put(k, ValueFor(k, 1)));
  for (uint64_t k : keys) ASSERT_TRUE(replay.Put(k, ValueFor(k, 2)));
  ASSERT_TRUE(replay.Flush());

  std::vector<uint64_t> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  uint64_t lo = sorted.front(), hi = sorted.back();
  auto expect = replay.RangeScan(lo, hi, sorted.size() + 10);
  auto got = concurrent->RangeScan(lo, hi, sorted.size() + 10);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i].first, expect[i].first) << i;
    ASSERT_EQ(got[i].second, expect[i].second) << i;
  }
  EXPECT_EQ(concurrent->MultiGet(keys), replay.MultiGet(keys));
}

TEST_F(ConcurrentDbTest, ReadersSeeConsistentStateThroughManyFlushes) {
  DbOptions options;
  options.dir = dir_ + "/db";
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.memtable_bytes = 8 << 10;  // many seals/flushes per pass
  Db db(options);

  Dataset data = MakeDataset(6000, Distribution::kUniform, 91);
  RunWriterReaderScenario(&db, data.keys, /*num_readers=*/4);
  ASSERT_TRUE(db.Flush());
  EXPECT_GT(db.num_tables(), 4u);  // the scenario really flushed a lot

  ExpectMatchesReplay(&db, data.keys, dir_ + "/replay",
                      NewBloomRFPolicy(18.0, 1e6), 8 << 10);
}

TEST_F(ConcurrentDbTest, ShardedReadersSeeConsistentState) {
  ShardedDbOptions options;
  options.dir = dir_ + "/sharded";
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.num_shards = 4;
  options.memtable_bytes = 4 << 10;
  ShardedDb db(options);

  Dataset data = MakeDataset(5000, Distribution::kUniform, 92);
  RunWriterReaderScenario(&db, data.keys, /*num_readers=*/4);
  ASSERT_TRUE(db.Flush());
  EXPECT_GT(db.num_tables(), 4u);
}

TEST_F(ConcurrentDbTest, ConcurrentWritersThroughPut) {
  // Multiple writer threads over disjoint key stripes; Put serializes
  // internally and no write may be lost across the seal handoff.
  DbOptions options;
  options.dir = dir_ + "/db";
  options.filter_policy = NewBloomPolicy(12.0);
  options.memtable_bytes = 8 << 10;
  Db db(options);

  Dataset data = MakeDataset(8000, Distribution::kUniform, 93);
  const int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < data.keys.size();
           i += kWriters) {
        ASSERT_TRUE(db.Put(data.keys[i], ValueFor(data.keys[i], 1)));
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_TRUE(db.Flush());
  std::string value;
  for (uint64_t k : data.keys) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, ValueFor(k, 1));
  }
}

TEST_F(ConcurrentDbTest, WaitForFlushDrainsQueuedSeals) {
  DbOptions options;
  options.dir = dir_ + "/db";
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 4 << 10;
  Db db(options);
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(db.Put(k, "0123456789abcdef"));
  }
  ASSERT_TRUE(db.Flush());
  // After the drain every sealed memtable became an SST: a fresh
  // snapshot must hold tables only.
  EXPECT_GT(db.num_tables(), 2u);
  EXPECT_EQ(db.flush_stats().sst_files, db.num_tables());
  std::string value;
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(db.Get(k, &value));
}

// Regression: seals racing each other must queue for flush in the
// order they happened. Flushed out of order, an older memtable's SST
// installs above a newer one's, so an overwritten value shadows its
// successor, and the newer flush's log deletion drops the older
// memtable's writes. Writers overwrite their own keys in 512-byte
// memtables (a seal every few writes) while other threads call
// Flush(); every key must read its last acknowledged value while the
// writers run, after they stop, and after a reopen. The race is
// narrow, so fresh rounds repeat for about two seconds.
TEST_F(ConcurrentDbTest, OverwritesSurviveSealsRacingFlushes) {
  constexpr uint64_t kWriters = 6;
  constexpr uint64_t kKeysPerWriter = 16;
  constexpr uint64_t kWritesPerWriter = 200;
  constexpr int kFlushers = 2;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  int rounds = 0;
  int stale_rounds = 0;
  std::string first_stale;
  while (rounds < 2 || std::chrono::steady_clock::now() < deadline) {
    ++rounds;
    DbOptions options;
    options.dir = dir_ + "/round";
    options.filter_policy = NewBloomPolicy(10.0);
    options.memtable_bytes = 512;
    std::filesystem::remove_all(options.dir);
    // last[key] is the value of the key's last acknowledged Put; each
    // writer owns its keys, so it reads its own writes back exactly.
    std::vector<std::string> last(kWriters * kKeysPerWriter);
    std::atomic<uint64_t> stale{0};
    std::atomic<uint64_t> failed_writes{0};
    std::string stale_note;
    std::mutex note_mu;
    auto note = [&](uint64_t key, const std::string& got, const char* when) {
      ++stale;
      std::lock_guard<std::mutex> lock(note_mu);
      if (stale_note.empty()) {
        stale_note = std::string(when) + ": key " + std::to_string(key) +
                     " read '" + got + "', want '" + last[key] + "'";
      }
    };
    auto check_all = [&](Db& db, const char* when) {
      std::string value;
      for (uint64_t key = 0; key < last.size(); ++key) {
        if (!db.Get(key, &value) || value != last[key]) note(key, value, when);
      }
    };
    {
      Db db(options);
      std::atomic<bool> writing{true};
      std::atomic<uint64_t> failed_flushes{0};
      std::vector<std::thread> flushers;
      for (int f = 0; f < kFlushers; ++f) {
        flushers.emplace_back([&] {
          while (writing.load(std::memory_order_acquire)) {
            if (!db.Flush()) ++failed_flushes;
          }
        });
      }
      std::vector<std::thread> writers;
      for (uint64_t t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
          std::string value;
          for (uint64_t i = 0; i < kWritesPerWriter; ++i) {
            const uint64_t key = t * kKeysPerWriter + i % kKeysPerWriter;
            const std::string put = "w" + std::to_string(t) + "-" +
                                    std::to_string(i) + std::string(24, 'x');
            if (!db.Put(key, put)) {
              ++failed_writes;
              continue;
            }
            last[key] = put;
            if (!db.Get(key, &value) || value != put) {
              note(key, value, "read-your-write");
            }
          }
        });
      }
      for (auto& writer : writers) writer.join();
      writing.store(false, std::memory_order_release);
      for (auto& flusher : flushers) flusher.join();
      EXPECT_EQ(failed_flushes.load(), 0u);
      EXPECT_TRUE(db.Flush());
      check_all(db, "after the run");
    }
    {
      Db db(options);
      check_all(db, "after reopen");
    }
    ASSERT_EQ(failed_writes.load(), 0u);
    if (stale.load() > 0) {
      ++stale_rounds;
      if (first_stale.empty()) first_stale = stale_note;
    }
  }
  EXPECT_EQ(stale_rounds, 0) << "stale reads in " << stale_rounds << " of "
                             << rounds << " rounds; first: " << first_stale;
}

// Readers sharing one Db add their filter probes to stats() once per
// call (point probes per Get/MultiGet, range probes per table per
// batch); the Db-wide counts must stay exact under concurrency and
// agree with the per-table outcome counters.
TEST_F(ConcurrentDbTest, ProbeCountsStayExactUnderConcurrentReaders) {
  DbOptions options;
  options.dir = dir_ + "/db";
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  Db db(options);  // compaction is off: every flush stays an L0 table

  const size_t kTables = 5;
  Dataset data = MakeDataset(5000, Distribution::kUniform, 95);
  const size_t per_table = data.keys.size() / kTables;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_TRUE(db.Put(data.keys[i], MakeValue(data.keys[i], 16)));
    if ((i + 1) % per_table == 0) {
      ASSERT_TRUE(db.Flush());
    }
  }
  ASSERT_EQ(db.level_table_counts()[0], kTables);

  // The same fixed read mix on every thread: Gets (half present),
  // 32-key MultiGets, 16-range ScanRanges and RangeMayMatch.
  auto run_mix = [&db, &data] {
    Rng rng(96);
    auto point = [&](size_t i) {
      return i % 2 == 0 ? data.keys[rng.Uniform(data.keys.size())]
                        : rng.Next();
    };
    std::string value;
    std::vector<uint64_t> batch(32), los(16), his(16);
    for (int round = 0; round < 20; ++round) {
      for (size_t i = 0; i < 16; ++i) {
        const uint64_t key = point(i);
        const bool found = db.Get(key, &value);
        if (i % 2 == 0) {
          EXPECT_TRUE(found) << key;
        }
      }
      for (size_t i = 0; i < batch.size(); ++i) batch[i] = point(i);
      db.MultiGet(batch);
      for (size_t r = 0; r < los.size(); ++r) {
        los[r] = rng.Next() >> 1;
        his[r] = los[r] + rng.Uniform(1 << 20);
      }
      db.ScanRange(los, his, 8);
      const uint64_t lo = rng.Next() >> 1;
      db.RangeMayMatch(lo, lo + rng.Uniform(1 << 16));
    }
  };

  // Db-wide counters next to the per-table outcomes summed over
  // backends; only deltas are compared, as ResetStats keeps outcomes.
  struct Counts {
    uint64_t probes = 0, negatives = 0;
    uint64_t outcome_probes = 0, outcome_negatives = 0;
  };
  auto snapshot = [&db] {
    Counts c;
    c.probes = db.stats().filter_probes.load(std::memory_order_relaxed);
    c.negatives = db.stats().filter_negatives.load(std::memory_order_relaxed);
    for (const BackendObservation& obs :
         db.CollectFilterFeedback().backends) {
      c.outcome_probes += obs.point_allowed + obs.point_negatives +
                          obs.range_allowed + obs.range_negatives;
      c.outcome_negatives += obs.point_negatives + obs.range_negatives;
    }
    return c;
  };
  auto delta = [](const Counts& before, const Counts& after) {
    return Counts{after.probes - before.probes,
                  after.negatives - before.negatives,
                  after.outcome_probes - before.outcome_probes,
                  after.outcome_negatives - before.outcome_negatives};
  };

  Counts before = snapshot();
  run_mix();
  const Counts one = delta(before, snapshot());
  ASSERT_GT(one.negatives, 0u);
  ASSERT_GT(one.probes, one.negatives);
  EXPECT_EQ(one.probes, one.outcome_probes);
  EXPECT_EQ(one.negatives, one.outcome_negatives);

  const int kReaders = 4;
  db.ResetStats();
  before = snapshot();
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      run_mix();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  const Counts all = delta(before, snapshot());
  EXPECT_EQ(all.probes, kReaders * one.probes);
  EXPECT_EQ(all.probes, all.outcome_probes);
  EXPECT_EQ(all.negatives, kReaders * one.negatives);
  EXPECT_EQ(all.negatives, all.outcome_negatives);
}

// ShardedDb and Db must answer identically for every registered filter
// backend (the whole registry, plus no filter at all).
TEST_F(ConcurrentDbTest, ShardedMatchesPlainDbAcrossAllBackends) {
  Dataset data = MakeDataset(2500, Distribution::kUniform, 94);
  std::vector<uint64_t> probe;
  for (size_t i = 0; i < 600; ++i) probe.push_back(data.keys[i]);
  for (size_t i = 0; i < 200; ++i) probe.push_back(data.keys[i] + 1);
  std::vector<uint64_t> los, his;
  for (size_t q = 0; q < 24; ++q) {
    los.push_back(data.sorted_keys[q * 100]);
    his.push_back(data.sorted_keys[q * 100 + 30]);
  }

  std::vector<std::string> backends = FilterRegistry::Instance().Names();
  backends.push_back("");  // no filter
  int idx = 0;
  for (const std::string& name : backends) {
    std::string subdir = dir_ + "/b" + std::to_string(idx++);
    auto policy = name.empty()
                      ? nullptr
                      : std::shared_ptr<FilterPolicy>(NewRegistryPolicy(name));

    DbOptions plain_options;
    plain_options.dir = subdir + "/plain";
    plain_options.filter_policy = policy;
    plain_options.memtable_bytes = 16 << 10;
    Db plain(plain_options);

    ShardedDbOptions sharded_options;
    sharded_options.dir = subdir + "/sharded";
    sharded_options.filter_policy = policy;
    sharded_options.num_shards = 4;
    sharded_options.memtable_bytes = 8 << 10;
    ShardedDb sharded(sharded_options);

    for (uint64_t k : data.keys) {
      ASSERT_TRUE(plain.Put(k, MakeValue(k, 20)));
      ASSERT_TRUE(sharded.Put(k, MakeValue(k, 20)));
    }
    ASSERT_TRUE(plain.Flush());
    ASSERT_TRUE(sharded.Flush());

    EXPECT_EQ(sharded.MultiGet(probe), plain.MultiGet(probe))
        << "backend '" << name << "'";
    auto sharded_scans = sharded.ScanRange(los, his, 128);
    auto plain_scans = plain.ScanRange(los, his, 128);
    ASSERT_EQ(sharded_scans.size(), plain_scans.size());
    for (size_t i = 0; i < plain_scans.size(); ++i) {
      EXPECT_EQ(sharded_scans[i], plain_scans[i])
          << "backend '" << name << "' range " << i;
    }
  }
}

}  // namespace
}  // namespace bloomrf
