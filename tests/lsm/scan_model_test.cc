// Db::RangeScan, ScanRange and RangeMayMatch against a std::map model.
// A seeded history of Put, overwrite, Delete, WriteBatch, Flush and
// CompactRange leaves live rows, overwrites and tombstones in the
// active memtable, in a sealed memtable whose flush keeps failing, in
// L0 and in L1 at once; every scan path must then return exactly the
// model's rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lsm/db.h"
#include "lsm/env.h"
#include "util/random.h"

namespace bloomrf {
namespace {

using Model = std::map<uint64_t, std::string>;
using Rows = std::vector<std::pair<uint64_t, std::string>>;

constexpr uint64_t kKeySpace = 3000;

/// The first `limit` model rows in [lo, hi].
Rows Expected(const Model& model, uint64_t lo, uint64_t hi, size_t limit) {
  Rows rows;
  if (lo > hi) return rows;
  for (auto it = model.lower_bound(lo);
       it != model.end() && it->first <= hi && rows.size() < limit; ++it) {
    rows.push_back(*it);
  }
  return rows;
}

/// Applies `n` random writes to `db` and `model`: puts of fresh and
/// present keys, deletes of present and absent keys, and WriteBatches
/// mixing both (applied in order, so a later op on a key wins).
void RandomWrites(Db* db, Model* model, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) {
    const uint64_t key = rng->Uniform(kKeySpace);
    const std::string value = "v" + std::to_string(rng->Next() % 100000);
    switch (rng->Uniform(4)) {
      case 0:
      case 1:
        ASSERT_TRUE(db->Put(key, value));
        (*model)[key] = value;
        break;
      case 2:
        ASSERT_TRUE(db->Delete(key));
        model->erase(key);
        break;
      default: {
        std::string values[3];
        WriteOp ops[3];
        for (size_t j = 0; j < 3; ++j) {
          values[j] = value + "." + std::to_string(j);
          ops[j] = {key + rng->Uniform(4), values[j], rng->Uniform(3) == 0};
        }
        ASSERT_TRUE(db->WriteBatch(ops));
        for (const WriteOp& op : ops) {
          if (op.is_delete) {
            model->erase(op.key);
          } else {
            (*model)[op.key] = std::string(op.value);
          }
        }
      }
    }
  }
}

/// Every scan path against the model: random ranges plus empty,
/// inverted, duplicate and whole-keyspace ones, at limits from 1 to
/// past the model's size; and RangeMayMatch over every live key.
void CheckScans(Db* db, const Model& model, Rng* rng) {
  std::vector<uint64_t> los, his;
  for (int i = 0; i < 24; ++i) {
    const uint64_t lo = rng->Uniform(kKeySpace + 100);
    los.push_back(lo);
    his.push_back(lo + rng->Uniform(uint64_t{1} << rng->Uniform(12)));
  }
  for (auto it = model.begin(); it != model.end(); ++it) {
    auto next = std::next(it);
    if (next != model.end() && next->first - it->first > 2) {
      los.push_back(it->first + 1);  // empty: strictly between two keys
      his.push_back(next->first - 1);
      break;
    }
  }
  los.push_back(kKeySpace + 10);  // empty: above every key
  his.push_back(kKeySpace + 500);
  los.push_back(900);  // inverted
  his.push_back(100);
  los.push_back(los[0]);  // duplicate
  his.push_back(his[0]);
  los.push_back(0);
  his.push_back(UINT64_MAX);

  const size_t n = model.size() + 1;
  for (size_t limit = 1;; limit = limit < 8 ? limit + 1 : limit * 2) {
    limit = std::min(limit, n);
    SCOPED_TRACE("limit " + std::to_string(limit));
    const auto batched = db->ScanRange(los, his, limit);
    ASSERT_EQ(batched.size(), los.size());
    for (size_t i = 0; i < los.size(); ++i) {
      const Rows expected = Expected(model, los[i], his[i], limit);
      ASSERT_EQ(batched[i], expected)
          << "ScanRange [" << los[i] << ", " << his[i] << "]";
      ASSERT_EQ(db->RangeScan(los[i], his[i], limit), expected)
          << "RangeScan [" << los[i] << ", " << his[i] << "]";
    }
    if (limit == n) break;
  }
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(db->RangeMayMatch(key, key)) << key;
    ASSERT_TRUE(db->RangeMayMatch(key < 5 ? 0 : key - 5, key + 5)) << key;
  }
}

class ScanModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_scan_model_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options(Env* env) {
    DbOptions options;
    options.dir = dir_;
    options.env = env;
    options.filter_policy = NewBloomRFPolicy(14.0, 1 << 12);
    options.block_size = 256;  // many blocks per table
    // Seals happen only at Flush, so the test decides where rows live.
    options.memtable_bytes = 1 << 20;
    options.background_flush = false;
    return options;
  }

  std::string dir_;
};

TEST_F(ScanModelTest, RandomHistoryMatchesMapModel) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(dir_);
    FaultInjectionEnv fenv;
    Db db(Options(&fenv));
    Model model;
    Rng rng(seed);
    for (int cycle = 0; cycle < 3; ++cycle) {
      // L1: the whole-file compaction of a random slice.
      ASSERT_NO_FATAL_FAILURE(RandomWrites(&db, &model, &rng, 400));
      const uint64_t begin = rng.Uniform(kKeySpace);
      ASSERT_TRUE(db.CompactRange(begin, begin + rng.Uniform(kKeySpace / 2)));
      // L0: two flushed memtables.
      ASSERT_NO_FATAL_FAILURE(RandomWrites(&db, &model, &rng, 300));
      ASSERT_TRUE(db.Flush());
      ASSERT_NO_FATAL_FAILURE(RandomWrites(&db, &model, &rng, 300));
      ASSERT_TRUE(db.Flush());
      // A sealed memtable whose flush fails, then the active memtable.
      ASSERT_NO_FATAL_FAILURE(RandomWrites(&db, &model, &rng, 200));
      fenv.FailAlways("sst");
      ASSERT_FALSE(db.Flush());
      ASSERT_NO_FATAL_FAILURE(RandomWrites(&db, &model, &rng, 200));
      const auto levels = db.level_table_counts();
      ASSERT_GE(levels.size(), 2u);
      ASSERT_GT(levels[0], 0u);
      ASSERT_GT(levels[1], 0u);
      ASSERT_NO_FATAL_FAILURE(CheckScans(&db, model, &rng));

      fenv.HealAll();
      ASSERT_TRUE(db.Flush());
      ASSERT_NO_FATAL_FAILURE(CheckScans(&db, model, &rng));
    }
  }
}

TEST_F(ScanModelTest, TombstonesBeyondLimitDoNotHideOlderRows) {
  // A newer source holds more than `limit` tombstones in front of the
  // older live rows of the range: the scan streams past all of them.
  Db db(Options(nullptr));
  Model model;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db.Put(k, "old" + std::to_string(k)));
    model[k] = "old" + std::to_string(k);
  }
  ASSERT_TRUE(db.Flush());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(db.Delete(k));
    model.erase(k);
  }
  auto check = [&] {
    for (size_t limit : {1, 10, 99, 100, 101, 150}) {
      const Rows expected = Expected(model, 0, 199, limit);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(db.RangeScan(0, 199, limit), expected) << limit;
      const uint64_t lo = 0, hi = 199;
      EXPECT_EQ(db.ScanRange({&lo, 1}, {&hi, 1}, limit)[0], expected)
          << limit;
    }
  };
  ASSERT_NO_FATAL_FAILURE(check());  // the tombstones sit in the memtable
  ASSERT_TRUE(db.Flush());
  ASSERT_NO_FATAL_FAILURE(check());  // ... in a newer L0 table
  for (uint64_t k = 100; k < 150; ++k) {
    ASSERT_TRUE(db.Delete(k));
    model.erase(k);
  }
  ASSERT_NO_FATAL_FAILURE(check());  // ... and in both
}

}  // namespace
}  // namespace bloomrf
