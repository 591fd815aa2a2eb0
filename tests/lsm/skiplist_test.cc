#include "lsm/skiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/random.h"

namespace bloomrf {
namespace {

// Values are opaque pointers to the list; for the unit tests we store
// pointers into an arena-allocated copy of a string.
const char* MakeValue(Arena* arena, const std::string& s) {
  char* buf = arena->AllocateAligned(s.size() + 1);
  std::memcpy(buf, s.data(), s.size() + 1);
  return buf;
}

TEST(SkipListTest, InsertGetOrdered) {
  Arena arena;
  SkipList list(&arena);
  EXPECT_EQ(list.Get(1), nullptr);
  const uint64_t keys[] = {5, 1, 9, 3, 7};
  for (uint64_t k : keys) {
    EXPECT_EQ(list.Insert(k, MakeValue(&arena, "v" + std::to_string(k))),
              nullptr);
  }
  for (uint64_t k : keys) {
    ASSERT_NE(list.Get(k), nullptr);
    EXPECT_EQ(std::string(list.Get(k)), "v" + std::to_string(k));
  }
  EXPECT_EQ(list.Get(2), nullptr);
  EXPECT_EQ(list.Get(100), nullptr);

  SkipList::Iterator it(&list);
  std::vector<uint64_t> seen;
  for (it.SeekToFirst(); it.Valid(); it.Next()) seen.push_back(it.key());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 5, 7, 9}));
}

TEST(SkipListTest, OverwriteReturnsOldValue) {
  Arena arena;
  SkipList list(&arena);
  EXPECT_EQ(list.Insert(42, MakeValue(&arena, "old")), nullptr);
  const char* old = list.Insert(42, MakeValue(&arena, "new"));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(std::string(old), "old");
  EXPECT_EQ(std::string(list.Get(42)), "new");

  SkipList::Iterator it(&list);
  it.SeekToFirst();
  ASSERT_TRUE(it.Valid());
  it.Next();
  EXPECT_FALSE(it.Valid());  // still a single node
}

TEST(SkipListTest, SeekLandsOnLowerBound) {
  Arena arena;
  SkipList list(&arena);
  for (uint64_t k = 10; k <= 100; k += 10) {
    list.Insert(k, MakeValue(&arena, "x"));
  }
  SkipList::Iterator it(&list);
  it.Seek(35);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 40u);
  it.Seek(40);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 40u);
  it.Seek(101);
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, ExtremeKeys) {
  Arena arena;
  SkipList list(&arena);
  list.Insert(0, MakeValue(&arena, "zero"));
  list.Insert(UINT64_MAX, MakeValue(&arena, "max"));
  EXPECT_EQ(std::string(list.Get(0)), "zero");
  EXPECT_EQ(std::string(list.Get(UINT64_MAX)), "max");
  SkipList::Iterator it(&list);
  it.SeekToFirst();
  EXPECT_EQ(it.key(), 0u);
}

TEST(SkipListTest, LargeRandomMatchesStdMap) {
  Arena arena;
  SkipList list(&arena);
  std::map<uint64_t, std::string> model;
  Rng rng(991);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Next() % 5000;  // plenty of overwrites
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    list.Insert(key, MakeValue(&arena, value));
  }
  SkipList::Iterator it(&list);
  auto mit = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(std::string(it.value()), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

// Multi-writer stress: disjoint key stripes plus a deliberately shared
// stripe, concurrent with readers. Run under TSan in CI.
TEST(SkipListTest, ConcurrentInsertStress) {
  Arena arena;
  SkipList list(&arena);
  const int kThreads = 4;
  const uint64_t kPerThread = 4000;
  const uint64_t kShared = 512;  // all threads fight over [0, kShared)

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Continuously iterate and point-read while writers insert; the
    // invariants: iteration is strictly ordered, values are intact.
    while (!stop.load(std::memory_order_acquire)) {
      SkipList::Iterator it(&list);
      uint64_t prev = 0;
      bool first = true;
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        if (!first) { ASSERT_GT(it.key(), prev); }
        prev = it.key();
        first = false;
        ASSERT_NE(it.value(), nullptr);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Private stripe, guaranteed-fresh keys.
        uint64_t own = 1'000'000 + static_cast<uint64_t>(t) * kPerThread + i;
        list.Insert(own, MakeValue(&arena, std::to_string(own)));
        // Shared stripe, guaranteed insert/insert and overwrite races.
        uint64_t shared = i % kShared;
        list.Insert(shared, MakeValue(&arena, std::to_string(shared)));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Every key present exactly once with an intact value.
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      uint64_t own = 1'000'000 + static_cast<uint64_t>(t) * kPerThread + i;
      ASSERT_NE(list.Get(own), nullptr) << own;
      EXPECT_EQ(std::string(list.Get(own)), std::to_string(own));
    }
  }
  size_t count = 0;
  uint64_t prev = 0;
  bool first = true;
  SkipList::Iterator it(&list);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (!first) { ASSERT_GT(it.key(), prev) << "duplicate or disorder"; }
    prev = it.key();
    first = false;
    ++count;
  }
  EXPECT_EQ(count, kShared + kThreads * kPerThread);
  for (uint64_t s = 0; s < kShared; ++s) {
    ASSERT_NE(list.Get(s), nullptr);
    // Any racing writer's value is acceptable; it must be one of them.
    EXPECT_EQ(std::string(list.Get(s)), std::to_string(s));
  }
}

}  // namespace
}  // namespace bloomrf
