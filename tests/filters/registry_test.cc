// Registry-parameterized round-trip tests: every backend in the table
// must build from sorted keys, serialize through the common framing,
// deserialize back through the registry, and answer identically —
// with no false negatives — on both point and range probes.

#include "filters/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed) {
  auto keyset = RandomKeySet(n, seed);
  return {keyset.begin(), keyset.end()};
}

FilterBuildParams TestParams() {
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1 << 12;
  return params;
}

TEST(FilterRegistryTest, ListsAllBuiltinBackends) {
  auto names = FilterRegistry::Instance().Names();
  std::set<std::string> have(names.begin(), names.end());
  for (const char* expected :
       {"bloomrf", "bloom", "blocked_bloom", "prefix_bloom", "cuckoo",
        "rosetta", "surf", "fence_pointers"}) {
    EXPECT_EQ(have.count(expected), 1u) << expected;
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(FilterRegistryTest, BuiltinTableIsWellFormed) {
  const FilterRegistry& registry = FilterRegistry::Instance();
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Find resolves keys and display names alike, so the two share one
  // namespace: a repeat in either would hide an entry.
  std::set<std::string> taken;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const FilterRegistry::Entry* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->name, name);
    for (const std::string& id : {entry->name, entry->display_name}) {
      EXPECT_FALSE(id.empty());
      EXPECT_LE(id.size(), 64u);  // the frame parser's name limit
      EXPECT_TRUE(taken.insert(id).second) << id << " repeats";
    }
    EXPECT_TRUE(entry->build_from_sorted_keys);
    EXPECT_TRUE(entry->deserialize);
  }
}

TEST(FilterRegistryTest, FindResolvesKeyAndDisplayName) {
  auto& registry = FilterRegistry::Instance();
  const auto* by_key = registry.Find("bloomrf");
  ASSERT_NE(by_key, nullptr);
  EXPECT_EQ(by_key->display_name, "bloomRF");
  EXPECT_EQ(registry.Find("bloomRF"), by_key);
  EXPECT_EQ(registry.Find("no_such_filter"), nullptr);
  EXPECT_EQ(registry.BuildFramed("no_such_filter", {1, 2}, TestParams()), "");
}

TEST(FilterRegistryTest, RoundTripIdenticalAnswersEveryBackend) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(5000, 301);
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);
    auto built = entry->build_from_sorted_keys(keys, TestParams());
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->Name(), entry->display_name);

    std::string framed = registry.BuildFramed(name, keys, TestParams());
    EXPECT_EQ(framed, FilterRegistry::Frame(entry->name, built->Serialize()));
    auto restored = registry.Deserialize(framed);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->Name(), entry->display_name);
    EXPECT_EQ(restored->MemoryBits(), built->MemoryBits());

    // No false negatives, before and after the round trip.
    for (uint64_t k : keys) {
      ASSERT_TRUE(built->MayContain(k)) << k;
      ASSERT_TRUE(restored->MayContain(k)) << k;
      uint64_t hi = k + 100 > k ? k + 100 : k;
      ASSERT_TRUE(built->MayContainRange(k, hi)) << k;
      ASSERT_TRUE(restored->MayContainRange(k, hi)) << k;
    }

    // Identical answers on arbitrary probes, positive or negative.
    Rng rng(302);
    for (int i = 0; i < 5000; ++i) {
      uint64_t y = rng.Next();
      ASSERT_EQ(restored->MayContain(y), built->MayContain(y)) << y;
      uint64_t hi = y + 1000 > y ? y + 1000 : y;
      ASSERT_EQ(restored->MayContainRange(y, hi),
                built->MayContainRange(y, hi))
          << y;
    }
  }
}

TEST(FilterRegistryTest, BatchProbeMatchesScalarProbe) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(2000, 303);
  std::vector<uint64_t> probes = SortedKeys(512, 304);
  probes.insert(probes.end(), keys.begin(), keys.begin() + 256);
  std::vector<bool> expected(probes.size());
  auto got = std::make_unique<bool[]>(probes.size());
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    auto built =
        registry.Find(name)->build_from_sorted_keys(keys, TestParams());
    ASSERT_NE(built, nullptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      expected[i] = built->MayContain(probes[i]);
    }
    built->MayContainBatch(probes, got.get());
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << i;
    }
  }
}

TEST(FilterRegistryTest, OnlineBuildHasNoFalseNegatives) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(3000, 305);
  FilterBuildParams params = TestParams();
  params.expected_keys = keys.size();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    if (entry->build_online == nullptr) continue;  // offline-only
    auto filter = entry->build_online(params);
    ASSERT_NE(filter, nullptr);
    for (uint64_t k : keys) filter->Insert(k);
    for (uint64_t k : keys) ASSERT_TRUE(filter->MayContain(k)) << k;
  }
}

TEST(FilterRegistryTest, BloomRFEntryBuildsTheAdvisedConfig) {
  // The entry hands the params, histogram included, to the tuning
  // advisor at the keys' own domain (based at the smallest key, as wide
  // as their span): its block is the advised BloomRF's, whatever the
  // widths and wherever the keys sit.
  std::vector<std::vector<uint64_t>> key_sets = {SortedKeys(3000, 308)};
  key_sets.emplace_back();  // 3000 keys in a 2^40-wide slice near the top
  for (uint64_t k : RandomKeySet(3000, 309, uint64_t{1} << 40)) {
    key_sets.back().push_back(UINT64_MAX - (uint64_t{1} << 41) + k);
  }
  std::vector<std::vector<double>> histograms = {
      {},                                  // scalar max_range
      {0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5},  // bimodal 4 / 64
      std::vector<double>(41, 1.0 / 41),   // every width up to 2^40
  };
  histograms.emplace_back(21, 0.0);
  histograms.back()[20] = 1.0;  // all mass at 2^20
  for (const std::vector<uint64_t>& keys : key_sets) {
    const KeyDomain domain = KeyDomainOf(keys);
    EXPECT_EQ(domain.key_base, keys.front());
    for (const std::vector<double>& weights : histograms) {
      SCOPED_TRACE(::testing::Message() << "domain bits "
                                        << domain.domain_bits << " weights "
                                        << weights.size());
      FilterBuildParams params = TestParams();
      params.range_weights = weights;
      AdvisorParams advisor;
      advisor.n = keys.size();
      advisor.total_bits =
          static_cast<uint64_t>(params.bits_per_key * keys.size());
      advisor.max_range = params.max_range;
      advisor.domain_bits = domain.domain_bits;
      advisor.range_weights = weights;
      BloomRFConfig config = AdviseConfig(advisor).config;
      config.key_base = domain.key_base;
      BloomRF expected(config);
      for (uint64_t k : keys) expected.Insert(k);
      EXPECT_EQ(
          FilterRegistry::Instance().BuildFramed("bloomrf", keys, params),
          FilterRegistry::Frame("bloomrf", expected.Serialize()));
    }
  }
}

TEST(FilterRegistryTest, FramingRejectsCorruptBlocks) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(500, 306);
  std::string framed = registry.BuildFramed("bloomrf", keys, TestParams());
  ASSERT_NE(registry.Deserialize(framed), nullptr);

  EXPECT_EQ(registry.Deserialize(""), nullptr);
  EXPECT_EQ(registry.Deserialize("garbage"), nullptr);
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    EXPECT_EQ(registry.Deserialize(framed.substr(0, cut)), nullptr) << cut;
  }
  // A frame naming an unregistered backend is rejected even with a
  // plausible payload.
  std::string_view name, payload;
  ASSERT_TRUE(FilterRegistry::ParseFrame(framed, &name, &payload));
  EXPECT_EQ(registry.Deserialize(
                FilterRegistry::Frame("not_registered", payload)),
            nullptr);
}

// Lookups, builds and loads run at every table open and filter build,
// from flush, compaction and reader threads at once, and take no lock:
// the table never changes. Four threads must each get the answers of a
// one-thread pass.
TEST(FilterRegistryTest, ConcurrentUseMatchesOneThread) {
  const FilterRegistry& registry = FilterRegistry::Instance();
  const auto keys = SortedKeys(2000, 309);
  const auto probes = SortedKeys(256, 310);
  struct Answers {
    std::vector<const FilterRegistry::Entry*> by_key, by_display;
    std::vector<std::string> blocks, reserialized;
    std::vector<bool> probe_answers;
  };
  auto run = [&] {
    Answers a;
    for (const std::string& name : registry.Names()) {
      const FilterRegistry::Entry* entry = registry.Find(name);
      a.by_key.push_back(entry);
      a.by_display.push_back(registry.Find(entry->display_name));
      a.blocks.push_back(registry.BuildFramed(name, keys, TestParams()));
      auto restored = registry.Deserialize(a.blocks.back());
      a.reserialized.push_back(restored == nullptr ? ""
                                                   : restored->Serialize());
      for (uint64_t y : probes) {
        a.probe_answers.push_back(restored != nullptr &&
                                  restored->MayContain(y));
        a.probe_answers.push_back(restored != nullptr &&
                                  restored->MayContainRange(y, y | 0xfff));
      }
    }
    return a;
  };

  const Answers expected = run();
  ASSERT_EQ(expected.blocks.size(), 8u);
  for (size_t i = 0; i < expected.blocks.size(); ++i) {
    ASSERT_NE(expected.by_key[i], nullptr);
    ASSERT_FALSE(expected.blocks[i].empty());
    ASSERT_FALSE(expected.reserialized[i].empty());
  }
  std::vector<Answers> got(4);
  std::vector<std::thread> threads;
  for (Answers& g : got) threads.emplace_back([&g, &run] { g = run(); });
  for (std::thread& t : threads) t.join();
  for (const Answers& g : got) {
    EXPECT_EQ(g.by_key, expected.by_key);
    EXPECT_EQ(g.by_display, expected.by_key);
    EXPECT_EQ(g.blocks, expected.blocks);
    EXPECT_EQ(g.reserialized, expected.reserialized);
    EXPECT_EQ(g.probe_answers, expected.probe_answers);
  }
}

}  // namespace
}  // namespace bloomrf
