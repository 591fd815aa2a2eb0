// Planned/batched probe throughput vs the scalar loop, plus LSM
// MultiGet vs N×Get with the shared block cache.
//
// Point probes: for each online backend (bloomRF, Bloom, BlockedBloom,
// PrefixBloom, Cuckoo), probes the same query mix through the scalar
// virtual loop and through the planned MayContainBatch (plan and
// prefetch a stripe, then test in scalar code) in chunks, and reports
// Mops + speedup. Range probes: every range-capable backend (bloomRF's
// lockstep-planned descent, Rosetta, PrefixBloom, SuRF) through
// MayContainRangeBatch vs the scalar MayContainRange loop. Before the
// timed runs, one untimed pass per backend compares the batch and
// scalar answers position by position and exits 1 at the first
// mismatch. LSM: a multi-SST store probed key-at-a-time vs MultiGet,
// then a second MultiGet pass over the same keys to show block-cache
// hits.
//
// Defaults build a filter well past L2 size (8M keys at 20 bits/key
// = 20 MB for bloomRF) so the prefetch pipeline, not the cache, is
// measured. Writes BENCH_batch_probe.json (override with --out=PATH)
// including the host's widest vector ISA (`simd`) and conservative
// `guard` floors (0.8x of this run's measured bloomRF speedups) that
// the CI perf-guard step compares its own smoke run against; --smoke
// shrinks everything for CI. Guard floors in the committed JSON come
// from a full-scale run, so refresh them (rerun this bench) when
// moving to hardware with a very different cache hierarchy.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "filters/registry.h"
#include "lsm/db.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace bloomrf {
namespace {

using bench::Mops;

constexpr size_t kBatchChunk = 4096;

struct PointResult {
  std::string name;
  double scalar_mops = 0;
  double batch_mops = 0;
  double speedup = 0;
};

// 50% inserted keys / 50% uniform random probes, shuffled.
std::vector<uint64_t> MakeQueryMix(const std::vector<uint64_t>& keys,
                                   uint64_t queries, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out;
  out.reserve(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    out.push_back((q & 1) ? keys[rng.Uniform(keys.size())] : rng.Next());
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  return out;
}

PointResult BenchPointBackend(const std::string& name,
                              const std::vector<uint64_t>& keys,
                              const std::vector<uint64_t>& queries,
                              double bits_per_key) {
  const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
  FilterBuildParams params;
  params.expected_keys = keys.size();
  params.bits_per_key = bits_per_key;
  auto filter = entry->build_online(params);
  for (uint64_t k : keys) filter->Insert(k);

  PointResult result;
  result.name = name;

  // Untimed answer check: the batch must give the scalar answer at
  // every position, not just the same number of positives.
  auto out = std::make_unique<bool[]>(kBatchChunk);
  for (size_t base = 0; base < queries.size(); base += kBatchChunk) {
    size_t n = std::min(kBatchChunk, queries.size() - base);
    filter->MayContainBatch({queries.data() + base, n}, out.get());
    for (size_t j = 0; j < n; ++j) {
      if (out[j] != filter->MayContain(queries[base + j])) {
        std::fprintf(stderr,
                     "BUG: %s point batch/scalar disagree at index %zu "
                     "(key %" PRIu64 ")\n",
                     name.c_str(), base + j, queries[base + j]);
        std::exit(1);
      }
    }
  }

  // Best of two timed runs per mode: the first run doubles as warmup,
  // and taking the max Mops trims one-sided scheduler noise equally
  // from both sides of the speedup ratio.
  uint64_t scalar_positives = 0;
  Timer timer;
  for (int run = 0; run < 2; ++run) {
    // Scalar: one virtual MayContain per key, the pre-PR hot loop.
    scalar_positives = 0;
    timer.Restart();
    for (uint64_t q : queries) scalar_positives += filter->MayContain(q);
    result.scalar_mops =
        std::max(result.scalar_mops, Mops(queries.size(), timer.ElapsedSeconds()));
  }

  // Batched: plan + prefetch + scalar probe, one chunk at a time.
  uint64_t batch_positives = 0;
  for (int run = 0; run < 2; ++run) {
    batch_positives = 0;
    timer.Restart();
    for (size_t base = 0; base < queries.size(); base += kBatchChunk) {
      size_t n = std::min(kBatchChunk, queries.size() - base);
      filter->MayContainBatch({queries.data() + base, n}, out.get());
      for (size_t j = 0; j < n; ++j) batch_positives += out[j];
    }
    result.batch_mops =
        std::max(result.batch_mops, Mops(queries.size(), timer.ElapsedSeconds()));
  }
  result.speedup =
      result.scalar_mops > 0 ? result.batch_mops / result.scalar_mops : 0;

  if (scalar_positives != batch_positives) {
    std::fprintf(stderr, "BUG: %s scalar/batch disagree (%" PRIu64
                 " vs %" PRIu64 ")\n",
                 name.c_str(), scalar_positives, batch_positives);
    std::exit(1);
  }
  std::printf("  %-14s scalar %7.2f Mops   batched %7.2f Mops   %.2fx\n",
              name.c_str(), result.scalar_mops, result.batch_mops,
              result.speedup);
  return result;
}

struct RangeResult {
  std::string name;
  double scalar_mops = 0;
  double batch_mops = 0;
  double speedup = 0;
};

RangeResult BenchRangeBackend(const std::string& name,
                              const std::vector<uint64_t>& keys,
                              const std::vector<uint64_t>& sorted_keys,
                              const std::vector<uint64_t>& los,
                              const std::vector<uint64_t>& his,
                              double bits_per_key, double max_range) {
  const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
  FilterBuildParams params;
  params.expected_keys = keys.size();
  params.bits_per_key = bits_per_key;
  params.max_range = max_range;
  std::unique_ptr<PointRangeFilter> filter;
  if (entry->online) {
    auto online = entry->build_online(params);
    for (uint64_t k : keys) online->Insert(k);
    filter = std::move(online);
  } else {
    filter = entry->build_from_sorted_keys(sorted_keys, params);
  }

  RangeResult result;
  result.name = name;

  // Untimed answer check, as for points.
  auto out = std::make_unique<bool[]>(kBatchChunk);
  for (size_t base = 0; base < los.size(); base += kBatchChunk) {
    size_t n = std::min(kBatchChunk, los.size() - base);
    filter->MayContainRangeBatch({los.data() + base, n},
                                 {his.data() + base, n}, out.get());
    for (size_t j = 0; j < n; ++j) {
      if (out[j] != filter->MayContainRange(los[base + j], his[base + j])) {
        std::fprintf(stderr,
                     "BUG: %s range batch/scalar disagree at index %zu "
                     "([%" PRIu64 ", %" PRIu64 "])\n",
                     name.c_str(), base + j, los[base + j], his[base + j]);
        std::exit(1);
      }
    }
  }

  // Best of three timed runs per mode (see BenchPointBackend; the
  // slow trie/doubting backends need the extra rep for a stable max).
  uint64_t scalar_positives = 0;
  Timer timer;
  for (int run = 0; run < 3; ++run) {
    scalar_positives = 0;
    timer.Restart();
    for (size_t q = 0; q < los.size(); ++q) {
      scalar_positives += filter->MayContainRange(los[q], his[q]);
    }
    result.scalar_mops =
        std::max(result.scalar_mops, Mops(los.size(), timer.ElapsedSeconds()));
  }

  uint64_t batch_positives = 0;
  for (int run = 0; run < 3; ++run) {
    batch_positives = 0;
    timer.Restart();
    for (size_t base = 0; base < los.size(); base += kBatchChunk) {
      size_t n = std::min(kBatchChunk, los.size() - base);
      filter->MayContainRangeBatch({los.data() + base, n},
                                   {his.data() + base, n}, out.get());
      for (size_t j = 0; j < n; ++j) batch_positives += out[j];
    }
    result.batch_mops =
        std::max(result.batch_mops, Mops(los.size(), timer.ElapsedSeconds()));
  }
  result.speedup =
      result.scalar_mops > 0 ? result.batch_mops / result.scalar_mops : 0;

  if (scalar_positives != batch_positives) {
    std::fprintf(stderr, "BUG: %s range scalar/batch disagree (%" PRIu64
                 " vs %" PRIu64 ")\n",
                 name.c_str(), scalar_positives, batch_positives);
    std::exit(1);
  }
  std::printf("  %-14s scalar %7.2f Mops   batched %7.2f Mops   %.2fx\n",
              name.c_str(), result.scalar_mops, result.batch_mops,
              result.speedup);
  return result;
}

}  // namespace
}  // namespace bloomrf

int main(int argc, char** argv) {
  using namespace bloomrf;
  bool smoke = false;
  std::string out_path = "BENCH_batch_probe.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  bench::Scale scale = bench::ParseScale(argc, argv, /*default_keys=*/8'000'000,
                                         /*default_queries=*/2'000'000,
                                         /*filter_aware=*/true);
  if (smoke) {
    // Large enough that the bloomRF filter (5 MB) escapes L2 on any
    // current server core — below that the planned engines measure
    // pure overhead and the CI perf guard would compare noise.
    scale.keys = 2'000'000;
    scale.queries = 250'000;
  }
  bench::Header("batch_probe",
                "planned/batched probes vs scalar loop; LSM MultiGet", scale);

  Rng rng(0xba7c4);
  std::vector<uint64_t> keys;
  keys.reserve(scale.keys);
  for (uint64_t i = 0; i < scale.keys; ++i) keys.push_back(rng.Next());
  std::vector<uint64_t> queries = MakeQueryMix(keys, scale.queries, 0x9e1);

  // ---- Point probes per backend --------------------------------------
  const double bits_per_key = 20.0;
  std::printf("point probes (%" PRIu64 " keys, %" PRIu64
              " queries, %.0f bits/key, simd=%s):\n",
              scale.keys, scale.queries, bits_per_key,
              SimdLevelName(ActiveSimdLevel()));
  std::vector<PointResult> point_results;
  for (const std::string& name : bench::FiltersOrDefault(
           scale,
           {"bloomrf", "bloom", "blocked_bloom", "prefix_bloom", "cuckoo"})) {
    const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
    if (entry == nullptr || !entry->online) continue;
    point_results.push_back(
        BenchPointBackend(name, keys, queries, bits_per_key));
  }

  // ---- Range probes per range-capable backend ------------------------
  const uint64_t range_queries = std::max<uint64_t>(scale.queries / 8, 1000);
  const uint64_t range_width = uint64_t{1} << 12;
  std::vector<uint64_t> los, his;
  los.reserve(range_queries);
  his.reserve(range_queries);
  for (uint64_t q = 0; q < range_queries; ++q) {
    uint64_t anchor =
        (q & 1) ? keys[rng.Uniform(keys.size())] : rng.Next();
    uint64_t lo = anchor - std::min(anchor, rng.Uniform(range_width));
    los.push_back(lo);
    his.push_back(lo + range_width < lo ? UINT64_MAX : lo + range_width);
  }
  std::vector<uint64_t> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  sorted_keys.erase(std::unique(sorted_keys.begin(), sorted_keys.end()),
                    sorted_keys.end());
  std::printf("range probes (width 2^12, %" PRIu64 " queries):\n",
              range_queries);
  std::vector<RangeResult> range_results;
  for (const std::string& name : bench::FiltersOrDefault(
           scale, {"bloomrf", "rosetta", "prefix_bloom", "surf"})) {
    const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
    if (entry == nullptr || !entry->supports_ranges) continue;
    range_results.push_back(
        BenchRangeBackend(name, keys, sorted_keys, los, his, bits_per_key,
                          static_cast<double>(range_width) * 4));
  }
  Timer timer;

  // ---- LSM MultiGet vs N×Get -----------------------------------------
  const uint64_t db_keys = std::min<uint64_t>(scale.keys, 400'000);
  const uint64_t db_queries = std::min<uint64_t>(scale.queries, 200'000);
  std::string dir = "/tmp/bloomrf_bench_batch_probe";
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.dir = dir;
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.memtable_bytes = 1 << 20;  // several SSTs
  // Size the cache for the store so the warm pass measures cache-served
  // reads rather than LRU scan-thrash.
  options.block_cache_bytes = 64 << 20;
  Db db(options);
  for (uint64_t i = 0; i < db_keys; ++i) {
    db.Put(keys[i], "0123456789abcdef");
  }
  db.Flush();
  std::vector<uint64_t> db_probe = MakeQueryMix(
      {keys.begin(), keys.begin() + static_cast<long>(db_keys)}, db_queries,
      0x9e2);

  // Warm the block cache with one untimed pass, so both timed passes
  // run at the same cache residency. MultiGet runs Get's walk for each
  // key on one snapshot, so the ratio measures the per-call overhead
  // MultiGet saves or adds, not a batched probe.
  std::string value;
  for (uint64_t q : db_probe) (void)db.Get(q, &value);

  uint64_t get_hits = 0;
  timer.Restart();
  for (uint64_t q : db_probe) get_hits += db.Get(q, &value);
  double get_mops = Mops(db_probe.size(), timer.ElapsedSeconds());

  timer.Restart();
  auto mg = db.MultiGet(db_probe);
  double multiget_mops = Mops(db_probe.size(), timer.ElapsedSeconds());
  uint64_t mg_hits = 0;
  for (const auto& v : mg) mg_hits += v.has_value();
  if (mg_hits != get_hits) {
    std::fprintf(stderr, "BUG: MultiGet/Get disagree\n");
    return 1;
  }

  // Once more with stats reset, to report the steady-state hit rate.
  db.ResetStats();
  timer.Restart();
  (void)db.MultiGet(db_probe);
  double multiget_warm_mops = Mops(db_probe.size(), timer.ElapsedSeconds());
  const LsmStats& stats = db.stats();
  double cache_hit_rate =
      stats.block_cache_hits + stats.block_cache_misses > 0
          ? static_cast<double>(stats.block_cache_hits) /
                static_cast<double>(stats.block_cache_hits +
                                    stats.block_cache_misses)
          : 0;
  double lsm_speedup = get_mops > 0 ? multiget_mops / get_mops : 0;
  std::printf("lsm (%" PRIu64 " keys, %zu tables, %" PRIu64
              " probes, cache pre-warmed): Get %.2f Mops   MultiGet %.2f "
              "Mops (%.2fx)   repeat MultiGet %.2f Mops (cache hit rate "
              "%.2f)\n",
              db_keys, db.num_tables(), db_queries, get_mops, multiget_mops,
              lsm_speedup, multiget_warm_mops, cache_hit_rate);
  std::filesystem::remove_all(dir);

  // ---- JSON ----------------------------------------------------------
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"batch_probe\",\n  \"smoke\": %s,\n"
               "  \"simd\": \"%s\",\n"
               "  \"keys\": %" PRIu64 ",\n  \"queries\": %" PRIu64 ",\n"
               "  \"bits_per_key\": %.1f,\n  \"point\": [\n",
               smoke ? "true" : "false", SimdLevelName(ActiveSimdLevel()),
               scale.keys, scale.queries, bits_per_key);
  for (size_t i = 0; i < point_results.size(); ++i) {
    const PointResult& r = point_results[i];
    std::fprintf(json,
                 "    {\"filter\": \"%s\", \"scalar_mops\": %.3f, "
                 "\"batch_mops\": %.3f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.scalar_mops, r.batch_mops, r.speedup,
                 i + 1 < point_results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"range\": [\n");
  for (size_t i = 0; i < range_results.size(); ++i) {
    const RangeResult& r = range_results[i];
    std::fprintf(json,
                 "    {\"filter\": \"%s\", \"scalar_mops\": %.3f, "
                 "\"batch_mops\": %.3f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.scalar_mops, r.batch_mops, r.speedup,
                 i + 1 < range_results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"lsm\": {\"db_keys\": %" PRIu64 ", \"tables\": %zu, "
               "\"get_mops\": %.3f, \"multiget_mops\": %.3f, "
               "\"speedup\": %.3f, \"warm_multiget_mops\": %.3f, "
               "\"warm_cache_hit_rate\": %.3f},\n",
               db_keys, db.num_tables(), get_mops, multiget_mops, lsm_speedup,
               multiget_warm_mops, cache_hit_rate);
  // Conservative floors (0.8x of this run's measured bloomRF speedups)
  // for the CI perf-guard step: scripts/perf_guard.py fails the
  // release-perf job when a smoke run drops below 0.9x of these.
  double guard_point = 0, guard_range = 0;
  for (const PointResult& r : point_results) {
    if (r.name == "bloomrf") guard_point = r.speedup * 0.8;
  }
  for (const RangeResult& r : range_results) {
    if (r.name == "bloomrf") guard_range = r.speedup * 0.8;
  }
  std::fprintf(json,
               "  \"guard\": {\"bloomrf_point_speedup\": %.3f, "
               "\"bloomrf_range_speedup\": %.3f}\n}\n",
               guard_point, guard_range);
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
