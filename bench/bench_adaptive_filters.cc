// The adaptive-filter tuning loop under a shifting workload.
//
// One dataset, three query phases with very different filter needs:
//   point   50% present / 50% absent point Gets — a plain blocked
//           Bloom is optimal, range capability buys nothing;
//   wide    batched ~2^30-wide empty range scans — point-only Blooms
//           score range FPR 1 and pay a block probe per table per
//           query, a range filter rejects in memory;
//   zipf    a bimodal mix: Zipf-skewed point Gets plus narrow empty
//           ranges anchored just past hot keys — bloomRF's territory.
//
// Four policies run every phase: three static ones (bloomrf,
// blocked_bloom, rosetta — each the wrong choice for at least one
// phase) and the adaptive policy, which between phases gets exactly
// one re-tune: sampler Reset -> untimed warmup pass (the sampler
// observes the new mix) -> CompactAll (tables rebuilt under the new
// plan) -> timed run. The acceptance bar: adaptive lands within 5% of
// the best static in EVERY phase and beats the worst static by >=
// 1.15x in at least one — i.e. the tuning loop converges to the right
// backend and the sampling tax is negligible.
//
// The `sampler` section times the same point-Get workload on two
// engines of the same shape, sampling off and on: the ratio is the
// median of kSamplerPairs interleaved (off, on) pairs, alternating
// which side runs first (bench::TimePairs), each pair on two freshly
// built engines, with its quartiles beside it, and bounds the
// sampler's hot-path overhead (acceptance: >= 0.98).
//
// Writes BENCH_adaptive.json (--out=PATH) with conservative `guard`
// floors (capped at the acceptance bars, then 0.9x'd by
// scripts/perf_guard.py) for CI. --smoke shrinks everything.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "lsm/db.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

using bench::Mops;

constexpr std::string_view kValue = "0123456789abcdef";
constexpr size_t kScanBatch = 64;
constexpr size_t kScanLimit = 16;
// Interleaved off/on pairs behind the sampler ratio: drift during the
// run lands on both sides of each pair, and one noisy window moves
// one pair's ratio, not the median.
constexpr int kSamplerPairs = 7;

struct PhaseWorkload {
  std::string name;
  std::vector<uint64_t> point_keys;         // scalar Gets
  std::vector<uint64_t> los, his;           // batched ScanRange
  uint64_t queries() const { return point_keys.size() + los.size(); }
};

// Uniform keys over the 64-bit domain leave it astronomically sparse:
// a 2^30-wide window almost surely holds no key, so "empty range"
// queries need no ground-truth filtering.
PhaseWorkload MakePointPhase(const Dataset& data, uint64_t n) {
  PhaseWorkload w;
  w.name = "point";
  Rng rng(0xadab7);
  w.point_keys.reserve(n);
  for (uint64_t q = 0; q < n; ++q) {
    w.point_keys.push_back((q & 1) ? data.keys[rng.Uniform(data.keys.size())]
                                   : rng.Next());
  }
  return w;
}

PhaseWorkload MakeWidePhase(uint64_t n) {
  PhaseWorkload w;
  w.name = "wide";
  Rng rng(0x31de);
  w.los.reserve(n);
  w.his.reserve(n);
  for (uint64_t q = 0; q < n; ++q) {
    uint64_t lo = rng.Next() >> 1;  // headroom for the width
    w.los.push_back(lo);
    w.his.push_back(lo + (uint64_t{1} << 30));
  }
  return w;
}

PhaseWorkload MakeZipfPhase(const Dataset& data, uint64_t n) {
  PhaseWorkload w;
  w.name = "zipf";
  ZipfianGenerator zipf(data.sorted_keys.size(), 0.99, 0x21bf);
  Rng rng(0x21c0);
  // 1/4 point Gets (half hot-present, half absent), 3/4 narrow ranges
  // anchored just past Zipf-hot keys: inside the domain but almost
  // surely empty (the next key is ~2^44 away on average). The phase's
  // avoidable cost is the block reads a range-blind filter cannot
  // skip — present-key Gets, which every filter must pass, stay a
  // minority so they don't drown the comparison.
  w.point_keys.reserve(n / 4);
  for (uint64_t q = 0; q < n / 4; ++q) {
    w.point_keys.push_back(
        (q & 1) ? data.sorted_keys[zipf.NextScrambled()] : rng.Next());
  }
  uint64_t ranges = n - n / 4;
  w.los.reserve(ranges);
  w.his.reserve(ranges);
  for (uint64_t q = 0; q < ranges; ++q) {
    uint64_t hot = data.sorted_keys[zipf.NextScrambled()];
    w.los.push_back(hot + 1);
    w.his.push_back(hot + 256);
  }
  return w;
}

/// One pass of a phase over `db`; returns queries/sec in Mops.
double RunPhaseOnce(Db* db, const PhaseWorkload& w) {
  Timer timer;
  uint64_t sink = 0;
  std::string value;
  for (uint64_t k : w.point_keys) sink += db->Get(k, &value);
  for (size_t base = 0; base < w.los.size(); base += kScanBatch) {
    size_t n = std::min(kScanBatch, w.los.size() - base);
    auto batches = db->ScanRange({w.los.data() + base, n},
                                 {w.his.data() + base, n}, kScanLimit);
    for (const auto& rows : batches) sink += rows.size();
  }
  double secs = timer.ElapsedSeconds();
  if (sink == ~0ull) std::printf("impossible\n");  // keep `sink` live
  return Mops(w.queries(), secs);
}

std::unique_ptr<Db> MakeDb(const std::string& dir,
                           std::shared_ptr<FilterPolicy> policy,
                           const Dataset& data, bool sample = false) {
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.dir = dir;
  options.filter_policy = std::move(policy);
  options.memtable_bytes = 256ull << 20;  // whole dataset in one SST
  // No block cache: a filter false positive costs a real block read
  // (the cost range filters exist to avoid), so filter quality — what
  // the planner optimizes — is what the clock sees, instead of being
  // hidden behind cache-hot ~100ns block probes.
  options.block_cache_bytes = 0;
  options.background_flush = false;
  options.wal = false;
  options.sample_queries = sample;
  auto db = std::make_unique<Db>(options);
  for (uint64_t k : data.keys) db->Put(k, kValue);
  db->Flush();
  // Tree-shape parity: the adaptive engine re-tunes via CompactAll,
  // whose output is split into level-sized SSTs — more tables than the
  // single SST a flush leaves, and each query probes every table's
  // filter. Compacting every engine once at setup gives all policies
  // the identical table layout, so the phases compare filter choice,
  // not table count.
  db->CompactAll();
  return db;
}

}  // namespace
}  // namespace bloomrf

int main(int argc, char** argv) {
  using namespace bloomrf;

  bool smoke = false;
  std::string out_path = "BENCH_adaptive.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const uint64_t keys = smoke ? 80'000 : 400'000;
  const uint64_t point_queries = smoke ? 60'000 : 300'000;
  // Wide ranges reject in-filter at several Mops; the count keeps a
  // timed pass well above timer resolution on the full run.
  const uint64_t wide_queries = smoke ? 8'192 : 65'536;
  const uint64_t zipf_queries = smoke ? 40'000 : 200'000;
  std::printf("adaptive_filters: %" PRIu64 " keys%s\n", keys,
              smoke ? " (smoke)" : "");

  Dataset data = MakeDataset(keys, Distribution::kUniform, 0xada);
  std::vector<PhaseWorkload> phases;
  phases.push_back(MakePointPhase(data, point_queries));
  phases.push_back(MakeWidePhase(wide_queries));
  phases.push_back(MakeZipfPhase(data, zipf_queries));
  // Warmup streams for the adaptive engine: a quarter-size draw of the
  // same mix teaches the sampler without contaminating the timed run.
  std::vector<PhaseWorkload> warmups;
  warmups.push_back(MakePointPhase(data, point_queries / 4));
  warmups.push_back(MakeWidePhase(wide_queries / 4));
  warmups.push_back(MakeZipfPhase(data, zipf_queries / 4));

  const std::string base_dir = "/tmp/bloomrf_bench_adaptive";
  std::filesystem::remove_all(base_dir);

  // ---- Engines ------------------------------------------------------
  struct StaticPolicy {
    std::string name;
    std::shared_ptr<FilterPolicy> policy;
  };
  std::vector<StaticPolicy> statics;
  statics.push_back({"static_bloomrf", NewBloomRFPolicy(16.0, 1 << 20)});
  FilterBuildParams bb;
  bb.bits_per_key = 16.0;
  statics.push_back({"static_blocked_bloom",
                     NewRegistryPolicy("blocked_bloom", bb)});
  statics.push_back({"static_rosetta", NewRosettaPolicy(16.0, 1 << 8)});

  std::vector<std::unique_ptr<Db>> static_dbs;
  for (const StaticPolicy& s : statics) {
    static_dbs.push_back(MakeDb(base_dir + "/" + s.name, s.policy, data));
  }
  auto adaptive_policy = NewAdaptiveFilterPolicy({.bits_per_key = 16.0});
  AdaptiveFilterPolicy* adaptive = adaptive_policy.get();
  auto adaptive_db =
      MakeDb(base_dir + "/adaptive", std::move(adaptive_policy), data);

  // ---- Phase sweep ---------------------------------------------------
  // Phase-major, engines interleaved best-of-N: every repetition runs
  // all four engines back to back, so machine-state drift (page cache,
  // CPU clocks, a noisy neighbor) hits everyone in the same rep and
  // the per-phase ratios compare like with like.
  // Best-of-4: the noise is one-sided (stalls), so per-engine bests
  // converge upward to the true speed; "best static" is a max over
  // three engines and needs every engine's best to have converged.
  const int kReps = 4;
  std::vector<std::map<std::string, double>> mops(phases.size());
  std::vector<std::string> adaptive_backend(phases.size());
  for (size_t p = 0; p < phases.size(); ++p) {
    // The re-tune: observe the new mix, then rebuild the tree's
    // filters under the resulting plan.
    adaptive_db->workload_sampler()->Reset();
    RunPhaseOnce(adaptive_db.get(), warmups[p]);
    if (!adaptive_db->CompactAll()) {
      std::fprintf(stderr, "CompactAll failed in phase %s\n",
                   phases[p].name.c_str());
      return 1;
    }
    adaptive_backend[p] = adaptive->LastPlan().backend;
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t s = 0; s < statics.size(); ++s) {
        double& cell = mops[p][statics[s].name];
        cell = std::max(cell, RunPhaseOnce(static_dbs[s].get(), phases[p]));
      }
      double& cell = mops[p]["adaptive"];
      cell = std::max(cell, RunPhaseOnce(adaptive_db.get(), phases[p]));
    }
    for (const StaticPolicy& s : statics) {
      std::printf("%-22s %-6s %7.3f Mops\n", s.name.c_str(),
                  phases[p].name.c_str(), mops[p][s.name]);
    }
    std::printf("%-22s %-6s %7.3f Mops  (backend %s)\n", "adaptive",
                phases[p].name.c_str(), mops[p]["adaptive"],
                adaptive_backend[p].c_str());
  }
  static_dbs.clear();
  adaptive_db.reset();

  // ---- Sampler overhead on point Gets -------------------------------
  // Same engine shape, sampling off vs explicitly on, timed as
  // interleaved pairs so both sides of each ratio see the same machine
  // state. Every pair builds both engines afresh, alternating which is
  // built first: one pair of engines timed in every pair carries one
  // build's layout (allocations, file placement) into all of them, and
  // then the median moves between runs by far more than its quartiles.
  bench::PairedRatio sampler;
  {
    std::unique_ptr<Db> db_off, db_on;
    auto build_pair = [&](int pair) {
      db_off.reset();
      db_on.reset();
      for (int side = 0; side < 2; ++side) {
        if ((side + pair) % 2 == 0) {
          db_off = MakeDb(base_dir + "/sampler-off",
                          NewBloomRFPolicy(16.0, 1 << 20), data);
        } else {
          db_on = MakeDb(base_dir + "/sampler-on",
                         NewBloomRFPolicy(16.0, 1 << 20), data,
                         /*sample=*/true);
        }
      }
    };
    sampler = bench::TimePairs(
        kSamplerPairs, [&] { return RunPhaseOnce(db_off.get(), phases[0]); },
        [&] { return RunPhaseOnce(db_on.get(), phases[0]); }, build_pair);
  }
  std::printf("sampler overhead: Get off %7.3f Mops  on %7.3f Mops  "
              "(median ratio %.3f of %d pairs, quartiles %.3f-%.3f)\n",
              sampler.a_mops, sampler.b_mops, sampler.ratio.median,
              kSamplerPairs, sampler.ratio.q1, sampler.ratio.q3);
  std::filesystem::remove_all(base_dir);

  // ---- Ratios and JSON ----------------------------------------------
  std::vector<double> over_best(phases.size()), over_worst(phases.size());
  for (size_t p = 0; p < phases.size(); ++p) {
    double best = 0, worst = 1e300;
    for (const StaticPolicy& s : statics) {
      best = std::max(best, mops[p][s.name]);
      worst = std::min(worst, mops[p][s.name]);
    }
    over_best[p] = best > 0 ? mops[p]["adaptive"] / best : 0;
    over_worst[p] = worst > 0 ? mops[p]["adaptive"] / worst : 0;
    std::printf("phase %-6s adaptive/best %5.3f  adaptive/worst %5.3f\n",
                phases[p].name.c_str(), over_best[p], over_worst[p]);
  }
  double over_worst_max = *std::max_element(over_worst.begin(),
                                            over_worst.end());

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"adaptive\",\n  \"smoke\": %s,\n"
               "  \"keys\": %" PRIu64 ",\n  \"phases\": [\n",
               smoke ? "true" : "false", keys);
  for (size_t p = 0; p < phases.size(); ++p) {
    std::fprintf(json,
                 "    {\"phase\": \"%s\", \"adaptive_mops\": %.3f, "
                 "\"adaptive_backend\": \"%s\",\n     \"static\": {",
                 phases[p].name.c_str(), mops[p]["adaptive"],
                 adaptive_backend[p].c_str());
    for (size_t s = 0; s < statics.size(); ++s) {
      std::fprintf(json, "\"%s\": %.3f%s", statics[s].name.c_str(),
                   mops[p][statics[s].name],
                   s + 1 < statics.size() ? ", " : "");
    }
    std::fprintf(json,
                 "},\n     \"adaptive_over_best\": %.3f, "
                 "\"adaptive_over_worst\": %.3f}%s\n",
                 over_best[p], over_worst[p],
                 p + 1 < phases.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"sampler\": {\"pairs\": %d, \"get_mops_off\": %.3f, "
               "\"get_mops_on\": %.3f, \"ratio\": %.3f, "
               "\"ratio_quartiles\": [%.3f, %.3f]},\n",
               kSamplerPairs, sampler.a_mops, sampler.b_mops,
               sampler.ratio.median, sampler.ratio.q1, sampler.ratio.q3);
  // Floors capped at the acceptance bars (0.95 / 1.15 / 0.98): a
  // better measured run is reported, not demanded of every CI host.
  std::fprintf(json,
               "  \"guard\": {\"adaptive_over_best_point\": %.3f, "
               "\"adaptive_over_best_wide\": %.3f, "
               "\"adaptive_over_best_zipf\": %.3f, "
               "\"adaptive_over_worst_max\": %.3f, "
               "\"sampler_get_ratio\": %.3f}\n}\n",
               std::min(over_best[0], 0.95), std::min(over_best[1], 0.95),
               std::min(over_best[2], 0.95), std::min(over_worst_max, 1.15),
               std::min(sampler.ratio.median, 0.98));
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
