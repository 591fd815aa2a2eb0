// Sharded KV-store scenario: the concurrent big sibling of
// kvstore_range_scan. A ShardedDb hash-partitions keys over N Db
// shards (one memtable + seal/background-flush pipeline + SST set
// each) sharing one block cache and filter policy; several client
// threads Put/Get/MultiGet/ScanRange at once, then the per-shard and
// aggregate cache-hit and filter-probe stats and the measured filter
// outcomes per backend are printed.
//
//   $ ./examples/kvstore_sharded                      # bloomRF, 4 shards
//   $ ./examples/kvstore_sharded --filter=rosetta --shards=8 --clients=8
//   $ ./examples/kvstore_sharded list-filters

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "filters/registry.h"
#include "lsm/sharded_db.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/key_generator.h"

using namespace bloomrf;

int main(int argc, char** argv) {
  std::string filter_name = "bloomrf";
  size_t num_shards = 4;
  size_t num_clients = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      filter_name = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      num_shards = static_cast<size_t>(std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      num_clients = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strcmp(argv[i], "list-filters") == 0) {
      for (const std::string& name : FilterRegistry::Instance().Names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
  }
  if (FilterRegistry::Instance().Find(filter_name) == nullptr) {
    std::fprintf(stderr, "unknown filter '%s' (try list-filters)\n",
                 filter_name.c_str());
    return 1;
  }
  std::printf("filter backend: %s, %zu shards, %zu client threads\n",
              filter_name.c_str(), num_shards, num_clients);

  std::string dir = "/tmp/bloomrf_example_sharded";
  std::filesystem::remove_all(dir);

  FilterBuildParams params;
  params.bits_per_key = 20.0;
  params.max_range = 1e6;
  ShardedDbOptions options;
  options.dir = dir;
  options.filter_policy = NewRegistryPolicy(filter_name, params);
  options.num_shards = num_shards;
  options.memtable_bytes = 256 << 10;  // several background flushes/shard
  options.block_cache_bytes = 64 << 20;
  // Background leveled compaction with the parallel scheduler: two
  // workers per shard, every job split into two range-partitioned
  // subcompactions on the pool all shards share.
  options.compaction = true;
  options.compaction_threads = 2;
  options.max_subcompactions = 2;
  options.l0_compaction_trigger = 4;
  options.level_base_bytes = 512 << 10;
  ShardedDb db(options);

  // Phase 1: concurrent ingest. Each client owns a key stripe; writes
  // race through the shards' seal/background-flush pipelines.
  const size_t kKeys = 200'000;
  Dataset data = MakeDataset(kKeys, Distribution::kUniform, 7);
  std::printf("ingesting %zu entries from %zu threads...\n", kKeys,
              num_clients);
  Timer timer;
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < num_clients; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = t; i < data.keys.size(); i += num_clients) {
          db.Put(data.keys[i], MakeValue(i, 128));
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  db.Flush();
  std::printf("  %.2fs; L0 SSTs across shards: %zu, filter memory: %.1f "
              "bits/key\n",
              timer.ElapsedSeconds(), db.num_tables(),
              static_cast<double>(db.filter_memory_bits()) /
                  static_cast<double>(kKeys));

  // Phase 1b: concurrent delete traffic. Each client tombstones a
  // slice of its own stripe (some singly, some in one WriteBatch), so the
  // read phase below runs against a tree where deleted keys must stay
  // dead across every shard's memtable, WAL, and SSTs.
  std::printf("deleting every 5th ingested key from %zu threads...\n",
              num_clients);
  std::atomic<uint64_t> deletes{0};
  timer.Restart();
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < num_clients; ++t) {
      clients.emplace_back([&, t] {
        std::vector<WriteOp> batch;
        for (size_t i = t * 5; i < data.keys.size(); i += num_clients * 5) {
          if (i % 2 == 0) {
            db.Delete(data.keys[i]);
          } else {
            batch.push_back({data.keys[i], {}, /*is_delete=*/true});
          }
          ++deletes;
        }
        db.WriteBatch(batch);
      });
    }
    for (auto& c : clients) c.join();
  }
  db.Flush();
  {
    LsmStats after = db.TotalStats();
    std::printf("  %.2fs; %llu deletes -> tombstones written=%llu "
                "live=%llu dropped=%llu\n",
                timer.ElapsedSeconds(),
                static_cast<unsigned long long>(deletes.load()),
                static_cast<unsigned long long>(after.tombstones_written.load()),
                static_cast<unsigned long long>(after.tombstones_live.load()),
                static_cast<unsigned long long>(after.tombstones_dropped.load()));
  }

  // Drain the compaction pipeline, then show what it did per level:
  // bytes in/out and wall time by output level, plus how many jobs
  // were split into range-partitioned subcompactions.
  db.WaitForCompaction();
  {
    LsmStats s = db.TotalStats();
    std::printf("compaction: %llu jobs (%llu subcompactions) across %zu "
                "shards\n",
                static_cast<unsigned long long>(s.compactions.load()),
                static_cast<unsigned long long>(s.subcompactions_run.load()),
                db.num_shards());
    for (size_t l = 0; l < LsmStats::kStatsLevels; ++l) {
      uint64_t in = s.compaction_bytes_read_level[l].load();
      uint64_t out = s.compaction_bytes_written_level[l].load();
      uint64_t us = s.compaction_micros_level[l].load();
      if (in + out == 0) continue;
      std::printf("  ->L%zu%s read %6.1f MiB, wrote %6.1f MiB, %8.1f ms\n",
                  l, l + 1 == LsmStats::kStatsLevels ? "+" : " ",
                  static_cast<double>(in) / (1 << 20),
                  static_cast<double>(out) / (1 << 20),
                  static_cast<double>(us) / 1000.0);
    }
  }

  // Phase 2: concurrent mixed reads. Every client issues MultiGet
  // batches (half hits / half misses the filters exclude) and ScanRange
  // batches over populated and empty regions.
  db.ResetStats();
  std::atomic<uint64_t> gets{0}, hits{0}, scans{0}, rows_total{0};
  timer.Restart();
  {
    std::vector<std::thread> clients;
    for (size_t t = 0; t < num_clients; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(0x5eed + t);
        std::vector<uint64_t> probe(1024), los(64), his(64);
        for (int round = 0; round < 20; ++round) {
          for (auto& q : probe) {
            q = (rng.Next() & 1) ? data.keys[rng.Uniform(kKeys)] : rng.Next();
          }
          auto answers = db.MultiGet(probe);
          uint64_t local_hits = 0;
          for (const auto& a : answers) local_hits += a.has_value();
          gets += probe.size();
          hits += local_hits;

          for (size_t q = 0; q < los.size(); ++q) {
            if (q % 2 == 0) {
              size_t at = rng.Uniform(kKeys - 40);
              los[q] = data.sorted_keys[at];
              his[q] = data.sorted_keys[at + 20];
            } else {
              uint64_t anchor = 0x8000000000000000ULL + rng.Next() % (1 << 20);
              los[q] = anchor;
              his[q] = anchor + 1000;
            }
          }
          auto batches = db.ScanRange(los, his, 64);
          uint64_t local_rows = 0;
          for (const auto& rows : batches) local_rows += rows.size();
          scans += los.size();
          rows_total += local_rows;
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  double seconds = timer.ElapsedSeconds();
  std::printf("mixed read phase: %.2fs — %llu point probes (%llu found), "
              "%llu range scans (%llu rows)\n",
              seconds, static_cast<unsigned long long>(gets.load()),
              static_cast<unsigned long long>(hits.load()),
              static_cast<unsigned long long>(scans.load()),
              static_cast<unsigned long long>(rows_total.load()));

  // Per-shard and aggregate stats: the shards share one cache, so the
  // aggregate hit rate reflects cross-shard residency.
  auto print_stats = [](const char* label, const LsmStats& s, size_t tables) {
    uint64_t probes = s.filter_probes.load();
    uint64_t negatives = s.filter_negatives.load();
    uint64_t ch = s.block_cache_hits.load(), cm = s.block_cache_misses.load();
    std::printf("  %-10s tables=%-4zu filter probes=%-9llu negatives=%-9llu "
                "cache hits=%-8llu misses=%-8llu hit rate %.2f\n",
                label, tables, static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(negatives),
                static_cast<unsigned long long>(ch),
                static_cast<unsigned long long>(cm),
                ch + cm > 0 ? static_cast<double>(ch) /
                                  static_cast<double>(ch + cm)
                            : 0.0);
  };
  std::printf("per-shard stats:\n");
  for (size_t s = 0; s < db.num_shards(); ++s) {
    std::string label = "shard " + std::to_string(s);
    print_stats(label.c_str(), db.shard(s).stats(), db.shard(s).num_tables());
  }
  LsmStats total = db.TotalStats();
  print_stats("aggregate", total, db.num_tables());

  // Filter outcome accounting: of the probes the filters let through,
  // how many actually found data? A false positive is a probe the
  // filter allowed but the data blocks rejected — the wasted I/O the
  // filter exists to prevent. Each table counts its own outcomes, and
  // CollectFilterFeedback sums a shard's live tables per backend: the
  // measured FPR the adaptive planner feeds back into backend choice.
  FilterFeedback outcomes;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    for (const BackendObservation& b :
         db.shard(s).CollectFilterFeedback().backends) {
      outcomes.Add(b);
    }
  }
  auto fpr = [](uint64_t fp, uint64_t tn) {
    return fp + tn > 0 ? static_cast<double>(fp) / static_cast<double>(fp + tn)
                       : 0.0;
  };
  std::printf("filter outcomes by backend (allowed-but-empty vs excluded):\n");
  for (const BackendObservation& b : outcomes.backends) {
    std::printf("  %-10s point fp=%-8llu tn=%-9llu fpr %.4f   range "
                "fp=%-8llu tn=%-9llu fpr %.4f\n",
                b.backend.c_str(),
                static_cast<unsigned long long>(b.point_false),
                static_cast<unsigned long long>(b.point_negatives),
                fpr(b.point_false, b.point_negatives),
                static_cast<unsigned long long>(b.range_false),
                static_cast<unsigned long long>(b.range_negatives),
                fpr(b.range_false, b.range_negatives));
  }

  std::filesystem::remove_all(dir);
  return 0;
}
