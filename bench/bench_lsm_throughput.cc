// Concurrent LSM engine throughput: threads x shards scaling for
// Get / MultiGet / ScanRange on the ShardedDb, against the plain
// single-threaded Db scalar loops as baseline — plus the write path:
// Put-only and 50/50 mixed Put/Get cells, and the WAL overhead rows.
//
// For every (shards, threads) cell, `threads` client threads hammer
// one ShardedDb with a fixed per-thread op budget:
//  - Get: scalar point lookups (50% present / 50% absent),
//  - MultiGet: the same mix in batches of 1024 (each shard's sub-batch
//    is N Gets on one snapshot; per-shard parallel fan-out),
//  - ScanRange: batches of 64 ranges, half populated / half empty,
//  - Put: random-key inserts into a fresh engine (WAL off, so the cell
//    measures the memtable/seal path alone),
//  - mixed: alternating Get (hitting keys the Put phase wrote) and Put
//    on the populated engine — the 50/50 read-write mix,
//  - Delete: tombstoning every key the Put phase wrote (delete-heavy),
//  - 25/25/50 p/d/g: puts, deletes and point reads interleaved over
//    the tombstone-churned store
// and the aggregate Mops (queries/s for scans) is reported. The
// baseline rows drive a plain Db with the same workload from one
// thread, so the 1-shard/1-thread ShardedDb cell doubles as the
// "sharding layer overhead" check.
//
// The `wal` section re-times Put-only at (1 shard, 1 thread) and
// (max shards, max threads) with the group-commit WAL on
// (wal_fsync=false): put_ratio = walled/unwalled throughput is the
// logging overhead the acceptance gate bounds (>= 0.75).
//
// Writes BENCH_lsm_concurrent.json (override with --out=PATH),
// including `hardware_concurrency` (scaling is bounded by the host's
// cores; the committed file records the bench host) and conservative
// `guard` floors — 0.8x of this run's measured 8-thread/1-thread
// scaling ratios and of the 1-shard/plain-Db throughput ratio — that
// scripts/perf_guard.py compares a CI smoke run against. --smoke
// shrinks the store and the sweep for CI.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

using bench::Mops;

constexpr size_t kMultiGetBatch = 1024;
constexpr size_t kScanBatch = 64;
constexpr size_t kScanLimit = 32;

struct Workload {
  Dataset data;
  uint64_t point_ops_per_thread = 0;
  uint64_t scan_queries_per_thread = 0;
  uint64_t put_ops_per_thread = 0;
};

constexpr std::string_view kPutValue = "0123456789abcdef";

// Per-thread query streams: seeded per thread id so every cell of the
// sweep probes identical sequences regardless of interleaving.
std::vector<uint64_t> MakePointMix(const Workload& w, uint64_t tid) {
  Rng rng(0x90117 + tid);
  std::vector<uint64_t> out;
  out.reserve(w.point_ops_per_thread);
  for (uint64_t q = 0; q < w.point_ops_per_thread; ++q) {
    out.push_back((q & 1) ? w.data.keys[rng.Uniform(w.data.keys.size())]
                          : rng.Next());
  }
  return out;
}

void MakeRangeMix(const Workload& w, uint64_t tid, std::vector<uint64_t>* los,
                  std::vector<uint64_t>* his) {
  Rng rng(0x5ca9 + tid);
  los->clear();
  his->clear();
  for (uint64_t q = 0; q < w.scan_queries_per_thread; ++q) {
    if (q & 1) {
      size_t at = rng.Uniform(w.data.sorted_keys.size() - 24);
      los->push_back(w.data.sorted_keys[at]);
      his->push_back(w.data.sorted_keys[at + 12]);
    } else {
      uint64_t anchor = 0x8000000000000000ULL + (rng.Next() & 0xffffff);
      los->push_back(anchor);
      his->push_back(anchor + 512);
    }
  }
}

struct CellResult {
  size_t shards = 0;
  size_t threads = 0;
  double get_mops = 0;
  double multiget_mops = 0;
  double scanrange_qps = 0;  // range queries per second
};

// Runs `threads` client threads, each calling fn(tid), and returns the
// wall seconds of the slowest.
template <typename Fn>
double TimedThreads(size_t threads, Fn fn) {
  Timer timer;
  std::vector<std::thread> workers;
  for (size_t t = 1; t < threads; ++t) workers.emplace_back(fn, t);
  fn(0);
  for (auto& th : workers) th.join();
  return timer.ElapsedSeconds();
}

template <typename Engine>
CellResult BenchEngine(Engine* db, const Workload& w, size_t shards,
                       size_t threads) {
  CellResult cell;
  cell.shards = shards;
  cell.threads = threads;

  // Pre-generate every thread's streams outside the timed region.
  std::vector<std::vector<uint64_t>> point(threads);
  std::vector<std::vector<uint64_t>> los(threads), his(threads);
  for (size_t t = 0; t < threads; ++t) {
    point[t] = MakePointMix(w, t);
    MakeRangeMix(w, t, &los[t], &his[t]);
  }

  // Warm the block cache so every cell measures the same residency.
  { auto warm = db->MultiGet(point[0]); (void)warm; }

  // Best of two timed runs per phase: the first run doubles as warmup
  // and the max trims one-sided scheduler noise (same convention as
  // bench_batch_probe).
  std::atomic<uint64_t> sink{0};
  for (int run = 0; run < 2; ++run) {
    double secs = TimedThreads(threads, [&](size_t t) {
      uint64_t hits = 0;
      std::string value;
      for (uint64_t q : point[t]) hits += db->Get(q, &value);
      sink += hits;
    });
    cell.get_mops =
        std::max(cell.get_mops, Mops(w.point_ops_per_thread * threads, secs));
  }

  for (int run = 0; run < 2; ++run) {
    double secs = TimedThreads(threads, [&](size_t t) {
      uint64_t hits = 0;
      for (size_t base = 0; base < point[t].size(); base += kMultiGetBatch) {
        size_t n = std::min(kMultiGetBatch, point[t].size() - base);
        auto answers = db->MultiGet({point[t].data() + base, n});
        for (const auto& a : answers) hits += a.has_value();
      }
      sink += hits;
    });
    cell.multiget_mops = std::max(
        cell.multiget_mops, Mops(w.point_ops_per_thread * threads, secs));
  }

  for (int run = 0; run < 2; ++run) {
    double secs = TimedThreads(threads, [&](size_t t) {
      uint64_t rows = 0;
      for (size_t base = 0; base < los[t].size(); base += kScanBatch) {
        size_t n = std::min(kScanBatch, los[t].size() - base);
        auto batches = db->ScanRange({los[t].data() + base, n},
                                     {his[t].data() + base, n}, kScanLimit);
        for (const auto& b : batches) rows += b.size();
      }
      sink += rows;
    });
    cell.scanrange_qps = std::max(
        cell.scanrange_qps,
        Mops(w.scan_queries_per_thread * threads, secs) * 1e6);
  }

  return cell;
}

struct WriteCell {
  size_t shards = 0;
  size_t threads = 0;
  double put_mops = 0;    // Put-only, fresh engine, WAL off
  double mixed_mops = 0;  // 50/50 Get/Put on the put-populated engine
};

// Write-phase key streams: seeded per thread so the mixed phase can
// replay exactly the keys the put phase inserted.
uint64_t PutKey(Rng* rng) { return rng->Next(); }

/// Put-only then 50/50 mixed throughput. `make` builds a fresh engine
/// (fresh directory) per timed put run, so every run inserts into an
/// empty memtable; the mixed phase reuses the last run's populated
/// engine, reading back the put phase's keys while writing new ones.
template <typename MakeEngine>
WriteCell BenchWrites(MakeEngine make, const Workload& w, size_t shards,
                      size_t threads) {
  WriteCell cell;
  cell.shards = shards;
  cell.threads = threads;
  std::atomic<uint64_t> sink{0};
  for (int run = 0; run < 2; ++run) {
    auto db = make();
    double secs = TimedThreads(threads, [&](size_t t) {
      Rng rng(0xbee5 + t);
      for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
        db->Put(PutKey(&rng), kPutValue);
      }
    });
    cell.put_mops =
        std::max(cell.put_mops, Mops(w.put_ops_per_thread * threads, secs));
    if (run != 1) continue;
    // Mixed runs mutate the engine, so later timed repeats see more
    // resident data — best-of-2 with distinct write streams keeps the
    // comparison honest enough for a scaling ratio.
    for (int mixed_run = 0; mixed_run < 2; ++mixed_run) {
      double mixed_secs = TimedThreads(threads, [&](size_t t) {
        Rng read_rng(0xbee5 + t);  // replays the put phase's keys
        Rng write_rng(0xf00d + 131 * mixed_run + t);
        uint64_t hits = 0;
        std::string value;
        for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
          if (i & 1) {
            db->Put(PutKey(&write_rng), kPutValue);
          } else {
            hits += db->Get(PutKey(&read_rng), &value);
          }
        }
        sink.fetch_add(hits, std::memory_order_relaxed);
      });
      cell.mixed_mops = std::max(
          cell.mixed_mops, Mops(w.put_ops_per_thread * threads, mixed_secs));
    }
  }
  return cell;
}

struct DeleteCell {
  size_t shards = 0;
  size_t threads = 0;
  double delete_mops = 0;  // delete-heavy: tombstone every ingested key
  double pdg_mops = 0;     // 25/25/50 put/delete/get mix
};

/// Delete-path throughput. Each run populates a fresh engine with the
/// put phase's exact key streams (untimed), then times a delete-heavy
/// pass (tombstoning every ingested key — the write path's cost for a
/// delete record + memtable tombstone), then a 25/25/50 put/delete/get
/// mix over the churned store — point reads now climb over live
/// tombstones in the memtable and L0.
template <typename MakeEngine>
DeleteCell BenchDeletes(MakeEngine make, const Workload& w, size_t shards,
                        size_t threads) {
  DeleteCell cell;
  cell.shards = shards;
  cell.threads = threads;
  std::atomic<uint64_t> sink{0};
  for (int run = 0; run < 2; ++run) {
    auto db = make();
    TimedThreads(threads, [&](size_t t) {
      Rng rng(0xbee5 + t);
      for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
        db->Put(PutKey(&rng), kPutValue);
      }
    });
    double secs = TimedThreads(threads, [&](size_t t) {
      Rng rng(0xbee5 + t);  // replays the put phase's keys
      for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
        db->Delete(PutKey(&rng));
      }
    });
    cell.delete_mops =
        std::max(cell.delete_mops, Mops(w.put_ops_per_thread * threads, secs));
    if (run != 1) continue;
    for (int mixed_run = 0; mixed_run < 2; ++mixed_run) {
      double mixed_secs = TimedThreads(threads, [&](size_t t) {
        Rng key_rng(0xbee5 + 977 * (mixed_run + 1) + t);
        uint64_t hits = 0;
        std::string value;
        for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
          uint64_t key = PutKey(&key_rng);
          switch (i & 3) {
            case 0:
              db->Put(key, kPutValue);
              break;
            case 1:
              db->Delete(key);
              break;
            default:
              hits += db->Get(key, &value);
              break;
          }
        }
        sink.fetch_add(hits, std::memory_order_relaxed);
      });
      cell.pdg_mops = std::max(
          cell.pdg_mops, Mops(w.put_ops_per_thread * threads, mixed_secs));
    }
  }
  return cell;
}

/// Times one put-only pass over a fresh engine.
template <typename EnginePtr>
double TimePuts(const EnginePtr& db, const Workload& w, size_t threads) {
  double secs = TimedThreads(threads, [&](size_t t) {
    Rng rng(0xbee5 + t);
    for (uint64_t i = 0; i < w.put_ops_per_thread; ++i) {
      db->Put(PutKey(&rng), kPutValue);
    }
  });
  return Mops(w.put_ops_per_thread * threads, secs);
}

/// Put-only throughput alone (best of two fresh engines).
template <typename MakeEngine>
double BenchPutsOnly(MakeEngine make, const Workload& w, size_t threads) {
  double best = 0;
  for (int run = 0; run < 2; ++run) {
    auto db = make();
    best = std::max(best, TimePuts(db, w, threads));
  }
  return best;
}

/// WAL-off vs WAL-on put throughput, interleaved: alternating fresh
/// engines within one probe see the same machine state, so the ratio
/// isolates the WAL cost instead of picking up drift between distant
/// phases of the bench run. Returns {best_off, best_on}.
template <typename MakeOff, typename MakeOn>
std::pair<double, double> BenchWalPair(MakeOff make_off, MakeOn make_on,
                                       const Workload& w, size_t threads) {
  double best_off = 0, best_on = 0;
  for (int run = 0; run < 3; ++run) {
    {
      auto db = make_off();
      best_off = std::max(best_off, TimePuts(db, w, threads));
    }
    {
      auto db = make_on();
      best_on = std::max(best_on, TimePuts(db, w, threads));
    }
  }
  return {best_off, best_on};
}

}  // namespace
}  // namespace bloomrf

int main(int argc, char** argv) {
  using namespace bloomrf;

  bool smoke = false;
  std::string out_path = "BENCH_lsm_concurrent.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const uint64_t keys = smoke ? 200'000 : 1'000'000;
  Workload w;
  w.data = MakeDataset(keys, Distribution::kUniform, 0x15a);
  w.point_ops_per_thread = smoke ? 40'000 : 200'000;
  w.scan_queries_per_thread = smoke ? 1'024 : 4'096;
  w.put_ops_per_thread = smoke ? 100'000 : 400'000;

  unsigned hw = std::thread::hardware_concurrency();
  std::printf("lsm_throughput: %" PRIu64 " keys, hardware_concurrency=%u%s\n",
              keys, hw, smoke ? " (smoke)" : "");
  if (hw < 8) {
    std::printf("note: fewer than 8 cores; 8-thread scaling is bounded by "
                "the host, guard floors are derived from this run\n");
  }

  const std::string base_dir = "/tmp/bloomrf_bench_lsm_throughput";
  std::filesystem::remove_all(base_dir);
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1e6;

  // ---- Baseline: plain Db, one thread, scalar loops ------------------
  DbOptions db_options;
  db_options.dir = base_dir + "/plain";
  db_options.filter_policy = NewRegistryPolicy("bloomrf", params);
  db_options.memtable_bytes = 4 << 20;
  db_options.block_cache_bytes = 256 << 20;
  db_options.wal = false;  // read cells measure the probe path alone
  CellResult baseline;
  {
    Db db(db_options);
    for (uint64_t k : w.data.keys) db.Put(k, "0123456789abcdef");
    db.Flush();
    baseline = BenchEngine(&db, w, /*shards=*/1, /*threads=*/1);
    std::printf("%-22s Get %7.2f Mops   MultiGet %7.2f Mops   ScanRange "
                "%9.0f q/s\n",
                "baseline Db (1 thr)", baseline.get_mops,
                baseline.multiget_mops, baseline.scanrange_qps);
  }

  // ---- ShardedDb sweep ----------------------------------------------
  std::vector<size_t> shard_counts = smoke ? std::vector<size_t>{1, 8}
                                           : std::vector<size_t>{1, 4, 8};
  std::vector<size_t> thread_counts = smoke ? std::vector<size_t>{1, 8}
                                            : std::vector<size_t>{1, 2, 4, 8};
  std::vector<CellResult> cells;
  for (size_t shards : shard_counts) {
    ShardedDbOptions options;
    options.dir = base_dir + "/s" + std::to_string(shards);
    options.filter_policy = NewRegistryPolicy("bloomrf", params);
    options.num_shards = shards;
    options.memtable_bytes = (4 << 20) / shards;
    options.block_cache_bytes = 256 << 20;
    options.wal = false;
    ShardedDb db(options);
    for (uint64_t k : w.data.keys) db.Put(k, "0123456789abcdef");
    db.Flush();
    for (size_t threads : thread_counts) {
      // 1-thread cells keep the fan-out pool: that IS the shard
      // parallelism a single caller gets.
      CellResult cell = BenchEngine(&db, w, shards, threads);
      std::printf("shards=%zu threads=%zu     Get %7.2f Mops   MultiGet "
                  "%7.2f Mops   ScanRange %9.0f q/s\n",
                  shards, threads, cell.get_mops, cell.multiget_mops,
                  cell.scanrange_qps);
      cells.push_back(cell);
    }
  }
  // ---- Write path: Put-only and 50/50 mixed cells --------------------
  const size_t max_shards = shard_counts.back();
  const size_t max_threads = thread_counts.back();
  auto make_sharded = [&](size_t shards, bool wal) {
    const std::string dir = base_dir + "/w" + std::to_string(shards) +
                            (wal ? "-wal" : "");
    std::filesystem::remove_all(dir);
    ShardedDbOptions options;
    options.dir = dir;
    options.filter_policy = NewRegistryPolicy("bloomrf", params);
    options.num_shards = shards;
    options.memtable_bytes = (4 << 20) / shards;
    options.block_cache_bytes = 64 << 20;
    options.wal = wal;
    return std::make_unique<ShardedDb>(options);
  };

  double baseline_put;
  {
    auto make_plain = [&] {
      const std::string dir = base_dir + "/wplain";
      std::filesystem::remove_all(dir);
      DbOptions options = db_options;
      options.dir = dir;
      return std::make_unique<Db>(options);
    };
    baseline_put = BenchPutsOnly(make_plain, w, 1);
    std::printf("%-22s Put %7.2f Mops\n", "baseline Db (1 thr)", baseline_put);
  }

  std::vector<WriteCell> write_cells;
  for (size_t shards : shard_counts) {
    for (size_t threads : thread_counts) {
      WriteCell cell = BenchWrites([&] { return make_sharded(shards, false); },
                                   w, shards, threads);
      std::printf("shards=%zu threads=%zu     Put %7.2f Mops   mixed 50/50 "
                  "%7.2f Mops\n",
                  shards, threads, cell.put_mops, cell.mixed_mops);
      write_cells.push_back(cell);
    }
  }

  // ---- Delete path: delete-heavy and 25/25/50 put/delete/get cells ---
  std::vector<DeleteCell> delete_cells;
  for (size_t shards : shard_counts) {
    for (size_t threads : thread_counts) {
      DeleteCell cell = BenchDeletes(
          [&] { return make_sharded(shards, false); }, w, shards, threads);
      std::printf("shards=%zu threads=%zu     Delete %7.2f Mops   25/25/50 "
                  "p/d/g %7.2f Mops\n",
                  shards, threads, cell.delete_mops, cell.pdg_mops);
      delete_cells.push_back(cell);
    }
  }

  // ---- WAL overhead (group commit, wal_fsync=false) ------------------
  auto [wal_off_1s1t, wal_put_1s1t] = BenchWalPair(
      [&] { return make_sharded(1, false); },
      [&] { return make_sharded(1, true); }, w, 1);
  auto [wal_off_max, wal_put_max] = BenchWalPair(
      [&] { return make_sharded(max_shards, false); },
      [&] { return make_sharded(max_shards, true); }, w, max_threads);
  auto write_cell_at = [&](size_t shards, size_t threads) -> const WriteCell* {
    for (const WriteCell& c : write_cells) {
      if (c.shards == shards && c.threads == threads) return &c;
    }
    return nullptr;
  };
  const WriteCell* wmax1 = write_cell_at(max_shards, 1);
  const WriteCell* wmaxt = write_cell_at(max_shards, max_threads);
  double wal_ratio_1s1t = wal_off_1s1t > 0 ? wal_put_1s1t / wal_off_1s1t : 0;
  double wal_ratio_max = wal_off_max > 0 ? wal_put_max / wal_off_max : 0;
  double put_scaling = wmax1 && wmaxt && wmax1->put_mops > 0
                           ? wmaxt->put_mops / wmax1->put_mops
                           : 0;
  double mixed_scaling = wmax1 && wmaxt && wmax1->mixed_mops > 0
                             ? wmaxt->mixed_mops / wmax1->mixed_mops
                             : 0;
  std::printf("WAL overhead (fsync off): 1s/1t Put %7.2f Mops (ratio %.2f)  "
              "%zus/%zut Put %7.2f Mops (ratio %.2f)\n",
              wal_put_1s1t, wal_ratio_1s1t, max_shards, max_threads,
              wal_put_max, wal_ratio_max);
  std::printf("write scaling 1->%zu threads (%zu shards): Put %.2fx  "
              "mixed %.2fx\n",
              max_threads, max_shards, put_scaling, mixed_scaling);

  auto delete_cell_at = [&](size_t shards,
                            size_t threads) -> const DeleteCell* {
    for (const DeleteCell& c : delete_cells) {
      if (c.shards == shards && c.threads == threads) return &c;
    }
    return nullptr;
  };
  const DeleteCell* d11 = delete_cell_at(1, 1);
  const DeleteCell* dmax1 = delete_cell_at(max_shards, 1);
  const DeleteCell* dmaxt = delete_cell_at(max_shards, max_threads);
  const WriteCell* w11 = write_cell_at(1, 1);
  double delete_scaling = dmax1 && dmaxt && dmax1->delete_mops > 0
                              ? dmaxt->delete_mops / dmax1->delete_mops
                              : 0;
  double pdg_scaling = dmax1 && dmaxt && dmax1->pdg_mops > 0
                           ? dmaxt->pdg_mops / dmax1->pdg_mops
                           : 0;
  // A delete is a smaller WAL record and a value-free memtable entry,
  // so delete-heavy throughput should track put throughput; the ratio
  // (1 shard, 1 thread) catches a delete path that grew an accidental
  // extra cost (e.g. a read-before-write or a second lock pass).
  double delete_put_ratio = d11 && w11 && w11->put_mops > 0
                                ? d11->delete_mops / w11->put_mops
                                : 0;
  std::printf("delete scaling 1->%zu threads (%zu shards): Delete %.2fx  "
              "25/25/50 %.2fx;  delete/put ratio (1s/1t) %.2f\n",
              max_threads, max_shards, delete_scaling, pdg_scaling,
              delete_put_ratio);

  // ---- Read amplification: L0 pile vs leveled tree -------------------
  // The same dataset flushed as ~16 small memtables, then point-read
  // single-threaded: with compaction off every Get consults every L0
  // file's filter; with leveled compaction the tree collapses to a few
  // files. get_ratio = on/off is the read-amp win the guard floors
  // (core-count independent: both sides run one thread on this host).
  double ra_off_mops = 0, ra_on_mops = 0;
  size_t ra_tables_off = 0, ra_tables_on = 0;
  {
    const uint64_t ra_keys = smoke ? 100'000 : 400'000;
    const uint64_t ra_queries = smoke ? 100'000 : 200'000;
    Rng rng(0x5eed);
    std::vector<uint64_t> queries;
    queries.reserve(ra_queries);
    for (uint64_t q = 0; q < ra_queries; ++q) {
      queries.push_back(w.data.keys[rng.Uniform(ra_keys)]);
    }
    for (bool compaction : {false, true}) {
      const std::string dir = base_dir + (compaction ? "/ra-on" : "/ra-off");
      std::filesystem::remove_all(dir);
      DbOptions options = db_options;
      options.dir = dir;
      options.wal = false;
      // Sized for ~16 flushed memtables from ra_keys entries.
      options.memtable_bytes = ra_keys * 30 / 16;
      options.compaction = compaction;
      options.l0_compaction_trigger = 4;
      options.level_base_bytes = 1 << 20;
      options.level_size_multiplier = 4;
      Db db(options);
      for (uint64_t i = 0; i < ra_keys; ++i) db.Put(w.data.keys[i], kPutValue);
      db.Flush();
      if (compaction) db.WaitForCompaction();
      const size_t tables = db.num_tables();
      double best = 0;
      uint64_t hits = 0;
      std::string value;
      for (int run = 0; run < 2; ++run) {
        Timer timer;
        for (uint64_t k : queries) hits += db.Get(k, &value);
        best = std::max(best, Mops(queries.size(), timer.ElapsedSeconds()));
      }
      if (hits == 0) std::printf("read_amp: warmup anomaly (0 hits)\n");
      if (compaction) {
        ra_on_mops = best;
        ra_tables_on = tables;
      } else {
        ra_off_mops = best;
        ra_tables_off = tables;
      }
    }
    std::printf("read amplification: compaction off %zu tables Get %7.2f "
                "Mops   on %zu tables Get %7.2f Mops (ratio %.2f)\n",
                ra_tables_off, ra_off_mops, ra_tables_on, ra_on_mops,
                ra_off_mops > 0 ? ra_on_mops / ra_off_mops : 0);
  }
  double read_amp_ratio = ra_off_mops > 0 ? ra_on_mops / ra_off_mops : 0;

  // ---- Sustained ingest vs compaction debt: scheduler width sweep ----
  // The same single-threaded ingest (WAL off, background compaction
  // on, tiny levels so compaction work dominates) with 1, 2 and 4
  // scheduler workers and matching subcompaction fan-out; the timed
  // region includes WaitForCompaction, so the Mops is the SUSTAINED
  // rate — ingest plus paying off the full compaction debt it created.
  // On a multicore host the extra workers drain L0 concurrently with
  // deeper jobs and each job's merge spreads over subcompactions; on a
  // small runner the guard only demands parallel does not collapse
  // below serial (see perf_guard.py's compaction cap).
  const size_t ingest_widths[3] = {1, 2, 4};
  double ingest_mops[3] = {0, 0, 0};
  {
    const uint64_t ingest_keys = smoke ? 150'000 : 600'000;
    for (int cfg = 0; cfg < 3; ++cfg) {
      for (int run = 0; run < 2; ++run) {
        const std::string dir = base_dir + "/ingest";
        std::filesystem::remove_all(dir);
        DbOptions options = db_options;
        options.dir = dir;
        options.wal = false;
        options.memtable_bytes = 256 << 10;
        options.compaction = true;
        options.compaction_threads = ingest_widths[cfg];
        options.max_subcompactions = ingest_widths[cfg];
        options.subcompaction_min_bytes = 0;
        options.l0_compaction_trigger = 4;
        options.level_base_bytes = 1 << 20;
        options.level_size_multiplier = 4;
        Db db(options);
        Timer timer;
        Rng rng(0x1695 + run);
        for (uint64_t i = 0; i < ingest_keys; ++i) {
          db.Put(rng.Next(), kPutValue);
        }
        db.Flush();
        db.WaitForCompaction();
        ingest_mops[cfg] = std::max(
            ingest_mops[cfg], Mops(ingest_keys, timer.ElapsedSeconds()));
      }
      std::printf("sustained ingest, compaction_threads=%zu: %7.2f Mops\n",
                  ingest_widths[cfg], ingest_mops[cfg]);
    }
  }
  double ingest_ratio_2t =
      ingest_mops[0] > 0 ? ingest_mops[1] / ingest_mops[0] : 0;
  double ingest_ratio_4t =
      ingest_mops[0] > 0 ? ingest_mops[2] / ingest_mops[0] : 0;
  std::printf("parallel-compaction ingest ratio: 2 workers %.2fx  "
              "4 workers %.2fx vs serial\n",
              ingest_ratio_2t, ingest_ratio_4t);
  std::filesystem::remove_all(base_dir);

  auto cell_at = [&](size_t shards, size_t threads) -> const CellResult* {
    for (const CellResult& c : cells) {
      if (c.shards == shards && c.threads == threads) return &c;
    }
    return nullptr;
  };
  const CellResult* s8t1 = cell_at(8, 1);
  const CellResult* s8t8 = cell_at(8, 8);
  const CellResult* s1t1 = cell_at(1, 1);
  double multiget_scaling =
      s8t1 && s8t8 && s8t1->multiget_mops > 0
          ? s8t8->multiget_mops / s8t1->multiget_mops
          : 0;
  double scanrange_scaling =
      s8t1 && s8t8 && s8t1->scanrange_qps > 0
          ? s8t8->scanrange_qps / s8t1->scanrange_qps
          : 0;
  double single_shard_ratio =
      s1t1 && baseline.multiget_mops > 0
          ? s1t1->multiget_mops / baseline.multiget_mops
          : 0;
  std::printf("scaling 1->8 threads (8 shards): MultiGet %.2fx  ScanRange "
              "%.2fx;  1-shard/plain-Db MultiGet ratio %.2f\n",
              multiget_scaling, scanrange_scaling, single_shard_ratio);

  // ---- JSON ----------------------------------------------------------
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"lsm_concurrent\",\n  \"smoke\": %s,\n"
               "  \"hardware_concurrency\": %u,\n  \"keys\": %" PRIu64 ",\n"
               "  \"point_ops_per_thread\": %" PRIu64 ",\n"
               "  \"scan_queries_per_thread\": %" PRIu64 ",\n"
               "  \"put_ops_per_thread\": %" PRIu64 ",\n"
               "  \"baseline\": {\"db_get_mops\": %.3f, "
               "\"db_multiget_mops\": %.3f, \"db_scanrange_qps\": %.0f, "
               "\"db_put_mops\": %.3f},\n"
               "  \"scaling\": [\n",
               smoke ? "true" : "false", hw, keys, w.point_ops_per_thread,
               w.scan_queries_per_thread, w.put_ops_per_thread,
               baseline.get_mops, baseline.multiget_mops,
               baseline.scanrange_qps, baseline_put);
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(json,
                 "    {\"shards\": %zu, \"threads\": %zu, "
                 "\"get_mops\": %.3f, \"multiget_mops\": %.3f, "
                 "\"scanrange_qps\": %.0f}%s\n",
                 c.shards, c.threads, c.get_mops, c.multiget_mops,
                 c.scanrange_qps, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"write\": [\n");
  for (size_t i = 0; i < write_cells.size(); ++i) {
    const WriteCell& c = write_cells[i];
    std::fprintf(json,
                 "    {\"shards\": %zu, \"threads\": %zu, "
                 "\"put_mops\": %.3f, \"mixed_mops\": %.3f}%s\n",
                 c.shards, c.threads, c.put_mops, c.mixed_mops,
                 i + 1 < write_cells.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"delete\": [\n");
  for (size_t i = 0; i < delete_cells.size(); ++i) {
    const DeleteCell& c = delete_cells[i];
    std::fprintf(json,
                 "    {\"shards\": %zu, \"threads\": %zu, "
                 "\"delete_mops\": %.3f, \"pdg_mops\": %.3f}%s\n",
                 c.shards, c.threads, c.delete_mops, c.pdg_mops,
                 i + 1 < delete_cells.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"wal\": {\"put_mops_1s1t\": %.3f, "
               "\"put_ratio_1s1t\": %.3f, \"put_mops_max\": %.3f, "
               "\"put_ratio_max\": %.3f, \"max_shards\": %zu, "
               "\"max_threads\": %zu},\n",
               wal_put_1s1t, wal_ratio_1s1t, wal_put_max, wal_ratio_max,
               max_shards, max_threads);
  std::fprintf(json,
               "  \"read_amp\": {\"tables_off\": %zu, \"tables_on\": %zu, "
               "\"get_mops_off\": %.3f, \"get_mops_on\": %.3f, "
               "\"get_ratio\": %.3f},\n",
               ra_tables_off, ra_tables_on, ra_off_mops, ra_on_mops,
               read_amp_ratio);
  std::fprintf(json,
               "  \"compaction\": {\"ingest_mops_1t\": %.3f, "
               "\"ingest_mops_2t\": %.3f, \"ingest_mops_4t\": %.3f, "
               "\"ingest_ratio_2t\": %.3f, \"ingest_ratio_4t\": %.3f},\n",
               ingest_mops[0], ingest_mops[1], ingest_mops[2], ingest_ratio_2t,
               ingest_ratio_4t);
  // Conservative floors (0.8x of this run) for scripts/perf_guard.py.
  // Host mismatch (a multicore bench host gating a small CI runner, or
  // vice versa) is handled by the guard itself: runners with fewer
  // than 8 cores are only required not to collapse below serial speed,
  // whatever the committed scaling floor says. The WAL ratio floor is
  // core-count independent (both sides of the ratio run on the same
  // host) but clamped at 1.0 before the 0.8x — a measured ratio above
  // 1 is scheduler noise (the WAL cannot make puts faster), and
  // baking it in would demand more than lossless from every CI run.
  // The read-amp ratio floor is clamped at 1.2 before the 0.8x: the
  // leveled tree's Get win over the L0 pile varies with store shape,
  // so the gate only demands that compaction never makes point reads
  // slower — a bigger measured win is reported, not required.
  auto capped = [](double r) { return std::min(r, 1.0); };
  std::fprintf(json,
               "  \"guard\": {\"multiget_scaling_8t\": %.3f, "
               "\"scanrange_scaling_8t\": %.3f, "
               "\"single_shard_multiget_ratio\": %.3f, "
               "\"put_scaling_8t\": %.3f, \"mixed_scaling_8t\": %.3f, "
               "\"delete_scaling_8t\": %.3f, \"pdg_scaling_8t\": %.3f, "
               "\"delete_put_ratio\": %.3f, "
               "\"wal_put_ratio\": %.3f, \"read_amp_get_ratio\": %.3f, "
               "\"compaction_ingest_ratio_4t\": %.3f}\n}\n",
               multiget_scaling * 0.8, scanrange_scaling * 0.8,
               single_shard_ratio * 0.8, capped(put_scaling) * 0.8,
               capped(mixed_scaling) * 0.8, capped(delete_scaling) * 0.8,
               capped(pdg_scaling) * 0.8, capped(delete_put_ratio) * 0.8,
               capped(wal_ratio_1s1t) * 0.8,
               std::min(read_amp_ratio, 1.2) * 0.8,
               // Clamped at 1.3 before the 0.8x: on a big host the
               // committed floor demands a real parallel win (>= ~1.04x
               // after the CI 0.9 ratio); small runners are re-capped by
               // the guard to "no collapse below serial".
               std::min(ingest_ratio_4t, 1.3) * 0.8);
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
