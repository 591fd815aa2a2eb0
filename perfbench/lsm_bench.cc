// Single-client closed-loop benchmark of the bloomRF LSM store (Db).
//
//   lsm_bench --workload <filter_l0|cached_leveled|ingest_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--build-id <id>] [--commit <id>]
//
// One client thread issues one Db verb at a time and checks every
// answer. The request stream is generated from the seed before timing
// starts. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// same requests with a span around every verb call, replays each
// request into the layers (replay.h) and prints the per-layer metrics.
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// perfbench/README.md describes the workloads and every metric.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "replay.h"
#include "util/simd.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using bloomrf::Db;
using bloomrf::DbOptions;

// ------------------------------------------------------- fixed setup

constexpr double kFilterBitsPerKey = 16;
constexpr double kFilterMaxRange = 1 << 20;
constexpr size_t kBlockSize = 4096;
constexpr size_t kMultiGetKeys = 32;
constexpr uint64_t kUserBytesPerPut = 8 + kValueBytes;
/// A Put that took longer than this may have flushed its memtable; only
/// such Puts are checked for a new table (a flush takes milliseconds).
constexpr int64_t kFlushCheckNs = 200000;
/// Latency quantiles are medians over this many consecutive chunks of
/// a verb's calls, and ops_per_s the median over this many equal time
/// slices of the phase (see ChunkedSummary).
constexpr size_t kChunks = 20;
/// Spans kept in memory (and written out) per traced run; totals cover
/// every span.
constexpr size_t kKeptSpans = 250000;
/// Filter probes of the false-positive pass, shared out by file size.
constexpr size_t kFprPointProbes = 2000000;
constexpr size_t kFprRangeProbes = 400000;

struct WorkloadSpec {
  const char* name;
  size_t keys;              // loaded in set-up
  uint64_t memtable_bytes;
  size_t cache_bytes;
  bool compaction;          // background leveled compaction
  bool compact_all;         // merge the load into one sorted run
  bool warm_cache;          // read every block once after set-up
  bool ingest;              // the timed phase writes
  size_t stream_ops;        // generated requests (frozen: cycled)
  size_t window_ops;        // requests whose exact counts are compared
  /// Set-ups per run; setup_s is their median. ingest_mixed measures the
  /// last one's store. The frozen workloads split the timed phase into
  /// one round per set-up, each reading the store its set-up built, so
  /// the set-ups (and the load cycles ingest_mb_per_s comes from) are
  /// spread through the run like the reads.
  size_t setups;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"filter_l0", 1000000, 2ull << 20, 4ull << 20, false, false, false, false,
     200000, 20000, 5},
    {"cached_leveled", 1000000, 2ull << 20, 256ull << 20, false, true, true,
     false, 400000, 40000, 5},
    {"ingest_mixed", 500000, 1ull << 20, 256ull << 20, true, true, false, true,
     3000000, 0, 3},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ------------------------------------------------------------ requests

enum class Verb : uint8_t { kGet, kMultiGet, kScan, kPut, kDelete };
constexpr size_t kVerbs = 5;
constexpr const char* kVerbNames[kVerbs] = {"get", "multiget", "scan_range",
                                            "put", "delete"};

struct Op {
  Verb verb;
  uint32_t arg;  // index into keys (Get/MultiGet/Put/Delete) or ranges
};

struct Stream {
  std::vector<Op> ops;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> los, his;
  size_t ranges_per_scan = 0;
  size_t scan_limit = 16;
};

/// YCSB's Zipfian generator over ranks [0, n); n may grow.
class Zipf {
 public:
  Zipf(uint64_t n, double theta)
      : theta_(theta), zeta2_(1 + std::pow(0.5, theta)) {
    Grow(n);
  }
  void Grow(uint64_t n) {
    for (; n_ < n; ++n_) zetan_ += 1 / std::pow(static_cast<double>(n_ + 1), theta_);
    eta_ = (1 - std::pow(2.0 / static_cast<double>(n_), 1 - theta_)) /
           (1 - zeta2_ / zetan_);
  }
  uint64_t Next(Rng* rng) const {
    const double u = rng->Unit();
    const double uz = u * zetan_;
    if (uz < 1) return 0;
    if (uz < zeta2_) return 1;
    const auto r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1, 1 / (1 - theta_)));
    return std::min(r, n_ - 1);
  }

 private:
  double theta_;
  double zeta2_;
  uint64_t n_ = 0;
  double zetan_ = 0;
  double eta_ = 0;
};

/// Uniform distinct keys in load order, plus the same keys sorted.
struct Dataset {
  std::vector<uint64_t> load_order;
  std::vector<uint64_t> sorted;
};

Dataset MakeDataset(uint64_t seed, size_t n) {
  Rng rng(seed * 0x5851f42d4c957f2dULL + 1);
  Dataset d;
  d.load_order.resize(n);
  for (uint64_t& k : d.load_order) k = rng.Next();
  d.sorted = d.load_order;
  std::sort(d.sorted.begin(), d.sorted.end());
  if (std::adjacent_find(d.sorted.begin(), d.sorted.end()) != d.sorted.end()) {
    d.sorted.erase(std::unique(d.sorted.begin(), d.sorted.end()), d.sorted.end());
    std::vector<uint64_t> seen;
    std::vector<uint64_t> order;
    for (uint64_t k : d.load_order) {
      auto it = std::lower_bound(seen.begin(), seen.end(), k);
      if (it != seen.end() && *it == k) continue;
      seen.insert(it, k);
      order.push_back(k);
    }
    d.load_order = std::move(order);
  }
  return d;
}

uint64_t AbsentKey(Rng* rng, const std::vector<uint64_t>& sorted) {
  for (;;) {
    const uint64_t k = rng->Next();
    if (!std::binary_search(sorted.begin(), sorted.end(), k)) return k;
  }
}

/// [lo, lo + w - 1] with w log-uniform in [2^2, 2^20].
std::pair<uint64_t, uint64_t> LogUniformRange(Rng* rng) {
  const double bits = 2 + 18 * rng->Unit();
  const auto width = static_cast<uint64_t>(std::exp2(bits));
  const uint64_t lo = rng->Next();
  const uint64_t hi = lo > UINT64_MAX - (width - 1) ? UINT64_MAX : lo + width - 1;
  return {lo, hi};
}

Stream MakeFilterL0Stream(uint64_t seed, const WorkloadSpec& spec,
                          const Dataset& d) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  Stream s;
  s.ranges_per_scan = 16;
  auto point = [&] {
    return rng.Below(10) == 0 ? d.sorted[rng.Below(d.sorted.size())]
                              : AbsentKey(&rng, d.sorted);
  };
  for (size_t i = 0; i < spec.stream_ops; ++i) {
    const uint64_t r = rng.Below(100);
    if (r < 70) {
      s.ops.push_back({Verb::kGet, static_cast<uint32_t>(s.keys.size())});
      s.keys.push_back(point());
    } else if (r < 80) {
      s.ops.push_back({Verb::kMultiGet, static_cast<uint32_t>(s.keys.size())});
      for (size_t k = 0; k < kMultiGetKeys; ++k) s.keys.push_back(point());
    } else {
      s.ops.push_back({Verb::kScan, static_cast<uint32_t>(s.los.size())});
      for (size_t k = 0; k < s.ranges_per_scan; ++k) {
        auto [lo, hi] = LogUniformRange(&rng);
        s.los.push_back(lo);
        s.his.push_back(hi);
      }
    }
  }
  return s;
}

Stream MakeCachedStream(uint64_t seed, const WorkloadSpec& spec,
                        const Dataset& d) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  const size_t n = d.sorted.size();
  // Zipf ranks map to keys through a fixed shuffle, so hot keys are
  // spread over every table instead of packed into one.
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.Below(i + 1)]);
  Zipf zipf(n, 0.99);
  Stream s;
  s.ranges_per_scan = 8;
  for (size_t i = 0; i < spec.stream_ops; ++i) {
    const uint64_t r = rng.Below(100);
    if (r < 60) {
      s.ops.push_back({Verb::kGet, static_cast<uint32_t>(s.keys.size())});
      s.keys.push_back(d.sorted[perm[zipf.Next(&rng)]]);
    } else if (r < 80) {
      s.ops.push_back({Verb::kMultiGet, static_cast<uint32_t>(s.keys.size())});
      for (size_t k = 0; k < kMultiGetKeys; ++k) {
        s.keys.push_back(d.sorted[perm[zipf.Next(&rng)]]);
      }
    } else {
      s.ops.push_back({Verb::kScan, static_cast<uint32_t>(s.los.size())});
      for (size_t k = 0; k < s.ranges_per_scan; ++k) {
        const size_t first = std::min<size_t>(perm[zipf.Next(&rng)], n - 16);
        s.los.push_back(d.sorted[first]);
        s.his.push_back(d.sorted[first + 15]);  // 16 keys, limit 16
      }
    }
  }
  return s;
}

/// ingest_mixed: 50% Put (90% new keys, 10% overwrites), 5% Delete,
/// 33% Get, 2% MultiGet, 10% ScanRange of 4 short ranges. Reads and
/// overwrites pick written keys latest-biased (Zipfian over recency).
Stream MakeIngestStream(uint64_t seed, const WorkloadSpec& spec,
                        const Dataset& d) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  std::vector<uint64_t> written = d.load_order;
  written.reserve(written.size() + spec.stream_ops / 2 + 1);
  Zipf zipf(written.size(), 0.99);
  auto latest = [&] { return written[written.size() - 1 - zipf.Next(&rng)]; };
  // About 8 keys per range at the start: 8 mean key gaps wide.
  const uint64_t width = 8 * (UINT64_MAX / d.load_order.size());
  Stream s;
  s.ranges_per_scan = 4;
  for (size_t i = 0; i < spec.stream_ops; ++i) {
    const uint64_t r = rng.Below(100);
    if (r < 50) {
      s.ops.push_back({Verb::kPut, static_cast<uint32_t>(s.keys.size())});
      if (rng.Below(10) == 0) {
        s.keys.push_back(latest());
      } else {
        s.keys.push_back(rng.Next());
        written.push_back(s.keys.back());
        zipf.Grow(written.size());
      }
    } else if (r < 55) {
      s.ops.push_back({Verb::kDelete, static_cast<uint32_t>(s.keys.size())});
      s.keys.push_back(latest());
    } else if (r < 88) {
      s.ops.push_back({Verb::kGet, static_cast<uint32_t>(s.keys.size())});
      s.keys.push_back(latest());
    } else if (r < 90) {
      s.ops.push_back({Verb::kMultiGet, static_cast<uint32_t>(s.keys.size())});
      for (size_t k = 0; k < kMultiGetKeys; ++k) s.keys.push_back(latest());
    } else {
      s.ops.push_back({Verb::kScan, static_cast<uint32_t>(s.los.size())});
      for (size_t k = 0; k < s.ranges_per_scan; ++k) {
        const uint64_t lo = latest();
        s.los.push_back(lo);
        s.his.push_back(lo > UINT64_MAX - width ? UINT64_MAX : lo + width);
      }
    }
  }
  return s;
}

// ------------------------------------------------------------ counters

/// Engine counters at one instant; differences give per-phase deltas.
struct Counters {
  uint64_t filter_probes = 0, filter_negatives = 0;
  uint64_t blocks_read = 0, bytes_read = 0;
  uint64_t wal_appends = 0, wal_bytes = 0, group_commits = 0;
  uint64_t compactions = 0, compaction_bytes_written = 0, compaction_micros = 0;
  uint64_t tombstones_dropped = 0, manifest_appends = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t point_false = 0, point_negatives = 0;
  uint64_t range_false = 0, range_negatives = 0;
  uint64_t sst_files = 0;

  static Counters Take(const Db& db) {
    const bloomrf::LsmStats& st = db.stats();
    Counters c;
    c.filter_probes = st.filter_probes.load();
    c.filter_negatives = st.filter_negatives.load();
    c.blocks_read = st.blocks_read.load();
    c.bytes_read = st.bytes_read.load();
    c.wal_appends = st.wal_appends.load();
    c.wal_bytes = st.wal_synced_bytes.load();
    c.group_commits = st.group_commit_batches.load();
    c.compactions = st.compactions.load();
    c.compaction_bytes_written = st.compaction_bytes_written.load();
    for (const auto& micros : st.compaction_micros_level) {
      c.compaction_micros += micros.load();
    }
    c.tombstones_dropped = st.tombstones_dropped.load();
    c.manifest_appends = st.manifest_appends.load();
    if (db.block_cache() != nullptr) {
      c.cache_hits = db.block_cache()->hits();
      c.cache_misses = db.block_cache()->misses();
      c.cache_evictions = db.block_cache()->evictions();
    }
    for (const auto& b : db.CollectFilterFeedback().backends) {
      c.point_false += b.point_false;
      c.point_negatives += b.point_negatives;
      c.range_false += b.range_false;
      c.range_negatives += b.range_negatives;
    }
    c.sst_files = db.flush_stats().sst_files;
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.filter_probes = filter_probes - o.filter_probes;
    d.filter_negatives = filter_negatives - o.filter_negatives;
    d.blocks_read = blocks_read - o.blocks_read;
    d.bytes_read = bytes_read - o.bytes_read;
    d.wal_appends = wal_appends - o.wal_appends;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.group_commits = group_commits - o.group_commits;
    d.compactions = compactions - o.compactions;
    d.compaction_bytes_written = compaction_bytes_written - o.compaction_bytes_written;
    d.compaction_micros = compaction_micros - o.compaction_micros;
    d.tombstones_dropped = tombstones_dropped - o.tombstones_dropped;
    d.manifest_appends = manifest_appends - o.manifest_appends;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cache_evictions = cache_evictions - o.cache_evictions;
    // Filter outcomes are summed over the live tables; a compaction
    // that retires tables can shrink them, which never happens inside
    // the windows these deltas are taken over (frozen trees).
    d.point_false = point_false - o.point_false;
    d.point_negatives = point_negatives - o.point_negatives;
    d.range_false = range_false - o.range_false;
    d.range_negatives = range_negatives - o.range_negatives;
    d.sst_files = sst_files - o.sst_files;
    return d;
  }
};

uint64_t StoreBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t SstBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".sst") total += entry.file_size(ec);
  }
  return total;
}

// ----------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string build_id = "unknown";
  std::string commit = "unknown";
};

/// One set-up of the workload's store, and what it cost.
struct Setup {
  std::string dir;
  std::unique_ptr<Db> db;
  double seconds = 0;
  int64_t compact_all_start_ns = 0, compact_all_end_ns = 0;
  Counters before;          // counters at open
  Counters after_load;
  Counters before_compact, after_compact;
  size_t errors = 0;
};

/// The store a set-up built: files per level, SST bytes and filter bits.
/// Every set-up of a frozen workload builds the same one for a seed.
struct StartState {
  std::vector<size_t> levels;
  uint64_t sst_bytes = 0, filter_bits = 0;

  static StartState Of(const Setup& s) {
    return {s.db->level_table_counts(), SstBytes(s.dir), s.db->filter_memory_bits()};
  }
  bool operator==(const StartState&) const = default;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        policy_(bloomrf::NewBloomRFPolicy(kFilterBitsPerKey, kFilterMaxRange)),
        tracer_(args.trace ? kKeptSpans : 0) {}

  int Run();

 private:
  DbOptions Options(const std::string& dir);
  Setup SetUp(size_t run);
  void NextSetup(Setup* setup, size_t run);
  void TearDown(Setup* setup);
  void RunFrozenPhase(Setup* setup);
  void RunIngestPhase(Setup* setup);
  void RunReadPass(Setup* setup, const std::vector<uint64_t>& live);
  void MeasureFpr(const Setup& setup, const std::vector<uint64_t>& live);
  void ReplayLoad(Setup* setup);
  void CheckFingerprint(const std::string& fingerprint);
  void Report();

  /// Issues one read verb and returns the digest of its answer.
  uint64_t ReadOp(Db* db, const Op& op, uint64_t request, TreeReplay* replay,
                  bool pass);
  void VerifyFrozen();
  void VerifyIngest();

  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  std::shared_ptr<bloomrf::FilterPolicy> policy_;
  NoSyncEnv env_;
  Tracer tracer_;
  Dataset data_;
  Stream stream_;
  std::optional<KeyModel> shadow_;  // ingest_mixed's expected contents
  Tally tally_;
  /// Digest of the answer of every timed call, in call order.
  std::vector<uint64_t> digests_;
  std::vector<std::string> notes_;
  /// Wall time of each stage of the run, for sizing --seconds.
  std::vector<std::pair<const char*, double>> stages_;
  int64_t stage_start_ns_ = NowNs();
  void EndStage(const char* name) {
    const int64_t now = NowNs();
    stages_.push_back({name, static_cast<double>(now - stage_start_ns_) / 1e9});
    stage_start_ns_ = now;
  }

  std::vector<double> setup_seconds_;
  StartState start_;  // what the frozen workloads' first set-up built
  /// Frozen workloads: MB/s of each load cycle of every set-up, a cycle
  /// being the Puts that fill one memtable and the flush of it.
  std::vector<double> load_cycle_mb_per_s_;
  std::vector<double> latency_us_[kVerbs];
  std::vector<double> write_us_;  // Put and Delete calls of the measured writes
  /// One verb call of the timed phase, ending at `end_ns`.
  void CountCall(int64_t start_ns, int64_t end_ns);
  int64_t phase_begin_ns_ = 0;
  double slice_busy_ns_[kChunks] = {};
  uint64_t slice_calls_[kChunks] = {};
  uint64_t verb_calls_ = 0;
  double phase_seconds_ = 0;
  double ingest_mb_per_s_ = 0;
  double replay_ns_ = 0;
  uint64_t get_calls_ = 0, get_probes_ = 0;
  uint64_t scan_ranges_ = 0, scan_rows_ = 0;
  uint64_t l0_files_max_ = 0;
  uint64_t live_bytes_ = 0;
  double drain_seconds_ = 0;
  Counters window_, reads_;  // exact-count window; read-layer window
  TreeReplay::FprCounts fpr_;
  uint64_t read_ops_ = 0;
  Counters writes_;          // write-layer window
  uint64_t user_bytes_ = 0;  // bytes written in the write-layer window
  Counters compaction_;      // compaction-layer window
  double compact_all_seconds_ = 0;
  double space_amp_ = 0;
  double point_fpr_ = 0, range_fpr_ = 0;
  double filter_bits_per_key_ = 0;
  double cache_resident_mb_ = 0;
  uint64_t tables_admitted_ = 0, replayed_gets_ = 0;
  std::vector<std::tuple<std::string, double, const char*>> metrics_;
};

DbOptions Bench::Options(const std::string& dir) {
  DbOptions o;
  o.dir = dir;
  o.filter_policy = policy_;
  o.block_size = kBlockSize;
  o.memtable_bytes = spec_.memtable_bytes;
  o.block_cache_bytes = spec_.cache_bytes;
  o.env = &env_;
  // The frozen workloads bulk-load on one thread: no WAL, and each full
  // memtable is written by the Put that fills it.
  o.wal = spec_.ingest;
  o.background_flush = spec_.ingest;
  o.compaction = spec_.compaction;
  if (spec_.compaction) {
    // Small level budgets, so the phase runs many compaction cycles.
    // One worker: client + flush + compaction threads leave one of the
    // four vCPUs free, which cut the run-to-run spread of ingest
    // timings from 11-25% to 3-9% (five seeds each, see README).
    o.compaction_threads = 1;
    o.max_subcompactions = 1;
    o.l0_compaction_trigger = 4;
    o.level_base_bytes = 4ull << 20;
    o.level_size_multiplier = 4;
  }
  return o;
}

/// Reads every block once through the Db's own read path; `keys` are
/// the live keys, ascending.
void WarmDbCache(Db* db, const std::vector<uint64_t>& keys) {
  const size_t chunk = 4096;
  for (size_t i = 0; i < keys.size(); i += chunk) {
    const size_t last = std::min(keys.size(), i + chunk) - 1;
    db->RangeScan(keys[i], keys[last], chunk);
  }
}

Setup Bench::SetUp(size_t run) {
  Setup s;
  s.dir = args_.out_dir + "/store-" + spec_.name + "-" +
          std::to_string(::getpid()) + "-" + std::to_string(run);
  std::error_code ec;
  fs::remove_all(s.dir, ec);
  const int64_t start = NowNs();
  s.db = std::make_unique<Db>(Options(s.dir));
  s.before = Counters::Take(*s.db);
  char value[kValueBytes];
  size_t tables = 0, cycle_puts = 0;
  int64_t cycle_start = NowNs();
  auto end_cycle = [&](int64_t end_ns) {
    load_cycle_mb_per_s_.push_back(static_cast<double>(cycle_puts * kUserBytesPerPut) /
                                   1e6 / (static_cast<double>(end_ns - cycle_start) / 1e9));
    cycle_puts = 0;
    cycle_start = end_ns;
  };
  for (uint64_t key : data_.load_order) {
    FillValue(key, 0, value);
    const int64_t t0 = NowNs();
    const bool ok = s.db->Put(key, {value, kValueBytes});
    const int64_t t1 = NowNs();
    if (!ok) ++s.errors;
    if (spec_.ingest) continue;
    write_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
    ++cycle_puts;
    if (t1 - t0 > kFlushCheckNs && s.db->num_tables() != tables) {
      tables = s.db->num_tables();
      end_cycle(t1);
    }
  }
  if (!s.db->Flush()) ++s.errors;
  if (!spec_.ingest && cycle_puts > 0) end_cycle(NowNs());
  s.after_load = Counters::Take(*s.db);
  if (spec_.compact_all) {
    if (!s.db->WaitForCompaction()) ++s.errors;
    s.before_compact = Counters::Take(*s.db);
    s.compact_all_start_ns = NowNs();
    if (!s.db->CompactAll()) ++s.errors;
    s.compact_all_end_ns = NowNs();
    s.after_compact = Counters::Take(*s.db);
  }
  if (spec_.warm_cache) WarmDbCache(s.db.get(), data_.sorted);
  s.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return s;
}

/// Replaces `setup` with a new set-up of the store and records its cost.
void Bench::NextSetup(Setup* setup, size_t run) {
  if (setup->db != nullptr) TearDown(setup);
  *setup = SetUp(run);
  setup_seconds_.push_back(setup->seconds);
  for (size_t e = 0; e < setup->errors; ++e) tally_.Record(false, "setup");
  if (spec_.ingest) return;
  const StartState state = StartState::Of(*setup);
  if (run == 0) {
    start_ = state;
  } else if (state != start_) {
    notes_.push_back("determinism: set-up " + std::to_string(run) +
                     " built another store than set-up 0");
    tally_.Record(false, "determinism");
  }
}

void Bench::TearDown(Setup* setup) {
  setup->db.reset();
  std::error_code ec;
  fs::remove_all(setup->dir, ec);
}

void Bench::CountCall(int64_t start_ns, int64_t end_ns) {
  const double phase_ns = args_.seconds * 1e9;
  const auto slice = static_cast<size_t>(
      static_cast<double>(end_ns - phase_begin_ns_) / phase_ns * kChunks);
  const size_t s = std::min(slice, kChunks - 1);
  slice_busy_ns_[s] += static_cast<double>(end_ns - start_ns);
  ++slice_calls_[s];
  ++verb_calls_;
}

/// Digest of the answer `op` expects from `model` (reads only).
template <class Model>
uint64_t ExpectedDigest(const Model& model, const Stream& s, const Op& op) {
  uint64_t h = 0;
  switch (op.verb) {
    case Verb::kGet:
      return ExpectedPointDigest(model, s.keys[op.arg]);
    case Verb::kMultiGet:
      for (size_t i = 0; i < kMultiGetKeys; ++i) {
        h = Combine(h, ExpectedPointDigest(model, s.keys[op.arg + i]));
      }
      return h;
    case Verb::kScan:
      for (size_t i = 0; i < s.ranges_per_scan; ++i) {
        h = Combine(h, ExpectedRowsDigest(model, s.los[op.arg + i],
                                          s.his[op.arg + i], s.scan_limit));
      }
      return h;
    default:
      return 0;
  }
}

/// Digest a write call records: the expected one when it returned true.
constexpr uint64_t kWriteOk = 0x5ca1ab1e0ddba11ULL;

uint64_t Bench::ReadOp(Db* db, const Op& op, uint64_t request,
                       TreeReplay* replay, bool pass) {
  const uint32_t req = static_cast<uint32_t>(request);
  const uint32_t verb_id = args_.trace ? tracer_.NewId() : 0;
  int64_t t0 = 0, t1 = 0, children = 0;
  uint64_t digest = 0;
  SpanName name = SpanName::kGet;
  switch (op.verb) {
    case Verb::kGet: {
      const uint64_t key = stream_.keys[op.arg];
      std::string value;
      const uint64_t probes = db->stats().filter_probes.load();
      t0 = NowNs();
      const bool found = db->Get(key, &value);
      t1 = NowNs();
      get_probes_ += db->stats().filter_probes.load() - probes;
      ++get_calls_;
      digest = found ? BytesDigest(value) : kAbsentDigest;
      name = pass ? SpanName::kPassGet : SpanName::kGet;
      if (replay != nullptr) {
        const size_t before = replay->get_tables_admitted();
        children = replay->Get(key, req, verb_id, &tracer_);
        tables_admitted_ += replay->get_tables_admitted() - before;
        ++replayed_gets_;
      }
      break;
    }
    case Verb::kMultiGet: {
      const std::span<const uint64_t> keys(&stream_.keys[op.arg], kMultiGetKeys);
      t0 = NowNs();
      const auto answers = db->MultiGet(keys);
      t1 = NowNs();
      for (const auto& answer : answers) digest = Combine(digest, PointDigest(answer));
      name = pass ? SpanName::kPassMultiGet : SpanName::kMultiGet;
      if (replay != nullptr) children = replay->MultiGet(keys, req, verb_id, &tracer_);
      break;
    }
    case Verb::kScan: {
      const size_t n = stream_.ranges_per_scan;
      const std::span<const uint64_t> los(&stream_.los[op.arg], n);
      const std::span<const uint64_t> his(&stream_.his[op.arg], n);
      t0 = NowNs();
      const auto rows = db->ScanRange(los, his, stream_.scan_limit);
      t1 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        digest = Combine(digest, RowsDigest(rows[i]));
        if (!pass) scan_rows_ += rows[i].size();
      }
      if (!pass) scan_ranges_ += n;
      name = pass ? SpanName::kPassScanRange : SpanName::kScanRange;
      if (replay != nullptr) {
        children = replay->ScanRange(los, his, stream_.scan_limit, req, verb_id,
                                     &tracer_);
      }
      break;
    }
    default:
      return 0;
  }
  if (!pass) {
    latency_us_[static_cast<size_t>(op.verb)].push_back(
        static_cast<double>(t1 - t0) / 1e3);
    CountCall(t0, t1);
  }
  if (args_.trace) {
    tracer_.Add(verb_id, 0, req, name, t0, t1, 1, children);
    if (replay != nullptr && !pass) {
      const int64_t r1 = NowNs();
      replay_ns_ += static_cast<double>(r1 - t1);
      tracer_.AddChild(verb_id, req, SpanName::kReplay, t1, r1, 0);
    }
  }
  return digest;
}

void Bench::VerifyFrozen() {
  const KeyModel model(data_.sorted, /*live=*/true);
  const size_t n = stream_.ops.size();
  std::vector<uint64_t> expected(n);
  std::vector<char> known(n, 0);
  for (size_t i = 0; i < digests_.size(); ++i) {
    const size_t j = i % n;
    if (!known[j]) {
      expected[j] = ExpectedDigest(model, stream_, stream_.ops[j]);
      known[j] = 1;
    }
    tally_.Record(digests_[i] == expected[j],
                  kVerbNames[static_cast<size_t>(stream_.ops[j].verb)]);
  }
}

/// Replays the executed calls into the shadow in order: each write is
/// applied, each read compared with the shadow as of that call.
void Bench::VerifyIngest() {
  // The universe: the preloaded keys and every key a Put may write.
  std::vector<uint64_t> universe = data_.sorted;
  for (const Op& op : stream_.ops) {
    if (op.verb == Verb::kPut) universe.push_back(stream_.keys[op.arg]);
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  shadow_.emplace(std::move(universe), /*live=*/false);
  for (uint64_t key : data_.sorted) shadow_->Put(key, 0);
  for (size_t i = 0; i < digests_.size(); ++i) {
    const Op& op = stream_.ops[i];
    uint64_t expected = kWriteOk;
    if (op.verb == Verb::kPut) {
      shadow_->Put(stream_.keys[op.arg], static_cast<uint32_t>(i + 1));
    } else if (op.verb == Verb::kDelete) {
      shadow_->Erase(stream_.keys[op.arg]);
    } else {
      expected = ExpectedDigest(*shadow_, stream_, op);
    }
    tally_.Record(digests_[i] == expected, kVerbNames[static_cast<size_t>(op.verb)]);
  }
}

/// The frozen workloads' set-ups and timed phase: one round per set-up,
/// each a new store and its share of --seconds of requests. The stream
/// continues from round to round; the phase clock (ops_per_s slices)
/// counts only the rounds' request time.
void Bench::RunFrozenPhase(Setup* setup) {
  const int64_t phase_ns = static_cast<int64_t>(args_.seconds * 1e9);
  const auto rounds = static_cast<int64_t>(spec_.setups);
  int64_t elapsed_ns = 0;  // request time of the rounds before
  uint64_t i = 0;
  for (size_t round = 0; round < spec_.setups; ++round) {
    NextSetup(setup, round);
    Db* db = setup->db.get();
    std::unique_ptr<TreeReplay> replay;
    if (args_.trace) {
      std::string error;
      replay = TreeReplay::Open(setup->dir, policy_.get(), spec_.cache_bytes, &error);
      if (replay == nullptr) {
        notes_.push_back("replay: " + error);
        ++tally_.failed;
        return;
      }
      if (spec_.warm_cache) replay->WarmCache();
    }
    const Counters start = Counters::Take(*db);
    l0_files_max_ = db->level_table_counts()[0];
    const int64_t begin = NowNs();
    phase_begin_ns_ = begin - elapsed_ns;
    const int64_t deadline = begin + phase_ns * (static_cast<int64_t>(round) + 1) / rounds -
                             elapsed_ns;
    const uint64_t first = i;
    // A round lasts its share of --seconds; the first, at least until the
    // exact-count window on the fresh store has completed.
    for (; NowNs() < deadline || i < spec_.window_ops; ++i) {
      digests_.push_back(ReadOp(db, stream_.ops[i % stream_.ops.size()], i,
                                replay.get(), /*pass=*/false));
      if (i + 1 == spec_.window_ops) window_ = Counters::Take(*db) - start;
    }
    elapsed_ns += NowNs() - begin;
    // The read-layer counters are the last round's.
    reads_ = Counters::Take(*db) - start;
    read_ops_ = i - first;
  }
  phase_seconds_ = static_cast<double>(elapsed_ns) / 1e9;
  VerifyFrozen();
  cache_resident_mb_ =
      static_cast<double>(setup->db->block_cache()->charge_bytes()) / (1 << 20);
  if (args_.trace) {
    // memtable.find: the phase's Get keys against a full memtable
    // filled by this workload's load.
    ReplayLoad(setup);
  }
}

void Bench::ReplayLoad(Setup* setup) {
  WriteReplay writes(setup->dir + "-replay", policy_.get(), spec_.memtable_bytes,
                     kBlockSize, &env_, /*max_builds=*/8);
  uint32_t request = 0;
  char value[kValueBytes];
  for (uint64_t key : data_.load_order) {
    FillValue(key, 0, value);
    writes.Put(key, {value, kValueBytes}, request++, 0, &tracer_);
  }
  writes.FindInFullestMemtable();
  for (const Op& op : stream_.ops) {
    if (op.verb == Verb::kGet) writes.Find(stream_.keys[op.arg], request++, 0, &tracer_);
  }
}

void Bench::RunIngestPhase(Setup* setup) {
  Db* db = setup->db.get();
  std::unique_ptr<WriteReplay> writes;
  if (args_.trace) {
    writes = std::make_unique<WriteReplay>(setup->dir + "-replay", policy_.get(),
                                           spec_.memtable_bytes, kBlockSize,
                                           &env_, /*max_builds=*/16);
  }
  digests_.reserve(stream_.ops.size());
  const Counters start = Counters::Take(*db);
  const int64_t begin = NowNs();
  phase_begin_ns_ = begin;
  const int64_t deadline = begin + static_cast<int64_t>(args_.seconds * 1e9);
  uint64_t i = 0;
  for (; i < stream_.ops.size() && NowNs() < deadline; ++i) {
    const Op& op = stream_.ops[i];
    const uint32_t req = static_cast<uint32_t>(i);
    if (op.verb != Verb::kPut && op.verb != Verb::kDelete) {
      digests_.push_back(ReadOp(db, op, i, nullptr, /*pass=*/false));
      if (writes != nullptr && op.verb == Verb::kGet) {
        const int64_t r0 = NowNs();
        writes->Find(stream_.keys[op.arg], req, 0, &tracer_);
        const int64_t r1 = NowNs();
        replay_ns_ += static_cast<double>(r1 - r0);
      }
    } else {
      const uint64_t key = stream_.keys[op.arg];
      const uint32_t version = static_cast<uint32_t>(i + 1);
      const bool put = op.verb == Verb::kPut;
      char value[kValueBytes];
      if (put) FillValue(key, version, value);
      const std::string_view value_view(value, put ? kValueBytes : 0);
      const uint32_t verb_id = args_.trace ? tracer_.NewId() : 0;
      const int64_t t0 = NowNs();
      const bool ok = put ? db->Put(key, value_view) : db->Delete(key);
      const int64_t t1 = NowNs();
      digests_.push_back(ok ? kWriteOk : 0);
      user_bytes_ += put ? kUserBytesPerPut : 8;
      latency_us_[static_cast<size_t>(op.verb)].push_back(
          static_cast<double>(t1 - t0) / 1e3);
      write_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      CountCall(t0, t1);
      if (writes != nullptr) {
        const int64_t children = put ? writes->Put(key, value_view, req, verb_id, &tracer_)
                                     : writes->Delete(key, req, verb_id, &tracer_);
        const int64_t r1 = NowNs();
        replay_ns_ += static_cast<double>(r1 - t1);
        tracer_.Add(verb_id, 0, req, put ? SpanName::kPut : SpanName::kDelete, t0,
                    t1, 1, children);
      }
    }
    if ((i & 1023) == 0) {
      l0_files_max_ = std::max<uint64_t>(l0_files_max_, db->level_table_counts()[0]);
    }
  }
  const int64_t phase_end = NowNs();
  EndStage("phase");
  if (i == stream_.ops.size()) {
    notes_.push_back("the generated stream ran out before --seconds");
  }
  if (!db->Flush()) tally_.Record(false, "flush");
  const int64_t d0 = NowNs();
  if (!db->WaitForCompaction()) tally_.Record(false, "wait_for_compaction");
  const int64_t end = NowNs();
  drain_seconds_ = static_cast<double>(end - d0) / 1e9;
  if (args_.trace) {
    tracer_.AddChild(0, 0, SpanName::kDrain, d0, end, 0);
  }
  phase_seconds_ = static_cast<double>(phase_end - begin) / 1e9;
  ingest_mb_per_s_ = static_cast<double>(user_bytes_) / 1e6 /
                     (static_cast<double>(end - begin) / 1e9);
  writes_ = Counters::Take(*db) - start;
  compaction_ = writes_;
  EndStage("drain");
  VerifyIngest();
}

/// ingest_mixed's traced read pass on the drained tree: absent and
/// present Gets, MultiGets of absent keys and ScanRanges of empty
/// ranges, replayed into the read layers on a tree no background work
/// changes. The Db's cache and the replay's are first warmed with every
/// block, so both see the same (all-hit) block sequence.
void Bench::RunReadPass(Setup* setup, const std::vector<uint64_t>& live) {
  Db* db = setup->db.get();
  Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + 5);
  auto absent = [&] { return AbsentKey(&rng, live); };
  Stream pass;
  pass.ranges_per_scan = 16;
  for (size_t i = 0; i < 40000; ++i) {
    pass.ops.push_back({Verb::kGet, static_cast<uint32_t>(pass.keys.size())});
    pass.keys.push_back(i % 2 == 0 ? absent() : live[rng.Below(live.size())]);
  }
  for (size_t i = 0; i < 2000; ++i) {
    pass.ops.push_back({Verb::kMultiGet, static_cast<uint32_t>(pass.keys.size())});
    for (size_t k = 0; k < kMultiGetKeys; ++k) pass.keys.push_back(absent());
  }
  for (size_t i = 0; i < 2000; ++i) {
    pass.ops.push_back({Verb::kScan, static_cast<uint32_t>(pass.los.size())});
    for (size_t k = 0; k < pass.ranges_per_scan; ++k) {
      auto [lo, hi] = LogUniformRange(&rng);
      pass.los.push_back(lo);
      pass.his.push_back(hi);
    }
  }
  std::string error;
  std::unique_ptr<TreeReplay> replay =
      TreeReplay::Open(setup->dir, policy_.get(), spec_.cache_bytes, &error);
  if (replay == nullptr) {
    notes_.push_back("replay: " + error);
    tally_.Record(false, "replay");
    return;
  }
  WarmDbCache(db, live);
  replay->WarmCache();
  std::swap(stream_, pass);
  const Counters start = Counters::Take(*db);
  get_calls_ = get_probes_ = 0;
  for (size_t i = 0; i < stream_.ops.size(); ++i) {
    const Op& op = stream_.ops[i];
    const uint64_t digest = ReadOp(db, op, i, replay.get(), /*pass=*/true);
    tally_.Record(digest == ExpectedDigest(*shadow_, stream_, op),
                  kVerbNames[static_cast<size_t>(op.verb)]);
  }
  reads_ = Counters::Take(*db) - start;
  read_ops_ = stream_.ops.size();
  std::swap(stream_, pass);
  cache_resident_mb_ =
      static_cast<double>(db->block_cache()->charge_bytes()) / (1 << 20);
}

/// point_fpr and range_fpr: the store's own filters, probed through
/// TableReader::filter() with keys and ranges that hold no stored key,
/// drawn inside each table's key range. `live` is sorted.
void Bench::MeasureFpr(const Setup& setup, const std::vector<uint64_t>& live) {
  std::string error;
  std::unique_ptr<TreeReplay> tables =
      TreeReplay::Open(setup.dir, policy_.get(), 0, &error);
  if (tables == nullptr || tables->table_count() == 0) {
    notes_.push_back("fpr: " + (tables == nullptr ? error : "no tables"));
    tally_.Record(false, "fpr");
    return;
  }
  auto stored = [&](uint64_t lo, uint64_t hi) {
    auto it = std::lower_bound(live.begin(), live.end(), lo);
    return it != live.end() && *it <= hi;
  };
  fpr_ = tables->ProbeFilters(args_.seed * 0x9e3779b97f4a7c15ULL + 6,
                              kFprPointProbes, kFprRangeProbes, stored);
  point_fpr_ = FalsePositiveRate(fpr_.point_maybe, fpr_.point_probes - fpr_.point_maybe);
  range_fpr_ = FalsePositiveRate(fpr_.range_maybe, fpr_.range_probes - fpr_.range_maybe);
}

void Bench::CheckFingerprint(const std::string& fingerprint) {
  const std::string dir = args_.out_dir + "/fingerprints";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path =
      dir + "/" + spec_.name + "-seed" + std::to_string(args_.seed) + ".txt";
  std::ifstream in(path);
  std::string build, previous;
  if (std::getline(in, build) && std::getline(in, previous) &&
      build == args_.build_id) {
    if (previous != fingerprint) {
      notes_.push_back("determinism: start state or exact counts differ from "
                       "an earlier run of this seed and build: was " +
                       previous + ", now " + fingerprint);
      tally_.Record(false, "determinism");
    }
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  out << args_.build_id << "\n" << fingerprint << "\n";
}

std::string FsTypeName(const std::string& dir) {
  struct statfs st;
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

int Bench::Run() {
  std::error_code ec;
  fs::create_directories(args_.out_dir, ec);
  data_ = MakeDataset(args_.seed, spec_.keys);
  if (spec_.ingest) {
    stream_ = MakeIngestStream(args_.seed, spec_, data_);
  } else if (spec_.warm_cache) {
    stream_ = MakeCachedStream(args_.seed, spec_, data_);
  } else {
    stream_ = MakeFilterL0Stream(args_.seed, spec_, data_);
  }
  EndStage("generate");

  Setup setup;
  if (spec_.ingest) {
    for (size_t run = 0; run < spec_.setups; ++run) NextSetup(&setup, run);
    EndStage("setups");
    RunIngestPhase(&setup);
    EndStage("verify");
    const std::vector<uint64_t> live = shadow_->LiveKeys();
    if (args_.trace) RunReadPass(&setup, live);
    MeasureFpr(setup, live);
    EndStage("fpr");
    live_bytes_ = live.size() * kUserBytesPerPut;
    filter_bits_per_key_ = static_cast<double>(setup.db->filter_memory_bits()) /
                           static_cast<double>(live.size());
  } else {
    write_us_.reserve(spec_.setups * data_.load_order.size());
    RunFrozenPhase(&setup);
    EndStage("setups+phase+verify");
    writes_ = setup.after_load - setup.before;
    user_bytes_ = data_.load_order.size() * kUserBytesPerPut;
    MeasureFpr(setup, data_.sorted);
    EndStage("fpr");
    live_bytes_ = data_.sorted.size() * kUserBytesPerPut;
    filter_bits_per_key_ = static_cast<double>(start_.filter_bits) /
                           static_cast<double>(data_.sorted.size());
  }
  Db* db = setup.db.get();
  space_amp_ = SpaceAmplification(StoreBytes(setup.dir), live_bytes_);

  if (spec_.compact_all) {
    compact_all_seconds_ =
        static_cast<double>(setup.compact_all_end_ns - setup.compact_all_start_ns) / 1e9;
    if (!spec_.ingest) compaction_ = setup.after_compact - setup.before_compact;
    if (args_.trace) {
      tracer_.AddChild(0, 0, SpanName::kCompactAll, setup.compact_all_start_ns,
                       setup.compact_all_end_ns, 0);
    }
  }
  if (args_.trace && !spec_.compact_all) {
    // filter_l0's set-up has no compaction; the traced run merges the
    // measured tree once after the phase to give the layer a figure.
    const Counters before = Counters::Take(*db);
    const int64_t c0 = NowNs();
    if (!db->CompactAll()) tally_.Record(false, "compact_all");
    const int64_t c1 = NowNs();
    compaction_ = Counters::Take(*db) - before;
    compact_all_seconds_ = static_cast<double>(c1 - c0) / 1e9;
    tracer_.AddChild(0, 0, SpanName::kCompactAll, c0, c1, 0);
  }
  if (!spec_.ingest) {
    const int64_t d0 = NowNs();
    if (!db->WaitForCompaction()) tally_.Record(false, "wait_for_compaction");
    const int64_t d1 = NowNs();
    drain_seconds_ = static_cast<double>(d1 - d0) / 1e9;
    if (args_.trace) tracer_.AddChild(0, 0, SpanName::kDrain, d0, d1, 0);
  }
  const std::string last_error = db->stats().last_error();
  if (!last_error.empty()) {
    notes_.push_back("last_error: " + last_error);
    tally_.Record(false, "last_error");
  }

  if (!spec_.ingest) {
    std::ostringstream fp;
    fp << "levels=";
    for (size_t l : start_.levels) fp << l << ",";
    fp << " sst_bytes=" << start_.sst_bytes << " filter_bits=" << start_.filter_bits
       << " probes=" << window_.filter_probes
       << " negatives=" << window_.filter_negatives
       << " blocks_read=" << window_.blocks_read
       << " point_fp=" << fpr_.point_maybe << "/" << fpr_.point_probes
       << " range_fp=" << fpr_.range_maybe << "/" << fpr_.range_probes
       << " space_amp=" << JsonNumber(space_amp_);
    notes_.push_back("fingerprint: " + fp.str());
    CheckFingerprint(fp.str());
  }
  TearDown(&setup);
  EndStage("teardown");
  Report();
  return 0;
}

void Bench::Report() {
  LatencySummary lat[kVerbs];
  for (size_t v = 0; v < kVerbs; ++v) lat[v] = ChunkedSummary(latency_us_[v], kChunks);
  const LatencySummary write = ChunkedSummary(write_us_, kChunks);
  std::vector<double> slice_rates;
  for (size_t c = 0; c < kChunks; ++c) {
    if (slice_calls_[c] > 0) {
      slice_rates.push_back(static_cast<double>(slice_calls_[c]) /
                            (slice_busy_ns_[c] / 1e9));
    }
  }
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (!args_.trace) {
    Metric("setup_s", Median(setup_seconds_), "s");
    Metric("ops_per_s", Median(slice_rates), "1/s");
    Metric("get_p50_us", lat[0].p50, "us");
    Metric("get_p99_us", lat[0].p99, "us");
    Metric("multiget_p50_us", lat[1].p50, "us");
    Metric("multiget_p99_us", lat[1].p99, "us");
    Metric("scan_p50_us", lat[2].p50, "us");
    Metric("scan_p99_us", lat[2].p99, "us");
    // The write p99 is printed on the report's write line but is not a
    // metric: it falls in page-fault modes whose share and cost vary
    // from run to run (see README).
    Metric("write_p50_us", write.p50, "us");
    Metric("ingest_mb_per_s",
           spec_.ingest ? ingest_mb_per_s_ : Median(load_cycle_mb_per_s_), "MB/s");
    Metric("point_fpr", point_fpr_, "fraction");
    Metric("range_fpr", range_fpr_, "fraction");
    Metric("space_amp", space_amp_, "ratio");
    Metric("rss_mb", rss_mb, "MB");
  } else {
    auto per = [&](SpanName n) {
      const SpanStats& s = tracer_.stats(n);
      return Ratio(s.total_ns, static_cast<double>(s.items));
    };
    auto self = [&](SpanName n) {
      const SpanStats& s = tracer_.stats(n);
      return Ratio(s.self_ns, static_cast<double>(s.count));
    };
    const SpanStats& build = tracer_.stats(SpanName::kFlushBuild);
    const SpanStats& bare = tracer_.stats(SpanName::kFlushBuildNoFilter);
    const double ops = static_cast<double>(read_ops_);
    Metric("filter.point_probe_ns", per(SpanName::kFilterPoint), "ns/key");
    Metric("filter.range_probe_ns", per(SpanName::kFilterRange), "ns/range");
    Metric("filter.probes_per_get",
           Ratio(static_cast<double>(get_probes_), static_cast<double>(get_calls_)),
           "count");
    Metric("filter.negative_share",
           Ratio(static_cast<double>(reads_.filter_negatives),
                 static_cast<double>(reads_.filter_probes)),
           "fraction");
    Metric("filter.bits_per_key", filter_bits_per_key_, "bits");
    Metric("filter.build_ns_per_key",
           Ratio(build.total_ns - bare.total_ns, static_cast<double>(build.items)),
           "ns/key");
    Metric("table.find_hit_ns", self(SpanName::kTableFindHit), "ns");
    Metric("table.find_miss_ns", self(SpanName::kTableFindNoCache), "ns");
    Metric("table.scan_blocks_ns", per(SpanName::kTableScanBlocks), "ns/range");
    Metric("table.blocks_read_per_op",
           Ratio(static_cast<double>(reads_.blocks_read), ops), "count");
    Metric("table.bytes_read_per_op",
           Ratio(static_cast<double>(reads_.bytes_read), ops), "bytes");
    Metric("cache.hit_rate",
           Ratio(static_cast<double>(reads_.cache_hits),
                 static_cast<double>(reads_.cache_hits + reads_.cache_misses)),
           "fraction");
    Metric("cache.evictions_per_op",
           Ratio(static_cast<double>(reads_.cache_evictions), ops), "count");
    Metric("cache.resident_mb", cache_resident_mb_, "MB");
    const bool pass = spec_.ingest;
    Metric("db.get_self_ns", self(pass ? SpanName::kPassGet : SpanName::kGet), "ns");
    Metric("db.multiget_self_us",
           self(pass ? SpanName::kPassMultiGet : SpanName::kMultiGet) / 1e3, "us");
    Metric("db.scan_self_us",
           self(pass ? SpanName::kPassScanRange : SpanName::kScanRange) / 1e3, "us");
    Metric("db.tables_per_get",
           Ratio(static_cast<double>(tables_admitted_),
                 static_cast<double>(replayed_gets_)),
           "count");
    Metric("db.rows_per_scan",
           Ratio(static_cast<double>(scan_rows_), static_cast<double>(scan_ranges_)),
           "rows");
    Metric("memtable.put_ns", per(SpanName::kMemtablePut), "ns");
    Metric("memtable.find_ns", per(SpanName::kMemtableFind), "ns");
    Metric("wal.append_ns", per(SpanName::kWalAppend), "ns");
    Metric("wal.bytes_per_write",
           Ratio(static_cast<double>(writes_.wal_bytes),
                 static_cast<double>(writes_.wal_appends)),
           "bytes");
    Metric("wal.group_size",
           Ratio(static_cast<double>(writes_.wal_appends),
                 static_cast<double>(writes_.group_commits)),
           "count");
    Metric("flush.ns_per_entry", per(SpanName::kFlushBuild), "ns");
    Metric("flush.count", static_cast<double>(writes_.sst_files), "count");
    Metric("compaction.compact_all_s", compact_all_seconds_, "s");
    Metric("compaction.count", static_cast<double>(compaction_.compactions), "count");
    Metric("compaction.write_amp",
           WriteAmplification(compaction_.compaction_bytes_written, user_bytes_),
           "ratio");
    Metric("compaction.busy_s", static_cast<double>(compaction_.compaction_micros) / 1e6,
           "s");
    Metric("compaction.drain_s", drain_seconds_, "s");
    Metric("compaction.l0_files_max", static_cast<double>(l0_files_max_), "count");
    Metric("compaction.tombstones_dropped",
           static_cast<double>(compaction_.tombstones_dropped), "count");
    Metric("manifest.appends", static_cast<double>(writes_.manifest_appends), "count");
    Metric("trace.overhead",
           Ratio(phase_seconds_ * 1e9, phase_seconds_ * 1e9 - replay_ns_), "ratio");
  }

  // Human-readable report, then the result file, then the JSON line.
  std::printf("# perfbench lsm_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int usable = ::sched_getaffinity(0, sizeof(affinity), &affinity) == 0
                         ? CPU_COUNT(&affinity)
                         : static_cast<int>(nproc);
  const std::string fs_type = FsTypeName(args_.out_dir);
  const char* simd = bloomrf::SimdLevelName(bloomrf::ActiveSimdLevel());
  std::printf("# host nproc=%ld usable_cpus=%d simd=%s store_fs=%s build=%s "
              "commit=%s\n",
              nproc, usable, simd, fs_type.c_str(), PERFBENCH_BUILD_TYPE,
              args_.commit.c_str());
  std::printf("# setup_s runs:");
  for (double s : setup_seconds_) std::printf(" %.3f", s);
  if (!load_cycle_mb_per_s_.empty()) {
    std::printf("\n# set-up load cycles=%zu median=%.2f MB/s", load_cycle_mb_per_s_.size(),
                Median(load_cycle_mb_per_s_));
  }
  std::printf("\n# phase %.3f s, %llu verb calls\n# run stages:", phase_seconds_,
              static_cast<unsigned long long>(verb_calls_));
  for (const auto& [stage, seconds] : stages_) std::printf(" %s=%.2fs", stage, seconds);
  std::printf("\n");
  // Chunk medians (the metrics), then pooled p90 and p99.9.
  auto print_latency = [](const char* verb, const LatencySummary& s,
                          std::vector<double>* samples, const char* note) {
    std::sort(samples->begin(), samples->end());
    std::printf("# %-10s samples=%zu p50=%.2fus p99=%.2fus (chunk p99 "
                "%.2f..%.2f, min beyond p99 %zu) pooled p90=%.2fus "
                "p99.9=%.2fus%s\n",
                verb, s.samples, s.p50, s.p99, s.chunk_p99_min, s.chunk_p99_max,
                s.beyond_p99, NearestRank(*samples, 0.9),
                NearestRank(*samples, 0.999), note);
  };
  for (size_t v = 0; v < kVerbs; ++v) {
    print_latency(kVerbNames[v], lat[v], &latency_us_[v], "");
  }
  print_latency("write", write, &write_us_,
                spec_.ingest ? "" : " (set-up loads)");
  if (args_.trace) {
    std::printf("# spans recorded=%llu kept=%zu\n",
                static_cast<unsigned long long>(tracer_.recorded()), tracer_.kept());
  }
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const auto& [name, value, unit] : metrics_) {
    std::printf("# %-32s %14.6g %s\n", name.c_str(), value, unit);
  }
  if (tally_.failed > 0) {
    std::printf("# FAILED %llu of %llu operations (first: %s)\n",
                static_cast<unsigned long long>(tally_.failed),
                static_cast<unsigned long long>(tally_.attempted),
                tally_.first_failure.c_str());
  }

  std::string json_metrics;
  for (const auto& [name, value, unit] : metrics_) {
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
                    ", \"unit\": " + JsonString(unit) + "}";
  }
  const std::string result =
      std::string("{\"correct\": ") + (tally_.failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally_.attempted) +
      ", \"failed\": " + std::to_string(tally_.failed) + ", \"metrics\": {" +
      json_metrics + "}}";

  const std::string tag = std::string(spec_.name) + "-seed" +
                          std::to_string(args_.seed) + "-trace" +
                          (args_.trace ? "1" : "0");
  std::error_code ec;
  fs::create_directories(args_.out_dir + "/results", ec);
  {
    std::ofstream out(args_.out_dir + "/results/" + tag + ".json", std::ios::trunc);
    out << "{\"workload\": " << JsonString(spec_.name) << ", \"seed\": " << args_.seed
        << ", \"seconds\": " << JsonNumber(args_.seconds)
        << ", \"trace\": " << (args_.trace ? 1 : 0) << ", \"host\": {\"nproc\": "
        << nproc << ", \"usable_cpus\": " << usable << ", \"simd\": "
        << JsonString(simd) << ", \"store_fs\": " << JsonString(fs_type)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"commit\": " << JsonString(args_.commit) << "}, \"samples\": {";
    for (size_t v = 0; v < kVerbs; ++v) {
      out << JsonString(kVerbNames[v]) << ": " << lat[v].samples << ", ";
    }
    out << "\"write\": " << write.samples << "}, \"setup_s_runs\": [";
    for (size_t r = 0; r < setup_seconds_.size(); ++r) {
      out << (r ? ", " : "") << JsonNumber(setup_seconds_[r]);
    }
    out << "], \"notes\": [";
    for (size_t n = 0; n < notes_.size(); ++n) {
      out << (n ? ", " : "") << JsonString(notes_[n]);
    }
    out << "], \"result\": " << result << "}\n";
  }
  if (args_.trace) {
    fs::create_directories(args_.out_dir + "/traces", ec);
    tracer_.WriteTsv(args_.out_dir + "/traces/" + tag + ".tsv");
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") *error = "--trace takes 0 or 1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--build-id") {
      args->build_id = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *error = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') *error = "bad number for " + flag;
    if (!error->empty()) return false;
  }
  if (args->seconds <= 0 || args->seconds > 120) {
    *error = "--seconds must be in (0, 120]";
    return false;
  }
  if (FindWorkload(args->workload) == nullptr) {
    *error = "unknown --workload '" + args->workload +
             "' (filter_l0, cached_leveled, ingest_mixed)";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc adapts its mmap threshold the first time a large block is
  // freed, so memtable chunks (256 KiB) would come from fresh mappings
  // early in a run and from the heap later, faulting their pages in at
  // a different rate each time. Fixed thresholds make every run reuse
  // freed memory the same way.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "lsm_bench: %s\n", error.c_str());
    return 2;
  }
  perfbench::Bench bench(args, *perfbench::FindWorkload(args.workload));
  return bench.Run();
}
