#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_stats.h"
#include "lsm/manifest.h"
#include "lsm/table_builder.h"

namespace perfbench {

using bloomrf::Lookup;
using bloomrf::ScanEntry;

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "get",           "multiget",         "scan_range",
      "put",           "delete",           "pass.get",
      "pass.multiget", "pass.scan_range",  "filter.point",
      "filter.range",  "table.find_hit",   "table.find_load",
      "table.find_nocache", "table.multiget", "table.scan_blocks",
      "memtable.put",  "memtable.find",    "wal.append",
      "flush.build",   "flush.build_nofilter", "compaction.compact_all",
      "compaction.drain", "trace.replay",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

// ------------------------------------------------------------- Tracer

Tracer::Tracer(size_t keep) : keep_(keep) { spans_.reserve(keep); }

void Tracer::Add(uint32_t id, uint32_t parent, uint32_t request,
                 SpanName name, int64_t start_ns, int64_t end_ns,
                 uint32_t items, int64_t children_ns) {
  const int64_t self = ReplaySelfTime(end_ns - start_ns, children_ns);
  SpanStats& s = stats_[static_cast<size_t>(name)];
  ++s.count;
  s.items += items;
  s.total_ns += static_cast<double>(end_ns - start_ns);
  s.self_ns += static_cast<double>(self);
  ++recorded_;
  if (spans_.size() < keep_) {
    spans_.push_back({id, parent, request, name, items, start_ns, end_ns, self});
  }
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\titems\tself_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%u\t%s\t%lld\t%lld\t%u\t%lld\n", s.id, s.parent,
                 s.request, SpanNameString(s.name),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.items,
                 static_cast<long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------- NoSyncEnv

namespace {

class NoSyncFile : public bloomrf::WritableFile {
 public:
  explicit NoSyncFile(std::unique_ptr<bloomrf::WritableFile> base)
      : base_(std::move(base)) {}
  bool Append(std::string_view data) override { return base_->Append(data); }
  bool Sync() override { return true; }
  bool Close() override { return base_->Close(); }

 private:
  std::unique_ptr<bloomrf::WritableFile> base_;
};

}  // namespace

std::unique_ptr<bloomrf::WritableFile> NoSyncEnv::NewWritableFile(
    const std::string& path) {
  auto file = base()->NewWritableFile(path);
  if (file == nullptr) return nullptr;
  return std::make_unique<NoSyncFile>(std::move(file));
}

// --------------------------------------------------------- TreeReplay

std::unique_ptr<TreeReplay> TreeReplay::Open(
    const std::string& dir, const bloomrf::FilterPolicy* policy,
    size_t cache_bytes, std::string* error) {
  const uint64_t manifest = bloomrf::ReadCurrentManifestNumber(dir);
  bloomrf::ManifestState state;
  if (manifest != 0) {
    bloomrf::ManifestReplay(bloomrf::ManifestFileName(dir, manifest), &state);
  }
  if (manifest == 0 || !state.clean) {
    *error = "cannot read the live MANIFEST of " + dir;
    return nullptr;
  }
  std::unique_ptr<TreeReplay> replay(new TreeReplay());
  replay->cache_ = std::make_shared<bloomrf::BlockCache>(cache_bytes);
  // The Db's read precedence: L0 newest first, deeper levels in key
  // order (their files are disjoint).
  std::vector<bloomrf::FileMeta> order;
  if (!state.levels.empty()) {
    order.assign(state.levels[0].rbegin(), state.levels[0].rend());
  }
  for (size_t level = 1; level < state.levels.size(); ++level) {
    std::vector<bloomrf::FileMeta> files = state.levels[level];
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) { return a.smallest < b.smallest; });
    order.insert(order.end(), files.begin(), files.end());
  }
  for (const bloomrf::FileMeta& meta : order) {
    const std::string path = dir + "/" + std::to_string(meta.file_number) + ".sst";
    Table table;
    table.cached = bloomrf::TableReader::Open(path, policy, &replay->stats_,
                                              replay->cache_, meta.file_number);
    table.uncached = bloomrf::TableReader::Open(path, policy, &replay->stats_,
                                                nullptr, meta.file_number);
    if (table.cached == nullptr || table.uncached == nullptr) {
      *error = "cannot open " + path;
      return nullptr;
    }
    replay->tables_.push_back(std::move(table));
  }
  return replay;
}

void TreeReplay::WarmCache() {
  for (const Table& t : tables_) {
    t.cached->ScanBlocks(0, UINT64_MAX, SIZE_MAX, nullptr, &stats_);
  }
}

int64_t TreeReplay::Get(uint64_t key, uint32_t request, uint32_t verb,
                        Tracer* tracer) {
  int64_t children = 0;
  std::string value;
  for (const Table& t : tables_) {
    const bloomrf::TableReader& reader = *t.cached;
    if (key < reader.min_key() || key > reader.max_key()) continue;
    ++get_tables_admitted_;
    const bloomrf::PointRangeFilter* filter = reader.filter();
    int64_t probe_ns = 0;
    const uint32_t find_id = tracer->NewId();
    if (filter != nullptr) {
      const int64_t s = NowNs();
      const bool maybe = filter->MayContain(key);
      const int64_t e = NowNs();
      if (!maybe) {
        children += tracer->AddChild(verb, request, SpanName::kFilterPoint, s, e, 1);
        continue;
      }
      // Find probes the filter again: this probe is nested in it.
      probe_ns = tracer->AddChild(find_id, request, SpanName::kFilterPoint, s, e, 1);
    }
    const uint64_t hits = stats_.block_cache_hits.load();
    const int64_t s = NowNs();
    const Lookup found = reader.Find(key, &value, &stats_);
    const int64_t e = NowNs();
    const bool resident = stats_.block_cache_hits.load() > hits;
    tracer->Add(find_id, verb, request,
                resident ? SpanName::kTableFindHit : SpanName::kTableFindLoad,
                s, e, 1, probe_ns);
    children += e - s;

    // The same lookup on a reader without a cache always reads and
    // parses its block. It is a measurement beside the walk, not a
    // step of it, so it is not a child of the verb.
    const uint32_t nocache_id = tracer->NewId();
    const int64_t s2 = NowNs();
    t.uncached->Find(key, &value, &stats_);
    const int64_t e2 = NowNs();
    tracer->Add(nocache_id, 0, request, SpanName::kTableFindNoCache, s2, e2, 1,
                probe_ns);
    if (found != Lookup::kMiss) break;
  }
  return children;
}

int64_t TreeReplay::MultiGet(std::span<const uint64_t> keys, uint32_t request,
                             uint32_t verb, Tracer* tracer) {
  int64_t children = 0;
  std::vector<Lookup> states(keys.size(), Lookup::kMiss);
  std::vector<std::string> values(keys.size());
  size_t remaining = keys.size();
  const auto [lo_it, hi_it] = std::minmax_element(keys.begin(), keys.end());
  std::vector<uint64_t> pending;
  auto maybe = std::make_unique<bool[]>(keys.size());
  for (const Table& t : tables_) {
    if (remaining == 0) break;
    const bloomrf::TableReader& reader = *t.cached;
    if (*hi_it < reader.min_key() || *lo_it > reader.max_key()) continue;
    const uint32_t table_id = tracer->NewId();
    int64_t probe_ns = 0;
    if (reader.filter() != nullptr) {
      pending.clear();
      for (size_t i = 0; i < keys.size(); ++i) {
        if (states[i] == Lookup::kMiss) pending.push_back(keys[i]);
      }
      const int64_t s = NowNs();
      reader.filter()->MayContainBatch(pending, maybe.get());
      const int64_t e = NowNs();
      probe_ns = tracer->AddChild(table_id, request, SpanName::kFilterPoint, s,
                                  e, static_cast<uint32_t>(pending.size()));
    }
    const int64_t s = NowNs();
    remaining -= reader.MultiGet(keys, states.data(), values.data(), &stats_);
    const int64_t e = NowNs();
    tracer->Add(table_id, verb, request, SpanName::kTableMultiGet, s, e,
                static_cast<uint32_t>(pending.size()), probe_ns);
    children += e - s;
  }
  return children;
}

int64_t TreeReplay::ScanRange(std::span<const uint64_t> los,
                              std::span<const uint64_t> his, size_t limit,
                              uint32_t request, uint32_t verb,
                              Tracer* tracer) {
  int64_t children = 0;
  const size_t n = los.size();
  auto maybe = std::make_unique<bool[]>(n);
  std::vector<ScanEntry> chunk;
  for (const Table& t : tables_) {
    const bloomrf::TableReader& reader = *t.cached;
    if (reader.filter() != nullptr) {
      const int64_t s = NowNs();
      reader.filter()->MayContainRangeBatch(los, his, maybe.get());
      const int64_t e = NowNs();
      children += tracer->AddChild(verb, request, SpanName::kFilterRange, s, e,
                                   static_cast<uint32_t>(n));
    } else {
      std::fill(maybe.get(), maybe.get() + n, true);
    }
    for (size_t i = 0; i < n; ++i) {
      if (!maybe[i]) continue;
      chunk.clear();
      const int64_t s = NowNs();
      reader.ScanBlocks(los[i], his[i], limit + 1, &chunk, &stats_);
      const int64_t e = NowNs();
      children += tracer->AddChild(verb, request, SpanName::kTableScanBlocks, s,
                                   e, 1);
    }
  }
  return children;
}

// -------------------------------------------------------- WriteReplay

WriteReplay::WriteReplay(std::string dir, const bloomrf::FilterPolicy* policy,
                         uint64_t memtable_bytes, size_t block_size,
                         bloomrf::Env* env, size_t max_builds)
    : dir_(std::move(dir)),
      policy_(policy),
      memtable_bytes_(memtable_bytes),
      block_size_(block_size),
      env_(env),
      max_builds_(max_builds),
      active_(std::make_shared<bloomrf::MemTable>()) {
  std::filesystem::create_directories(dir_);
  RotateWal();
}

WriteReplay::~WriteReplay() {
  wal_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void WriteReplay::RotateWal() {
  wal_.reset();
  if (wal_number_ > 0) {
    env_->DeleteFile(dir_ + "/replay-" + std::to_string(wal_number_) + ".log");
  }
  ++wal_number_;
  wal_ = std::make_unique<bloomrf::WalWriter>(
      dir_ + "/replay-" + std::to_string(wal_number_) + ".log",
      /*fsync_on_commit=*/false, nullptr, env_);
}

int64_t WriteReplay::Put(uint64_t key, std::string_view value,
                         uint32_t request, uint32_t parent, Tracer* tracer) {
  const bloomrf::KV kv{key, value};
  bloomrf::WalEncodeRecordTo({&kv, 1}, &record_);
  int64_t s = NowNs();
  wal_->Append(record_);
  int64_t e = NowNs();
  int64_t children = tracer->AddChild(parent, request, SpanName::kWalAppend, s, e, 1);
  s = NowNs();
  active_->Put(key, value);
  e = NowNs();
  children += tracer->AddChild(parent, request, SpanName::kMemtablePut, s, e, 1);
  MaybeSeal(tracer);
  return children;
}

int64_t WriteReplay::Delete(uint64_t key, uint32_t request, uint32_t parent,
                            Tracer* tracer) {
  bloomrf::WalEncodeDeletesTo({&key, 1}, &record_);
  int64_t s = NowNs();
  wal_->Append(record_);
  int64_t e = NowNs();
  int64_t children = tracer->AddChild(parent, request, SpanName::kWalAppend, s, e, 1);
  s = NowNs();
  active_->Delete(key);
  e = NowNs();
  children += tracer->AddChild(parent, request, SpanName::kMemtablePut, s, e, 1);
  MaybeSeal(tracer);
  return children;
}

int64_t WriteReplay::Find(uint64_t key, uint32_t request, uint32_t parent,
                          Tracer* tracer) {
  std::string value;
  const int64_t s = NowNs();
  active_->Find(key, &value);
  const int64_t e = NowNs();
  return tracer->AddChild(parent, request, SpanName::kMemtableFind, s, e, 1);
}

void WriteReplay::FindInFullestMemtable() {
  if (last_sealed_ != nullptr && last_sealed_->size() > active_->size()) {
    active_ = last_sealed_;
  }
}

void WriteReplay::MaybeSeal(Tracer* tracer) {
  if (active_->ApproximateBytes() < memtable_bytes_) return;
  last_sealed_ = std::move(active_);
  active_ = std::make_shared<bloomrf::MemTable>();
  RotateWal();
  if (builds_ >= max_builds_) return;
  ++builds_;
  const std::vector<ScanEntry> entries = last_sealed_->Snapshot();
  const std::string path = dir_ + "/replay-" + std::to_string(builds_) + ".sst";
  for (const bool with_filter : {true, false}) {
    bloomrf::TableBuilder builder(with_filter ? policy_ : nullptr, block_size_);
    bloomrf::TableBuildStats build_stats;
    const int64_t s = NowNs();
    for (const ScanEntry& entry : entries) {
      builder.Add(entry.key, entry.value, entry.tombstone);
    }
    builder.WriteTo(env_, path, &build_stats);
    const int64_t e = NowNs();
    tracer->AddChild(0, 0,
                     with_filter ? SpanName::kFlushBuild
                                 : SpanName::kFlushBuildNoFilter,
                     s, e, static_cast<uint32_t>(entries.size()));
    env_->DeleteFile(path);
  }
}

}  // namespace perfbench
