#include "lsm/wal.h"

#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "lsm/env.h"
#include "lsm/table_reader.h"  // LsmStats
#include "util/coding.h"
#include "util/crc32c.h"

namespace bloomrf {

namespace {
// The one WAL record type: a batch of puts and deletes. (Type 2 is the
// MANIFEST's edit record — different file, but keeping the type space
// disjoint means a log byte-stream can never be mistaken for the other
// kind.)
constexpr char kOpsBatchRecord = 3;
constexpr uint8_t kOpDeleteFlag = 1;
constexpr size_t kHeaderSize = 4 + 4 + 1;  // crc, length, type
// A length beyond any plausible memtable keeps a garbage header from
// directing replay to allocate gigabytes.
constexpr uint32_t kMaxRecordPayload = 1u << 30;
// Initial mmap window; doubles on overflow. Small enough that the many
// short-lived logs of a busy store don't reserve much, large enough
// that a typical memtable's worth of records remaps only a few times.
constexpr size_t kInitialMapBytes = 64 << 10;
}  // namespace

void AppendFramedRecord(char type, std::string_view payload,
                        std::string* out) {
  uint32_t crc = Crc32c(&type, 1);
  crc = Crc32c(payload.data(), payload.size(), crc);
  char header[kHeaderSize];
  std::memcpy(header, &crc, 4);
  uint32_t length = static_cast<uint32_t>(payload.size());
  std::memcpy(header + 4, &length, 4);
  header[8] = type;
  out->append(header, kHeaderSize);
  out->append(payload);
}

FramedReplayResult ReplayFramedRecords(
    std::string_view data,
    const std::function<bool(char, std::string_view)>& apply) {
  FramedReplayResult result;
  size_t pos = 0;
  while (pos + kHeaderSize <= data.size()) {
    uint32_t crc = DecodeFixed32(data.data() + pos);
    uint32_t length = DecodeFixed32(data.data() + pos + 4);
    char type = data[pos + 8];
    if (crc == 0 && length == 0 && type == 0) {
      // All-zero header: the preallocated-but-never-written tail of an
      // mmap-backed log whose writer died before trimming it. Clean
      // end of log iff the whole remainder really is zero (no valid
      // record starts with a zero type byte).
      result.clean = data.find_first_not_of('\0', pos) == std::string_view::npos;
      return result;
    }
    // A length beyond any plausible record keeps a garbage header from
    // directing replay past the end (or allocating gigabytes upstream).
    if (length > kMaxRecordPayload ||
        pos + kHeaderSize + length > data.size()) {
      result.clean = false;  // torn tail or garbage header
      return result;
    }
    std::string_view payload(data.data() + pos + kHeaderSize, length);
    uint32_t actual = Crc32c(&type, 1);
    actual = Crc32c(payload.data(), payload.size(), actual);
    if (actual != crc) {
      result.clean = false;
      return result;
    }
    if (!apply(type, payload)) {
      result.clean = false;
      return result;
    }
    result.records += 1;
    pos += kHeaderSize + length;
    result.bytes = pos;
  }
  if (pos != data.size()) result.clean = false;  // trailing partial header
  return result;
}

FramedReplayResult ReplayFramedFile(
    const std::string& path,
    const std::function<bool(char, std::string_view)>& apply) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};  // nothing logged: clean empty replay
  std::string data;
  char buf[64 << 10];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return ReplayFramedRecords(data, apply);
}

namespace {

WriteOp AsOp(const WriteOp& op) { return op; }
WriteOp AsOp(const KV& kv) { return {kv.key, kv.value, false}; }
WriteOp AsOp(uint64_t key) { return {key, {}, true}; }

/// The one WAL encoder: frames `items`, each read as a WriteOp, into
/// one kOpsBatch record in a single buffer.
template <typename T>
void EncodeOpsBatch(std::span<const T> items, std::string* record) {
  record->clear();
  // Header placeholder; crc and length are patched once the payload is
  // in place.
  record->append(8, '\0');
  record->push_back(kOpsBatchRecord);
  PutFixed32(record, static_cast<uint32_t>(items.size()));
  for (const T& item : items) {
    const WriteOp op = AsOp(item);
    PutFixed64(record, op.key);
    record->push_back(static_cast<char>(op.is_delete ? kOpDeleteFlag : 0));
    if (!op.is_delete) PutLengthPrefixed(record, op.value);
  }
  uint32_t crc = Crc32c(record->data() + 8, record->size() - 8);
  uint32_t length = static_cast<uint32_t>(record->size() - kHeaderSize);
  char* header = record->data();
  std::memcpy(header, &crc, 4);
  std::memcpy(header + 4, &length, 4);
}

}  // namespace

void WalEncodeOpsTo(std::span<const WriteOp> ops, std::string* record) {
  EncodeOpsBatch(ops, record);
}

void WalEncodeRecordTo(std::span<const KV> kvs, std::string* record) {
  EncodeOpsBatch(kvs, record);
}

void WalEncodeDeletesTo(std::span<const uint64_t> keys, std::string* record) {
  EncodeOpsBatch(keys, record);
}

WalReplayResult WalReplay(
    const std::string& path,
    const std::function<void(uint64_t, std::string_view, bool)>& apply) {
  WalReplayResult result;
  FramedReplayResult framed = ReplayFramedFile(
      path, [&](char type, std::string_view payload) {
        if (type != kOpsBatchRecord) return false;  // unknown type
        // Validate the whole record before applying any of it: a
        // random tail can collide with the CRC, and half-applied
        // records would silently diverge from history (batch
        // all-or-nothing holds for mixed put/delete records too).
        if (payload.size() < 4) return false;
        uint32_t count = DecodeFixed32(payload.data());
        // Every entry takes at least 9 bytes (a delete: key + flags),
        // so a larger count is garbage; checked before reserving.
        if (count > (payload.size() - 4) / 9) return false;
        struct Entry {
          uint64_t key;
          std::string_view value;
          bool is_delete;
        };
        std::vector<Entry> batch;
        batch.reserve(count);
        size_t at = 4;
        for (uint32_t i = 0; i < count; ++i) {
          if (at + 9 > payload.size()) return false;
          uint64_t key = DecodeFixed64(payload.data() + at);
          uint8_t flags = static_cast<uint8_t>(payload[at + 8]);
          at += 9;
          if ((flags & ~kOpDeleteFlag) != 0) return false;  // garbage
          const bool is_delete = (flags & kOpDeleteFlag) != 0;
          std::string_view value;
          if (!is_delete && !GetLengthPrefixed(payload, &at, &value)) {
            return false;
          }
          batch.push_back({key, value, is_delete});
        }
        if (at != payload.size()) return false;
        for (const Entry& e : batch) apply(e.key, e.value, e.is_delete);
        result.entries += batch.size();
        return true;
      });
  result.records = framed.records;
  result.bytes = framed.bytes;
  result.clean = framed.clean;
  return result;
}

// ---------------------------------------------------------------------
// WalWriter: mmap-backed. Records are memcpy'd into a shared
// file mapping, which lands them in the kernel page cache with no
// syscall per commit — the same durability as write() without fsync (a
// process crash loses nothing; dirty pages belong to the kernel), at a
// fraction of the cost. wal_fsync upgrades each group commit with an
// msync of the dirty range. The file is preallocated (so ENOSPC
// surfaces as a clean open/grow error instead of a SIGBUS on fault)
// and trimmed to the bytes actually written when the writer closes.
// ---------------------------------------------------------------------

WalWriter::WalWriter(std::string path, bool fsync_on_commit, LsmStats* stats,
                     Env* env)
    : path_(std::move(path)), fsync_on_commit_(fsync_on_commit),
      stats_(stats), env_(env) {
  if (env_ != nullptr && env_->InjectFault("wal.open")) {
    broken_ = true;
    if (stats_ != nullptr) {
      stats_->SetLastError("wal: injected open fault on " + path_);
    }
    return;
  }
  fd_ = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd_ >= 0 && !Remap(kInitialMapBytes)) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!FileOk()) {
    broken_ = true;
    if (stats_ != nullptr) {
      stats_->SetLastError("wal: cannot open " + path_);
    }
  }
}

WalWriter::~WalWriter() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  if (fd_ >= 0) {
    // Trim the preallocated tail so the on-disk file is exactly the
    // records written (replay also tolerates the zero tail).
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0) {
      // Nothing useful to do; the zero tail stays and replay skips it.
    }
    ::close(fd_);
  }
}

bool WalWriter::FileOk() const { return fd_ >= 0 && map_ != nullptr; }

bool WalWriter::Remap(size_t new_size) {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
  }
  // Reserve real blocks up front: a later page fault cannot fail with
  // SIGBUS on a full disk, and in fsync mode the size metadata is made
  // durable once here instead of on every commit.
#ifdef __linux__
  if (::posix_fallocate(fd_, 0, static_cast<off_t>(new_size)) != 0) {
    return false;
  }
#else
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) return false;
#endif
  if (fsync_on_commit_ && ::fsync(fd_) != 0) return false;
  int flags = MAP_SHARED;
#ifdef MAP_POPULATE
  // Prefault the window here instead of taking a minor fault on the
  // first record touching each page of the commit hot path.
  flags |= MAP_POPULATE;
#endif
  void* mem =
      ::mmap(nullptr, new_size, PROT_READ | PROT_WRITE, flags, fd_, 0);
  if (mem == MAP_FAILED) return false;
  map_ = static_cast<char*>(mem);
  map_size_ = new_size;
  return true;
}

bool WalWriter::WriteBytes(const char* data, size_t n) {
  // Fault checkpoint only — the bytes still travel through the mmap
  // below when allowed. Crash-mode envs never fail this site (page
  // cache survives a process kill); site hooks can.
  if (env_ != nullptr && env_->InjectFault("wal.append")) return false;
  while (offset_ + n > map_size_) {
    size_t grown = map_size_ * 2;
    while (offset_ + n > grown) grown *= 2;
    if (!Remap(grown)) return false;
  }
  std::memcpy(map_ + offset_, data, n);
  const size_t begin = offset_;
  offset_ += n;
  if (fsync_on_commit_) {
    // msync wants a page-aligned start; round down to cover the whole
    // dirty range.
    const size_t page = 4096;
    size_t aligned = begin & ~(page - 1);
    if (::msync(map_ + aligned, offset_ - aligned, MS_SYNC) != 0) {
      // The group fails, so no write in it is applied: the close-time
      // trim drops its bytes from the log too.
      offset_ = begin;
      return false;
    }
  }
  if (stats_ != nullptr) {
    stats_->group_commit_batches.fetch_add(1, std::memory_order_relaxed);
    stats_->wal_synced_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return true;
}

bool WalWriter::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

// Commits [data, data+n) as one group while the caller holds the
// leadership: unlocks for the copy, relocks, publishes `batch_end` (or
// marks the file broken) and wakes any blocked followers.
void WalWriter::CommitGroup(std::unique_lock<std::mutex>& lock,
                            const char* data, size_t n, uint64_t batch_end) {
  lock.unlock();
  bool ok = WriteBytes(data, n);
  lock.lock();
  if (ok) {
    committed_seq_ = batch_end;
  } else {
    // Sticky: this file is done for. The Db applies none of the
    // group's writes and rotates to a fresh log.
    broken_ = true;
    if (stats_ != nullptr) {
      stats_->SetLastError("wal: write failed on " + path_);
    }
  }
  if (waiters_ > 0) cv_.notify_all();
}

bool WalWriter::Append(std::string_view record) {
  std::unique_lock<std::mutex> lock(mu_);
  if (broken_) return false;

  if (leader_active_) {
    // A leader is mid-commit; it will pick our record up in its next
    // group (it drains until pending_ is empty before stepping down).
    pending_.append(record);
    const uint64_t my_seq = ++next_seq_;
    ++waiters_;
    cv_.wait(lock, [&] { return committed_seq_ >= my_seq || broken_; });
    --waiters_;
    bool ok = committed_seq_ >= my_seq;
    if (ok && stats_ != nullptr) {
      stats_->wal_appends.fetch_add(1, std::memory_order_relaxed);
    }
    return ok;
  }

  leader_active_ = true;
  uint64_t my_seq;
  if (pending_.empty()) {
    // Uncontended fast path: commit our own record straight from the
    // caller's buffer, skipping the queue copy entirely.
    my_seq = ++next_seq_;
    if (!fsync_on_commit_) {
      // The commit is just a memcpy into the mapping — cheaper than an
      // unlock/relock pair, so do it under the mutex. (With fsync on,
      // the msync dominates and the lock must be released so followers
      // can enqueue into the next group.)
      if (WriteBytes(record.data(), record.size())) {
        committed_seq_ = my_seq;
      } else {
        broken_ = true;
        if (stats_ != nullptr) {
          stats_->SetLastError("wal: write failed on " + path_);
        }
      }
      if (waiters_ > 0) cv_.notify_all();
    } else {
      CommitGroup(lock, record.data(), record.size(), my_seq);
    }
  } else {
    pending_.append(record);
    my_seq = ++next_seq_;
  }
  // Drain whatever queued while we were (or still are) committing.
  while (!broken_ && committed_seq_ < next_seq_) {
    std::string batch = std::move(pending_);
    pending_.clear();
    const uint64_t batch_end = next_seq_;
    CommitGroup(lock, batch.data(), batch.size(), batch_end);
  }
  bool ok = committed_seq_ >= my_seq;
  leader_active_ = false;
  if (waiters_ > 0) cv_.notify_all();
  if (ok && stats_ != nullptr) {
    stats_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

bool WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (broken_) return false;
  // Wait out any in-flight leader so the sync covers every committed
  // record.
  ++waiters_;
  cv_.wait(lock, [&] { return !leader_active_ || broken_; });
  --waiters_;
  if (broken_) return false;
  // The mapping's dirty pages already belong to the page cache; msync
  // pushes them (and thus every committed record) to stable storage.
  return offset_ == 0 ||
         ::msync(map_, (offset_ + 4095) & ~size_t{4095}, MS_SYNC) == 0;
}

}  // namespace bloomrf
