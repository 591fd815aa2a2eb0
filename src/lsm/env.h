// Filesystem seam of the mini-LSM store, in the spirit of RocksDB's
// Env / FaultInjectionTestEnv.
//
// Every durable mutation of a Db directory — SST creation, MANIFEST
// appends, CURRENT swaps, file deletion — goes through an Env, so a
// test can interpose FaultInjectionEnv and fail (or "crash") at any
// individual call site. Read paths are not routed through Env: a
// simulated crash only affects the dying process's writes; the reopen
// that follows uses a fresh default Env, exactly like a real restart.
//
// Call sites are named "<kind>.<op>", where the kind is derived from
// the file name (sst / manifest / current / wal / file) and the op is
// the Env method (open, append, sync, close, rename, delete, dirsync).
// The mmap-backed WalWriter cannot route its byte path through
// WritableFile, so it polls InjectFault("wal.append") before each
// group commit instead; see the crash-model note on CrashAtOp for why
// WAL appends are exempt from crash simulation.

#ifndef BLOOMRF_LSM_ENV_H_
#define BLOOMRF_LSM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace bloomrf {

/// Append-only output file. All methods return false on failure;
/// failure is sticky (the file is broken for its remaining lifetime).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual bool Append(std::string_view data) = 0;
  /// Forces appended bytes to stable storage (fdatasync).
  virtual bool Sync() = 0;
  /// Closes the descriptor; further Appends fail. Safe to call twice.
  virtual bool Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) `path` for appending. Null on failure.
  virtual std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path) = 0;
  /// Atomic rename; the durability of the rename itself needs a
  /// SyncDir of the parent directory.
  virtual bool RenameFile(const std::string& from, const std::string& to) = 0;
  virtual bool DeleteFile(const std::string& path) = 0;
  /// fsyncs the directory so completed creates/renames/deletes inside
  /// it survive a power loss.
  virtual bool SyncDir(const std::string& dir) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  /// Fault checkpoint for writers that bypass WritableFile (the
  /// mmap-backed WAL). True = the call site should fail now. The
  /// default Env never injects.
  virtual bool InjectFault(const char* site) {
    (void)site;
    return false;
  }

  /// Process-wide POSIX Env; never null, never deleted.
  static Env* Default();
};

/// Durably replaces `path` with `contents`: writes `path`.tmp, syncs
/// and closes it, renames it over `path` and syncs `dir` (the parent
/// directory), so a crash at any step leaves the old file or the new
/// one, never a torn one. On failure the tmp file is deleted (best
/// effort) and false is returned.
bool WriteFileAtomically(Env* env, const std::string& dir,
                         const std::string& path, std::string_view contents);

/// Reads a record file of `prefix`, a decimal number and "\n", such as
/// CURRENT's "MANIFEST-7\n" (read directly, not through an Env). 0 when
/// the file is missing or malformed, or its number overflows 64 bits.
uint64_t ReadNumberRecord(const std::string& path, std::string_view prefix);

/// Classifies a path into the fault-site kind used by
/// FaultInjectionEnv: "sst", "manifest", "current", "wal" or "file".
/// (A trailing ".tmp" is ignored, so an SST staged as 7.sst.tmp still
/// faults under "sst".)
std::string FaultKindForPath(const std::string& path);

/// Env wrapper that injects failures at named call sites and can
/// simulate a process crash at an exact operation index.
///
/// Site hooks — sites are "<kind>.<op>" (e.g. "sst.append",
/// "manifest.sync", "current.rename", "wal.delete", "file.dirsync");
/// a hook installed under the bare kind ("sst") matches every op on
/// such files:
///  - FailOnce / FailAlways / Heal: the site fails (no side effect)
///    the next N times it runs.
///  - FailAfterBytes: an append site writes exactly `bytes` more
///    bytes, then fails mid-call — a torn write; the site keeps
///    failing afterwards until healed.
///
/// Crash simulation — CrashAtOp(n) makes the n-th subsequent
/// environment operation (0-based, see op_count()) and every later
/// one fail: writes are dropped, renames and deletes are not
/// performed, exactly as if the process had been SIGKILLed at that
/// instruction with whatever had reached the page cache preserved.
/// "wal.*" sites are exempt from crash mode (not counted, never
/// crash-failed): WAL commits are memcpys into a shared mapping whose
/// pages survive a process kill, so a crashed run keeps its complete
/// WAL — torn-WAL-tail robustness is exercised separately by the WAL
/// fuzz suites. The torn variant makes the crashing operation, when
/// it is an append, write a prefix of its data first.
///
/// Thread-safe; one instance may back several Db objects.
class FaultInjectionEnv : public Env {
 public:
  /// Wraps `base` (default: Env::Default()).
  explicit FaultInjectionEnv(Env* base = nullptr);

  std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path) override;
  bool RenameFile(const std::string& from, const std::string& to) override;
  bool DeleteFile(const std::string& path) override;
  bool SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  bool InjectFault(const char* site) override;

  void FailOnce(const std::string& site) { FailTimes(site, 1); }
  void FailTimes(const std::string& site, int times);
  void FailAlways(const std::string& site);
  /// The next append on `site` writes exactly `bytes`, then fails.
  void FailAfterBytes(const std::string& site, uint64_t bytes);
  void Heal(const std::string& site);
  void HealAll();

  /// Arms the crash: operation index `op` (and everything after) fails.
  void CrashAtOp(uint64_t op, bool torn = false);
  bool crashed() const;
  /// Operations executed so far (counted whether or not they failed;
  /// wal.* checkpoints excluded). Run a workload once against an
  /// un-armed instance to learn the matrix width.
  uint64_t op_count() const;

 private:
  friend class FaultInjectedFile;
  struct Rule {
    int fail_remaining = 0;       // >0: fail N times; -1: fail always
    int64_t byte_budget = -1;     // >=0: torn write after this many bytes
  };

  /// Central gate every operation passes through. Returns false when
  /// the op must fail; `write_allowance` (appends only) receives how
  /// many bytes may still land when the failure is a torn write.
  bool OpAllowed(const std::string& kind, const char* op,
                 uint64_t append_bytes, uint64_t* write_allowance);

  Env* const base_;
  mutable std::mutex mu_;
  std::map<std::string, Rule> rules_;
  uint64_t op_count_ = 0;
  int64_t crash_at_ = -1;  // armed when >= 0
  bool crash_torn_ = false;
  bool crashed_ = false;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_ENV_H_
