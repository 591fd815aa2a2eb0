// Leveled-compaction picking for the mini-LSM store.
//
// Shape (classic leveled, RocksDB-style): L0 holds whole flushed
// memtables and its files may overlap; every deeper level is a sorted
// run of disjoint files. When L0 reaches l0_trigger files, ALL of L0
// (plus the overlapping slice of L1) merges into L1; when level i>=1
// exceeds its byte budget (level_base_bytes * multiplier^(i-1)), one
// of its files (round-robin across the key space via a per-level
// cursor, so repeated compactions sweep the whole level) merges with
// the overlapping slice of level i+1.
//
// Picking is pure — it inspects an immutable Version and returns a
// job description; the Db's compaction scheduler executes the merge
// and commits it through the MANIFEST + Version publication. The tree
// shape (l0_compaction_trigger, level_base_bytes,
// level_size_multiplier, max_levels) and the subcompaction fan-out are
// read straight from the DbOptions the Db constructor clamped. With
// several scheduler workers, each in-flight job claims its input and
// output levels (CompactionClaimBits) and picking skips claimed levels
// (`busy_levels`), so concurrent jobs always work disjoint level pairs
// and can never see each other's inputs.

#ifndef BLOOMRF_LSM_COMPACTION_H_
#define BLOOMRF_LSM_COMPACTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lsm/version.h"

namespace bloomrf {

struct DbOptions;

/// Byte budget of level `i` (i >= 1) before it spills downward.
uint64_t LevelTargetBytes(const DbOptions& options, size_t level);

/// Ranges one compaction job splits into: max_subcompactions, or
/// compaction_threads when that is 0 (at least 1).
size_t SubcompactionFanOut(const DbOptions& options);

struct CompactionJob {
  size_t output_level = 1;
  /// Inputs in precedence order: inputs[0] is the newest source; on
  /// duplicate keys the earliest input's value wins.
  std::vector<std::shared_ptr<const TableReader>> inputs;
  /// The same files as (level, file_number) pairs, for the manifest
  /// edit and the Version replacement.
  std::vector<std::pair<uint32_t, uint64_t>> input_files;
};

/// Picks the most pressing job on `v` whose input AND output levels
/// are all free in the `busy_levels` bitmask (bit i = level i claimed
/// by an in-flight job), or nullopt when nothing eligible is over
/// budget. `cursors` must hold options.max_levels entries and persists
/// across calls (round-robin position per level).
std::optional<CompactionJob> PickCompaction(const Version& v,
                                            const DbOptions& options,
                                            std::vector<uint64_t>* cursors,
                                            uint64_t busy_levels = 0);

/// The level-claim bitmask of `job`: every input level plus the output
/// level. Two jobs may run concurrently iff their claims are disjoint
/// — then neither can touch (or re-pick) the other's files, and
/// neither can move data below the other's output level, which keeps
/// each job's TombstoneShadow snapshot conservative for its whole run.
uint64_t CompactionClaimBits(const CompactionJob& job);

/// Splits `job`'s key space into at most `max_subcompactions` disjoint
/// inclusive ranges covering [0, UINT64_MAX], cutting at input-table
/// boundary keys weighted by file bytes so each range holds a roughly
/// equal share of the merge work. Always returns at least one range;
/// returns exactly one when the job is too small to split.
std::vector<std::pair<uint64_t, uint64_t>> PickSubcompactionRanges(
    const CompactionJob& job, size_t max_subcompactions);

/// Decides whether a compaction may physically drop a tombstone.
///
/// A tombstone written to the job's output level is dead weight iff no
/// level BELOW the output can still hold an older value of its key —
/// then nothing remains for it to shadow. The shadow set is the key
/// bounds of every file at levels deeper than the output level,
/// EXCLUDING the job's own inputs (their content is being rewritten
/// into the output, so they shadow nothing afterwards; a whole-tree
/// merge like Db::CompactAll would otherwise see its own inputs as
/// deeper data and never drop a single tombstone).
///
/// Key-range bounds are a conservative over-approximation: a covered
/// key keeps its tombstone even if the deeper file happens not to
/// contain that exact key — never the reverse, so a kept tombstone is
/// at worst wasted bytes while a wrongly dropped one would resurrect
/// deleted data. Snapshotting the bounds at merge start stays safe
/// with concurrent jobs because jobs claim disjoint level sets: data
/// can only appear BELOW this job's output level by a job whose claim
/// includes a level on each side of the output — which would intersect
/// this job's claim — and a concurrent deeper job only rewrites keys
/// within its inputs' bounds, which the snapshot already covers.
/// Concurrent flushes only add L0 files, never below an output.
class TombstoneShadow {
 public:
  /// Shadow of `job` on version `v`: bounds of all files at levels
  /// strictly below job.output_level, minus job's inputs.
  static TombstoneShadow FromVersion(const Version& v,
                                     const CompactionJob& job);
  /// Direct construction from [min,max] bounds (tests / custom jobs).
  static TombstoneShadow FromBounds(
      std::vector<std::pair<uint64_t, uint64_t>> bounds);

  /// True when some deeper file's key range contains `key` — the
  /// tombstone must be kept.
  bool Covers(uint64_t key) const;

  size_t num_ranges() const { return bounds_.size(); }

 private:
  /// Deeper-file key ranges, merged and sorted by lo for binary search.
  std::vector<std::pair<uint64_t, uint64_t>> bounds_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_COMPACTION_H_
