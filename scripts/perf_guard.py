#!/usr/bin/env python3
"""CI perf guard for the batch-probe engine and the concurrent LSM engine.

Compares a fresh smoke run against the guard floors committed in the
repo's BENCH_*.json and fails (exit 1) when a measured ratio drops
below `ratio` (default 0.9) of the committed floor. The bench type is
dispatched on the committed file's "bench" field:

  batch_probe     bench_batch_probe --smoke    bloomRF point-batch
                  speedup over the scalar loop.
  lsm_concurrent  bench_lsm_throughput --smoke ShardedDb MultiGet/
                  ScanRange/Put/mixed 1->8-thread scaling (8 shards),
                  the 1-shard/plain-Db MultiGet throughput ratio, the
                  WAL-on/WAL-off put-throughput ratio (group-commit
                  overhead, wal_fsync=false), the delete/put
                  throughput ratio, and the 4-worker/serial
                  parallel-compaction sustained-ingest ratio.
  adaptive        bench_adaptive_filters --smoke  adaptive-vs-static
                  throughput ratios per workload phase (the tuning
                  loop keeps up with the best static policy and beats
                  the worst in at least one phase) and the
                  sampling-on/off Get ratio (sampler hot-path tax).

The committed `guard` floors are intentionally conservative (the
benches write them as 0.8x of their measured values, scaling floors
additionally clamped for low-core bench hosts) so the check catches
real regressions — a batch path sliding back to scalar speed, a
sharded fan-out serializing — rather than scheduler noise on shared CI
runners. The batch-probe speedup, the two 1-shard/1-thread write
ratios (WAL-on/off, delete/put), the 1-shard/plain-Db MultiGet ratio
and the 8-shard MultiGet/ScanRange 1->8-thread scaling ratios are
medians of interleaved pairs the benches time themselves, so drift
between two timed windows does not become the ratio.

Usage: perf_guard.py CURRENT.json COMMITTED.json [ratio]
"""

import json
import sys


def speedup(doc, section, name):
    for row in doc[section]:
        if row["filter"] == name:
            return row["speedup"]
    raise SystemExit(f"perf_guard: no '{name}' row in '{section}' section")


def batch_probe_checks(current, committed):
    guard = committed["guard"]
    return [
        ("bloomrf point-batch speedup", speedup(current, "point", "bloomrf"),
         guard["bloomrf_point_speedup"]),
    ]


def write_cell(doc, shards, threads):
    for row in doc["write"]:
        if row["shards"] == shards and row["threads"] == threads:
            return row
    raise SystemExit(
        f"perf_guard: no write row for shards={shards} threads={threads}"
    )


def delete_cell(doc, shards, threads):
    for row in doc["delete"]:
        if row["shards"] == shards and row["threads"] == threads:
            return row
    raise SystemExit(
        f"perf_guard: no delete row for shards={shards} threads={threads}"
    )


def lsm_concurrent_checks(current, committed):
    guard = committed["guard"]
    scaling = current["scaling_1to8"]
    # Scaling is bounded by the runner's cores. When this run has fewer
    # than 8, the committed floor (possibly from a big bench host) is
    # unreachable for physical, not regression, reasons — only require
    # that 8 threads don't collapse below ~serial speed. The
    # single-shard overhead and WAL ratios are core-count independent.
    hw = current.get("hardware_concurrency", 0)
    scaling_cap = 0.8 if hw and hw < 8 else float("inf")
    checks = [
        ("multiget 1->8-thread scaling", scaling["multiget_ratio"],
         min(guard["multiget_scaling_8t"], scaling_cap)),
        ("scanrange 1->8-thread scaling", scaling["scanrange_ratio"],
         min(guard["scanrange_scaling_8t"], scaling_cap)),
        ("1-shard/plain-Db multiget ratio",
         current["single_shard"]["multiget_ratio"],
         guard["single_shard_multiget_ratio"]),
    ]
    # Write-path floors arrived with the group-commit WAL; tolerate a
    # committed file that predates them so the two changes can land in
    # either order.
    if "put_scaling_8t" in guard and "write" in current:
        wal = current["wal"]
        max_shards = wal["max_shards"]
        max_threads = wal["max_threads"]
        w1 = write_cell(current, max_shards, 1)
        wt = write_cell(current, max_shards, max_threads)
        put_scaling = (
            wt["put_mops"] / w1["put_mops"] if w1["put_mops"] else 0
        )
        mixed_scaling = (
            wt["mixed_mops"] / w1["mixed_mops"] if w1["mixed_mops"] else 0
        )
        # Write scaling needs a lower small-host cap than read scaling:
        # oversubscribed writers contend on the group-commit mutex and
        # the memtable seal lock, so 8 threads on 1 core land around
        # half of serial — normal, not a regression. Only guard against
        # a total collapse (threads deadlocking or fully serializing
        # through a convoy).
        write_scaling_cap = 0.3 if hw and hw < 8 else float("inf")
        checks += [
            ("put 1->8-thread scaling", put_scaling,
             min(guard["put_scaling_8t"], write_scaling_cap)),
            ("mixed 1->8-thread scaling", mixed_scaling,
             min(guard["mixed_scaling_8t"], write_scaling_cap)),
            ("WAL-on/off put ratio (1s/1t)", wal["put_ratio_1s1t"],
             guard["wal_put_ratio"]),
        ]
    # Delete-path floors arrived with first-class tombstones; tolerate
    # committed files that predate them.
    if "delete_scaling_8t" in guard and "delete" in current:
        wal = current["wal"]
        max_shards = wal["max_shards"]
        max_threads = wal["max_threads"]
        d1 = delete_cell(current, max_shards, 1)
        dt = delete_cell(current, max_shards, max_threads)
        delete_scaling = (
            dt["delete_mops"] / d1["delete_mops"] if d1["delete_mops"] else 0
        )
        pdg_scaling = (
            dt["pdg_mops"] / d1["pdg_mops"] if d1["pdg_mops"] else 0
        )
        # Same oversubscription story as the put/mixed cells above.
        write_scaling_cap = 0.3 if hw and hw < 8 else float("inf")
        checks += [
            ("delete 1->8-thread scaling", delete_scaling,
             min(guard["delete_scaling_8t"], write_scaling_cap)),
            ("25/25/50 p/d/g 1->8-thread scaling", pdg_scaling,
             min(guard["pdg_scaling_8t"], write_scaling_cap)),
            ("delete/put throughput ratio (1s/1t)",
             current["delete_put"]["ratio_1s1t"], guard["delete_put_ratio"]),
        ]
    # Read-amplification floor arrived with leveled compaction; the
    # ratio (single-threaded Get, compaction on / off) is core-count
    # independent. Tolerate committed files that predate it.
    if "read_amp_get_ratio" in guard and "read_amp" in current:
        checks.append(
            ("compaction read-amp Get ratio (on/off)",
             current["read_amp"]["get_ratio"],
             guard["read_amp_get_ratio"])
        )
    # Parallel-compaction floor arrived with the multi-job scheduler:
    # sustained ingest (ingest + full compaction drain) with 4 workers
    # vs serial. The parallel win needs spare cores — on a runner with
    # fewer than 8, only require that the parallel scheduler does not
    # collapse below serial speed (scheduler overhead, claim-mask
    # contention, or a subcompaction convoy would show up here even on
    # one core). Tolerate committed files that predate it.
    if "compaction_ingest_ratio_4t" in guard and "compaction" in current:
        compaction_cap = 1.0 if hw and hw < 8 else float("inf")
        checks.append(
            ("parallel-compaction sustained-ingest ratio (4w/serial)",
             current["compaction"]["ingest_ratio_4t"],
             min(guard["compaction_ingest_ratio_4t"], compaction_cap))
        )
    return checks


def phase_row(doc, name):
    for row in doc["phases"]:
        if row["phase"] == name:
            return row
    raise SystemExit(f"perf_guard: no '{name}' phase row")


def adaptive_checks(current, committed):
    guard = committed["guard"]
    checks = [
        (f"adaptive/best-static ratio ({phase})",
         phase_row(current, phase)["adaptive_over_best"],
         guard[f"adaptive_over_best_{phase}"])
        for phase in ("point", "wide", "zipf")
    ]
    # The "beats the worst static" bar only has to hold somewhere: the
    # whole point of re-tuning is that no phase is a disaster, so the
    # best phase's margin is the honest summary statistic.
    over_worst_max = max(row["adaptive_over_worst"]
                         for row in current["phases"])
    checks.append(("adaptive/worst-static ratio (best phase)",
                   over_worst_max, guard["adaptive_over_worst_max"]))
    checks.append(("sampling-on/off Get ratio",
                   current["sampler"]["ratio"],
                   guard["sampler_get_ratio"]))
    return checks


def main():
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        committed = json.load(f)
    ratio = float(sys.argv[3]) if len(sys.argv) > 3 else 0.9

    bench = committed.get("bench", "batch_probe")
    if current.get("bench", bench) != bench:
        raise SystemExit(
            f"perf_guard: bench mismatch ({current.get('bench')} vs {bench})"
        )
    if bench == "batch_probe":
        checks = batch_probe_checks(current, committed)
    elif bench == "lsm_concurrent":
        checks = lsm_concurrent_checks(current, committed)
    elif bench == "adaptive":
        checks = adaptive_checks(current, committed)
    else:
        raise SystemExit(f"perf_guard: unknown bench '{bench}'")

    failed = False
    for label, got, floor in checks:
        need = floor * ratio
        ok = got >= need
        print(
            f"{'OK  ' if ok else 'FAIL'} {label} "
            f"{got:.3f} vs floor {floor:.3f} * {ratio} = {need:.3f}"
        )
        failed |= not ok
    if failed:
        print(f"perf_guard: {bench} ratios regressed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
