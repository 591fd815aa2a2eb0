#!/usr/bin/env python3
"""Build and run the LSM benchmark of the bloomRF store.

    python3 perfbench/run.py --workload filter_l0 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # benchmark arithmetic

Run from anywhere; paths are resolved from this file. The benchmark is
compiled from the repository's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the per-run record with
host facts and sample counts is written under <build dir>/out/results,
and the spans of a traced run under <build dir>/out/traces.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("filter_l0", "cached_leveled", "ingest_mixed")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must finish within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """Digest of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        if path.suffix in (".pyc",) or "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(digest):
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"source-{digest}"


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "lsm" / "db.h").is_file():
        log(f"the store's sources are missing under {ROOT}; nothing to benchmark")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", str(bdir), "-j", jobs,
                       "--target", "lsm_bench", "lsm_bench_selftest"],
                      BUILD_TIMEOUT_S)


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_workload(bdir, workload, seed, seconds, trace, digest, commit):
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Stores of runs that were killed before they could clean up.
    for stale in out_dir.glob("store-*"):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [str(bdir / "lsm_bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--build-id", digest, "--commit", commit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or parse_result(lines[-1]) is None:
        sys.stdout.write(stdout)
        log(f"{workload}: lsm_bench exited {proc.returncode} without a result")
        return None
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.selftest:
        return subprocess.run([str(bdir / "lsm_bench_selftest")]).returncode

    digest = source_digest()
    commit = commit_id(digest)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        lines = run_workload(bdir, workload, args.seed, args.seconds,
                             args.trace, digest, commit)
        if lines is None:
            return 1
        # A wrong answer is reported in the result ("correct": false),
        # not through the exit code.
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
