#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload batch-rd|batch-hd|svc-ladder \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr.  Standard output carries a metadata line,
the benchmark's notes and, last, its JSON result line.  A traced run
also writes its spans to <build dir>/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("batch-rd", "batch-hd", "svc-ladder")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The benchmark itself stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base / "perfbench").resolve()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cmake(args, timeout):
    proc = subprocess.run(["cmake", *args], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout)
    return proc.returncode == 0


def build(bdir):
    """Configure (once) and build; a stale tree is rebuilt from scratch."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {REPO / 'src'}")
        return False
    jobs = str(min(4, nproc()))
    for attempt in (0, 1):
        ok = True
        if not (bdir / "CMakeCache.txt").is_file():
            ok = cmake(["-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600)
        ok = ok and cmake(["--build", str(bdir), "--target", "perfbench",
                           "-j", jobs], 840)
        if ok:
            return True
        if attempt == 0 and bdir.exists():
            log("build failed; retrying in a clean build directory")
            shutil.rmtree(bdir)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 2
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("last output line is not a result object")
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1

    meta = {"git_describe": git_describe(), "nproc": nproc(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    print("# meta " + json.dumps(meta))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
