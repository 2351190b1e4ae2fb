#!/bin/sh
# Rebuild the concurrency-bearing tests under ThreadSanitizer and run
# them with a wide worker pool.  Registered as the `tsan_smoke` ctest
# (tests/), which builds under its own build tree; also usable
# standalone:
#
#     tools/tsan_smoke.sh [source-dir] [build-dir]
#
# The build directory defaults to <source-dir>/build-tsan.
#
# The ExperimentRunner is the one genuinely threaded subsystem: worker
# pool, future handoff, the process-wide trace cache, and checkpoint
# side effects all cross threads.  TSan vets the
# happens-before edges the determinism argument leans on (results only
# flow through futures; g_* state only mutates under its mutex).
#
# Exits 77 — the ctest SKIP code — where the toolchain cannot produce
# a working TSan binary, so the suite degrades instead of failing on
# minimal containers.
#
# The nested tree builds at -O1 -g1 with a fixed job count, like
# sanitize_smoke: TSan keeps every check at -O1, and this script runs
# beside other tests under `ctest -j`.
set -eu

SRC_DIR=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
BUILD_DIR=${2:-$SRC_DIR/build-tsan}

# Probe: can this toolchain link and run a TSan binary at all?
PROBE_DIR=$(mktemp -d)
trap 'rm -rf "$PROBE_DIR"' EXIT
printf 'int main(){return 0;}\n' > "$PROBE_DIR/probe.cc"
if ! c++ -fsanitize=thread "$PROBE_DIR/probe.cc" \
        -o "$PROBE_DIR/probe" 2>/dev/null ||
   ! "$PROBE_DIR/probe" 2>/dev/null; then
    echo "tsan_smoke: toolchain lacks ThreadSanitizer support; skipping"
    exit 77
fi

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
    -DSB_SANITIZE=tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g1" >/dev/null
cmake --build "$BUILD_DIR" \
    --target test_sim test_svc chaos_storm service_storm -j 3 >/dev/null

# halt_on_error turns any report into a non-zero exit; the runner and
# system suites cover defer/deferRetry, sweeps, trace caching and
# resume under an 8-worker pool.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
SB_BENCH_THREADS=8 \
    "$BUILD_DIR/tests/test_sim" \
    --gtest_filter='ExperimentRunner*:System*'

# The service scheduler is lock-light by ownership — each pipeline is
# single-threaded — so TSan vets exactly the claim that nothing leaks
# between concurrently running points.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
SB_BENCH_THREADS=8 \
    "$BUILD_DIR/tests/test_svc"

# The chaos harness fans every (profile, policy, phase, pass) out to
# the pool, each with its own checkpoint session and rollback loop —
# the widest concurrent use of the runner in the tree.  Short phases
# keep the TSan run fast.
(cd "$BUILD_DIR/bench" &&
    TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
    SB_BENCH_MISSES=400 SB_BENCH_THREADS=8 \
    ./chaos_storm >/dev/null)

# The latency storm does the same for the service pipeline: two passes
# per point, all points concurrently on the pool, futures carrying the
# whole ServiceStats across threads.  The shortened run diverges from
# the committed full-length baseline, so the regression guard is off.
(cd "$BUILD_DIR/bench" &&
    TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
    SB_BENCH_MISSES=400 SB_BENCH_THREADS=8 SB_BENCH_REGRESSION=0 \
    ./service_storm >/dev/null)
