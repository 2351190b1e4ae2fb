#!/bin/sh
# Build the fault, checkpoint, stash, controller, dup-queue,
# histogram and run-frame tests under ASan/UBSan in a nested build
# tree and run them.  Registered as the
# `sanitize_smoke` ctest (tests/), which builds under its own build
# tree; also usable standalone:
#
#     tools/sanitize_smoke.sh [source-dir] [build-dir]
#
# The build directory defaults to <source-dir>/build/sanitize.
#
# The fault subsystem is the code most worth sanitizing: it pokes
# bits into live ciphertext buffers and drives the recovery paths
# that splice payloads between the stash, the eviction buffer and the
# tree.  The checkpoint subsystem joins it: snapshot parsing walks
# attacker-shaped bytes (truncated, bit-flipped, hostile lengths)
# where an out-of-bounds read is exactly the bug class ASan catches.
# Its CkptLayout and CkptServiceForge suites resume every run loop
# from snapshots that lack one section and the service from forged
# request-observability state, the paths that must throw before (or
# instead of) touching state.
# The stash keeps its entries in a slab with an open-addressed index
# and intrusive seq lists of raw pointers into the slab, so a missed
# unlink before a slot is freed, or a probe past the index, is a
# use-after-free or overflow that only a sanitizer reliably catches.
# The controller's own suites drive the path read and the four
# path-write phases over the per-write scratch (payload buffers
# indexed by address, the pending-encrypt list compacted in place,
# the eviction path buffer), where a stale index reads a freed or
# foreign buffer.
# The RD dup queue's counting sort scatters through a scratch array
# by per-level cursors, where an off-by-one writes out of bounds.
# The log2 histogram loader reads snapshot bytes too, and the exact
# latency samples travel across kill-and-resume in the service
# snapshot.  The experiment runner hands each result through a shared
# promise that the task and its future co-own, on the inline and the
# pooled path.  The controller's issue port fires timing-protection
# dummies and saves and restores its own section beside the ORAM's,
# and the run frame holds the loops' save, load and scrub callbacks
# by reference into stack frames that a stop unwinds.
#
# The nested tree builds at -O1 -g1 (the level ASan's docs recommend:
# every check stays, and the whole smoke takes about half as long as
# at RelWithDebInfo's -O2 -g) with a fixed job count, since this
# script runs beside other tests under `ctest -j`.
set -eu

SRC_DIR=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
BUILD_DIR=${2:-$SRC_DIR/build/sanitize}

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
    -DSB_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g1" >/dev/null
cmake --build "$BUILD_DIR" \
    --target test_fault test_ckpt test_oram test_shadow test_sim test_obs \
    chaos_storm \
    -j 3 >/dev/null

# Die on any UBSan report instead of just printing it.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_fault"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_ckpt"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_oram" \
    --gtest_filter='Stash.*:TinyOram.*:ShadowSemantics.*'
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_shadow" --gtest_filter='DupQueue.*'

# The histogram loader on snapshot bytes (kind-tag rejection) and the
# service's latency samples across kill-and-resume.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_obs" --gtest_filter='Log2Bins.*:RequestObs.*'

# The payload determinism test drives the allocation-free slab access
# path (pooled buffers, batched keystream scratch, raw CipherRef
# pointer arithmetic) end to end for Tiny, RD-only and HD-only —
# exactly the code where an off-by-one lane index would otherwise
# scribble silently.  Short traces keep the sanitized run fast.  The
# runner suite adds the promise lifetime (inline and pooled), thrown
# tasks and immediate retries; the controller and cadence suites add
# the issue port, its section and the scrub veto.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$BUILD_DIR/tests/test_sim" \
    --gtest_filter='System.DeterministicAcrossRuns:ExperimentRunner.*:Controller.*:RunFrameCadence.*'

# The chaos harness exercises the whole recovery ladder — corruption
# of live ciphertext, scrub-and-heal rewrites, snapshot restore into
# live objects, replay — which is the densest pointer traffic in the
# tree.  Short phases keep the sanitized run fast; the ladder still
# rolls back (the smoke asserts determinism, not availability, at
# this length).
(cd "$BUILD_DIR/bench" &&
    UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    SB_BENCH_MISSES=500 SB_BENCH_THREADS=2 \
    ./chaos_storm >/dev/null)

# The full hardening matrix, for orientation.  This script is one
# row; the others are sibling ctests (ctest -R <name>).
cat <<'EOF'

tooling gate       ctest name      what it covers
-----------------  --------------  --------------------------------
ASan/UBSan         sanitize_smoke  fault + scrub + checkpoint +
                                   stash slab, index and lists +
                                   controller read/write phases +
                                   dup-queue sort + histogram loader +
                                   latency-sample resume + runner
                                   promise/retry + issue port and
                                   run-frame cadence memory safety
ThreadSanitizer    tsan_smoke      runner pool / future handoff races
sblint             sblint_smoke    determinism/obliviousness/serde
                                   contracts (zero unsuppressed)
sblint+clang-tidy  lint_all        the above + flow-sensitive checks
                                   when clang-tidy is installed
EOF
