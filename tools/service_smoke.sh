#!/bin/sh
# End-to-end smoke for the online service layer.  Registered as the
# `service_smoke` ctest (bench/); also usable standalone:
#
#     tools/service_smoke.sh <service_storm-binary>
#
# The drill:
#   1. run the full latency storm twice — once single-threaded, once
#      on an 8-worker pool — in separate scratch dirs,
#   2. both runs must finish clean: the bench self-checks its two
#      passes per point and exits nonzero on a determinism mismatch,
#      a watchdog trip, or any lost request,
#   3. the two BENCH_latency.json artifacts must be byte-identical —
#      thread count must not leak into any committed number,
#   4. every (profile, policy) point must report resolved 1.0000:
#      overload sheds requests with a structured reason, it never
#      loses them (goodput, the completed share, may drop below 1),
#   5. the storm profile must actually shed (> 0 on every policy) and
#      report zero watchdog trips — the overload path was exercised
#      and stayed live.
set -eu

BENCH=${1:?usage: service_smoke.sh <service_storm-binary>}
WORK1=$(mktemp -d /tmp/sbsvc-smoke-1-XXXXXX)
WORK8=$(mktemp -d /tmp/sbsvc-smoke-8-XXXXXX)
trap 'rm -rf "$WORK1" "$WORK8"' EXIT INT TERM

fail()
{
    echo "service_smoke: FAIL: $1" >&2
    exit 1
}

# --- 1+2. two clean runs at different pool widths ---------------------
# The regression guard compares against the committed baseline, which
# tracks the full-length run; disable it here so the smoke stays valid
# under SB_BENCH_MISSES-shortened runs too.
(cd "$WORK1" && SB_BENCH_THREADS=1 SB_BENCH_REGRESSION=0 \
    "$BENCH" >out.txt 2>err.txt) ||
    fail "single-threaded run failed (see stderr):
$(tail -5 "$WORK1/err.txt")"
(cd "$WORK8" && SB_BENCH_THREADS=8 SB_BENCH_REGRESSION=0 \
    "$BENCH" >out.txt 2>err.txt) ||
    fail "8-thread run failed (see stderr):
$(tail -5 "$WORK8/err.txt")"

J1="$WORK1/BENCH_latency.json"
J8="$WORK8/BENCH_latency.json"
[ -f "$J1" ] || fail "BENCH_latency.json not written (threads=1)"
[ -f "$J8" ] || fail "BENCH_latency.json not written (threads=8)"

# --- 3. thread count never reaches the artifact -----------------------
cmp -s "$J1" "$J8" ||
    fail "BENCH_latency.json differs between SB_BENCH_THREADS=1 and 8"

# --- 4. per-artifact flags and every arrival resolved ------------------
grep -q '"deterministic": true' "$J1" ||
    fail "determinism flag not set in BENCH_latency.json"
grep -q '"watchdog_trips": 0' "$J1" ||
    fail "a liveness watchdog tripped during the storm"

BAD=$(grep -o '"profile": "[a-z]*", "policy": "[a-z]*", "resolved": [0-9.]*' "$J1" |
    grep -v '"resolved": 1.0000' || true)
[ -z "$BAD" ] || fail "a point lost requests: $BAD"

# --- 5. the storm profile really shed, on every policy ----------------
NOSHED=$(grep -o '"profile": "storm", "policy": "[a-z]*", "resolved": [0-9.]*, "goodput": [0-9.]*, "completed": [0-9]*, "shed": [0-9]*' "$J1" |
    grep '"shed": 0' || true)
[ -z "$NOSHED" ] || fail "storm profile failed to shed: $NOSHED"

SHED=$(grep -o '"profile": "storm", "policy": "[a-z]*", "resolved": [0-9.]*, "goodput": [0-9.]*, "completed": [0-9]*, "shed": [0-9]*' "$J1" |
    awk -F'"shed": ' '{s += $2} END {print s}')
echo "service_smoke: OK ($SHED structured sheds across the storm row," \
    "artifacts byte-identical at 1 and 8 threads)"
