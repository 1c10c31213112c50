#!/usr/bin/env bash
# bench_smoke.sh — parallel-runner smoke check + perf-counter trajectory.
#
# Runs a small filtered sub-suite twice through bench_fig4_quantile — once
# at SE2GIS_JOBS=1 (the historical sequential loop) and once at
# SE2GIS_JOBS=N — diffs the outcome lines, and leaves the two perf-counter
# JSON summaries next to the build tree so future PRs can record a bench
# trajectory (BENCH_smoke_j1.json / BENCH_smoke_jN.json).
#
# A third pass exercises the deadline subsystem: a 1-second budget per
# (benchmark, algorithm) pair over a wider filter, preferably against the
# asan sanitizer preset (cmake --preset asan && cmake --build --preset asan),
# asserting that every started run records a verdict — timed-out runs must
# come back as "timeout" lines, never hangs or missing records.
#
# A fourth pass exercises the memoization subsystem (src/cache/): the same
# filtered sub-suite runs twice with SE2GIS_CACHE=disk against a fresh store
# (cold, then warm). The verdicts must be identical, the warm sweep's perf
# JSON must report a nonzero SMT-cache hit count, and the pass prints the
# warm hit rate and wall-clock speedup (BENCH_smoke_cold.json /
# BENCH_smoke_warm.json).
#
# A final pass exercises the incremental-SMT session layer (src/smt/): the
# filtered sub-suite runs with SE2GIS_SMT_INCREMENTAL=off and =on (verdicts
# must match, the on-sweep must report smt_session_reuse > 0, and the perf
# JSON must carry the session counters and smt_translate quantiles),
# preferably against the tsan preset, plus a mixed realizable /
# unrealizable / timeout trio through the CLI in both modes.
#
# Usage: scripts/bench_smoke.sh [build-dir] [jobs] [filter]
#   build-dir  default: build
#   jobs       default: nproc
#   filter     default: sortedlist/m  (3 fast benchmarks)
# Env:
#   SMOKE_SAN_DIR       sanitizer build tree for the deadline pass
#                       (default: build-asan if present, else build-dir)
#   SMOKE_DEADLINE_SEC  per-pair budget for the deadline pass (default: 1)
#   SMOKE_INC_DIR       build tree for the incremental-SMT pass
#                       (default: build-tsan if present, else build-dir)
set -euo pipefail

BUILD_DIR=${1:-build}
JOBS=${2:-$(nproc)}
FILTER=${3:-sortedlist/m}
DRIVER="$BUILD_DIR/bench/bench_fig4_quantile"
OUT_DIR=${BENCH_OUT_DIR:-$BUILD_DIR}

if [ ! -x "$DRIVER" ]; then
  echo "error: $DRIVER not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

run() { # run <jobs> <json-path> <stdout-path>
  SE2GIS_JOBS=$1 SE2GIS_PERF_JSON=$2 SE2GIS_FILTER=$FILTER \
    SE2GIS_TIMEOUT_MS=${SE2GIS_TIMEOUT_MS:-20000} \
    "$DRIVER" >"$3" 2>"$3.log"
}

echo "[smoke] filter='$FILTER' sequential baseline (SE2GIS_JOBS=1)..."
T0=$(date +%s.%N)
run 1 "$OUT_DIR/BENCH_smoke_j1.json" "$OUT_DIR/smoke_j1.out"
T1=$(date +%s.%N)

echo "[smoke] parallel sweep (SE2GIS_JOBS=$JOBS)..."
run "$JOBS" "$OUT_DIR/BENCH_smoke_j${JOBS}.json" "$OUT_DIR/smoke_jN.out"
T2=$(date +%s.%N)

# Outcomes must be identical. Solve *times* legitimately vary between runs
# (and progress lines arrive in completion order under the pool), so the
# comparison extracts the (benchmark, algorithm, outcome) triples from the
# progress log, sorted, plus the solved-counts table and shape check.
outcomes() { # outcomes <stdout-path>
  { grep '^\[suite\]' "$1.log" | awk '{print $2, $3, $4}' | sort
    grep -E '^(Realizable|Unrealizable|Total|shape check)' "$1"; } \
    >"$1.outcomes"
}
outcomes "$OUT_DIR/smoke_j1.out"
outcomes "$OUT_DIR/smoke_jN.out"
if ! diff -u "$OUT_DIR/smoke_j1.out.outcomes" "$OUT_DIR/smoke_jN.out.outcomes"; then
  echo "[smoke] FAIL: parallel outcomes diverge from the sequential baseline" >&2
  exit 1
fi
echo "[smoke] outcomes identical at jobs=1 and jobs=$JOBS"

SEQ=$(echo "$T1 $T0" | awk '{printf "%.1f", $1-$2}')
PAR=$(echo "$T2 $T1" | awk '{printf "%.1f", $1-$2}')
echo "[smoke] wall clock: sequential ${SEQ}s, parallel ${PAR}s"
echo "[smoke] perf summaries: $OUT_DIR/BENCH_smoke_j1.json $OUT_DIR/BENCH_smoke_j${JOBS}.json"

# --- Deadline pass: short budget, every run must record a verdict ---------
SAN_DIR=${SMOKE_SAN_DIR:-}
if [ -z "$SAN_DIR" ]; then
  if [ -x "build-asan/bench/bench_fig4_quantile" ]; then
    SAN_DIR=build-asan
  else
    SAN_DIR=$BUILD_DIR
  fi
fi
SAN_DRIVER="$SAN_DIR/bench/bench_fig4_quantile"
DEADLINE=${SMOKE_DEADLINE_SEC:-1}

echo "[smoke] deadline pass: SE2GIS_TIMEOUT=${DEADLINE}s over filter='list' ($SAN_DRIVER)..."
SE2GIS_JOBS=$JOBS SE2GIS_FILTER=list SE2GIS_TIMEOUT="$DEADLINE" \
  SE2GIS_TIMEOUT_MS= \
  "$SAN_DRIVER" >"$OUT_DIR/smoke_deadline.out" 2>"$OUT_DIR/smoke_deadline.out.log"

# Every [suite] progress line must carry one of the four verdicts; a pair
# that started but never reported would show up as a missing/odd line (or,
# worse, the driver would still be running and the redirect above would
# never return). Progress lines now come from the structured logger, so the
# first field is the full [suite][level][timestamp][t=N] prefix (no spaces)
# and the benchmark name is field 2.
STARTED=$(grep -c '^\[suite\]\[[a-z]*\]\[[^ ]*\] [a-z]' "$OUT_DIR/smoke_deadline.out.log" || true)
VERDICTS=$(awk '/^\[suite\]\[[a-z]*\]\[[^ ]*\] [a-z]/ {
    ok = 0
    for (i = 1; i <= NF; ++i)
      if ($i ~ /^(realizable|unrealizable|timeout|failed)$/) ok = 1
    if (ok) n++
  } END { print n+0 }' "$OUT_DIR/smoke_deadline.out.log")
if [ "$STARTED" -eq 0 ] || [ "$STARTED" != "$VERDICTS" ]; then
  echo "[smoke] FAIL: deadline pass started $STARTED runs but recorded" \
       "$VERDICTS verdicts" >&2
  exit 1
fi
TIMEOUTS=$(grep -c ' timeout ' "$OUT_DIR/smoke_deadline.out.log" || true)
echo "[smoke] deadline pass: $STARTED runs, $STARTED verdicts ($TIMEOUTS timeout)"

# --- Cache pass: cold-then-warm double sweep against a fresh store --------
CACHE_DIR="$OUT_DIR/smoke-cache"
rm -rf "$CACHE_DIR"

cache_sweep() { # cache_sweep <json-path> <stdout-path>
  SE2GIS_JOBS=$JOBS SE2GIS_PERF_JSON=$1 SE2GIS_FILTER=$FILTER \
    SE2GIS_TIMEOUT_MS=${SE2GIS_TIMEOUT_MS:-20000} \
    SE2GIS_CACHE=disk SE2GIS_CACHE_DIR="$CACHE_DIR" \
    "$DRIVER" >"$2" 2>"$2.log"
}
perf_key() { # perf_key <json-path> <key>  (no jq dependency)
  sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1" | head -n1
}

echo "[smoke] cache pass: cold sweep (SE2GIS_CACHE=disk, fresh store)..."
T3=$(date +%s.%N)
cache_sweep "$OUT_DIR/BENCH_smoke_cold.json" "$OUT_DIR/smoke_cold.out"
T4=$(date +%s.%N)
echo "[smoke] cache pass: warm sweep (same store)..."
cache_sweep "$OUT_DIR/BENCH_smoke_warm.json" "$OUT_DIR/smoke_warm.out"
T5=$(date +%s.%N)

# Warm-start correctness: the cached second sweep must reproduce the cold
# sweep's verdicts exactly.
outcomes "$OUT_DIR/smoke_cold.out"
outcomes "$OUT_DIR/smoke_warm.out"
if ! diff -u "$OUT_DIR/smoke_cold.out.outcomes" "$OUT_DIR/smoke_warm.out.outcomes"; then
  echo "[smoke] FAIL: warm (cached) outcomes diverge from the cold sweep" >&2
  exit 1
fi
echo "[smoke] cache pass: cold and warm verdicts identical"

HITS=$(perf_key "$OUT_DIR/BENCH_smoke_warm.json" cache_smt_hits)
MISSES=$(perf_key "$OUT_DIR/BENCH_smoke_warm.json" cache_smt_misses)
if [ -z "$HITS" ] || [ "$HITS" -eq 0 ]; then
  echo "[smoke] FAIL: warm sweep reported no SMT-cache hits" \
       "(cache_smt_hits=${HITS:-missing} in BENCH_smoke_warm.json)" >&2
  exit 1
fi
COLD_S=$(echo "$T4 $T3" | awk '{printf "%.1f", $1-$2}')
WARM_S=$(echo "$T5 $T4" | awk '{printf "%.1f", $1-$2}')
RATE=$(echo "$HITS ${MISSES:-0}" | awk '{printf "%.1f", 100*$1/($1+$2)}')
SPEEDUP=$(echo "$COLD_S $WARM_S" | awk '{printf "%.2f", ($2 > 0 ? $1 / $2 : 0)}')
echo "[smoke] cache pass: warm SMT hit rate ${RATE}% ($HITS hits," \
     "${MISSES:-0} misses); cold ${COLD_S}s -> warm ${WARM_S}s" \
     "(speedup ${SPEEDUP}x)"
echo "[smoke] perf summaries: $OUT_DIR/BENCH_smoke_cold.json $OUT_DIR/BENCH_smoke_warm.json"

# --- Trace pass: Chrome trace_event export + latency quantiles ------------
TRACE_JSON="$OUT_DIR/smoke_trace.json"
rm -f "$TRACE_JSON"

echo "[smoke] trace pass: SE2GIS_TRACE on (SE2GIS_JOBS=$JOBS)..."
T6=$(date +%s.%N)
SE2GIS_JOBS=$JOBS SE2GIS_PERF_JSON="$OUT_DIR/BENCH_smoke_trace.json" \
  SE2GIS_FILTER=$FILTER SE2GIS_TIMEOUT_MS=${SE2GIS_TIMEOUT_MS:-20000} \
  SE2GIS_TRACE="$TRACE_JSON" \
  "$DRIVER" >"$OUT_DIR/smoke_trace.out" 2>"$OUT_DIR/smoke_trace.out.log"
T7=$(date +%s.%N)

if [ ! -s "$TRACE_JSON" ]; then
  echo "[smoke] FAIL: SE2GIS_TRACE produced no trace file at $TRACE_JSON" >&2
  exit 1
fi

# The trace must parse as JSON (python3 when available, else a brace-balance
# sanity check) and contain at least one span per instrumented category.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_JSON" "$JOBS" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
jobs = int(sys.argv[2])
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
cats = {e["cat"] for e in spans}
tids = {e["tid"] for e in spans}
for want in ("suite", "round", "smt"):
    assert want in cats, f"no '{want}' spans in trace (have {sorted(cats)})"
# One track per worker: only a multi-worker sweep can owe us multiple.
want_tids = min(2, jobs)
assert len(tids) >= want_tids, \
    f"expected >= {want_tids} thread tracks at jobs={jobs}, got {sorted(tids)}"
print(f"[smoke] trace pass: {len(spans)} spans, categories {sorted(cats)}, "
      f"{len(tids)} thread tracks")
PY
else
  for CAT in suite round smt; do
    if ! grep -q "\"cat\":\"$CAT\"" "$TRACE_JSON"; then
      echo "[smoke] FAIL: no '$CAT' spans in $TRACE_JSON" >&2
      exit 1
    fi
  done
  echo "[smoke] trace pass: category spot-check passed (python3 unavailable)"
fi

# The perf JSON must now carry the latency quantiles.
for KEY in smt_check_p50_ms smt_check_p99_ms enum_round_p50_ms enum_round_p99_ms; do
  if ! grep -q "\"$KEY\"" "$OUT_DIR/BENCH_smoke_trace.json"; then
    echo "[smoke] FAIL: perf JSON lacks \"$KEY\"" >&2
    exit 1
  fi
done
SMT_COUNT=$(perf_key "$OUT_DIR/BENCH_smoke_trace.json" smt_check_count)
if [ -z "$SMT_COUNT" ] || [ "$SMT_COUNT" -eq 0 ]; then
  echo "[smoke] FAIL: smt_check histogram recorded no samples" >&2
  exit 1
fi
TRACE_S=$(echo "$T7 $T6" | awk '{printf "%.1f", $1-$2}')
echo "[smoke] trace pass: perf quantile keys present ($SMT_COUNT SMT samples);" \
     "traced sweep ${TRACE_S}s vs untraced ${PAR}s"
echo "[smoke] trace file: $TRACE_JSON (load in ui.perfetto.dev)"

# --- Service pass: daemon round trip, verdict parity, graceful drain ------
# Prefers the tsan preset when built (cmake --preset tsan && cmake --build
# --preset tsan): TSan's exit-time checks then double as the "zero leaked
# threads" assertion — a thread still alive at exit is a reported leak.
SVC_DIR=${SMOKE_SVC_DIR:-}
if [ -z "$SVC_DIR" ]; then
  if [ -x "build-tsan/tools/se2gis_served" ]; then
    SVC_DIR=build-tsan
  else
    SVC_DIR=$BUILD_DIR
  fi
fi
SVC_DAEMON="$SVC_DIR/tools/se2gis_served"
SVC_CLI="$SVC_DIR/tools/se2gis"
SVC_SOCK="$OUT_DIR/smoke-service.sock"
SVC_CACHE="$OUT_DIR/smoke-cache-svc"
rm -rf "$SVC_CACHE" "$SVC_SOCK"

if [ ! -x "$SVC_DAEMON" ]; then
  echo "[smoke] FAIL: $SVC_DAEMON not built" >&2
  exit 1
fi

echo "[smoke] service pass: starting daemon ($SVC_DAEMON)..."
"$SVC_DAEMON" --listen "unix:$SVC_SOCK" --workers 2 \
  --cache disk --cache-dir "$SVC_CACHE" \
  >"$OUT_DIR/smoke_service.out" 2>&1 &
SVC_PID=$!
trap '[ -n "${SVC_PID:-}" ] && kill "$SVC_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  if "$SVC_CLI" ping --connect "unix:$SVC_SOCK" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
if ! "$SVC_CLI" ping --connect "unix:$SVC_SOCK" >/dev/null 2>&1; then
  echo "[smoke] FAIL: daemon never answered a ping" >&2
  exit 1
fi

# Three jobs — realizable, unrealizable, and a 1 ms budget that must come
# back as a timeout verdict — each checked for parity against the direct
# (in-process) CLI on the same benchmark.
svc_job() { # svc_job <benchmark> <timeout-ms>
  set +e
  "$SVC_CLI" submit --connect "unix:$SVC_SOCK" --benchmark "$1" \
    --timeout-ms "$2" --wait --quiet >/dev/null 2>&1
  SVC_RC=$?
  "$SVC_CLI" --benchmark "$1" --timeout-ms "$2" --quiet >/dev/null 2>&1
  DIRECT_RC=$?
  set -e
  if [ "$SVC_RC" != "$DIRECT_RC" ]; then
    echo "[smoke] FAIL: service verdict for $1 (exit $SVC_RC) diverges" \
         "from the direct run (exit $DIRECT_RC)" >&2
    exit 1
  fi
  echo "[smoke] service pass: $1 -> exit $SVC_RC (parity with direct run)"
}
svc_job list/sum 20000
svc_job unreal/sum 20000
svc_job list/sum 1   # deadline fires inside the run: timeout verdict (2)

# Graceful drain: the daemon must exit 0 on its own (no kill) with the
# persistent store intact on disk.
"$SVC_CLI" drain --connect "unix:$SVC_SOCK" >/dev/null
SVC_EXIT=0
wait "$SVC_PID" || SVC_EXIT=$?
SVC_PID=
if [ "$SVC_EXIT" -ne 0 ]; then
  echo "[smoke] FAIL: daemon exited $SVC_EXIT after drain (want 0)" >&2
  exit 1
fi
if [ ! -s "$SVC_CACHE/store.meta" ]; then
  echo "[smoke] FAIL: drained daemon left no persistent store" >&2
  exit 1
fi
echo "[smoke] service pass: drain clean (exit 0), store intact ($SVC_CACHE)"

# --- Incremental-SMT pass: session reuse + verdict parity vs fresh --------
# The same filtered sub-suite runs twice — once with the incremental session
# layer off (fresh context per query, the historical model) and once on.
# Verdicts must be identical, the incremental sweep must actually reuse
# sessions, and the perf JSON must carry the new session counters and the
# smt_translate quantiles. Prefers the tsan preset so the per-thread session
# slots run under the race detector.
INC_DIR=${SMOKE_INC_DIR:-}
if [ -z "$INC_DIR" ]; then
  if [ -x "build-tsan/bench/bench_fig4_quantile" ]; then
    INC_DIR=build-tsan
  else
    INC_DIR=$BUILD_DIR
  fi
fi
INC_DRIVER="$INC_DIR/bench/bench_fig4_quantile"
INC_CLI="$INC_DIR/tools/se2gis"

inc_sweep() { # inc_sweep <on|off> <json-path> <stdout-path>
  # Generous budget: the pass checks off-vs-on verdict identity, and the
  # tsan build runs sortedlist/max in ~13s solo — a 20s budget flakes
  # under jobs=N contention on small machines.
  SE2GIS_JOBS=$JOBS SE2GIS_PERF_JSON=$2 SE2GIS_FILTER=$FILTER \
    SE2GIS_TIMEOUT_MS=${SE2GIS_TIMEOUT_MS:-60000} \
    SE2GIS_SMT_INCREMENTAL=$1 \
    "$INC_DRIVER" >"$3" 2>"$3.log"
}

echo "[smoke] incremental pass: fresh-context sweep (SE2GIS_SMT_INCREMENTAL=off, $INC_DIR)..."
inc_sweep off "$OUT_DIR/BENCH_smoke_fresh.json" "$OUT_DIR/smoke_fresh.out"
echo "[smoke] incremental pass: session sweep (SE2GIS_SMT_INCREMENTAL=on)..."
inc_sweep on "$OUT_DIR/BENCH_smoke_incr.json" "$OUT_DIR/smoke_incr.out"

outcomes "$OUT_DIR/smoke_fresh.out"
outcomes "$OUT_DIR/smoke_incr.out"
if ! diff -u "$OUT_DIR/smoke_fresh.out.outcomes" "$OUT_DIR/smoke_incr.out.outcomes"; then
  echo "[smoke] FAIL: incremental-session outcomes diverge from fresh contexts" >&2
  exit 1
fi
echo "[smoke] incremental pass: verdicts identical in both modes"

REUSE=$(perf_key "$OUT_DIR/BENCH_smoke_incr.json" smt_session_reuse)
if [ -z "$REUSE" ] || [ "$REUSE" -eq 0 ]; then
  echo "[smoke] FAIL: incremental sweep reused no sessions" \
       "(smt_session_reuse=${REUSE:-missing} in BENCH_smoke_incr.json)" >&2
  exit 1
fi
OFF_REUSE=$(perf_key "$OUT_DIR/BENCH_smoke_fresh.json" smt_session_reuse)
if [ "${OFF_REUSE:-0}" -ne 0 ]; then
  echo "[smoke] FAIL: off-mode sweep reported session reuse" \
       "(smt_session_reuse=$OFF_REUSE — the toggle is not honored)" >&2
  exit 1
fi
for KEY in smt_session_reuse smt_session_fresh smt_push smt_pop \
           smt_translate_p50_ms smt_translate_p99_ms; do
  if ! grep -q "\"$KEY\"" "$OUT_DIR/BENCH_smoke_incr.json"; then
    echo "[smoke] FAIL: perf JSON lacks \"$KEY\"" >&2
    exit 1
  fi
done
FRESH_N=$(perf_key "$OUT_DIR/BENCH_smoke_incr.json" smt_session_fresh)
echo "[smoke] incremental pass: $REUSE reused / ${FRESH_N:-0} fresh sessions;" \
     "quantile keys present"

# Per-benchmark verdict parity on a mixed trio — realizable, unrealizable,
# and a 1 ms budget that must come back as a timeout — through the direct
# CLI in both modes (exit codes encode the verdict).
inc_job() { # inc_job <benchmark> <timeout-ms>
  set +e
  SE2GIS_SMT_INCREMENTAL=on "$INC_CLI" --benchmark "$1" \
    --timeout-ms "$2" --quiet >/dev/null 2>&1
  ON_RC=$?
  SE2GIS_SMT_INCREMENTAL=off "$INC_CLI" --benchmark "$1" \
    --timeout-ms "$2" --quiet >/dev/null 2>&1
  OFF_RC=$?
  set -e
  if [ "$ON_RC" != "$OFF_RC" ]; then
    echo "[smoke] FAIL: incremental verdict for $1 (exit $ON_RC) diverges" \
         "from fresh contexts (exit $OFF_RC)" >&2
    exit 1
  fi
  echo "[smoke] incremental pass: $1 -> exit $ON_RC (parity in both modes)"
}
inc_job list/sum 20000
inc_job unreal/sum 20000
inc_job list/sum 1   # deadline fires inside the run: timeout verdict (2)
echo "[smoke] perf summaries: $OUT_DIR/BENCH_smoke_fresh.json $OUT_DIR/BENCH_smoke_incr.json"

# --- CHC pass: raced unrealizability channel + Evidence provenance --------
# The unrealizable subset runs once through the suite driver under
# SE2GIS_UNREAL=race. Plain SEGIS has no unrealizability outcome of its
# own, so in race mode every one of its Unrealizable verdicts comes from
# the raced CHC prover — guaranteeing chc_race_wins > 0 whenever the
# channel concludes anything. The assertions are:
#   1. zero contradictory verdicts between channels: no (benchmark, algo)
#      pair may be realizable in one sweep and unrealizable in the other
#      (witness-only vs race) — extra Unrealizable rows in race mode are
#      the CHC channel upgrading timeouts and are expected;
#   2. chc_queries > 0 and chc_race_wins >= 1 in the race perf JSON;
#   3. CLI spot checks: --unreal chc/race/witness agree on unreal/sum,
#      the race verdict line carries the CHC Evidence, and a bogus mode is
#      a usage error (exit 64).
CHC_FILTER=${SMOKE_CHC_FILTER:-unreal/s}
CHC_TIMEOUT_MS=${SMOKE_CHC_TIMEOUT_MS:-6000}
CHC_CLI="$BUILD_DIR/tools/se2gis"

chc_sweep() { # chc_sweep <mode> <json-path> <stdout-path>
  SE2GIS_JOBS=$JOBS SE2GIS_PERF_JSON=$2 SE2GIS_FILTER=$CHC_FILTER \
    SE2GIS_TIMEOUT_MS=$CHC_TIMEOUT_MS SE2GIS_UNREAL=$1 \
    "$DRIVER" >"$3" 2>"$3.log"
}

echo "[smoke] chc pass: witness-only sweep (filter='$CHC_FILTER')..."
chc_sweep witness "$OUT_DIR/BENCH_smoke_chc_wit.json" "$OUT_DIR/smoke_chc_wit.out"
echo "[smoke] chc pass: race sweep (SE2GIS_UNREAL=race)..."
chc_sweep race "$OUT_DIR/BENCH_smoke_chc_race.json" "$OUT_DIR/smoke_chc_race.out"

# Contradiction check: join the two sweeps on (benchmark, algorithm) and
# flag any pair where one channel says realizable and the other says
# unrealizable. Timeout/failed rows are inconclusive and never contradict.
verdict_table() { # verdict_table <stdout-path>
  grep '^\[suite\]' "$1.log" | awk '{print $2, $3, $4}' | sort
}
verdict_table "$OUT_DIR/smoke_chc_wit.out" >"$OUT_DIR/smoke_chc_wit.verdicts"
verdict_table "$OUT_DIR/smoke_chc_race.out" >"$OUT_DIR/smoke_chc_race.verdicts"
CONTRA=$(join -j1 \
    <(awk '{print $1"/"$2, $3}' "$OUT_DIR/smoke_chc_wit.verdicts" | sort) \
    <(awk '{print $1"/"$2, $3}' "$OUT_DIR/smoke_chc_race.verdicts" | sort) \
  | awk '($2 == "realizable" && $3 == "unrealizable") ||
         ($2 == "unrealizable" && $3 == "realizable")' | tee /dev/stderr | wc -l)
if [ "$CONTRA" -ne 0 ]; then
  echo "[smoke] FAIL: $CONTRA contradictory verdict(s) between the witness" \
       "and race channels (above)" >&2
  exit 1
fi
echo "[smoke] chc pass: zero contradictory verdicts between channels"

CHC_Q=$(perf_key "$OUT_DIR/BENCH_smoke_chc_race.json" chc_queries)
CHC_WINS=$(perf_key "$OUT_DIR/BENCH_smoke_chc_race.json" chc_race_wins)
if [ -z "$CHC_Q" ] || [ "$CHC_Q" -eq 0 ]; then
  echo "[smoke] FAIL: race sweep issued no CHC queries" \
       "(chc_queries=${CHC_Q:-missing} in BENCH_smoke_chc_race.json)" >&2
  exit 1
fi
if [ -z "$CHC_WINS" ] || [ "$CHC_WINS" -eq 0 ]; then
  echo "[smoke] FAIL: race sweep recorded no CHC race wins" \
       "(chc_race_wins=${CHC_WINS:-missing} in BENCH_smoke_chc_race.json)" >&2
  exit 1
fi
echo "[smoke] chc pass: chc_queries=$CHC_Q chc_race_wins=$CHC_WINS"

# CLI spot checks: all three modes must agree that unreal/sum is
# unrealizable (exit 1), the race/chc verdict lines must carry the CHC
# Evidence, and an unknown mode is a usage error.
for MODE in chc race witness; do
  set +e
  OUTLINE=$("$CHC_CLI" --benchmark unreal/sum --unreal "$MODE" \
    --algo segis --timeout-ms "$CHC_TIMEOUT_MS" --quiet 2>&1)
  RC=$?
  set -e
  WANT_RC=1
  [ "$MODE" = witness ] && WANT_RC=2 # plain SEGIS alone cannot conclude
  if [ "$RC" -ne "$WANT_RC" ]; then
    echo "[smoke] FAIL: --unreal $MODE on unreal/sum exited $RC (want $WANT_RC): $OUTLINE" >&2
    exit 1
  fi
  if [ "$MODE" != witness ] && ! echo "$OUTLINE" | grep -q 'via chc'; then
    echo "[smoke] FAIL: --unreal $MODE verdict line lacks CHC evidence: $OUTLINE" >&2
    exit 1
  fi
done
set +e
"$CHC_CLI" --benchmark unreal/sum --unreal bogus >/dev/null 2>&1
BOGUS_RC=$?
set -e
if [ "$BOGUS_RC" -ne 64 ]; then
  echo "[smoke] FAIL: --unreal bogus exited $BOGUS_RC (want usage error 64)" >&2
  exit 1
fi
echo "[smoke] chc pass: CLI modes agree on unreal/sum; evidence printed;" \
     "bogus mode rejected"
echo "[smoke] perf summaries: $OUT_DIR/BENCH_smoke_chc_wit.json $OUT_DIR/BENCH_smoke_chc_race.json"

# --- Fuzz pass: generation, differential matrix, shrinking end-to-end -----
# 1. Shipped code must be clean and byte-for-byte deterministic: two runs
#    with the same seed produce identical output and exit 0.
# 2. --inject-bug flips one verdict per case, so the same run must detect
#    the planted contradictions, shrink each case to a reproducer no larger
#    than the original, and write a corpus entry — exercising the whole
#    failure path on healthy code.
# 3. The written reproducer replays: clean without the planted bug, failing
#    (exit 1) with it.
FUZZ="$BUILD_DIR/tools/se2gis_fuzz"
FUZZ_SEED=${SMOKE_FUZZ_SEED:-7}
FUZZ_CASES=${SMOKE_FUZZ_CASES:-15}
FUZZ_CORPUS="$OUT_DIR/smoke-fuzz-corpus"
rm -rf "$FUZZ_CORPUS"

if [ ! -x "$FUZZ" ]; then
  echo "[smoke] FAIL: $FUZZ not built" >&2
  exit 1
fi

echo "[smoke] fuzz pass: $FUZZ_CASES cases at --gen-seed $FUZZ_SEED, twice..."
"$FUZZ" --gen-seed "$FUZZ_SEED" --cases "$FUZZ_CASES" \
  >"$OUT_DIR/smoke_fuzz_1.out" 2>"$OUT_DIR/smoke_fuzz_1.out.log"
"$FUZZ" --gen-seed "$FUZZ_SEED" --cases "$FUZZ_CASES" \
  >"$OUT_DIR/smoke_fuzz_2.out" 2>"$OUT_DIR/smoke_fuzz_2.out.log"
if ! cmp -s "$OUT_DIR/smoke_fuzz_1.out" "$OUT_DIR/smoke_fuzz_2.out"; then
  diff -u "$OUT_DIR/smoke_fuzz_1.out" "$OUT_DIR/smoke_fuzz_2.out" | head -20 >&2
  echo "[smoke] FAIL: fuzz output is not deterministic for a fixed seed" >&2
  exit 1
fi
if ! grep -q ' 0 failures' "$OUT_DIR/smoke_fuzz_1.out"; then
  tail -5 "$OUT_DIR/smoke_fuzz_1.out" >&2
  echo "[smoke] FAIL: fuzzing found real failures on shipped code (above)" >&2
  exit 1
fi
echo "[smoke] fuzz pass: deterministic, $(tail -1 "$OUT_DIR/smoke_fuzz_1.out" | sed 's/^fuzz summary: //')"

echo "[smoke] fuzz pass: planted-bug run (--inject-bug, shrink + corpus)..."
set +e
"$FUZZ" --gen-seed "$FUZZ_SEED" --cases 3 --inject-bug --corpus "$FUZZ_CORPUS" \
  >"$OUT_DIR/smoke_fuzz_inject.out" 2>"$OUT_DIR/smoke_fuzz_inject.out.log"
INJECT_RC=$?
set -e
if [ "$INJECT_RC" -ne 1 ]; then
  echo "[smoke] FAIL: --inject-bug run exited $INJECT_RC (want 1: planted" \
       "bugs must be detected)" >&2
  exit 1
fi
if ! grep -q 'shrunk' "$OUT_DIR/smoke_fuzz_inject.out"; then
  echo "[smoke] FAIL: --inject-bug run never shrank a failing case" >&2
  exit 1
fi
# Shrinking must never grow a case.
if awk '/shrunk/ { gsub("->",""); if ($4+0 < $5+0) bad=1 } END { exit bad }' \
    "$OUT_DIR/smoke_fuzz_inject.out"; then :; else
  grep 'shrunk' "$OUT_DIR/smoke_fuzz_inject.out" >&2
  echo "[smoke] FAIL: a shrunk reproducer is larger than the original" >&2
  exit 1
fi
REPRO=$(ls "$FUZZ_CORPUS"/*.se2 2>/dev/null | head -n1)
if [ -z "$REPRO" ] || [ ! -s "${REPRO%.se2}.json" ]; then
  echo "[smoke] FAIL: no reproducer (.se2 + .json manifest) in $FUZZ_CORPUS" >&2
  exit 1
fi
set +e
"$FUZZ" --replay "$REPRO" >/dev/null 2>&1
CLEAN_RC=$?
"$FUZZ" --replay "$REPRO" --inject-bug >/dev/null 2>&1
PLANTED_RC=$?
set -e
if [ "$CLEAN_RC" -ne 0 ] || [ "$PLANTED_RC" -ne 1 ]; then
  echo "[smoke] FAIL: reproducer replay: clean exit $CLEAN_RC (want 0)," \
       "planted exit $PLANTED_RC (want 1)" >&2
  exit 1
fi
SHRUNK=$(grep -c 'shrunk' "$OUT_DIR/smoke_fuzz_inject.out")
echo "[smoke] fuzz pass: planted bugs detected, $SHRUNK case(s) shrunk," \
     "reproducer $(basename "$REPRO") replays clean without the plant"
