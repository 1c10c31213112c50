#!/usr/bin/env bash
# stress_service.sh — multi-client stress of the synthesis service.
#
# Boots a se2gis_served daemon on a Unix socket with a warm shared disk
# cache, then drives it with N concurrent clients submitting a mix of
# realizable, unrealizable, and deliberately-timing-out jobs. Asserts:
#
#   1. Verdict parity: every service verdict (submit --wait exit code)
#      matches the in-process run of the same benchmark/budget.
#   2. Admission control: a second, deliberately tiny daemon (1 worker,
#      queue bound 1) answers a submit flood with typed `overloaded`
#      rejections — clients are refused, never blocked or dropped.
#   3. Warm shared cache: after the stress mix, the daemon's stats report
#      a nonzero SMT-cache hit count (clients repeat problems, so the
#      process-wide cache must pay off across connections).
#   4. Metrics exposition: a plain-HTTP scrape of the daemon's
#      --metrics-addr listener returns Prometheus text whose job counters
#      (submitted, done-by-verdict, cache hits) agree with `stats`, and
#      the frame-protocol `metrics` method serves the same families.
#   5. Flight dumps: every deliberately-timed-out job leaves a
#      Perfetto-loadable flight-<jobid>.json under --flight-dir.
#   6. Graceful drain: the daemon exits 0 by itself after `drain`, with
#      the persistent store intact on disk.
#   7. Restart: a daemon restarted with --cache disk on the same store
#      directory reloads exactly the entries `stats` counted before the
#      drain (and more than zero), then drains cleanly again.
#
# Usage: scripts/stress_service.sh [build-dir] [clients] [jobs-per-client]
#   build-dir        default: build
#   clients          default: 8  (the acceptance floor)
#   jobs-per-client  default: 3
set -euo pipefail

BUILD_DIR=${1:-build}
CLIENTS=${2:-8}
JOBS_PER=${3:-3}
OUT_DIR=${STRESS_OUT_DIR:-$BUILD_DIR}
CLI="$BUILD_DIR/tools/se2gis"
DAEMON="$BUILD_DIR/tools/se2gis_served"
SOCK="$OUT_DIR/stress.sock"
CACHE="$OUT_DIR/stress-cache"
WORK="$OUT_DIR/stress-work"

if [ ! -x "$CLI" ] || [ ! -x "$DAEMON" ]; then
  echo "error: build $BUILD_DIR first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi
rm -rf "$CACHE" "$WORK" "$SOCK"
mkdir -p "$WORK"

DAEMON_PID=
TINY_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$TINY_PID" ] && kill "$TINY_PID" 2>/dev/null || true
}
trap cleanup EXIT

wait_ping() { # wait_ping <addr>
  for _ in $(seq 1 50); do
    if "$CLI" ping --connect "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

# The job mix: (benchmark, budget-ms). The 1 ms budget must produce a
# timeout verdict; the others resolve well inside their budget.
MIX_BENCH=(list/sum unreal/sum list/sum)
MIX_BUDGET=(20000 20000 1)

# Parity baseline: the in-process exit code of each mix entry (0
# realizable, 1 unrealizable, 2 timeout).
echo "[stress] computing in-process parity baselines..."
BASELINE=()
for K in 0 1 2; do
  RC=0
  "$CLI" --benchmark "${MIX_BENCH[$K]}" --timeout-ms "${MIX_BUDGET[$K]}" \
    --quiet >/dev/null 2>&1 || RC=$?
  BASELINE[$K]=$RC
  echo "[stress]   ${MIX_BENCH[$K]} @${MIX_BUDGET[$K]}ms -> exit $RC"
done

echo "[stress] starting daemon ($CLIENTS clients x $JOBS_PER jobs)..."
"$DAEMON" --listen "unix:$SOCK" --workers 2 --max-queue 64 \
  --cache disk --cache-dir "$CACHE" \
  --metrics-addr tcp:127.0.0.1:0 --flight-dir "$WORK" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ping "unix:$SOCK" || { echo "[stress] FAIL: daemon never came up" >&2; exit 1; }

# --- Concurrent clients -----------------------------------------------------
client() { # client <index>
  local I=$1 RC K
  : >"$WORK/client$I.rc"
  for ((J = 0; J < JOBS_PER; ++J)); do
    K=$(((I + J) % 3)) # stagger the mix across clients
    RC=0
    "$CLI" submit --connect "unix:$SOCK" --benchmark "${MIX_BENCH[$K]}" \
      --timeout-ms "${MIX_BUDGET[$K]}" --wait --quiet \
      >>"$WORK/client$I.out" 2>&1 || RC=$?
    echo "$K $RC" >>"$WORK/client$I.rc"
  done
}

CLIENT_PIDS=()
for ((I = 0; I < CLIENTS; ++I)); do
  client "$I" &
  CLIENT_PIDS+=($!)
done
# Wait on the client pids explicitly: a bare `wait` would also block on the
# daemon, which stays up until we drain it.
for P in "${CLIENT_PIDS[@]}"; do wait "$P"; done

MISMATCH=0
TOTAL=0
for ((I = 0; I < CLIENTS; ++I)); do
  while read -r K RC; do
    TOTAL=$((TOTAL + 1))
    if [ "$RC" != "${BASELINE[$K]}" ]; then
      echo "[stress] FAIL: client $I got exit $RC for ${MIX_BENCH[$K]}" \
           "@${MIX_BUDGET[$K]}ms (in-process: ${BASELINE[$K]})" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done <"$WORK/client$I.rc"
done
EXPECTED=$((CLIENTS * JOBS_PER))
if [ "$MISMATCH" -ne 0 ] || [ "$TOTAL" -ne "$EXPECTED" ]; then
  echo "[stress] FAIL: $MISMATCH verdict mismatches, $TOTAL/$EXPECTED jobs reported" >&2
  exit 1
fi
echo "[stress] verdict parity: $TOTAL/$EXPECTED jobs match the in-process runs"

# --- Warm shared cache ------------------------------------------------------
STATS=$("$CLI" stats --connect "unix:$SOCK")
SMT_HITS=$(printf '%s' "$STATS" | sed -n 's/.*"smt_hits":\([0-9][0-9]*\).*/\1/p')
if [ -z "$SMT_HITS" ] || [ "$SMT_HITS" -eq 0 ]; then
  echo "[stress] FAIL: no SMT-cache hits across repeated submissions" >&2
  echo "$STATS" >&2
  exit 1
fi
echo "[stress] warm cache: smt_hits=$SMT_HITS across $TOTAL jobs"

# --- Metrics exposition ------------------------------------------------------
# The daemon printed its bound (ephemeral) metrics port on startup.
METRICS_HP=$(sed -n 's/^se2gis_served: metrics on tcp:\(.*\)$/\1/p' "$WORK/daemon.log")
if [ -z "$METRICS_HP" ]; then
  echo "[stress] FAIL: daemon never reported a metrics address" >&2
  exit 1
fi
scrape() { # scrape <host:port> <outfile>
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$1/metrics" -o "$2"
  else
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(
    urllib.request.urlopen("http://%s/metrics" % sys.argv[1], timeout=10).read())' \
      "$1" "$2"
  fi
}
scrape "$METRICS_HP" "$WORK/metrics.txt" \
  || { echo "[stress] FAIL: HTTP scrape of $METRICS_HP failed" >&2; exit 1; }

SUBMITTED_STATS=$(printf '%s' "$STATS" | sed -n 's/.*"submitted":\([0-9][0-9]*\).*/\1/p')
SUBMITTED_METRIC=$(awk '$1 == "se2gis_jobs_submitted_total" {print int($2)}' "$WORK/metrics.txt")
if [ "$SUBMITTED_METRIC" != "$SUBMITTED_STATS" ]; then
  echo "[stress] FAIL: se2gis_jobs_submitted_total=$SUBMITTED_METRIC but stats says $SUBMITTED_STATS" >&2
  exit 1
fi
TIMEOUT_DONE=$(sed -n 's/^se2gis_jobs_done_total{verdict="timeout"} \([0-9][0-9]*\)$/\1/p' "$WORK/metrics.txt")
if [ -z "$TIMEOUT_DONE" ] || [ "$TIMEOUT_DONE" -eq 0 ]; then
  echo "[stress] FAIL: no timeout verdicts counted in se2gis_jobs_done_total" >&2
  exit 1
fi
SMT_HITS_METRIC=$(awk '$1 == "se2gis_cache_smt_hits_total" {print int($2)}' "$WORK/metrics.txt")
if [ -z "$SMT_HITS_METRIC" ] || [ "$SMT_HITS_METRIC" -lt "$SMT_HITS" ]; then
  echo "[stress] FAIL: se2gis_cache_smt_hits_total=$SMT_HITS_METRIC < stats smt_hits=$SMT_HITS" >&2
  exit 1
fi
if ! grep -q '^# TYPE se2gis_queue_depth gauge$' "$WORK/metrics.txt" \
   || ! grep -q '^# TYPE se2gis_job_latency_seconds histogram$' "$WORK/metrics.txt"; then
  echo "[stress] FAIL: scrape is missing queue-depth/latency families" >&2
  exit 1
fi
# The frame-protocol `metrics` method serves the same exposition.
"$CLI" metrics --connect "unix:$SOCK" >"$WORK/metrics-frame.txt"
if ! grep -q '^se2gis_jobs_submitted_total ' "$WORK/metrics-frame.txt"; then
  echo "[stress] FAIL: frame-protocol metrics method returned no exposition" >&2
  exit 1
fi
echo "[stress] metrics: submitted=$SUBMITTED_METRIC timeouts=$TIMEOUT_DONE smt_hits=$SMT_HITS_METRIC (HTTP + frame scrapes agree with stats)"

# --- Flight dumps for timed-out jobs ----------------------------------------
DUMPS=$(ls "$WORK"/flight-j*.json 2>/dev/null | wc -l)
if [ "$DUMPS" -eq 0 ]; then
  echo "[stress] FAIL: timed-out jobs left no flight dumps under --flight-dir" >&2
  exit 1
fi
for F in "$WORK"/flight-j*.json; do
  python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
assert isinstance(d.get("traceEvents"), list) and d["traceEvents"], "empty dump"' "$F" \
    || { echo "[stress] FAIL: $F is not a loadable trace dump" >&2; exit 1; }
done
echo "[stress] flight recorder: $DUMPS timed-out job dump(s), all Perfetto-loadable"

# --- Typed rejection at queue capacity -------------------------------------
TINY_SOCK="$OUT_DIR/stress-tiny.sock"
rm -f "$TINY_SOCK"
"$DAEMON" --listen "unix:$TINY_SOCK" --workers 1 --max-queue 1 \
  >"$WORK/tiny.log" 2>&1 &
TINY_PID=$!
wait_ping "unix:$TINY_SOCK" || { echo "[stress] FAIL: tiny daemon never came up" >&2; exit 1; }

REJECTED=0
for _ in $(seq 1 10); do
  RC=0
  "$CLI" submit --connect "unix:$TINY_SOCK" --benchmark list/sum \
    --timeout-ms 20000 >/dev/null 2>"$WORK/reject.err" || RC=$?
  if [ "$RC" -eq 4 ] && grep -q overloaded "$WORK/reject.err"; then
    REJECTED=$((REJECTED + 1))
  fi
done
if [ "$REJECTED" -eq 0 ]; then
  echo "[stress] FAIL: flooding a 1-worker/1-slot daemon produced no typed rejection" >&2
  exit 1
fi
echo "[stress] admission control: $REJECTED/10 floods rejected with typed 'overloaded'"
"$CLI" drain --connect "unix:$TINY_SOCK" --deadline-ms 30000 >/dev/null
wait "$TINY_PID" || { echo "[stress] FAIL: tiny daemon exited nonzero" >&2; exit 1; }
TINY_PID=

# --- Graceful drain ---------------------------------------------------------
# No job runs any more, so the persistent entry count is final.
cache_entries() { # cache_entries: `stats.cache.entries` of the daemon on $SOCK
  "$CLI" stats --connect "unix:$SOCK" \
    | sed -n 's/.*"entries":\([0-9][0-9]*\).*/\1/p'
}
ENTRIES=$(cache_entries)
"$CLI" drain --connect "unix:$SOCK" >/dev/null
DRAIN_EXIT=0
wait "$DAEMON_PID" || DRAIN_EXIT=$?
DAEMON_PID=
if [ "$DRAIN_EXIT" -ne 0 ]; then
  echo "[stress] FAIL: daemon exited $DRAIN_EXIT after drain (want 0)" >&2
  exit 1
fi
if [ ! -s "$CACHE/store.meta" ] || [ ! -s "$CACHE/smt.jsonl" ]; then
  echo "[stress] FAIL: persistent store missing or empty after drain" >&2
  exit 1
fi
echo "[stress] drain clean (exit 0); store intact: $(ls "$CACHE" | tr '\n' ' ')"

# --- Restart on the same store ---------------------------------------------
"$DAEMON" --listen "unix:$SOCK" --workers 1 --cache disk --cache-dir "$CACHE" \
  >"$WORK/restart.log" 2>&1 &
DAEMON_PID=$!
wait_ping "unix:$SOCK" || { echo "[stress] FAIL: restarted daemon never came up" >&2; exit 1; }
RELOADED=$(cache_entries)
if [ -z "$RELOADED" ] || [ "$RELOADED" -eq 0 ] || [ "$RELOADED" != "$ENTRIES" ]; then
  echo "[stress] FAIL: restart reloaded '$RELOADED' entries (before the drain: '$ENTRIES')" >&2
  exit 1
fi
"$CLI" drain --connect "unix:$SOCK" >/dev/null
wait "$DAEMON_PID" || { echo "[stress] FAIL: restarted daemon exited nonzero after drain" >&2; exit 1; }
DAEMON_PID=
echo "[stress] restart: reloaded $RELOADED entries (same as before the drain); drain clean"

echo "[stress] PASS"
