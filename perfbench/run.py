#!/usr/bin/env python3
"""The repo benchmark: cold SE2GIS / SEGIS / CHC solves over the registry.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the driver
(perfbench/CMakeLists.txt) into .bench_build/cmake; later runs reuse it.
Two driver processes solve the workload side by side, each one problem at
a time in an order its seed gives, and this script turns their records into
metrics. It prints a summary, then, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("se2gis_all", "chc_unreal", "segis_realizable")
#: Set-up samples per run: each is one fresh driver process, timed from its
#: start to the moment it is ready for the first solve.
SETUP_SAMPLES = 21
BUILD_JOBS = "2"
#: The driver is killed, and the run fails, when it is still running this
#: long after --seconds: a solve crashed into a hang or outran its budget.
WATCHDOG_GRACE_S = 100
#: Driver processes that solve side by side, each one solve at a time in an
#: order of its own. The host's cores change speed, by up to 1.5x for
#: seconds at a time and not always together; two streams average the speeds
#: of two cores and give twice the samples of one (see README, "Why two
#: streams").
STREAMS = 2
#: Pass numbers of stream i start at i * PASS_BASE.
PASS_BASE = 1000

#: Spans whose self time the traced run reports, by metric.
SPAN_METRICS = {
    "smt.self_ms": ("smt.checkSat",),
    "induction.ms": ("induction.prove",),
    "sge.self_ms": ("sge.round",),
    "core.round_self_ms": ("se2gis.round", "segis.round"),
    "chc.ms": ("chc.query",),
}
SOLVE_SPANS = ("bench.task_run", "bench.chc_channel")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found at %s/src" % ROOT, 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", BUILD_JOBS])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))


class Run:
    """Accumulates the driver's records of one run."""

    def __init__(self, traced):
        self.traced = traced
        self.setup = None
        self.setup_s = []
        self.load_ms = []
        self.peak_rss_kb = 0
        self.solves = []
        self.samples = {"smt.checkSat": [], "enum.search": []}
        self.by_pass = {}  # pass -> {metric or span name: total}

    def add_trace(self, trace, pass_no):
        totals = self.by_pass.setdefault(pass_no, {})
        for ev, self_us, ancestors in M.self_times(trace["traceEvents"]):
            name = ev["name"]
            # Only spans of the timed solve: the re-check runs the same
            # layers, outside the solve.
            if name in SOLVE_SPANS or not any(a in SOLVE_SPANS
                                              for a in ancestors):
                continue
            for metric, names in SPAN_METRICS.items():
                if name in names:
                    totals[metric] = totals.get(metric, 0.0) + self_us / 1e3
            totals[name] = totals.get(name, 0) + 1
            if name in self.samples:
                self.samples[name].append(ev["dur"] / 1e3)

    def span_total(self, passes, key):
        """Mean over whole passes of a span total or span count."""
        nums = [p[0]["pass"] for p in passes]
        return sum(self.by_pass.get(n, {}).get(key, 0.0)
                   for n in nums) / float(len(nums))


def drive(args, run):
    """Runs the workload's STREAMS driver processes side by side and
    collects their records. Stream i solves in the order of seed
    `args.seed * STREAMS + i`; its passes are numbered from i * PASS_BASE."""
    procs = []
    files = []  # (stdout path, stderr path) per stream
    try:
        for i in range(STREAMS):
            out_path = os.path.join(BUILD_ROOT, "stream-%s-%d.jsonl" %
                                    (args.workload, i))
            log_path = os.path.join(BUILD_ROOT, "driver-%s-%d.log" %
                                    (args.workload, i))
            cmd = [DRIVER, "--workload", args.workload,
                   "--seed", str(args.seed * STREAMS + i),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            with open(out_path, "w") as out, open(log_path, "w") as log:
                procs.append(subprocess.Popen(cmd, stdout=out, stderr=log,
                                              cwd=ROOT))
            files.append((out_path, log_path))
        deadline = time.monotonic() + args.seconds + WATCHDOG_GRACE_S
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("a driver still ran %d s past --seconds"
                     % WATCHDOG_GRACE_S)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for i, (proc, (out_path, log_path)) in enumerate(zip(procs, files)):
        if proc.returncode != 0:
            fail("driver %d exited with %s (log: %s)" %
                 (i, proc.returncode, log_path))
        setup = end = None
        with open(out_path) as f:
            for line in f:
                rec = json.loads(line)
                kind = rec["type"]
                if kind == "setup":
                    setup = rec
                elif kind == "solve":
                    rec["pass"] += i * PASS_BASE
                    run.solves.append(rec)
                elif kind == "trace":
                    run.add_trace(rec["trace"], run.solves[-1]["pass"])
                elif kind == "end":
                    end = rec
        if setup is None or end is None:
            fail("driver %d wrote no set-up or end record (output: %s)" %
                 (i, out_path))
        run.setup = setup
        run.peak_rss_kb = max(run.peak_rss_kb, end["peak_rss_kb"])


def set_up(workload, run):
    """Times process start to ready-for-the-first-solve, once per fresh
    process, and collects each process's load time."""
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([DRIVER, "--workload", workload,
                                 "--setup-only", "1"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, cwd=ROOT,
                                text=True)
        line = proc.stdout.readline()
        run.setup_s.append(time.perf_counter() - start)
        proc.stdout.read()
        if proc.wait() != 0 or not line.startswith('{"type":"setup"'):
            fail("set-up process failed (exit %s)" % proc.returncode)
        run.load_ms.append(json.loads(line)["load_ms"])


def per_pass(solves, n_problems):
    """The solve records of each whole pass (top-up solves left out)."""
    passes = {}
    for s in solves:
        passes.setdefault(s["pass"], []).append(s)
    whole = [p for _, p in sorted(passes.items()) if len(p) == n_problems]
    return whole


def compute(args, run):
    n = int(run.setup["problems"])
    for s in run.solves:
        s["class"] = M.classify(s["expect_realizable"], s["verdict"],
                                s.get("recheck"), s["error"])
    passes = per_pass(run.solves, n)
    if not passes:
        fail("the run completed no whole pass")
    whole = [s for p in passes for s in p]
    k = float(len(passes))
    walls = [s["wall_ms"] for s in run.solves]
    if len(walls) < M.min_samples_for(90):
        fail("the run holds %d solve calls, too few for p90" % len(walls))

    def total(fn):
        return sum(fn(s) for s in whole) / k

    def phase(name):
        return total(lambda s: s["phases_ms"][name])

    def perf(name):
        return total(lambda s: s["perf"][name])

    par2 = M.median([M.par2_seconds([(s["class"], s["wall_ms"] / 1000.0)
                                     for s in p]) for p in passes])
    decided = sum(1 for s in whole if s["class"] == "decided")
    failed = [s for s in run.solves if s["class"] == "failed"]
    beyond = M.samples_beyond(len(walls), 90)
    phases_sum = lambda s: sum(s["phases_ms"].values())  # noqa: E731
    overruns = sum(1 for s in run.solves
                   if phases_sum(s) > s["wall_ms"] + 1.0)
    dropped = sum(s.get("dropped_spans", 0) for s in run.solves)

    e2e = {
        "decided_frac": (decided / float(len(whole)), "frac"),
        "par2_s": (par2, "s"),
        "solve_ms_p50": (M.percentile(walls, 50), "ms"),
        "solve_ms_p90": (M.percentile(walls, 90), "ms"),
        "setup_s": (M.median(run.setup_s), "s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MiB"),
    }

    table = verdict_table(passes)
    ref_path = os.path.join(HERE, "reference", args.workload + ".json")
    flips = []
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            reference = json.load(f)["verdicts"]
        flips = M.verdict_flips(reference, table, new_only=True)

    layer = {}
    if run.traced:
        enum_ms = phase("enum")
        cand = perf("enum_candidates")
        reuse = perf("smt_session_reuse")
        fresh = perf("smt_session_fresh")
        checks = run.samples["smt.checkSat"]
        searches = run.samples["enum.search"]
        spans = lambda key: run.span_total(passes, key)  # noqa: E731
        layer = {
            "enum.candidates": (cand, "count"),
            "enum.pruned_frac": (perf("enum_pruned") / cand if cand else 0.0,
                                 "frac"),
            "enum.searches": (spans("enum.search"), "count"),
            "enum.ms": (enum_ms, "ms"),
            "enum.candidates_per_s": (cand / (enum_ms / 1000.0)
                                      if enum_ms else 0.0, "1/s"),
            "enum.search_ms_p99": (M.percentile(searches, 99)
                                   if searches else 0.0, "ms"),
            "sge.rounds": (spans("sge.round"), "count"),
            "sge.self_ms": (spans("sge.self_ms"), "ms"),
            "smt.queries": (perf("smt_queries"), "count"),
            "smt.z3_ms": (perf("z3_ms"), "ms"),
            "smt.check_ms_p50": (M.percentile(checks, 50)
                                 if checks else 0.0, "ms"),
            "smt.check_ms_p99": (M.percentile(checks, 99)
                                 if checks else 0.0, "ms"),
            "smt.self_ms": (spans("smt.self_ms"), "ms"),
            "smt.session_reuse_frac": (reuse / (reuse + fresh)
                                       if reuse + fresh else 0.0, "frac"),
            "smt.budget_expired": (perf("smt_budget_expired"), "count"),
            "induction.ms": (spans("induction.ms"), "ms"),
            "eval.ms": (phase("eval"), "ms"),
            "core.refinements": (total(lambda s: s["refinements"]), "count"),
            "core.coarsenings": (total(lambda s: s["coarsenings"]), "count"),
            "core.lemmas": (total(lambda s: s["invariants"]), "count"),
            "core.round_self_ms": (spans("core.round_self_ms"), "ms"),
            "core.verify_ms": (total(lambda s: s.get("recheck_ms", 0.0)),
                               "ms"),
            "core.other_ms": (total(lambda s: s["wall_ms"] - phases_sum(s)),
                              "ms"),
            "core.phase_overruns": (overruns, "count"),
            "chc.queries": (perf("chc_queries"), "count"),
            "chc.unsat": (perf("chc_unsat"), "count"),
            "chc.clauses": (perf("chc_clauses"), "count"),
            "chc.ms": (spans("chc.ms"), "ms"),
            "frontend.load_ms": (M.median(run.load_ms), "ms"),
            "suite.decided_s": (total(lambda s: s["wall_ms"] / 1000.0
                                      if s["class"] == "decided" else 0.0),
                                "s"),
            "suite.timeouts": (total(lambda s: s["class"] == "timeout"),
                               "count"),
            "suite.giveups": (total(lambda s: s["class"] == "giveup"),
                              "count"),
            "suite.verdict_flips": (len(flips), "count"),
            "trace.dropped_spans": (dropped, "count"),
            "trace.par2_s": (par2, "s"),
            "trace.solve_ms_p50": (M.percentile(walls, 50), "ms"),
        }
    # A run whose phases outgrow its solve time, or whose trace dropped
    # spans, has broken accounting: its numbers are not used.
    broken = []
    if overruns:
        broken.append("%d solves' phases exceed their wall time" % overruns)
    if dropped:
        broken.append("the trace dropped %d spans" % dropped)
    return e2e, layer, failed, flips, passes, beyond, broken


def verdict_table(passes):
    """Problem -> verdict of each whole pass."""
    table = {}
    for p in passes:
        for s in p:
            table.setdefault(s["name"], []).append(s["verdict"])
    return table


def save_table(args, passes, flips):
    out_dir = os.path.join(BUILD_ROOT, "verdicts")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    rows = [{"pass": s["pass"], "name": s["name"], "verdict": s["verdict"],
             "class": s["class"], "detail": s["detail"],
             "evidence": s["evidence"], "steps": s["steps"],
             "wall_ms": s["wall_ms"]}
            for p in passes for s in p]
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "rows": rows,
                   "verdicts": verdict_table(passes),
                   "flips_vs_reference": flips}, f, indent=1)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exit, so that `drive` still stops the driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    run = Run(traced=bool(args.trace))
    set_up(args.workload, run)
    drive(args, run)
    e2e, layer, failed, flips, passes, beyond, broken = compute(args, run)
    table_path = save_table(args, passes, flips)

    attempted = len(run.solves)
    chosen = layer if args.trace else e2e
    for name in chosen:
        assert M.valid_metric_name(name), name

    print("workload %s seed %d: %d solve calls, %d whole passes, "
          "%d samples beyond p90" % (args.workload, args.seed, attempted,
                                     len(passes), beyond))
    print("failed operations: %d of %d (%.4f)" %
          (len(failed), attempted, len(failed) / float(attempted)))
    for s in failed:
        print("  FAILED %s: verdict %s, re-check %s, error %s" %
              (s["name"], s["verdict"], s.get("recheck"), s["error"] or "-"))
    for name, ref, got in flips:
        print("  flip vs reference: %s %s -> %s" %
              (name, "/".join(ref), "/".join(got)))
    for name, (value, unit) in chosen.items():
        print("  %-24s %14.6f %s" % (name, value, unit))
    print("verdict table: %s" % os.path.relpath(table_path, ROOT))
    for reason in broken:
        print("NOT CORRECT: %s" % reason)

    result = {
        "correct": not failed and not broken,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
