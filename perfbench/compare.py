#!/usr/bin/env python3
"""Compares sets of benchmark runs.

    python3 perfbench/compare.py spread RESULT_FILE...
        Each file holds the standard output of run.py runs; every line
        that is a result JSON counts as one run. Prints, per metric, the
        median and the spread (Q3 - Q1) / median of its values, next to a
        third of the metric's bound from BENCHMARK.json.

    python3 perfbench/compare.py flips A.json[,A2.json...] B.json[,B2.json...]
        Each side is a comma-separated list of verdict tables that run.py
        wrote under .bench_build/verdicts/. Lists every problem whose set of
        verdicts differs between the two sides. Exits 1 when any does.

    python3 perfbench/compare.py reference OUT.json TABLE.json...
        Writes a reference table (perfbench/reference/<workload>.json):
        every verdict each problem got in the given verdict tables.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def spread(files):
    bounds = load_bounds()
    values = {}
    for path in files:
        with open(path) as f:
            results = [json.loads(line) for line in f
                       if line.startswith('{"correct"')]
        for result in results:
            if not result["correct"]:
                print("%s: a run reported correct=false" % path)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    worst = 0
    print("%-24s %4s %14s %8s %8s" % ("metric", "n", "median", "spread",
                                      "bound/3"))
    for name, vals in values.items():
        s = M.quartile_spread(vals) if len(vals) > 1 else 0.0
        bound = bounds.get(name)
        limit = bound / 3.0 if bound else None
        flag = ""
        if limit is not None and name != "setup_s" and s > limit:
            flag, worst = " OVER", 1
        print("%-24s %4d %14.6f %8.4f %8s%s" % (
            name, len(vals), M.median(vals), s,
            "%.4f" % limit if limit else "-", flag))
    return worst


def merged_verdicts(paths):
    table = {}
    for path in paths.split(","):
        with open(path) as f:
            for name, verdicts in json.load(f)["verdicts"].items():
                table.setdefault(name, set()).update(verdicts)
    return {k: sorted(v) for k, v in table.items()}


def flips(a, b):
    found = M.verdict_flips(merged_verdicts(a), merged_verdicts(b))
    for name, va, vb in found:
        print("%s: %s -> %s" % (name, "/".join(va), "/".join(vb)))
    print("%d verdict flips" % len(found))
    return 1 if found else 0


def reference(out, tables):
    workloads, seeds = set(), []
    for path in tables:
        with open(path) as f:
            t = json.load(f)
        workloads.add(t["workload"])
        seeds.append(str(t["seed"]))
    if len(workloads) != 1:
        print("tables of more than one workload: %s" % sorted(workloads),
              file=sys.stderr)
        return 64
    with open(out, "w") as f:
        json.dump({"workload": workloads.pop(),
                   "source": "every verdict of %d untraced runs (seeds %s)" %
                   (len(tables), ", ".join(seeds)),
                   "verdicts": merged_verdicts(",".join(tables))},
                  f, indent=1)
        f.write("\n")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        return spread(argv[1:])
    if len(argv) == 3 and argv[0] == "flips":
        return flips(argv[1], argv[2])
    if len(argv) >= 3 and argv[0] == "reference":
        return reference(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
