#!/usr/bin/env python3
"""Solution-text parity between two builds of the `se2gis` CLI.

Usage: scripts/solution_parity.py PARENT_BIN CHANGE_BIN [--algo A]

Runs every registry problem (`CHANGE_BIN list --json`) once with each
binary, each run in a fresh process with `--cache off --timeout-ms 5000`,
and compares the verdict and the printed solution (for an unrealizable
verdict, its witness text). Timing, telemetry and phase lines are ignored.
Runs go one at a time, so that no run's budget competes with another run
for the machine.

A fresh process per problem matters: in one process, solves share the
global fresh-variable counter, so after the first budget-limited solve
every later solve prints different names and may take a different path.

Exits 1 when a problem the parent decided (realizable or unrealizable)
gets a different verdict or a different text from the change. Problems
the parent left undecided (timeout, failed) whose outcome changed are
listed separately and do not fail the check.
"""

import argparse
import json
import subprocess
import sys

DECIDED = ("realizable", "unrealizable")
TIMEOUT_MS = 5000


def registry(binary):
    out = subprocess.run([binary, "list", "--json"], check=True,
                         capture_output=True, text=True).stdout
    return [entry["name"] for entry in json.loads(out)]


def solve(binary, name, algo):
    """Returns (verdict, text) of one CLI run."""
    cmd = [binary, "--algo", algo, "--cache", "off",
           "--timeout-ms", str(TIMEOUT_MS), "--benchmark", name]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TIMEOUT_MS / 1000.0 + 60)
    except subprocess.TimeoutExpired:
        return "hung", ""
    lines = proc.stdout.splitlines()
    head = lines[0] if lines else ""
    prefix = name + ": "
    if not head.startswith(prefix):
        return "crash(exit %d)" % proc.returncode, proc.stdout
    verdict = head[len(prefix):].split(" ", 1)[0]
    body = [l for l in lines[1:]
            if not l.startswith(("telemetry: ", "phases: "))]
    return verdict, "\n".join(body)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_bin")
    ap.add_argument("change_bin")
    ap.add_argument("--algo", default="se2gis")
    args = ap.parse_args()

    results = [(name, solve(args.parent_bin, name, args.algo),
                solve(args.change_bin, name, args.algo))
               for name in registry(args.change_bin)]

    same = 0
    differences, undecided_changes = [], []
    for name, (pv, pt), (cv, ct) in results:
        if pv in DECIDED:
            if (pv, pt) == (cv, ct):
                same += 1
            else:
                differences.append((name, pv, pt, cv, ct))
        elif pv != cv:
            undecided_changes.append((name, pv, cv))

    decided = sum(1 for _, (pv, _), _ in results if pv in DECIDED)
    print("algo %s: %d problems, %d decided by the parent, %d identical"
          % (args.algo, len(results), decided, same))
    for name, pv, pt, cv, ct in differences:
        print("DIFFERENT %s: %s -> %s" % (name, pv, cv))
        if pt != ct:
            print("  parent:\n    " + pt.replace("\n", "\n    "))
            print("  change:\n    " + ct.replace("\n", "\n    "))
    if undecided_changes:
        print("changed outcomes on problems the parent left undecided:")
        for name, pv, cv in undecided_changes:
            print("  %s: %s -> %s" % (name, pv, cv))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
