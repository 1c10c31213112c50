"""Pure metric arithmetic of the repo benchmark.

Everything here works on plain Python values (the driver's JSON records), so
perfbench/tests/ can check it without building the program.
"""

import math
import re
import statistics
from statistics import median  # noqa: F401  (run.py uses M.median)

#: The per-problem budget of the program's defaults (AlgoOptions::TimeoutMs).
BUDGET_S = 5.0

#: Samples a percentile needs beyond it before a run may report it.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def valid_metric_name(name):
    """True when `name` fits the benchmark's metric-name charset."""
    return bool(_NAME.match(name))


def percentile(values, p):
    """Harrell-Davis estimate of percentile `p` (0 < p < 100) of `values`.

    A weighted mean of all order statistics, the i-th of n weighted by
    I(i/n) - I((i-1)/n), where I is the regularized incomplete beta function
    with a = q(n+1), b = (1-q)(n+1), q = p/100. Unlike a single order
    statistic it does not jump when the rank falls in a gap between two
    clusters of samples, as solve times of a fixed problem set do.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # Weights vanish more than 12 standard deviations of Beta(a, b) from q.
    sd = math.sqrt(q * (1.0 - q) / (n + 2))
    lo = max(0, int(math.floor((q - 12 * sd) * n)))
    hi = min(n, int(math.ceil((q + 12 * sd) * n)))
    below = betainc(a, b, lo / float(n))
    total = 0.0
    for i in range(lo, hi):
        upto = betainc(a, b, (i + 1) / float(n))
        total += (upto - below) * ordered[i]
        below = upto
    return total


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    # The continued fraction converges fast below the mean; use the
    # symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above it.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300

    def guard(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        even = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def samples_beyond(count, p):
    """How many of `count` samples lie above rank ceil(p/100 * count)."""
    return count - max(1, math.ceil(p / 100.0 * count))


def min_samples_for(p, beyond=MIN_BEYOND):
    """Smallest sample count with at least `beyond` samples above pctl p."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def classify(expect_realizable, verdict, recheck=None, error=""):
    """Sorts one solve call into decided / undecided / failed.

    - "failed": an operation the benchmark counts as failed: an escaping
      exception, a verdict that contradicts the registry's known answer, or
      a Realizable solution whose re-check did not pass.
    - "decided": a conclusive verdict equal to the known answer.
    - "timeout" / "giveup": undecided (Timeout / Failed verdicts).
    """
    if error:
        return "failed"
    if verdict == "realizable":
        if not expect_realizable:
            return "failed"
        return "decided" if recheck == "ok" else "failed"
    if verdict == "unrealizable":
        return "decided" if not expect_realizable else "failed"
    if verdict == "timeout":
        return "timeout"
    if verdict == "failed":
        return "giveup"
    return "failed"


def par2_seconds(outcomes, budget_s=BUDGET_S):
    """PAR-2 of one pass: solve time of every decided problem, plus
    2 x budget for every other one. `outcomes` holds (class, wall_s)."""
    return sum(wall if cls == "decided" else 2.0 * budget_s
               for cls, wall in outcomes)


def self_times(events):
    """Self time per span of a Chrome trace_event list.

    A span's self time is its duration minus the part of it its direct
    children cover. Spans nest per thread (`tid`). Returns a list of
    (event, self_us, ancestors) with `ancestors` the names of the enclosing
    spans, outermost first.
    """
    by_tid = {}
    for ev in events:
        if ev.get("ph") == "X":
            by_tid.setdefault(ev.get("tid", 0), []).append(ev)
    out = []
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end, covered_us, ancestors]
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1][1] <= start:
                top = stack.pop()
                out.append((top[0], max(0.0, top[0]["dur"] - top[2]), top[3]))
            ancestors = []
            if stack:
                parent = stack[-1]
                parent[2] += max(0.0, min(end, parent[1]) - start)
                ancestors = parent[3] + [parent[0]["name"]]
            stack.append([ev, end, 0.0, ancestors])
        while stack:
            top = stack.pop()
            out.append((top[0], max(0.0, top[0]["dur"] - top[2]), top[3]))
    return out


def verdict_flips(reference, observed, new_only=False):
    """Problems whose verdicts differ between two verdict tables.

    Both map a problem name to a verdict or a list of verdicts (one per
    pass or run). Returns sorted (name, reference verdicts, observed
    verdicts) for every problem present in both whose sets of verdicts
    differ; with `new_only`, only those where `observed` holds a verdict
    `reference` does not (one run against the verdicts of many).
    """
    def as_set(v):
        return set(v) if isinstance(v, list) else {v}

    flips = []
    for name in sorted(set(reference) & set(observed)):
        a, b = as_set(reference[name]), as_set(observed[name])
        if (b - a) if new_only else a != b:
            flips.append((name, sorted(a), sorted(b)))
    return flips


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
