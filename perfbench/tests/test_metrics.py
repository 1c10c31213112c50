"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -B -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics as M  # noqa: E402


class Par2Test(unittest.TestCase):
    def test_undecided_problems_pay_twice_the_budget(self):
        outcomes = [("decided", 1.5), ("timeout", 5.0), ("giveup", 0.2),
                    ("failed", 0.1), ("decided", 0.25)]
        self.assertAlmostEqual(M.par2_seconds(outcomes, budget_s=5.0),
                               1.5 + 10 + 10 + 10 + 0.25)

    def test_a_giveup_that_becomes_a_solve_never_raises_par2(self):
        before = [("giveup", 0.01), ("decided", 1.0)]
        for wall in (0.01, 2.5, 4.99, 5.2):
            after = [("decided", wall), ("decided", 1.0)]
            self.assertLess(M.par2_seconds(after), M.par2_seconds(before))


class PercentileTest(unittest.TestCase):
    def test_incomplete_beta(self):
        for x in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
            self.assertAlmostEqual(M.betainc(1, 1, x), x)
            self.assertAlmostEqual(M.betainc(3.5, 1, x), x ** 3.5)
        for a in (0.6, 2.0, 45.5, 9000.0):
            self.assertAlmostEqual(M.betainc(a, a, 0.5), 0.5)

    def test_harrell_davis(self):
        self.assertAlmostEqual(M.percentile([7.0], 90), 7.0)
        self.assertAlmostEqual(M.percentile([4.0] * 141, 90), 4.0)
        self.assertAlmostEqual(M.percentile([3, 1, 2], 50), 2.0)
        values = list(range(1, 101))  # 1..100, symmetric about 50.5
        self.assertAlmostEqual(M.percentile(values, 50), 50.5)
        self.assertAlmostEqual(M.percentile(values, 10) +
                               M.percentile(values, 90), 101.0)
        self.assertTrue(89 < M.percentile(values, 90) < 92)

    def test_harrell_davis_against_integration(self):
        # Weight of the i-th of n order statistics: the Beta(a, b) mass on
        # ((i-1)/n, i/n], integrated here with Simpson's rule.
        values = [0.5, 9.0, 2.0, 30.0, 4.0]
        n = len(values)
        for p in (50, 70):
            q = p / 100.0
            a, b = q * (n + 1), (1 - q) * (n + 1)
            norm = math.exp(math.lgamma(a + b) - math.lgamma(a) -
                            math.lgamma(b))

            def pdf(x):
                return norm * x ** (a - 1) * (1 - x) ** (b - 1)

            steps = 2000
            expect = 0.0
            for i, v in enumerate(sorted(values)):
                lo, hi = i / float(n), (i + 1) / float(n)
                h = (hi - lo) / steps
                mass = pdf(lo) + pdf(hi) + sum(
                    (4 if k % 2 else 2) * pdf(lo + k * h)
                    for k in range(1, steps))
                expect += mass * h / 3 * v
            self.assertAlmostEqual(M.percentile(values, p), expect, places=4)

    def test_a_rank_in_a_gap_does_not_jump(self):
        # Nearest rank p90 of these is 1 or 100 depending on one sample.
        low = M.percentile([1.0] * 90 + [100.0] * 10, 90)
        high = M.percentile([1.0] * 89 + [100.0] * 11, 90)
        self.assertTrue(1.0 < low < high < 100.0)
        self.assertLess(high - low, 25.0)

    def test_samples_beyond_and_the_ten_sample_rule(self):
        self.assertEqual(M.samples_beyond(100, 90), 10)
        self.assertEqual(M.samples_beyond(99, 90), 9)
        self.assertEqual(M.samples_beyond(93, 90), 9)
        self.assertEqual(M.samples_beyond(141, 90), 14)
        self.assertEqual(M.min_samples_for(90), 100)
        self.assertEqual(M.min_samples_for(99), 1000)
        self.assertEqual(M.min_samples_for(50), 20)

    def test_median(self):
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            M.median([])


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(name, ts, dur, tid=1):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}

    def test_nested_spans(self):
        # solve [0,100) holds round [10,60) and round [70,90); the first
        # round holds two checks, one of which holds an induction proof.
        events = [
            self.span("solve", 0, 100),
            self.span("round", 10, 50),
            self.span("check", 15, 10),
            self.span("check", 30, 20),
            self.span("induction", 35, 5),
            self.span("round", 70, 20),
            {"name": "thread_name", "ph": "M", "tid": 1},
            self.span("other-thread", 0, 40, tid=2),
        ]
        got = {}
        for ev, self_us, ancestors in M.self_times(events):
            got.setdefault(ev["name"], []).append((self_us, ancestors))
        self.assertEqual(got["solve"], [(100 - 50 - 20, [])])
        self.assertEqual(sorted(s for s, _ in got["round"]), [20, 20])
        self.assertEqual(sorted(s for s, _ in got["check"]), [10, 15])
        self.assertEqual(got["induction"],
                         [(5, ["solve", "round", "check"])])
        self.assertEqual(got["other-thread"], [(40, [])])

    def test_children_are_clipped_to_the_parent(self):
        # Rounding in the export can push a child a hair past its parent.
        events = [self.span("a", 0.0, 10.0), self.span("b", 2.0, 8.001)]
        got = {ev["name"]: s for ev, s, _ in M.self_times(events)}
        self.assertAlmostEqual(got["a"], 2.0)
        self.assertAlmostEqual(got["b"], 8.001)

    def test_sequential_spans_are_siblings(self):
        events = [self.span("a", 0, 10), self.span("b", 10, 10)]
        got = {ev["name"]: (s, anc) for ev, s, anc in M.self_times(events)}
        self.assertEqual(got, {"a": (10, []), "b": (10, [])})


class VerdictTest(unittest.TestCase):
    def test_classification(self):
        c = M.classify
        self.assertEqual(c(True, "realizable", "ok"), "decided")
        self.assertEqual(c(False, "unrealizable"), "decided")
        self.assertEqual(c(True, "timeout"), "timeout")
        self.assertEqual(c(False, "failed"), "giveup")

    def test_contradicting_verdicts_are_failed_operations(self):
        # A synthetic outcome that claims an unrealizable problem solved,
        # and one that claims a realizable problem unrealizable.
        self.assertEqual(M.classify(False, "realizable", "ok"), "failed")
        self.assertEqual(M.classify(True, "unrealizable"), "failed")

    def test_failed_recheck_and_escaping_exception_are_failed(self):
        self.assertEqual(M.classify(True, "realizable", "counterexample"),
                         "failed")
        self.assertEqual(M.classify(True, "realizable", "expired"), "failed")
        self.assertEqual(M.classify(True, "realizable", None), "failed")
        self.assertEqual(M.classify(True, "failed", None, "bad_alloc"),
                         "failed")

    def test_verdict_flips(self):
        ref = {"a": ["realizable"], "b": ["timeout"], "c": ["failed"],
               "only-ref": ["realizable"]}
        got = {"a": ["realizable"], "b": ["realizable"],
               "c": ["failed", "timeout"], "only-run": ["timeout"]}
        self.assertEqual(M.verdict_flips(ref, got), [
            ("b", ["timeout"], ["realizable"]),
            ("c", ["failed"], ["failed", "timeout"]),
        ])
        self.assertEqual(M.verdict_flips(got, got), [])

    def test_new_verdicts_only(self):
        ref = {"a": ["failed", "unrealizable"], "b": ["timeout"]}
        got = {"a": ["failed"], "b": ["realizable", "timeout"]}
        self.assertEqual(M.verdict_flips(ref, got, new_only=True), [
            ("b", ["timeout"], ["realizable", "timeout"]),
        ])


class MetricNameTest(unittest.TestCase):
    def test_charset(self):
        for good in ("par2_s", "enum.candidates_per_s", "smt.check_ms_p99",
                     "a-b.c_9", "9x", "x" * 64):
            self.assertTrue(M.valid_metric_name(good), good)
        for bad in ("", ".x", "_x", "a b", "a/b", "enum:ms", "x" * 65,
                    "ms\n", "é"):
            self.assertFalse(M.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("BENCHMARK.json not beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(M.valid_metric_name(name), name)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(M.quartile_spread([10.0] * 10), 0.0)
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles (exclusive): Q1 = 2.75, Q3 = 8.25, median 5.5
        self.assertAlmostEqual(M.quartile_spread(values), 5.5 / 5.5)


if __name__ == "__main__":
    unittest.main()
