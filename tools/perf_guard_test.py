#!/usr/bin/env python3
"""Unit tests of tools/perf_guard.py's verdict rule and exit status.

They feed synthetic samples to the guard and run no benchmark:

    python3 tools/perf_guard_test.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_guard import PASS, REGRESSED, UNRESOLVED, judge, verdict  # noqa: E402

# Five samples around 100 whose quartiles lie within 5% of the median.
TIGHT = [98.0, 99.0, 100.0, 101.0, 102.0]
# Five samples of median 100 whose quartiles, 95 and 135, lie 40% apart.
WIDE = [90.0, 100.0, 100.0, 130.0, 140.0]


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        self.assertEqual(verdict(TIGHT, TIGHT, "lower", 0.25), PASS)

    def test_slower_head_outside_tight_quartiles_regresses(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 1.3), "lower", 0.25),
                         REGRESSED)

    def test_slower_head_inside_wide_quartiles_is_unresolved(self):
        # +30% in the median, but inside the base's 40%-wide quartiles.
        head = [120.0, 125.0, 130.0, 132.0, 134.0]
        self.assertEqual(verdict(WIDE, head, "lower", 0.25), UNRESOLVED)

    def test_wide_base_passes_when_every_head_run_is_better(self):
        self.assertEqual(verdict(WIDE, scaled(TIGHT, 0.6), "lower", 0.25),
                         PASS)

    def test_sensitivity_loss_with_zero_spread_regresses(self):
        base = [0.346939] * 5
        self.assertEqual(verdict(base, scaled(base, 0.998), "higher", 0.001),
                         REGRESSED)
        self.assertEqual(verdict(base, scaled(base, 0.9995), "higher", 0.001),
                         PASS)

    def test_lower_throughput_regresses_when_higher_is_better(self):
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 0.7), "higher", 0.25),
                         REGRESSED)
        # The same samples pass where lower is better.
        self.assertEqual(verdict(TIGHT, scaled(TIGHT, 0.7), "lower", 0.25),
                         PASS)


SPEC = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "min_run_ms", "better": "lower", "bound": 0.25},
        {"name": "sensitivity", "better": "higher", "bound": 0.001},
    ],
}


def runs_of(min_run_ms, sensitivity=0.35, correct=True):
    """Runs as perf_guard.run_bench returns them, one per min_run_ms."""
    return [{"result": json.loads(
                 '{"correct": %s, "attempted": 50, "failed": %d, "metrics": '
                 '{"min_run_ms": {"value": %r, "unit": "ms"}, '
                 '"sensitivity": {"value": %r, "unit": "ratio"}}}'
                 % ("true" if correct else "false", 0 if correct else 1, ms,
                    sensitivity)),
             "checks": [] if correct else ["spill directory left behind"]}
            for ms in min_run_ms]


def guard(w1_head, w2_head=None, w1_base=TIGHT):
    runs = {"w1": {"base": runs_of(w1_base), "head": w1_head},
            "w2": {"base": runs_of(TIGHT), "head": w2_head or runs_of(TIGHT)}}
    return judge(SPEC, runs)


class ExitStatusTest(unittest.TestCase):
    def test_pass_exits_0(self):
        lines, status = guard(runs_of(TIGHT))
        self.assertEqual(status, 0)
        self.assertIn("exit 0", lines[-1])

    def test_regression_exits_1_and_names_the_metric(self):
        lines, status = guard(runs_of(TIGHT), runs_of(scaled(TIGHT, 1.4)))
        self.assertEqual(status, 1)
        self.assertTrue(any(line.startswith("w2") and "min_run_ms" in line
                            and line.endswith(f"{REGRESSED} (bound 0.25)")
                            for line in lines), lines)

    def test_unresolved_exits_3(self):
        _, status = guard(runs_of(scaled(WIDE, 1.1)), w1_base=WIDE)
        self.assertEqual(status, 3)

    def test_failed_check_exits_1_even_when_every_metric_passes(self):
        head = runs_of(TIGHT)
        head[2] = runs_of([100.0], correct=False)[0]
        lines, status = guard(head)
        self.assertEqual(status, 1)
        self.assertIn("failed: w1 head run 3: spill directory left behind",
                      lines)

    def test_failed_base_run_exits_1(self):
        base = runs_of(TIGHT)
        base[0]["result"]["correct"] = False
        base[0]["checks"] = []
        runs = {"w1": {"base": base, "head": runs_of(TIGHT)},
                "w2": {"base": runs_of(TIGHT), "head": runs_of(TIGHT)}}
        lines, status = judge(SPEC, runs)
        self.assertEqual(status, 1)
        self.assertTrue(any(line.startswith("failed: w1 base run 1")
                            for line in lines), lines)

    def test_run_without_result_exits_1(self):
        head = runs_of(TIGHT)
        head[4] = {"result": None, "checks": ["exit 1: build failed"]}
        _, status = guard(head)
        self.assertEqual(status, 1)

    def test_metric_missing_from_a_result_exits_1(self):
        head = runs_of(TIGHT)
        del head[1]["result"]["metrics"]["sensitivity"]
        lines, status = guard(head)
        self.assertEqual(status, 1)
        self.assertIn("failed: w1 sensitivity: missing from 1 result lines",
                      lines)

    def test_regression_outranks_unresolved(self):
        _, status = guard(runs_of(scaled(WIDE, 1.1)),
                          runs_of(scaled(TIGHT, 1.4)), w1_base=WIDE)
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()
