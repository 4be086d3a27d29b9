"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py             # everything, about 2.5 minutes
    python3 perfbench/selftest.py Arithmetic  # the fast arithmetic checks only

``Arithmetic`` covers self-time accounting on synthetic nested spans, the
percentile and windowed-median rules and the NaN-safe output checks.
``Smoke`` runs every workload briefly, untraced and traced, from the root
of the checkout and checks that the result line carries exactly the
metrics BENCHMARK.json names, each with its unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

import checks
import run
from tracing import Tracer, aggregate, self_times

ROOT = os.path.dirname(run.HERE)


class Arithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        spans = [
            ["outer", 0.0, 10.0, -1],
            ["child", 1.0, 4.0, 0],
            ["grandchild", 2.0, 3.0, 1],
            ["child", 5.0, 9.0, 0],
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])
        rows = aggregate(spans)
        self.assertEqual(rows["child"]["calls"], 2)
        self.assertEqual(rows["child"]["self_s"], 6.0)
        self.assertEqual(rows["child"]["total_s"], 7.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ["parent", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],
            ["c", 9.0, 12.0, 0],
        ]
        self.assertEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_tracer_records_parents(self):
        tracer = Tracer("test")

        def inner():
            return 1

        traced_inner = tracer.wrap(inner, "inner")

        def outer():
            return traced_inner() + traced_inner()

        self.assertEqual(tracer.wrap(outer, "outer")(), 2)
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual(parents, [-1, 0, 0])
        own = self_times(tracer.spans)
        self.assertTrue(all(t >= 0.0 for t in own))

    def test_percentile_rule(self):
        samples = [float(x) for x in range(1, 101)]
        self.assertEqual(run.percentile(samples, 0.5), 50.0)
        self.assertEqual(run.percentile(samples, 0.9), 90.0)
        self.assertEqual(run.samples_beyond(100, 0.9), 10)
        self.assertEqual(run.percentile(list(reversed(samples)), 0.9), 90.0)
        self.assertEqual(run.percentile([7.0], 0.9), 7.0)
        self.assertEqual(run.percentile([1.0, 2.0], 0.9), 2.0)
        self.assertEqual(run.samples_beyond(2, 0.9), 0)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_windowed_median(self):
        # two windows, medians 2 and 20; the trailing partial window is left out
        samples = [1.0, 2.0, 9.0, 10.0, 20.0, 30.0, 100.0]
        self.assertEqual(run.windowed_median(samples, 3), 11.0)
        self.assertEqual(run.windowed_median([5.0, 1.0, 3.0], 50), 3.0)
        with self.assertRaises(ValueError):
            run.windowed_median([], 50)

    def test_nan_fails_every_comparison(self):
        nan = float("nan")
        self.assertFalse(checks.within(nan, 1.0))
        self.assertFalse(checks.within(float("inf"), 1.0))
        self.assertTrue(checks.within(0.5, 1.0))
        # max() would report 0.0 here and pass
        self.assertEqual(max([0.0, nan]), 0.0)
        self.assertFalse(checks.all_within([0.0, nan], 1.0))
        self.assertFalse(checks.all_within([], 1.0))
        # validate_two_jet reports passed=True when a non-first residual is NaN
        self.assertFalse(checks.jet_valid((True, {"curvature": 0.0, "derivative": nan})))
        self.assertTrue(checks.jet_valid((True, {"curvature": 0.0, "derivative": 1e-12})))
        report = {"ricci_proportional": 0.0, "ricci_derivative": 0.0,
                  "tableau_trace_defect": nan, "form_trace_defect": 0.0}
        self.assertFalse(checks.einstein_verdicts_agree(True, report))
        report["tableau_trace_defect"] = 0.0
        self.assertTrue(checks.einstein_verdicts_agree(True, report))
        self.assertFalse(checks.einstein_verdicts_agree(False, report))

    def test_check_report_parsing(self):
        text = (
            "PASS  a/n3/x  residual 1.000e-12  (<= 1.0e-09)\n"
            "FAIL  a/n3/y  residual 2.000e-03  (<= 1.0e-09)\n"
            "PASS  a/n3/z  residual nan  (<= 1.0e-09)\n"
            "summary: FAIL (3 checks)\n"
        )
        self.assertEqual(len(checks.parse_check_text(text)), 3)
        bad = checks.check_report_failures(text, ["a/n3/x", "a/n3/y", "a/n3/z", "a/n3/w"])
        self.assertEqual(bad, ["a/n3/y", "a/n3/z", "a/n3/w"])
        self.assertEqual(len(checks.expected_check_names()), 110)

    def test_hook_content_dimensions(self):
        dims = [checks.hook_content_dim(n, k) for n in (3, 4, 5) for k in (0, 1, 2)]
        self.assertEqual(dims, [6, 15, 27, 20, 60, 126, 50, 175, 420])


def _bench_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Smoke(unittest.TestCase):
    def _run(self, workload: str, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def _check(self, trace: int, section: str) -> None:
        expected = _bench_metrics(section)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self._run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, expected)

    def test_end_to_end_metrics(self):
        self._check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self._check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
