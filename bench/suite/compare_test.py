#!/usr/bin/env python3
"""Self-test of compare.py on synthetic run reports."""
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "lat_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "px_per_s", "unit": "px/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "core.refine_us_per_px", "unit": "us",
                   "better": "lower"}],
}


def write_side(directory, metric_values, counts=None, workload="w"):
    """One report per seed; metric_values maps name -> list over seeds."""
    n = len(next(iter(metric_values.values())))
    for seed in range(n):
        report = {
            "workload": workload, "seed": seed, "trace": 0, "correct": True,
            "attempted": 10, "failed": 0,
            "metrics": {name: {"value": values[seed], "unit": "x"}
                        for name, values in metric_values.items()},
            "counts": counts[seed] if counts else {},
        }
        (Path(directory) / f"{workload}-s{seed}.json").write_text(
            json.dumps(report))


def around(center, rel_noise, n=10, seed=0):
    rng = random.Random(seed)
    return [center * (1 + rel_noise * rng.uniform(-1, 1)) for _ in range(n)]


class CompareTest(unittest.TestCase):
    def run_compare(self, parent, change, counts=(None, None)):
        with tempfile.TemporaryDirectory() as p, \
                tempfile.TemporaryDirectory() as c:
            write_side(p, parent, counts[0])
            write_side(c, change, counts[1])
            rows, problems = compare.compare(p, c, BENCH)
        return {r["metric"]: r["verdict"] for r in rows}, problems

    def test_gain_needs_nine_of_ten_wins(self):
        verdicts, _ = self.run_compare(
            {"px_per_s": around(100, 0.01, seed=1)},
            {"px_per_s": around(130, 0.01, seed=2)})
        self.assertEqual(verdicts["px_per_s"], "gain")
        # Eight wins of ten is not a gain even though the median moved.
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0] * 2
        verdicts, _ = self.run_compare({"px_per_s": parent},
                                       {"px_per_s": change})
        self.assertEqual(verdicts["px_per_s"], "unchanged")

    def test_regression_beyond_bound(self):
        verdicts, _ = self.run_compare(
            {"lat_ms_p50": around(100, 0.01, seed=3)},
            {"lat_ms_p50": around(125, 0.01, seed=4)})
        self.assertEqual(verdicts["lat_ms_p50"], "regression")

    def test_change_within_noise_is_unchanged(self):
        verdicts, _ = self.run_compare(
            {"lat_ms_p50": around(100, 0.03, seed=5)},
            {"lat_ms_p50": around(101, 0.03, seed=6)})
        self.assertEqual(verdicts["lat_ms_p50"], "unchanged")

    def test_consistent_slowdown_within_bound_is_slower(self):
        verdicts, _ = self.run_compare(
            {"lat_ms_p50": around(100, 0.01, seed=11),
             "core.refine_us_per_px": around(10, 0.01, seed=12)},
            {"lat_ms_p50": around(106, 0.01, seed=13),
             "core.refine_us_per_px": around(11, 0.01, seed=14)})
        self.assertEqual(verdicts["lat_ms_p50"], "slower")
        self.assertEqual(verdicts["core.refine_us_per_px"], "slower")

    def test_spread_wider_than_bound_is_unresolved(self):
        verdicts, _ = self.run_compare(
            {"lat_ms_p50": around(100, 0.4, seed=7)},
            {"lat_ms_p50": around(100, 0.4, seed=8)})
        self.assertEqual(verdicts["lat_ms_p50"], "unresolved")

    def test_too_few_pairs(self):
        verdicts, _ = self.run_compare({"px_per_s": around(100, 0.01, n=9)},
                                       {"px_per_s": around(200, 0.01, n=9)})
        self.assertEqual(verdicts["px_per_s"], "too-few")

    def test_per_layer_metric_has_no_regression_verdict(self):
        verdicts, _ = self.run_compare(
            {"core.refine_us_per_px": around(10, 0.01, seed=9)},
            {"core.refine_us_per_px": around(20, 0.01, seed=10)})
        self.assertEqual(verdicts["core.refine_us_per_px"], "slower")

    def test_counts_compared_exactly(self):
        same = [{"iterations": 7}] * 10
        verdicts, problems = self.run_compare(
            {"px_per_s": [1.0] * 10}, {"px_per_s": [1.0] * 10},
            counts=(same, same))
        self.assertEqual(verdicts["counts.iterations"], "same")
        self.assertEqual(problems, [])
        fewer = [{"iterations": 6}] * 10
        verdicts, _ = self.run_compare(
            {"px_per_s": [1.0] * 10}, {"px_per_s": [1.0] * 10},
            counts=(same, fewer))
        self.assertEqual(verdicts["counts.iterations"], "changed")

    def test_failed_and_invalid_runs_are_problems(self):
        with tempfile.TemporaryDirectory() as p, \
                tempfile.TemporaryDirectory() as c:
            write_side(p, {"px_per_s": [1.0] * 10})
            write_side(c, {"px_per_s": [1.0] * 10})
            for name, field, value in (("w-s3.json", "failed", 2),
                                       ("w-s5.json", "invalid", ["late"])):
                bad = Path(c) / name
                report = json.loads(bad.read_text())
                report[field] = value
                bad.write_text(json.dumps(report))
            _, problems = compare.compare(p, c, BENCH)
        self.assertEqual(len(problems), 2)


if __name__ == "__main__":
    unittest.main()
