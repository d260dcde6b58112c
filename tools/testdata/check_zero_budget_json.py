"""Checks the --json report of a zero-budget `kdvtool render`.

The certified attempt is skipped, so the coarse stand-in ships: tier
"coarse", certified at 3x the requested eps, and the reported seconds time
the whole render (the stand-in included), not the skipped attempt.

    python3 check_zero_budget_json.py path/to/kdvtool
"""
import json
import subprocess
import sys

EPS = 0.02

out = subprocess.run(
    [sys.argv[1], "render", "--dataset", "crime", "--scale", "0.001",
     "--width", "48", "--eps", str(EPS), "--budget-ms", "0", "--json",
     "--out", "kdvtool_zero_budget_json.ppm"],
    check=True, capture_output=True, text=True).stdout
report = json.loads(out)
assert report["tier"] == "coarse", report
assert report["deadline_expired"] is True, report
assert abs(report["certified_eps"] - 3 * EPS) < 1e-9, report
assert report["seconds"] > 0, report
assert report["work"]["queries"] == 0, report  # no certified attempt ran
print("zero-budget render:", report["tier"], report["certified_eps"],
      report["seconds"])
