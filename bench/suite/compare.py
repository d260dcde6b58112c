#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the reports `run.py --save DIR` writes, one JSON file
per run. Runs of one workload pair up by seed (in file-name order within a
seed), so make them as alternating pairs: for each seed, run one side and
then the other, switching which side goes first every time.

For every (workload, metric) it prints each side's median and quartiles
and how many pairs the change won, then one verdict:

  gain         the change wins >= 9/10 of the pairs (ties count for neither)
               and the medians differ by more than the parent's quartile
               spread
  unresolved   either side's quartile spread exceeds the bound and not every
               change run beats every parent run
  regression   the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json
  slower       the mirror of gain: the change loses >= 9/10 of the pairs and
               the medians differ by more than the parent's quartile spread,
               but by less than the bound
  unchanged    none of the above
  too-few      fewer than 10 pairs

Per-layer metrics have no bound: they get gain, slower or unchanged. Work
counts of traced runs are compared exactly ("same" or "changed"); counts
that differ between two runs of one commit with one seed are a problem, and
so is a run with invalid timings (an open-loop generator that ran late).
Exits 1 if any metric regressed, any run failed its correctness check or
any run is invalid.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_RATE = 0.9


def load_runs(directory):
    """{(workload, trace): {seed: [report, ...]}} from one side's files."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        key = (report["workload"], int(report["trace"]))
        runs.setdefault(key, {}).setdefault(report["seed"], []).append(report)
    return runs


def pair_up(parent, change):
    """Pairs runs of equal seed, in order; unmatched runs are dropped."""
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        pairs += list(zip(parent[seed], change[seed]))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Applies the section-8 rules to paired values of one metric."""
    n = len(parent)
    if n < MIN_PAIRS:
        return "too-few", 0
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    c_lo, c_hi = quartiles(change)
    if wins >= WIN_RATE * n and sign * (c_med - p_med) > p_hi - p_lo:
        return "gain", wins
    slower = losses >= WIN_RATE * n and sign * (p_med - c_med) > p_hi - p_lo
    if bound is None:
        return ("slower" if slower else "unchanged"), wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p_hi - p_lo) / abs(p_med) if p_med else 0.0,
                 (c_hi - c_lo) / abs(c_med) if c_med else 0.0)
    if spread > bound and not all_better:
        return "unresolved", wins
    if p_med and sign * (c_med - p_med) / abs(p_med) < -bound:
        return "regression", wins
    return ("slower" if slower else "unchanged"), wins


def compare(parent_dir, change_dir, bench):
    """Returns (rows, problems): one row per (workload, metric)."""
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows, problems = [], []
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if key not in parent or key not in change:
            problems.append(f"{workload} trace={trace}: runs on one side only")
            continue
        pairs = pair_up(parent[key], change[key])
        for side, runs in (("parent", parent[key]), ("change", change[key])):
            for reports in runs.values():
                for r in reports:
                    if not r["correct"] or r["failed"]:
                        problems.append(f"{side} {workload} seed {r['seed']}: "
                                        f"correct={r['correct']} "
                                        f"failed={r['failed']}")
                    for reason in r.get("invalid", []):
                        problems.append(f"{side} {workload} seed {r['seed']}: "
                                        f"invalid timings ({reason}); run "
                                        f"the pair again")
            for seed, reports in runs.items():
                if any(r.get("counts") != reports[0].get("counts")
                       for r in reports):
                    problems.append(f"{side} {workload} seed {seed}: work "
                                    f"counts differ between runs of one "
                                    f"commit")
        counts = sorted({n for p, c in pairs for n in p.get("counts", {})})
        for name in counts:
            same = all(p["counts"].get(name) == c.get("counts", {}).get(name)
                       for p, c in pairs)
            pv = [p["counts"][name] for p, c in pairs]
            cv = [c.get("counts", {}).get(name, 0) for p, c in pairs]
            rows.append({
                "workload": workload, "metric": "counts." + name,
                "pairs": len(pairs),
                "parent": (statistics.median(pv),) + quartiles(pv),
                "change": (statistics.median(cv),) + quartiles(cv),
                "wins": 0, "verdict": "same" if same else "changed",
            })
        names = sorted({n for p, c in pairs for n in p["metrics"]} &
                       {n for p, c in pairs for n in c["metrics"]})
        for name in names:
            m = declared.get(name, {"better": "lower"})
            pv = [p["metrics"][name]["value"] for p, c in pairs]
            cv = [c["metrics"][name]["value"] for p, c in pairs]
            result, wins = verdict(pv, cv, m["better"], m.get("bound"))
            rows.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "parent": (statistics.median(pv),) + quartiles(pv),
                "change": (statistics.median(cv),) + quartiles(cv),
                "wins": wins, "verdict": result,
            })
    return rows, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parents[2] /
                    "BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads(args.benchmark.read_text())
    rows, problems = compare(args.parent, args.change, bench)
    fmt = "{:<16} {:<30} {:>5} {:>34} {:>34} {:>6}  {}"
    print(fmt.format("workload", "metric", "pairs", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "verdict"))
    for r in rows:
        print(fmt.format(r["workload"], r["metric"], r["pairs"],
                         "%.5g [%.5g, %.5g]" % r["parent"],
                         "%.5g [%.5g, %.5g]" % r["change"],
                         f"{r['wins']}/{r['pairs']}", r["verdict"]))
    for p in problems:
        print(f"PROBLEM: {p}")
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
