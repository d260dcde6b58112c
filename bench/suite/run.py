#!/usr/bin/env python3
"""Builds kdv_bench from this checkout and runs benchmark workloads.

One run (the form BENCHMARK.json's command takes):

    python3 bench/suite/run.py --workload serve_hot --seed 3 --seconds 18 --trace 0

prints one JSON object as its last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, with --trace 1
its per_layer ones (and the spans go to <build dir>/traces/).

Every workload, untraced then traced, each in a fresh process:

    python3 bench/suite/run.py [--seed N] [--seconds S] [--smoke]

prints `workload metric value unit (n=samples)` lines and exits non-zero if
any output fails its correctness check. --smoke shrinks every workload (see
"smoke" in workloads.json) to a seconds-long pipeline check.

Workload parameters live in workloads.json; run.py passes them to the
kdv_bench as flags and checks that BENCHMARK.json names the same workloads.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def load_definitions():
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(SUITE / "workloads.json")["workloads"]
    declared = [(w["name"], w["why"]) for w in bench["workloads"]]
    defined = [(w["name"], w["why"]) for w in workloads]
    if declared != defined:
        raise BenchError("BENCHMARK.json and workloads.json disagree on the "
                         "workloads (names or whys)")
    return bench, {w["name"]: w for w in workloads}


def build(build_dir):
    """Configures (once) and builds kdv_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "kdv_bench"])
    for cmd in steps:
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {' '.join(cmd)}: {e}")
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "kdv_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def workload_flags(workload, seed, seconds, trace, trace_out, smoke):
    params = {k: v for k, v in workload.items() if k not in ("why", "smoke")}
    if smoke:
        params.update(workload.get("smoke", {}))
    params.update(seed=seed, seconds=seconds, trace=int(trace),
                  trace_out=trace_out)
    flags = []
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += [f"--{key}", str(value)]
    return flags


def run_workload(binary, build_dir, bench, workload, seed, seconds, trace,
                 smoke=False):
    """Runs one workload in a fresh process; returns kdv_bench's report."""
    trace_out = ""
    if trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = str(trace_dir / f"{workload['name']}-seed{seed}.json")
    cmd = [str(binary)] + workload_flags(workload, seed, seconds, trace,
                                       trace_out, smoke)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload['name']} did not finish in "
                         f"{RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise BenchError(f"kdv_bench exited {out.returncode} on "
                         f"{workload['name']}")
    lines = out.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict):
        raise BenchError("kdv_bench printed no report")

    # The report must carry exactly the declared metrics, in their units,
    # as finite numbers (end-to-end ones never 0).
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = report["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"metric set mismatch on {workload['name']}: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics[m["name"]]
        value = got["value"]
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']} reported in {got['unit']}, "
                             f"declared in {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{m['name']} is not a finite number: {value}")
        if not trace and value <= 0:
            raise BenchError(f"end-to-end metric {m['name']} reads {value}")
    for problem in report["problems"]:
        sys.stderr.write(f"{workload['name']}: {problem}\n")
    for reason in report["invalid"]:
        sys.stderr.write(f"{workload['name']}: invalid timings: {reason}\n")
    report["correct"] = not report["problems"]
    return report


def save(report, directory):
    """Keeps the full report for compare.py, never overwriting a run."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-t{int(report['trace'])}-s{report['seed']}"
    n = 0
    while (directory / f"{stem}-{n:03d}.json").exists():
        n += 1
    (directory / f"{stem}-{n:03d}.json").write_text(json.dumps(report))


def contract_line(report):
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every workload, strict validation")
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / ".bench_build" / "suite")
    ap.add_argument("--save", type=Path,
                    help="also write each run's full report here "
                         "(input of compare.py)")
    args = ap.parse_args()

    try:
        bench, workloads = load_definitions()
        if args.workload is not None and args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload}")
        binary = build(args.build_dir.resolve())
        seconds = args.seconds
        if seconds is None:
            seconds = 0.5 if args.smoke else bench["run_seconds"]

        if args.workload is not None:
            report = run_workload(binary, args.build_dir, bench,
                                  workloads[args.workload], args.seed,
                                  seconds, args.trace, args.smoke)
            if args.save is not None:
                save(report, args.save)
            print(contract_line(report))
            return 0

        ok = True
        for name, workload in workloads.items():
            for trace in (0, 1):
                report = run_workload(binary, args.build_dir, bench, workload,
                                      args.seed, seconds, trace, args.smoke)
                if args.save is not None:
                    save(report, args.save)
                for metric, m in report["metrics"].items():
                    print(f"{name} {metric} {m['value']:.6g} {m['unit']} "
                          f"(n={m['samples']})")
                print(f"{name} attempted {report['attempted']} count")
                print(f"{name} failed {report['failed']} count")
                for count, value in sorted(report["counts"].items()):
                    print(f"{name} counts.{count} {value} count")
                if not report["correct"] or (args.smoke and report["failed"]):
                    print(f"{name} FAILED its correctness check "
                          f"(trace={trace})")
                    ok = False
                for reason in report["invalid"]:
                    print(f"{name} INVALID timings (trace={trace}): {reason}")
                sys.stdout.flush()
        return 0 if ok else 1
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
