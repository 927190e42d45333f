#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread of each metric.

    python3 benchmark/sweep.py [--workload NAME ...] [--seeds 1 2 ...]
                               [--json FILE]

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound in BENCHMARK.json,
and flags a spread of a third of the bound or more; the exit code is 3
if any metric is flagged. ``--json`` also writes those figures with the
raw values. Runs are made
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    report = {"machine": {"cpus": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(),
                          "numpy": version("numpy")},
              "seeds": args.seeds, "seconds": spec["run_seconds"],
              "hit_tolerances": {"range_m": checks.RANGE_TOL_M,
                                 "velocity_mps": checks.VELOCITY_TOL_MPS},
              "workloads": {}}
    worst_ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        start = time.monotonic()
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs in {time.monotonic() - start:.0f} s, "
              f"{failed} failed operations")
        rows = report["workloads"][workload] = {}
        for m in spec["end_to_end"]:
            s = rows[m["name"]] = summary([r["metrics"][m["name"]]["value"] for r in runs])
            flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            worst_ok &= flag == "ok"
            print(f"  {m['name']:<40} median {s['median']:12.6g} {m['unit']:<8} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.4f}"
                  f" bound {m['bound']} {flag}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if worst_ok else 3


if __name__ == "__main__":
    sys.exit(main())
