#!/usr/bin/env python3
"""Benchmark of ``jcas simulate`` on seeded highway scenes.

    python3 benchmark/run.py --workload diag-track|grid-map|scene-sweep
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each process it starts runs one workload single-threaded
(BLAS/OpenMP pinned to one thread), one process at a time. With
``--trace 0`` it makes ``SETUP_SAMPLES - 1`` set-up-only processes and one
measuring process, half of the former before it and half after, and
reports the end-to-end metrics; ``setup_s`` is the median set-up time of
all of them. Times are scaled to the speed of a quiet host by reference
work timed next to them (``worker.Yardstick``); the unscaled medians are
printed in the table. With ``--trace 1`` one tracing process reports the
per-layer metrics and writes its spans to
``.bench_work/spans_<workload>_<seed>.jsonl``. The operation count and
a readable table of the metrics, with ``TABLE_ONLY`` and ``fail_rate``
besides, go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}

# (name, unit) in the order they are reported; the same names as BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("run_ms.p50", "ms"), ("frames_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("range_hit_rate", "fraction"),
              ("rv_hit_rate", "fraction")]
# Printed in the table only: the unscaled times and the yardstick time, which
# show how fast the host ran, and the 90th percentile of scene times, which
# has fewer than ten of the 60 or 64 diag-track and grid-map scenes beyond it.
TABLE_ONLY = [("run_ms.p90", "ms"), ("raw_setup_s", "s"), ("raw_run_ms.p50", "ms"),
              ("yardstick_ms", "ms")]


def per_layer_units() -> list[tuple[str, str]]:
    from tracer import LAYER_FUNCTIONS

    out = [(f"{layer}.{f}_ms", "ms") for layer, names in LAYER_FUNCTIONS.items()
           for f in names]
    out += [("cli.self_ms", "ms"), ("cli.rows_written", "count"),
            ("cli.bytes_written", "bytes"),
            ("tracking.tracks_alive", "count"), ("tracking.tracks_opened", "count"),
            ("tracking.resolved_fraction", "fraction"),
            ("diag_estimator.peaks_per_frame", "count"),
            ("diag_estimator.pairs_per_frame", "count"),
            ("diag_estimator.orphans_per_frame", "count"),
            ("diag_estimator.pair_yield", "fraction"),
            ("grid_estimator.cells_above_threshold", "count"),
            ("grid_estimator.detections_per_frame", "count"),
            ("transforms.mults_diag_frame", "count"),
            ("transforms.mults_grid_frame", "count"),
            ("trace.overhead_pct", "%")]
    return out


def run_worker(args: argparse.Namespace, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from scenes import WORKLOADS, workload_scenes, write_scenes
    from worker import scene_dir, work_dir

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jcas" / "cli.py").is_file():
        print(f"error: no jcas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = work_dir(args.workload, args.seed)
    shutil.rmtree(work, ignore_errors=True)
    try:
        # Written once here: writing thousands of small files takes a time
        # that varies with the file system, not with the program.
        write_scenes(workload_scenes(args.workload, args.seed),
                     scene_dir(args.workload, args.seed))
        if args.trace:
            result = run_worker(args, "trace")
            units = per_layer_units()
            count_key = "ops_traced"
        else:
            before = [run_worker(args, "setup") for _ in range(SETUP_SAMPLES // 2)]
            result = run_worker(args, "measure")
            after = [run_worker(args, "setup") for _ in range(SETUP_SAMPLES // 2)]
            for key in ("setup_s", "raw_setup_s"):
                result[key] = statistics.median(r[key] for r in before + [result] + after)
            units = END_TO_END
            count_key = "ops_timed"
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{count_key} {result[count_key]}"
          + (f"  truths {result['truths']}" if "truths" in result else ""))
    for name, unit in units + ([] if args.trace else TABLE_ONLY):
        print(f"  {name:<40} {result[name]:>14.6g} {unit}")
    print(f"  {'fail_rate':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for message in result["failures"]:
        print(f"  failed: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
