"""One workload of the benchmark, in one fresh process (spawned by run.py).

    python3 benchmark/worker.py --workload NAME --seed N --seconds S
                                --mode setup|measure|trace

Every mode first sets up: import ``jcas`` from ``src/`` of the checkout
that holds this file, make the seeded scenes, whose files run.py has
written under ``scene_dir(workload, seed)``, and make one untimed warm-up
run; ``setup_s`` is the time that takes, scaled to the quiet-host speed
(``Yardstick``).
``setup`` stops there. ``measure`` then runs
``jcas.cli.main(["simulate", ...])`` on the scenes in turn for ``--seconds``
and at least once on each, checking every output.
``trace`` runs each scene twice in a row, once with the layer spans
installed and once without, alternating which goes first, to get
per-layer numbers and the tracing overhead; it writes its spans to
``spans_path(workload, seed)``. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
from scenes import WORKLOADS, scene_paths, workload_scenes

ROOT = Path(__file__).resolve().parents[1]
BENCH_WORK = ROOT / ".bench_work"
# Runs are timed in blocks of at least this many seconds, each between two
# yardstick timings.
BLOCK_S = 0.25
# The yardstick's time on a quiet host; times are scaled to that speed.
YARDSTICK_S = 0.015


class Yardstick:
    """Fixed reference work, timed next to the program to gauge host speed.

    A shared host runs everything up to about twice as slowly, in spells
    of a second to minutes, so raw times of one set of runs can differ from
    another's by more than any bound could allow. The slowdown hits
    unrelated work alike: in a 300 s probe that alternated simulate runs of
    each workload with reference work of the kinds below, the medians over
    20 s windows of raw simulate times spread (quartile distance over
    median) by 0.30 to 0.35, and those of simulate time over reference
    time by 0.03 to 0.04. A time ``t`` measured while the yardstick takes
    ``y`` is reported as ``t * YARDSTICK_S / y``. The work is CSV-style
    text formatting and dictionary updates in Python and FFTs with numpy,
    the kinds of work ``simulate`` does. It never calls ``jcas``, and its
    FFT length, 512, is not one the program uses, so it warms no cache of
    the program's; no change to the program moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._field = rng.standard_normal((96, 512)) + 1j * rng.standard_normal((96, 512))
        self.time()  # warm-up: FFT plan and allocations

    def _work(self) -> int:
        text = "\n".join(f"{i},{i * 0.37:.6g},{(i % 97) * 1.5:.6g}" for i in range(8000))
        totals: dict[int, int] = {}
        for i in range(8000):
            totals[i % 1000] = totals.get(i % 1000, 0) + i
        peak = 0
        for _ in range(10):
            db = 20.0 * np.log10(np.abs(np.fft.fft(self._field, axis=1)) + 1e-12)
            peak += int(db.argmax())
        return len(text) + len(totals) + peak

    def time(self) -> float:
        """Seconds one pass of the reference work takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def work_dir(workload: str, seed: int) -> Path:
    """Scratch directory of one workload and seed: scene files and outputs."""
    return BENCH_WORK / f"{workload}-{seed}"


def scene_dir(workload: str, seed: int) -> Path:
    """Where run.py writes the scene files, once for all processes of a run."""
    return work_dir(workload, seed) / "scenes"


def spans_path(workload: str, seed: int) -> Path:
    return BENCH_WORK / f"spans_{workload}_{seed}.jsonl"


class Workbench:
    """Scene files, the loaded program and the failure tally of one process."""

    def __init__(self, workload: str, seed: int) -> None:
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import jcas.cli
        if not Path(jcas.cli.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"imported jcas from {jcas.cli.__file__}, not {src}")
        self.main = jcas.cli.main
        self.work = work_dir(workload, seed)
        self.workload = WORKLOADS[workload]
        self.scenes = workload_scenes(workload, seed)
        self.paths = scene_paths(self.scenes, scene_dir(workload, seed))
        self.attempted = 0
        self.failures: list[str] = []

    def simulate(self, k: int, out: Path, tracer=None) -> tuple[float, int | None]:
        """One ``simulate`` call on scene ``k``: (seconds, exit code or None).

        With a tracer, the call runs as one traced operation.
        """
        shutil.rmtree(out, ignore_errors=True)
        argv = ["simulate", "--scene", str(self.paths[k]),
                "--seed", str(self.scenes[k].sim_seed), "--out", str(out),
                *self.workload.simulate_args()]
        t0 = time.perf_counter()
        try:
            rc = tracer.run_op(lambda: self.main(argv)) if tracer else self.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc(file=sys.stderr)
            rc = None
        return time.perf_counter() - t0, rc

    def check(self, k: int, out: Path, rc: int | None) -> checks.OpCheck:
        """Count one attempted operation and check its output."""
        self.attempted += 1
        if rc != 0:
            result = checks.OpCheck(errors=[f"exit code {rc}"])
        else:
            try:
                result = checks.check_output(out, self.scenes[k], self.workload)
            except (ValueError, OSError) as exc:
                result = checks.OpCheck(errors=[f"unreadable output: {exc}"])
        if result.errors:
            self.fail(f"{self.scenes[k].name}: {'; '.join(result.errors)}")
        return result

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def multiply_check(bench: Workbench) -> dict[str, float]:
    """Counted multiplies of one frame on the naive path; ratio must be 2n."""
    from jcas.channel import LinkBudget, synthesize_diag, synthesize_grid, target_amplitudes
    from jcas.config import OfdmConfig
    from jcas.diag_estimator import diag_spectrum
    from jcas.grid_estimator import range_doppler_map
    from jcas.scenario import load_scene, targets_at
    from jcas.transforms import MultiplyCounter

    bench.attempted += 1
    scene = bench.scenes[0]
    diag, grid = MultiplyCounter(), MultiplyCounter()
    try:
        sf = load_scene(bench.paths[0])
        cfg = sf.ofdm or OfdmConfig.table1()
        targets = targets_at(sf.scene, scene.times_s[0])
        amps = target_amplitudes(cfg, LinkBudget(), targets, scene.sim_seed, 0)
        diag_spectrum(synthesize_diag(cfg, targets, amps), method="naive", counter=diag)
        range_doppler_map(synthesize_grid(cfg, targets, amps), method="naive", counter=grid)
    except Exception:  # a crash is a failed check, not a benchmark error
        traceback.print_exc(file=sys.stderr)
        bench.fail("multiply count: the naive transforms raised")
    else:
        if diag.count <= 0 or grid.count != 2 * cfg.n_diag * diag.count:
            bench.fail(f"multiply count: grid {grid.count} / diag {diag.count} "
                       f"is not 2n = {2 * cfg.n_diag}")
    return {"transforms.mults_diag_frame": diag.count,
            "transforms.mults_grid_frame": grid.count}


def _hit_rates(bench: Workbench, readings: dict[int, dict]) -> dict[str, float]:
    truths = range_hits = rv_hits = 0
    for k, scene in enumerate(bench.scenes):
        n, r, rv = checks.hits(scene, readings.get(k, {}))
        truths, range_hits, rv_hits = truths + n, range_hits + r, rv_hits + rv
    return {"truths": truths, "range_hit_rate": range_hits / truths,
            "rv_hit_rate": rv_hits / truths}


def measure(bench: Workbench, seconds: float, yardstick: Yardstick) -> dict:
    """Runs over all scenes in turn, for ``seconds`` and at least one round.

    The first scene runs once more after the round, so that at least one
    run is a re-run. Every run is timed and checked. The first run of each
    scene gives the hit rates; every re-run must write byte-identical
    files. Each run's time is scaled to the quiet-host speed by the
    yardstick timed before and after its block of runs (see
    ``Yardstick``). A scene's time is the median of its scaled runs;
    ``run_ms`` is the median and 90th percentile of those over all scenes,
    and ``frames_per_s`` divides all frames by their sum. The unscaled
    median is reported beside them as ``raw_run_ms.p50``.
    """
    n = len(bench.scenes)
    out = bench.work / "out"
    raw: list[list[float]] = [[] for _ in range(n)]
    scaled: list[list[float]] = [[] for _ in range(n)]
    readings: dict[int, dict] = {}
    digests: dict[int, dict[str, str]] = {}
    block: list[tuple[int, float]] = []
    before = yardstick.time()
    yard_times = [before]
    op, more, deadline = 0, True, time.perf_counter() + seconds
    while more:
        k = op % n
        elapsed, rc = bench.simulate(k, out)
        result = bench.check(k, out, rc)
        if op < n:
            readings[k], digests[k] = result.readings, result.digests
        elif not result.errors and result.digests != digests[k]:
            bench.fail(f"determinism: a re-run of {bench.scenes[k].name} differs")
        raw[k].append(elapsed)
        block.append((k, elapsed))
        op += 1
        more = op <= n or time.perf_counter() < deadline
        if not more or sum(t for _, t in block) >= BLOCK_S:
            after = yardstick.time()
            yard_times.append(after)
            scale = YARDSTICK_S / ((before + after) / 2)
            for j, t in block:
                scaled[j].append(t * scale)
            block, before = [], after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = multiply_check(bench)
    ms = [1000.0 * statistics.median(s) for s in scaled]
    return {
        "ops_timed": op,
        "run_ms.p50": statistics.median(ms),
        "run_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "frames_per_s": 1000.0 * sum(len(s.times_s) for s in bench.scenes) / sum(ms),
        "raw_run_ms.p50": 1000.0 * statistics.median(statistics.median(r) for r in raw),
        "yardstick_ms": 1000.0 * statistics.median(yard_times),
        "peak_rss_mb": peak_rss_mb,
        **_hit_rates(bench, readings),
        **counts,
    }


def trace(bench: Workbench, seconds: float, spans_file: Path) -> dict:
    """Paired traced and untraced runs; per-layer numbers of this process."""
    from tracer import Tracer

    tracer = Tracer()
    n = len(bench.scenes)
    out = bench.work / "out"
    ratios: list[float] = []
    rows = bytes_written = 0
    start = time.perf_counter()
    step = 0
    while step == 0 or time.perf_counter() - start < seconds:
        k = step % n
        elapsed = {}
        for traced in ((False, True) if step % 2 == 0 else (True, False)):
            elapsed[traced], rc = bench.simulate(k, out, tracer if traced else None)
            result = bench.check(k, out, rc)
            rows += result.rows_written
            bytes_written += result.bytes_written
        ratios.append(elapsed[True] / elapsed[False])
        step += 1
    tracer.write(spans_file)
    metrics = tracer.layer_metrics()
    metrics.update(multiply_check(bench))
    metrics["cli.rows_written"] = rows / (2 * step)
    metrics["cli.bytes_written"] = bytes_written / (2 * step)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["ops_traced"] = step
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = parser.parse_args(argv)

    bench = Workbench(args.workload, args.seed)
    prepared_s = time.perf_counter() - T_START
    # The warm-up run, most of the set-up time, is scaled by the yardstick
    # timed just before and after it; the yardstick's own set-up is left out.
    yardstick = Yardstick()
    before = yardstick.time()
    warmup_s, _ = bench.simulate(0, bench.work / "warmup")
    raw_setup_s = prepared_s + warmup_s
    scale = YARDSTICK_S / ((before + yardstick.time()) / 2)
    result = {"setup_s": raw_setup_s * scale, "raw_setup_s": raw_setup_s}
    if args.mode == "measure":
        result.update(measure(bench, args.seconds, yardstick))
    elif args.mode == "trace":
        result.update(trace(bench, args.seconds, spans_path(args.workload, args.seed)))
    result.update(attempted=bench.attempted, failed=len(bench.failures),
                  failures=bench.failures[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
