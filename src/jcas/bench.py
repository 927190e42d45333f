"""Complexity comparison of the two estimators' transform stages.

Counts complex multiplications in the naive transform kernels (one length-n
DFT needs n^2; the 2-D pass needs n row DFTs plus n column IDFTs, 2*n^3
total) and measures wall time. Counting is by explicit counter increments in
the kernels, never hardware counters, so the numbers are portable and exact:
the grid/diagonal ratio is 2n for every n. FFT timings are reported as
supplementary rows only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import transforms

ALGORITHMS = ("grid2d", "diag")


@dataclass(frozen=True)
class OpCount:
    complex_multiplies: int
    transform_label: str
    n: int


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    n: int
    counted_multiplies: int
    wall_time_ns: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    ratio_counted: dict[int, float]
    ratio_time: dict[int, float]


def _synthetic_input(n: int, ndim: int) -> np.ndarray:
    k = np.arange(n)
    tone = np.exp(2j * np.pi * 3.25 * k / n)
    if ndim == 1:
        return tone
    return np.outer(np.exp(-2j * np.pi * 5.5 * k / n), tone)


def _run_naive(algorithm: str, n: int,
               counter: transforms.MultiplyCounter | None) -> np.ndarray:
    x = _synthetic_input(n, 2 if algorithm == "grid2d" else 1)
    if algorithm == "grid2d":
        y = transforms.naive_dft(x, axis=1, counter=counter)
        return transforms.naive_idft(y, axis=0, counter=counter)
    if algorithm == "diag":
        return transforms.naive_dft(x, counter=counter)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")


def _run_fast(algorithm: str, n: int) -> np.ndarray:
    x = _synthetic_input(n, 2 if algorithm == "grid2d" else 1)
    if algorithm == "grid2d":
        return transforms.fast_idft(transforms.fast_dft(x, axis=1), axis=0)
    return transforms.fast_dft(x)


def count_ops(algorithm: str, n: int) -> OpCount:
    """Execute the instrumented naive transform and report its multiply count."""
    if n < 2:
        raise ValueError("n must be >= 2")
    counter = transforms.MultiplyCounter()
    _run_naive(algorithm, n, counter)
    return OpCount(complex_multiplies=counter.count, transform_label=algorithm, n=n)


def _median_time_ns(fn, repeats: int) -> int:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


def run_bench(sizes: list[int], repeats: int = 5,
              include_fast: bool = True, time_runs: bool = True) -> BenchReport:
    """Counted multiplies (count_ops) and median wall time per algorithm and
    size. repeats below 3 gives too noisy a median and is rejected.
    """
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    rows: list[BenchRow] = []
    ratio_counted: dict[int, float] = {}
    ratio_time: dict[int, float] = {}
    for n in sizes:
        counted: dict[str, int] = {}
        wall: dict[str, int] = {}
        for algorithm in ALGORITHMS:
            counted[algorithm] = count_ops(algorithm, n).complex_multiplies
            wall[algorithm] = (_median_time_ns(lambda: _run_naive(algorithm, n, None),
                                               repeats) if time_runs else 0)
            rows.append(BenchRow(algorithm, n, counted[algorithm], wall[algorithm]))
        if include_fast:
            for algorithm in ALGORITHMS:
                t = (_median_time_ns(lambda: _run_fast(algorithm, n), repeats)
                     if time_runs else 0)
                rows.append(BenchRow(f"{algorithm}_fft", n, 0, t))
        ratio_counted[n] = counted["grid2d"] / counted["diag"]
        if time_runs and wall["diag"] > 0:
            ratio_time[n] = wall["grid2d"] / wall["diag"]
    return BenchReport(rows=tuple(rows), ratio_counted=ratio_counted,
                       ratio_time=ratio_time)
